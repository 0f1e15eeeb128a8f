(* serve-churn: SOLVEs on a hot key set interleaved with MUTATE batches,
   at a fixed rate into a one-shard fleet on a Barabási–Albert topology
   (n=2000, 3 links per new vertex, generator seed 22: about 1.2e4
   directed edges).

   Every key is k=1 with a loose delay bound, so a miss is a cold or warm
   re-solve of a few milliseconds and the cycle search does no work. The
   hot set is large enough that most queries miss, so most requests cost
   a solve rather than a cache hit. (k=2 keys are left out:
   a del that cuts one path of a cached k=2 answer sends the next request
   into a warm repair that can run about 600 ms on this graph, a few times
   per run at random, which no bound survives; README.md has the numbers.)
   One slot in ten is a MUTATE batch of 1-3 ops in E22's mix: 25% del, 70%
   non-decreasing rew, 5% ins. del and rew are restrictive, so the engine
   invalidates only the cached entries whose paths use a mutated edge; ins
   is expansive and flushes the cache. The seed draws the keys, the ops and
   the sequence. Ops are generated against a replica that applies them as
   the engine does, so del and rew always name live edges, and ins only
   adds an edge between vertices with no live edge in that direction.

   Requests are due one per 20 ms, except that the second of every five
   is due together with the first and waits for it: a fifth of the
   requests sit in the shard's queue behind one request. The tail
   (the 90th percentile of 100-request segments) then falls among those
   queued requests, whose latencies are sums of two services.
   With every request due on its own, the tail fell on the upper range of
   single solve times, which the host's jitter moves most (README.md). *)

open Common
module Protocol = Krsp_server.Protocol

let hot_keys = 128
let churn_pct = 10
let rate = 50.
let warm = 400
let loose_bound = 100_000_000

let topology () =
  let g =
    Krsp_gen.Topology.barabasi_albert (X.create ~seed:22) ~n:2000 ~attach:3
      Krsp_gen.Topology.default_weights
  in
  assert_simple g;
  g

(* Draws from a deck: the seed shuffles [cards], which are dealt in that
   order and reshuffled when exhausted. The op mix and the churn rate then
   hold exactly over every deck rather than on average, so a run is not at
   the mercy of how many cache-flushing inserts the seed happens to draw.
   Hot keys are dealt the same way. *)
let deck rng cards =
  let d = Array.of_list cards in
  let next = ref (Array.length d) in
  fun () ->
    if !next = Array.length d then begin
      X.shuffle rng d;
      next := 0
    end;
    incr next;
    d.(!next - 1)

(* E22's op mix: 25% del, 70% rew, 5% ins *)
let op_deck rng = deck rng (List.init 20 (fun i -> if i < 5 then `Del else if i < 19 then `Rew else `Ins))

(* Draws one op of [kind] against [sim] and applies it there, or returns
   [None] when no candidate edge turned up in a few draws. *)
let gen_op rng sim kind =
  let n = G.n sim in
  let rec live_edge tries =
    if tries = 0 then None
    else
      let e = X.int rng (G.m sim) in
      if G.alive sim e then Some e else live_edge (tries - 1)
  in
  let op =
    match kind with
    | `Del -> Option.map (fun e -> Protocol.Del { u = G.src sim e; v = G.dst sim e }) (live_edge 16)
    | `Rew ->
      Option.map
        (fun e ->
          let u = G.src sim e and v = G.dst sim e in
          let es = live sim u v in
          let cost = X.int rng 3 + List.fold_left (fun a e -> max a (G.cost sim e)) 0 es in
          let delay = X.int rng 2 + List.fold_left (fun a e -> max a (G.delay sim e)) 0 es in
          Protocol.Rew { u; v; cost; delay })
        (live_edge 16)
    | `Ins ->
      let rec pick tries =
        if tries = 0 then None
        else
          let u = X.int rng n and v = X.int rng n in
          if u = v || live sim u v <> [] then pick (tries - 1)
          else begin
            let cost = 1 + X.int rng 20 and delay = 1 + X.int rng 20 in
            Some (Protocol.Ins { u; v; cost; delay })
          end
      in
      pick 16
  in
  Option.iter (fun op -> ignore (Serve.apply_ops sim [ op ])) op;
  op

let make ~seed ~seconds =
  let g = topology () in
  let n = G.n g in
  let rng = X.create ~seed in
  let keys =
    Array.init hot_keys (fun _ ->
        let src = X.int rng n in
        let dst = (src + 1 + X.int rng (n - 1)) mod n in
        Serve.slot (Protocol.Solve { src; dst; k = 1; delay_bound = loose_bound; epsilon = None }))
  in
  let sim = G.copy g in
  let measured = int_of_float (rate *. seconds) in
  let is_mutation = deck rng (List.init (100 / churn_pct) (fun i -> i = 0)) in
  let batch_size = deck rng [ 1; 2; 3 ] in
  let next_op = op_deck rng in
  let next_key = deck rng (List.init hot_keys Fun.id) in
  let slots =
    Array.init (warm + measured) (fun _ ->
        if is_mutation () then begin
          let kinds = List.init (batch_size ()) (fun _ -> next_op ()) in
          match List.filter_map (gen_op rng sim) kinds with
          | [] -> Serve.slot Protocol.Ping (* every draw failed; MUTATE needs an op *)
          | ops -> Serve.slot (Protocol.Mutate { ops })
        end
        else keys.(next_key ()))
  in
  { Serve.graph = g; slots; warm; rate; burst = 2; every = 5 }
