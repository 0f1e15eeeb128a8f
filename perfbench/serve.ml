(* Driving a one-shard [Shard] fleet from the benchmark's main domain, the
   way krspd's socket front does: [Shard.submit] with a completion hook
   that runs on the shard's worker domain.

   A serving workload is a schedule of request lines. Its first [warm]
   slots are a warm-up prefix, replayed closed-loop during set-up; the rest
   is the measured part. Three phases use it:

   - open loop: the measured part is submitted at a fixed rate, each
     request exactly once, with the first [burst] requests of every
     [every] due at the same time; latency runs from the scheduled
     arrival;
   - saturation: the measured part is replayed closed-loop (a shed
     request is retried) on a fresh warmed fleet, giving the throughput;
   - check: after the run, a shadow replica of the topology is walked
     through the schedule and every answer is certified against the
     topology that was live when it was given. *)

open Common
module Shard = Krsp_server.Shard
module Engine = Krsp_server.Engine
module Protocol = Krsp_server.Protocol

type slot = { line : string; req : Protocol.request }

type workload = {
  graph : G.t;
  slots : slot array;
  warm : int;
  rate : float;  (* offered open-loop rate, req/s *)
  burst : int;  (* requests due at the same time ... *)
  every : int;  (* ... at the start of every this many slots *)
}

(* Requests per segment. The measured part is cut into segments of this
   many requests, in the open loop for the latency percentiles and in the
   replay for the throughput, and each figure is the median over segments,
   so that a burst of host noise moves a few segments rather than the
   figure. A fixed length keeps the per-segment tail at one percentile
   (90th) whatever the run's length; a longer run adds segments. *)
let segment = 100

(* The bounds [(lo, hi)] of the segments of [n] requests: the requests
   after the last whole segment are left out, and a run shorter than one
   segment is one segment. *)
let segments n =
  if n < segment then [| (0, n) |]
  else Array.init (n / segment) (fun k -> (k * segment, (k + 1) * segment))

let slot req = { line = Protocol.print_request req; req }

let make_fleet g =
  Shard.create ~config:Engine.default_config ~domains_per_shard:1 ~shards:1 (G.copy g)

(* The fleet's own counters: the fleet section of [Shard.dump] followed by
   the shard's engine section (for one shard, later keys win). Read only
   while the fleet is idle. *)
let fleet_kv fleet =
  let tbl = Hashtbl.create 128 in
  String.split_on_char '\n' (Shard.dump fleet)
  |> List.iter (fun l ->
         match String.index_opt l '=' with
         | Some i ->
           Hashtbl.replace tbl (String.sub l 0 i) (String.sub l (i + 1) (String.length l - i - 1))
         | None -> ());
  tbl

let kv_float tbl name =
  match Hashtbl.find_opt tbl name with
  | Some v -> Option.value (float_of_string_opt v) ~default:0.
  | None -> 0.

let now_f () = Int64.to_float (now_ns ())

(* Closed loop over slots [first, last): keeps the shard's queue full,
   retrying shed requests. [on_reply] runs on the worker domain for queued
   requests and on this domain for inline replies. With [stamps], the
   submit entry and return times are recorded as the open loop records
   them. Returns seconds. *)
let flood ?stamps fleet w ~first ~last ~on_reply =
  let pending = Atomic.make 0 in
  let t0 = now_ns () in
  for i = first to last - 1 do
    (* submit only when the queue has room: a shed-and-retry loop would
       allocate on this domain, and every minor collection stops the
       shard's worker too *)
    while Atomic.get pending > Shard.default_queue_bound do
      Domain.cpu_relax ()
    done;
    let rec push () =
      Atomic.incr pending;
      Option.iter (fun (s0, _) -> s0.(i - first) <- now_f ()) stamps;
      match
        Shard.submit fleet
          ~complete:(fun r ->
            on_reply i r;
            Atomic.decr pending)
          w.slots.(i).line
      with
      | Shard.Queued _ -> Option.iter (fun (_, s1) -> s1.(i - first) <- now_f ()) stamps
      | Shard.Shed _ ->
        Atomic.decr pending;
        Unix.sleepf 0.00005;
        push ()
      | Shard.Replied r ->
        on_reply i r;
        Atomic.decr pending;
        Option.iter (fun (_, s1) -> s1.(i - first) <- now_f ()) stamps
    in
    push ()
  done;
  while Atomic.get pending > 0 do
    Domain.cpu_relax ()
  done;
  since_s t0

(* A fleet brought to steady state by replaying the warm-up prefix. *)
let warmed_fleet w =
  let fleet = make_fleet w.graph in
  ignore (flood fleet w ~first:0 ~last:w.warm ~on_reply:(fun _ _ -> ()));
  fleet

(* --- open loop ------------------------------------------------------------------ *)

type timeline = {
  sched : float array;  (* ns, monotonic *)
  sub0 : float array;  (* submit entered *)
  sub1 : float array;  (* submit returned *)
  fin : float array;  (* reply available *)
  replies : string array;
  shed : bool array;
  wall_s : float;
}

let open_loop fleet w =
  let n = Array.length w.slots - w.warm in
  let sched = Array.make n 0. and sub0 = Array.make n 0. and sub1 = Array.make n 0. in
  let fin = Array.make n 0. and replies = Array.make n "" and shed = Array.make n false in
  let pending = Atomic.make 0 in
  let period = 1e9 /. w.rate in
  let start = now_f () +. 1e6 in
  for j = 0 to n - 1 do
    let slot = if j mod w.every < w.burst then j / w.every * w.every else j in
    let due = start +. (float_of_int slot *. period) in
    sched.(j) <- due;
    (* spin rather than sleep: a sleeping front wakes late by whatever the
       host's timer and scheduler add, and that lateness would be charged
       to the program *)
    while now_f () < due do
      Domain.cpu_relax ()
    done;
    Atomic.incr pending;
    sub0.(j) <- now_f ();
    (match
       Shard.submit fleet
         ~complete:(fun r ->
           fin.(j) <- now_f ();
           replies.(j) <- r;
           Atomic.decr pending)
         w.slots.(w.warm + j).line
     with
    | Shard.Queued _ -> ()
    | Shard.Shed _ ->
      shed.(j) <- true;
      Atomic.decr pending
    | Shard.Replied r ->
      fin.(j) <- now_f ();
      replies.(j) <- r;
      Atomic.decr pending);
    sub1.(j) <- now_f ()
  done;
  while Atomic.get pending > 0 do
    Domain.cpu_relax ()
  done;
  { sched; sub0; sub1; fin; replies; shed; wall_s = (now_f () -. start) /. 1e9 }

(* The throughput of each segment of a replay: requests over the time
   between the segment's last reply and the previous segment's. *)
let segment_throughputs ~start fin =
  let n = Array.length fin in
  (* when the first [i] requests had all been answered *)
  let upto = Array.make (n + 1) start in
  Array.iteri (fun i f -> upto.(i + 1) <- Float.max upto.(i) f) fin;
  Array.map
    (fun (lo, hi) -> float_of_int (hi - lo) /. ((upto.(hi) -. upto.(lo)) /. 1e9))
    (segments n)

(* The most requests ever outstanding (queued or in service) at a submit
   of the open loop. The fleet's own high-water mark also counts the
   closed-loop warm-up, which keeps the queue full. *)
let max_outstanding t =
  let n = Array.length t.sched in
  let best = ref 0 in
  for j = 0 to n - 1 do
    let c = ref 0 in
    for i = j - 1 downto 0 do
      if (not t.shed.(i)) && t.fin.(i) > t.sub0.(j) then incr c
    done;
    if !c > !best then best := !c
  done;
  !best

(* --- the check walk ---------------------------------------------------------------- *)

(* Applies a MUTATE batch to the shadow with the engine's semantics and
   returns the number of edges it affected. *)
let apply_ops g ops =
  List.fold_left
    (fun n op ->
      match op with
      | Protocol.Del { u; v } ->
        let es = live g u v in
        List.iter (G.remove_edge g) es;
        n + List.length es
      | Protocol.Rew { u; v; cost; delay } ->
        (* an edge already at these weights is not affected *)
        let es = List.filter (fun e -> G.cost g e <> cost || G.delay g e <> delay) (live g u v) in
        List.iter
          (fun e ->
            G.set_cost g e cost;
            G.set_delay g e delay)
          es;
        n + List.length es
      | Protocol.Ins { u; v; cost; delay } ->
        ignore (G.add_edge g ~src:u ~dst:v ~cost ~delay);
        n + 1)
    0 ops

type checked = {
  mutable answered : int;  (* solutions and audited infeasibility verdicts *)
  mutable bad : int;  (* protocol errors and certificate failures *)
  mutable cost_sum : int;
  mutable lower_sum : int;
  freeze_us : Sample.buf;
}

(* Walks the whole schedule on a shadow replica. [reply j] is the answer to
   measured slot [j] ([None] when it was shed). With [lower], the first
   answer to each key in each topology generation adds its cost and the
   key's Suurballe min-sum bound on that topology to the cost-ratio sums
   (repeats of one answer would weight popular keys), and the check and
   shadow-freeze calls are recorded as spans. *)
let check w ~reply ~lower =
  let shadow = G.copy w.graph in
  let c = { answered = 0; bad = 0; cost_sum = 0; lower_sum = 0; freeze_us = Sample.buf () } in
  let memo = Hashtbl.create 64 in
  Array.iteri
    (fun i s ->
      let j = i - w.warm in
      let r = if j >= 0 then reply j else None in
      match s.req with
      | Protocol.Mutate { ops } ->
        let edges = apply_ops shadow ops in
        Hashtbl.reset memo;
        let t0 = now_ns () in
        ignore (G.freeze shadow);
        let t1 = now_ns () in
        if j >= 0 && lower then begin
          Sample.push c.freeze_us (ms_of_ns (Int64.sub t1 t0) *. 1e3);
          ignore (Span.add ~req:j "graph_freeze" t0 t1)
        end;
        (match r with
        | None -> ()
        | Some line -> (
          match Protocol.parse_response line with
          | Ok (Protocol.Mutated { edges = e; _ }) when e = edges -> ()
          | _ ->
            c.bad <- c.bad + 1;
            problem "slot %d: MUTATE answered %S, shadow affected %d edges" i line edges))
      | Protocol.Solve { src; dst; k; delay_bound; _ } -> (
        match r with
        | None -> ()
        | Some line -> (
          let inst () = Instance.create shadow ~src ~dst ~k ~delay_bound in
          match Protocol.parse_response line with
          | Ok (Protocol.Solution { cost; delay; paths; _ }) ->
            let t0 = now_ns () in
            let paths = List.map (edges_of_vertices shadow) paths in
            let bad = certify (inst ()) ~paths ~cost ~delay in
            if lower then ignore (Span.add ~req:j "certify" t0 (now_ns ()));
            if bad = [] then begin
              c.answered <- c.answered + 1;
              if lower && not (Hashtbl.mem memo (src, dst, k, delay_bound)) then begin
                Hashtbl.replace memo (src, dst, k, delay_bound) ();
                c.cost_sum <- c.cost_sum + cost;
                c.lower_sum <-
                  c.lower_sum
                  + Option.value ~default:0 (Krsp_flow.Suurballe.min_cost shadow ~src ~dst ~k)
              end
            end
            else begin
              c.bad <- c.bad + 1;
              List.iter (fun v -> problem "slot %d (%s): %s" i s.line v) bad
            end
          | Ok (Protocol.Err Protocol.Infeasible_disjoint) -> (
            match Check.audit_infeasible (inst ()) Check.Too_few_disjoint_paths with
            | Ok () -> c.answered <- c.answered + 1
            | Error e ->
              c.bad <- c.bad + 1;
              problem "slot %d: %s" i e)
          | Ok (Protocol.Err (Protocol.Infeasible_delay d)) -> (
            match Check.audit_infeasible (inst ()) (Check.Delay_unreachable d) with
            | Ok () -> c.answered <- c.answered + 1
            | Error e ->
              c.bad <- c.bad + 1;
              problem "slot %d: %s" i e)
          | _ ->
            c.bad <- c.bad + 1;
            problem "slot %d (%s): protocol error %S" i s.line line))
      | _ -> ())
    w.slots;
  c

(* --- one serving run ---------------------------------------------------------------- *)

let reply_ms line =
  match Protocol.parse_response line with
  | Ok (Protocol.Solution { ms; source; _ }) -> Some (ms, source)
  | _ -> None

let run ~make ~seed ~seconds ~trace =
  (* one set-up per fleet, one fleet alive at a time: two saturation
     fleets, the open-loop fleet and, in a traced run, the overhead
     fleet *)
  let setup_times = ref [] in
  let setup () =
    Gc.full_major ();
    let t0 = now_ns () in
    let w = make ~seed ~seconds in
    let fleet = warmed_fleet w in
    setup_times := since_s t0 :: !setup_times;
    (w, fleet)
  in
  (* saturation: the measured part replayed closed-loop on a fresh warmed
     fleet, once before the open loop and once after it, so that a slow
     spell of the host during either half of the run moves only half of
     the segments; the throughput is the median over the segments of
     both. The first replay's answers are checked and its counters
     recorded. *)
  let replay () =
    let w, f = setup () in
    let n = Array.length w.slots - w.warm in
    let replies = Array.make n "" and fin = Array.make n 0. in
    let start = now_f () in
    let secs =
      flood f w ~first:w.warm ~last:(w.warm + n) ~on_reply:(fun i r ->
          fin.(i - w.warm) <- now_f ();
          replies.(i - w.warm) <- r)
    in
    let kv = fleet_kv f in
    Shard.shutdown f;
    (replies, segment_throughputs ~start fin, secs, kv)
  in
  let before = replay () in
  let w, fleet = setup () in
  let n = Array.length w.slots - w.warm in
  let kv0 = fleet_kv fleet in
  let glob0 = globals () and gc0 = gc () in
  if trace then Span.enable ();
  let t = open_loop fleet w in
  let glob = globals_diff glob0 (globals ()) and gc1 = gc () in
  let kv1 = fleet_kv fleet in
  Shard.shutdown fleet;
  let replays = [ before; replay () ] in
  let sat_replies, _, sat_s, sat_kv = before in
  let throughput = Sample.median (Array.concat (List.map (fun (_, t, _, _) -> t) replays)) in
  (* tracing overhead: the replay again, recording the timestamps the
     traced open loop builds its spans from *)
  let traced_s =
    if not trace then 0.
    else begin
      let _, f = setup () in
      let fin = Array.make n 0. in
      let secs =
        flood f w ~first:w.warm ~last:(w.warm + n)
          ~stamps:(Array.make n 0., Array.make n 0.)
          ~on_reply:(fun i _ -> fin.(i - w.warm) <- now_f ())
      in
      Shard.shutdown f;
      secs
    end
  in
  let setup_s = Sample.median (Array.of_list !setup_times) in
  let rss = peak_rss_mb () in
  (* correctness: both phases' answers against the shadow replica *)
  let reply j = if t.shed.(j) then None else Some t.replies.(j) in
  let c = check w ~reply ~lower:true in
  let c_sat = check w ~reply:(fun j -> Some sat_replies.(j)) ~lower:false in
  let stale =
    List.fold_left
      (fun a (_, _, _, kv) -> a +. kv_float kv "topo.stale_hits_dropped")
      (kv_float kv1 "topo.stale_hits_dropped") replays
  in
  if stale > 0. then problem "stale-hit guard fired %.0f time(s)" stale;
  let shed = Array.fold_left (fun a s -> if s then a + 1 else a) 0 t.shed in
  let failed = shed + c.bad in
  let lat =
    Array.init n (fun j ->
        if t.shed.(j) then infinity else (t.fin.(j) -. t.sched.(j)) /. 1e6)
  in
  (* latency percentiles per segment of the open loop, and their median
     over segments *)
  let parts = Array.map (fun (lo, hi) -> Array.sub lat lo (hi - lo)) (segments n) in
  let tails = Array.map Sample.tail parts in
  let _, tail_pct, tail_n = tails.(0) in
  (* the same tail over the whole run, for the record: a stall confined to
     a few segments does not move the bounded figure, but shows here *)
  let run_tail, run_tail_pct, _ = Sample.tail lat in
  let e2e =
    [ m "setup_s" "s" setup_s;
      m "throughput_rps" "1/s" throughput;
      m "lat_p50_ms" "ms" (Sample.median (Array.map Sample.median parts));
      m "lat_tail_ms" "ms" (Sample.median (Array.map (fun (v, _, _) -> v) tails));
      m "ok_frac" "frac" (1. -. (float_of_int failed /. float_of_int n));
      m "cost_ratio" "ratio" (float_of_int c.cost_sum /. float_of_int (max 1 c.lower_sum));
      m "peak_rss_mb" "MB" rss
    ]
  in
  (* deterministic work counters come from the saturation replay, whose
     request sequence is fixed by the seed (sheds are retried in order) *)
  let kvd name = int_of_float (kv_float sat_kv name) in
  let sat_sources = Hashtbl.create 4 in
  Array.iter
    (fun r ->
      match reply_ms r with
      | Some (_, src) ->
        Hashtbl.replace sat_sources src (1 + Option.value ~default:0 (Hashtbl.find_opt sat_sources src))
      | None -> ())
    sat_replies;
  let src_count s = Option.value ~default:0 (Hashtbl.find_opt sat_sources s) in
  let counters =
    [ ("requests", n); ("replay.cache_hits", src_count Protocol.Cache_hit);
      ("replay.cold", src_count Protocol.Cold); ("replay.warm", src_count Protocol.Warm_start);
      ("engine.solve_cold", kvd "solve_cold"); ("engine.solve_warm", kvd "solve_warm");
      ("engine.solve_cache_hit", kvd "solve_cache_hit"); ("cache.misses", kvd "cache.misses");
      ("cache.evictions", kvd "cache.evictions");
      ("engine.invalidated_entries", kvd "topo.invalidated_entries");
      ("engine.scoped_invalidations", kvd "topo.scoped_invalidations");
      ("engine.full_invalidations", kvd "topo.full_invalidations");
      ("graph.full_freezes", kvd "topo.full_freezes");
      ("graph.overlay_freezes", kvd "topo.overlay_freezes");
      ("graph.compactions", kvd "topo.compactions");
      ("graph.patched_edges", kvd "topo.patched_edges");
      ("answers.cost_sum",
        Array.fold_left
          (fun a r ->
            match Protocol.parse_response r with
            | Ok (Protocol.Solution { cost; _ }) -> a + cost
            | _ -> a)
          0 sat_replies)
    ]
  in
  let layers =
    if not trace then []
    else begin
      (* the request path as spans, from the open loop's timestamps *)
      let ns x = Int64.of_float x in
      let per = Hashtbl.create 8 in
      let note key x =
        let s = Option.value (Hashtbl.find_opt per key) ~default:(Sample.buf ()) in
        Sample.push s x;
        Hashtbl.replace per key s
      in
      for j = 0 to n - 1 do
        let late = (t.sub0.(j) -. t.sched.(j)) /. 1e6 in
        note "gen.late_ms" late;
        if not t.shed.(j) then begin
          let root = Span.add ~req:j "request" (ns t.sched.(j)) (ns t.fin.(j)) in
          ignore (Span.add ~parent:root ~req:j "gen_late" (ns t.sched.(j)) (ns t.sub0.(j)));
          match (w.slots.(w.warm + j).req, reply_ms t.replies.(j)) with
          | Protocol.Mutate _, _ ->
            note "shard.barrier_ms" ((t.sub1.(j) -. t.sub0.(j)) /. 1e6);
            ignore (Span.add ~parent:root ~req:j "shard_barrier" (ns t.sub0.(j)) (ns t.sub1.(j)))
          | req, Some (ms, source) ->
            let eng0 = t.fin.(j) -. (ms *. 1e6) in
            note "shard.submit_us" ((t.sub1.(j) -. t.sub0.(j)) /. 1e3);
            note "shard.wait_ms" ((eng0 -. t.sub1.(j)) /. 1e6);
            ignore (Span.add ~parent:root ~req:j "shard_submit" (ns t.sub0.(j)) (ns t.sub1.(j)));
            ignore (Span.add ~parent:root ~req:j "shard_wait" (ns t.sub1.(j)) (ns eng0));
            ignore (Span.add ~parent:root ~req:j "engine" (ns eng0) (ns t.fin.(j)));
            let k1 = match req with Protocol.Solve { k = 1; _ } -> true | _ -> false in
            (match source with
            | Protocol.Cache_hit -> note "engine.hit_ms" ms
            | Protocol.Warm_start -> note "engine.warm_ms" ms
            | Protocol.Cold ->
              note "engine.cold_ms" ms;
              if k1 then note "engine.cold_k1_ms" ms)
          | _, None -> ()
        end
      done;
      (* the protocol layer, timed on the lines sent and received *)
      for j = 0 to n - 1 do
        let line = w.slots.(w.warm + j).line in
        let t0 = now_ns () in
        ignore (Protocol.parse_request line);
        let t1 = now_ns () in
        note "protocol.parse_us" (ms_of_ns (Int64.sub t1 t0) *. 1e3);
        ignore (Span.add ~req:j "protocol" t0 t1);
        if not t.shed.(j) then
          match Protocol.parse_response t.replies.(j) with
          | Ok resp ->
            let t0 = now_ns () in
            ignore (Protocol.print_response resp);
            let t1 = now_ns () in
            note "protocol.print_us" (ms_of_ns (Int64.sub t1 t0) *. 1e3);
            ignore (Span.add ~req:j "protocol" t0 t1)
          | Error _ -> ()
      done;
      let mean key =
        match Hashtbl.find_opt per key with
        | Some b -> Sample.mean (Sample.contents b)
        | None -> 0.
      in
      let count key =
        match Hashtbl.find_opt per key with Some b -> float_of_int b.Sample.len | None -> 0.
      in
      let d name = kv_float kv1 name -. kv_float kv0 name in
      let hits = count "engine.hit_ms" and cold = count "engine.cold_ms" in
      let warm = count "engine.warm_ms" in
      [ m "protocol.parse_us" "us" (mean "protocol.parse_us");
        m "protocol.print_us" "us" (mean "protocol.print_us");
        m "shard.submit_us" "us" (mean "shard.submit_us");
        m "shard.barrier_ms" "ms" (mean "shard.barrier_ms");
        m "shard.wait_ms" "ms" (mean "shard.wait_ms");
        m "shard.busy_frac" "frac" (d "shard0.busy_us" /. 1e6 /. t.wall_s);
        m "shard.shed" "count" (float_of_int shed);
        m "shard.max_depth" "count" (float_of_int (max_outstanding t));
        m "gen.late_ms" "ms" (mean "gen.late_ms");
        m "engine.hit_ratio" "frac" (hits /. Float.max 1. (hits +. cold +. warm));
        m "engine.hits" "count" hits;
        m "engine.cold" "count" cold;
        m "engine.warm" "count" warm;
        m "engine.hit_ms" "ms" (mean "engine.hit_ms");
        m "engine.cold_ms" "ms" (mean "engine.cold_ms");
        m "engine.warm_ms" "ms" (mean "engine.warm_ms");
        m "engine.cold_k1_ms" "ms" (mean "engine.cold_k1_ms");
        m "engine.invalidated_entries" "count" (d "topo.invalidated_entries");
        m "engine.scoped_invalidations" "count" (d "topo.scoped_invalidations");
        m "engine.full_invalidations" "count" (d "topo.full_invalidations");
        m "engine.stale_hits_dropped" "count" (d "topo.stale_hits_dropped");
        m "cache.evictions" "count" (d "cache.evictions");
        m "cache.occupancy" "frac" (kv_float kv1 "cache.length" /. kv_float kv1 "cache.capacity");
        m "graph.full_freezes" "count" (d "topo.full_freezes");
        m "graph.overlay_freezes" "count" (d "topo.overlay_freezes");
        m "graph.compactions" "count" (d "topo.compactions");
        m "graph.patched_edges" "count" (d "topo.patched_edges");
        m "graph.freeze_us" "us" (Sample.mean (Sample.contents c.freeze_us));
        m "pool.tasks" "count" (d "pool.tasks");
        m "pool.busy_ms" "ms" (d "pool.domain0.busy_us" /. 1e3);
        m "trace.overhead_frac" "frac" ((traced_s -. sat_s) /. sat_s)
      ]
      @ globals_metrics glob ~wall_ms:(t.wall_s *. 1e3)
      @ gc_metrics gc0 gc1
    end
  in
  let notes =
    [ ("requests", string_of_int n); ("answered", string_of_int c.answered);
      ("replay_bad", string_of_int c_sat.bad); ("warm_prefix", string_of_int w.warm);
      ("rate_rps", Printf.sprintf "%.1f" w.rate);
      ("burst", Printf.sprintf "%d of %d" w.burst w.every);
      ("shed", string_of_int shed);
      ("latency_segments", string_of_int (Array.length parts));
      ("tail_percentile", Printf.sprintf "%.2f" tail_pct); ("samples_per_segment", string_of_int tail_n);
      ("run_tail_ms", Printf.sprintf "%.3f" run_tail);
      ("run_tail_percentile", Printf.sprintf "%.2f" run_tail_pct);
      ("pool_width", "1"); ("shards", "1")
    ]
  in
  { e2e; layers; counters; attempted = n; failed; notes }
