module G = Krsp_graph.Digraph
module Walk = Krsp_graph.Walk

type candidate = { edges : G.edge list; cost : int; delay : int; kind : Bicameral.kind }

(* The state space, never materialised: state [s = u·W + c + B] is residual
   vertex [u] at accumulated cost [c ∈ [-B, B]], [W = 2B + 1] — Lemma 15's
   [H_v^+(B)] and [H_v^-(B)] copies glued into one index range. Its arcs are
   implicit: an active residual edge [e = (u, w)] of cost [ce] leads from
   [(u, c)] to [(w, c + ce)] whenever that stays inside the window, weighted
   by the residual delay (the quantity the searches minimise). A search needs
   only the active edges grouped by source, in ascending edge id per row
   (the residual CSR order); [space] compacts them once per call in
   O(n + m), and every Bellman–Ford run of the call shares it read-only. *)
type space = {
  rg : G.t; (* the residual graph, to walk [parent] chains back *)
  bound : int;
  w : int; (* 2·bound + 1 *)
  row : int array; (* vertex -> first position of its out-edges; n + 1 entries *)
  e_id : int array; (* position -> residual edge id *)
  e_dst : int array;
  e_cost : int array;
  e_delay : int array;
}

let space res ~bound =
  let rg = res.Residual.graph and active = res.Residual.active in
  let n = G.n rg in
  let row = Array.make (n + 1) 0 in
  G.iter_edges rg (fun e ->
      if active.(e) then begin
        let u = G.src rg e in
        row.(u + 1) <- row.(u + 1) + 1
      end);
  for u = 1 to n do
    row.(u) <- row.(u) + row.(u - 1)
  done;
  let m = row.(n) in
  let e_id = Array.make m 0 and e_dst = Array.make m 0 in
  let e_cost = Array.make m 0 and e_delay = Array.make m 0 in
  let next = Array.sub row 0 n in
  G.iter_edges rg (fun e ->
      if active.(e) then begin
        let u = G.src rg e in
        let p = next.(u) in
        next.(u) <- p + 1;
        e_id.(p) <- e;
        e_dst.(p) <- G.dst rg e;
        e_cost.(p) <- G.cost rg e;
        e_delay.(p) <- G.delay rg e
      end);
  { rg; bound; w = (2 * bound) + 1; row; e_id; e_dst; e_cost; e_delay }

let n_states sp = G.n sp.rg * sp.w

let state sp u c = (u * sp.w) + c + sp.bound

(* the state [e] was relaxed from into state [s] *)
let pred sp s e = (G.src sp.rg e * sp.w) + (s mod sp.w) - G.cost sp.rg e

(* Work counters, the same on every host (at widths above 1 they include
   speculative searches): states scanned (popped while in the tree) and
   states searched (n·W per run). Each run counts locally and adds once
   at its end. [Krsp.metrics] is this registry. *)
let metrics = Krsp_util.Metrics.create ()
let c_scans = Krsp_util.Metrics.counter metrics "search.scans"
let c_states = Krsp_util.Metrics.counter metrics "search.states"

(* Per-domain scratch, grown to exactly n·W + 1 entries (the last one is
   the virtual tree root) and reused across runs; [scratch] resets what a
   run reads with [fill]. Sound because a run never calls the pool between
   its start and the end of its [fold_walks]: a domain takes up another
   pool task only between runs, so no two runs on one domain interleave.
   The scratch stays at the domain's high-water mark; dropping it after
   each run made the ×1000 cost-magnitude probe slower and doubled its
   peak RSS. *)
type scratch = {
  dist : int array;
  parent : int array; (* residual edge id into the state; -1 at a seed *)
  next : int array; (* preorder successor in the parent tree *)
  prev : int array;
  depth : int array; (* tree depth; -1 outside the tree *)
  queue : int array; (* FIFO ring, a state queued at most once *)
  queued : Bytes.t;
}

let alloc len =
  { dist = Array.make len 0; parent = Array.make len 0; next = Array.make len 0;
    prev = Array.make len 0; depth = Array.make len 0; queue = Array.make len 0;
    queued = Bytes.make len '\000' }

let scratch_key = Domain.DLS.new_key (fun () -> alloc 0)

let scratch sp ~init =
  let ns = n_states sp in
  let sc =
    let held = Domain.DLS.get scratch_key in
    if Array.length held.dist > ns then held
    else begin
      let sc = alloc (ns + 1) in
      Domain.DLS.set scratch_key sc;
      sc
    end
  in
  Array.fill sc.dist 0 ns init;
  Array.fill sc.depth 0 (ns + 1) (-1);
  Bytes.fill sc.queued 0 (ns + 1) '\000';
  sc

(* One run of [Krsp_graph.Bellman_ford]'s FIFO label correcting with
   subtree disassembly (see there) over the states, from every state whose
   [dist] is finite, minimising delay in place; the parent tree is
   threaded through [next]/[prev] around the virtual root [ns]. It takes
   the same steps as that search on the materialised state graph — seeds
   queued in state order, out-arcs in ascending residual edge id — so
   labels, parents and cycles are the same. [Some cycle] is a
   negative-delay closed walk, its residual edges in walk order; [None]
   leaves the shortest-path tree in [sc.dist]/[sc.parent]. *)
let label_correct sp sc =
  let ns = n_states sp in
  let w = sp.w and row = sp.row and e_id = sp.e_id in
  let e_dst = sp.e_dst and e_cost = sp.e_cost and e_delay = sp.e_delay in
  let dist = sc.dist and parent = sc.parent and next = sc.next and prev = sc.prev in
  let depth = sc.depth and queue = sc.queue and queued = sc.queued in
  let head = ref 0 and len = ref 0 in
  let push s =
    let tail = !head + !len in
    queue.(if tail >= ns then tail - ns else tail) <- s;
    incr len;
    Bytes.set queued s '\001'
  in
  depth.(ns) <- 0;
  let last = ref ns in
  for s = 0 to ns - 1 do
    if dist.(s) <> max_int then begin
      parent.(s) <- -1;
      depth.(s) <- 1;
      next.(!last) <- s;
      prev.(s) <- !last;
      last := s;
      push s
    end
  done;
  next.(!last) <- ns;
  prev.(ns) <- !last;
  let scans = ref 0 in
  let cycle = ref None in
  (try
     while !len > 0 do
       let s = queue.(!head) in
       head := if !head + 1 = ns then 0 else !head + 1;
       decr len;
       Bytes.set queued s '\000';
       if depth.(s) > 0 then begin
         incr scans;
         let ds = dist.(s) and u = s / w in
         let cs = s - (u * w) in
         for p = row.(u) to row.(u + 1) - 1 do
           let c = cs + e_cost.(p) in
           if c >= 0 && c < w then begin
             let t = (e_dst.(p) * w) + c in
             let nd = ds + e_delay.(p) in
             if nd < dist.(t) then begin
               let dt = depth.(t) in
               if dt > 0 then begin
                 (* cut t's subtree [t, x) out of the list *)
                 let x = ref next.(t) in
                 while depth.(!x) > dt && !x <> s do
                   depth.(!x) <- -1;
                   x := next.(!x)
                 done;
                 if t = s || (!x = s && depth.(s) > dt) then begin
                   let rec collect acc v =
                     if v = t then acc
                     else
                       let e = parent.(v) in
                       collect (e :: acc) (pred sp v e)
                   in
                   cycle := Some (collect [ e_id.(p) ] s);
                   raise_notrace Exit
                 end;
                 next.(prev.(t)) <- !x;
                 prev.(!x) <- prev.(t)
               end;
               dist.(t) <- nd;
               parent.(t) <- e_id.(p);
               depth.(t) <- depth.(s) + 1;
               let after = next.(s) in
               next.(s) <- t;
               prev.(t) <- s;
               next.(t) <- after;
               prev.(after) <- t;
               if Bytes.get queued t = '\000' then push t
             end
           end
         done
       end
     done
   with Exit -> ());
  Krsp_util.Metrics.incr c_scans ~by:!scans;
  Krsp_util.Metrics.incr c_states ~by:ns;
  !cycle

(* A negative-delay cycle anywhere in the state space: a run from a
   virtual super-source (every state starts at delay 0). *)
let negative_cycle sp = label_correct sp (scratch sp ~init:0)

(* Min-delay walks from [(root, 0)] to every reachable [(root, c)], [c ≠ 0],
   folded for [c] ascending; nothing when the run meets a negative cycle
   (phase A's business). [f] must not use the pool (see [scratch]). *)
let fold_walks sp root ~init ~f =
  let sc = scratch sp ~init:max_int in
  let s0 = state sp root 0 in
  sc.dist.(s0) <- 0;
  match label_correct sp sc with
  | Some _ -> init
  | None ->
    let dist = sc.dist and parent = sc.parent in
    let rec collect acc s =
      let e = parent.(s) in
      if e = -1 then acc else collect (e :: acc) (pred sp s e)
    in
    let acc = ref init in
    for c = -sp.bound to sp.bound do
      let s = s0 + c in
      if c <> 0 && dist.(s) <> max_int then acc := f !acc (collect [] s)
    done;
    !acc

let roots res =
  let rg = res.Residual.graph in
  let mark = Array.make (G.n rg) false in
  Array.iteri
    (fun e reversed ->
      if reversed && res.Residual.active.(e) then begin
        mark.(G.src rg e) <- true;
        mark.(G.dst rg e) <- true
      end)
    res.Residual.is_reversed;
  let out = ref [] in
  Array.iteri (fun v m -> if m then out := v :: !out) mark;
  List.rev !out

let evaluate res ctx cyc =
  let cost = Residual.cycle_cost res cyc and delay = Residual.cycle_delay res cyc in
  match Bicameral.classify ctx ~cost ~delay with
  | None -> None
  | Some kind -> Some { edges = cyc; cost; delay; kind }

(* Split a closed residual walk into simple cycles, in walk order. *)
let cycles_of_walk res walk_edges = Walk.cycles_of_closed_walk res.Residual.graph walk_edges

let candidates_of_walk res ctx walk_edges =
  List.filter_map (evaluate res ctx) (cycles_of_walk res walk_edges)

let better ctx a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some ca, Some cb ->
    if Bicameral.compare_candidates ctx (ca.cost, ca.delay) (cb.cost, cb.delay) <= 0 then
      Some ca
    else Some cb

(* Phase A: any negative-delay cycle of the state space projects to residual
   cycles of total cost 0 and total delay < 0, at least one piece of which is
   itself negative-delay. *)
let phase_a res ctx sp =
  match negative_cycle sp with
  | None -> []
  | Some walk -> candidates_of_walk res ctx walk

(* Phase B for one root: min-delay walks from (root, 0) to every (root, c). *)
let phase_b res ctx sp root =
  fold_walks sp root ~init:[] ~f:(fun acc walk -> candidates_of_walk res ctx walk @ acc)

(* When stopping early, keep scanning roots until a delay-reducing candidate
   (type-0/1) shows up — settling for the first type-2 can stall Algorithm 1
   in long trade-back sequences. *)
let delay_reducing found =
  List.exists (fun c -> c.kind <> Bicameral.Type2) found

let search ?pool res ~ctx ~bound ~stop_early =
  assert (bound >= 1);
  let sp = space res ~bound in
  let a = phase_a res ctx sp in
  let all = ref a in
  if stop_early && delay_reducing a then !all
  else begin
    let rts = roots res in
    let parallel =
      match pool with
      | Some p -> Krsp_util.Pool.width p > 1 && List.length rts > 1
      | None -> false
    in
    if parallel then begin
      (* Speculative fan-out in waves: a wave of roots runs its phase-B
         searches concurrently (each run uses its domain's scratch; the
         compacted space and the residual are shared strictly read-only),
         then the serial scan's early-stop is re-applied to the wave's
         results as a prefix rule — accumulate roots in id order up to and
         including the first delay-reducing one — so the candidate list,
         and hence the cycle [find] picks, is bit-identical to the serial
         scan's. Waves bound the speculation: at most [wave - 1] roots past
         the serial stop point are wasted work traded for wall-clock, the
         same bargain the guess speculation makes. *)
      let p = Option.get pool in
      let arr = Array.of_list rts in
      let wave = if stop_early then 2 * Krsp_util.Pool.width p else Array.length arr in
      let stop = ref false in
      let lo = ref 0 in
      while (not !stop) && !lo < Array.length arr do
        let len = min wave (Array.length arr - !lo) in
        let per_root =
          Krsp_util.Pool.parallel_map ~chunk:1 p
            (fun root -> phase_b res ctx sp root)
            (Array.sub arr !lo len)
        in
        (try
           Array.iter
             (fun found ->
               all := found @ !all;
               if stop_early && delay_reducing found then raise Exit)
             per_root
         with Exit -> stop := true);
        lo := !lo + len
      done;
      !all
    end
    else begin
      let rec scan = function
        | [] -> ()
        | root :: rest ->
          let found = phase_b res ctx sp root in
          all := found @ !all;
          if stop_early && delay_reducing found then () else scan rest
      in
      scan rts;
      !all
    end
  end

let find res ~ctx ~bound ?(exhaustive = false) ?pool () =
  let cands = search ?pool res ~ctx ~bound ~stop_early:(not exhaustive) in
  List.fold_left (fun best c -> better ctx best (Some c)) None cands

let enumerate ?pool res ~ctx ~bound = search ?pool res ~ctx ~bound ~stop_early:false

let enumerate_raw res ~bound =
  assert (bound >= 1);
  let sp = space res ~bound in
  let all = ref [] in
  let push cyc =
    all := (cyc, Residual.cycle_cost res cyc, Residual.cycle_delay res cyc) :: !all
  in
  let push_walk walk = List.iter push (cycles_of_walk res walk) in
  (match negative_cycle sp with
  | Some walk -> push_walk walk
  | None ->
    List.iter
      (fun root -> fold_walks sp root ~init:() ~f:(fun () walk -> push_walk walk))
      (roots res));
  !all
