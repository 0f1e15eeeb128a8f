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

(* After N hops back along [parent] from a state downstream of a negative
   cycle we are inside it; collect its residual edges until the start state
   repeats. *)
let extract_cycle sp parent start =
  let s = ref start in
  for _ = 1 to Array.length parent do
    s := pred sp !s parent.(!s)
  done;
  let cycle_start = !s in
  let rec collect acc s =
    let e = parent.(s) in
    let u = pred sp s e in
    if u = cycle_start then e :: acc else collect (e :: acc) u
  in
  collect [] cycle_start

(* SPFA (queue-based Bellman–Ford) over the states, from every state whose
   [dist] is finite, minimising delay in place. It takes the same steps as
   [Krsp_graph.Bellman_ford] would on the materialised state graph — FIFO
   seeded in state order, out-arcs in ascending residual edge id, a state
   entering the queue more than N + 1 times lies downstream of a negative
   cycle — so labels, parents and extracted cycles are the same. [Ok parent]
   maps each reached state to the residual edge it was last relaxed along
   ([-1] for a seed); [Error cycle] is a negative-delay closed walk of
   residual edges. Allocates its own scratch: concurrent runs over one
   [space] are safe. *)
let spfa sp dist =
  let ns = Array.length dist in
  let w = sp.w and row = sp.row and e_id = sp.e_id in
  let e_dst = sp.e_dst and e_cost = sp.e_cost and e_delay = sp.e_delay in
  let parent = Array.make ns (-1) in
  let enqueues = Array.make ns 0 in
  let in_queue = Bytes.make ns '\000' in
  (* ring-buffer FIFO: a state is queued at most once at a time *)
  let queue = Array.make ns 0 in
  let head = ref 0 and len = ref 0 in
  let push s =
    let tail = !head + !len in
    queue.(if tail >= ns then tail - ns else tail) <- s;
    incr len;
    Bytes.set in_queue s '\001';
    enqueues.(s) <- enqueues.(s) + 1
  in
  for s = 0 to ns - 1 do
    if dist.(s) <> max_int then push s
  done;
  let cycle = ref (-1) in
  (try
     while !len > 0 do
       let s = queue.(!head) in
       head := if !head + 1 = ns then 0 else !head + 1;
       decr len;
       Bytes.set in_queue s '\000';
       let ds = dist.(s) and u = s / w in
       let cs = s - (u * w) in
       for p = row.(u) to row.(u + 1) - 1 do
         let c = cs + e_cost.(p) in
         if c >= 0 && c < w then begin
           let t = (e_dst.(p) * w) + c in
           let nd = ds + e_delay.(p) in
           if nd < dist.(t) then begin
             dist.(t) <- nd;
             parent.(t) <- e_id.(p);
             if Bytes.get in_queue t = '\000' then begin
               if enqueues.(t) > ns then begin
                 cycle := t;
                 raise Exit
               end;
               push t
             end
           end
         end
       done
     done
   with Exit -> ());
  if !cycle >= 0 then Error (extract_cycle sp parent !cycle) else Ok parent

(* A negative-delay cycle anywhere in the state space: SPFA from a virtual
   super-source (every state starts at delay 0). *)
let negative_cycle sp =
  match spfa sp (Array.make (n_states sp) 0) with
  | Ok _ -> None
  | Error walk -> Some walk

(* Min-delay walks from [(root, 0)] to every reachable [(root, c)], [c ≠ 0],
   folded for [c] ascending; nothing when the run meets a negative cycle
   (phase A's business). *)
let fold_walks sp root ~init ~f =
  let dist = Array.make (n_states sp) max_int in
  let s0 = state sp root 0 in
  dist.(s0) <- 0;
  match spfa sp dist with
  | Error _ -> init
  | Ok parent ->
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

(* Decompose a closed residual walk (edge multiset, degree-balanced) into
   simple cycles. *)
let cycles_of_walk res walk_edges = Walk.decompose_cycles res.Residual.graph walk_edges

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
         searches concurrently (each SPFA allocates its own scratch; the
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
