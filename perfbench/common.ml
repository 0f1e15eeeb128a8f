(* Shared plumbing: clocks, process readings, the program's own counters,
   and the certificate gate. *)

module G = Krsp_graph.Digraph
module X = Krsp_util.Xoshiro
module Metrics = Krsp_util.Metrics
module Instance = Krsp_core.Instance
module Check = Krsp_check.Check

let now_ns = Krsp_util.Timer.now_ns
let ms_of_ns d = Int64.to_float d /. 1e6
let since_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* Peak resident set (VmHWM) of this process, MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let kb = ref 0 in
  (try
     while true do
       let l = input_line ic in
       if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
         Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun v -> kb := v)
     done
   with End_of_file -> ());
  close_in ic;
  float_of_int !kb /. 1024.

(* --- metrics as the benchmark reports them ----------------------------------- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* What one workload run hands back: end-to-end metrics, layer metrics
   (traced runs only), deterministic work counters, and run notes. *)
type result = {
  e2e : metric list;
  layers : metric list;
  counters : (string * int) list;
  attempted : int;
  failed : int;
  notes : (string * string) list;
}

(* --- the program's process-global counters --------------------------------- *)

(* Every process-global series the benchmark derives layer numbers from,
   as (metric name, registry, series, reading): the solver's phase
   histograms and speculation/repair counters ([Krsp.metrics]) and the RSP
   oracle counters ([Rsp_engine.metrics]). Histogram counts and sums are
   exact; only their percentiles are bucketed, and those are not used. A
   [Sum] is a time in ms; the other readings are work counts. *)
type reading = Count | Sum | Counter

let global_series =
  let km = Krsp_core.Krsp.metrics and om = Krsp_rsp.Rsp_engine.metrics in
  [ ("search.calls", km, "solver.cycle_search_ms", Count);
    ("search.ms", km, "solver.cycle_search_ms", Sum);
    ("residual.ms", km, "solver.residual_build_ms", Sum);
    ("augment.ms", km, "solver.augment_ms", Sum);
    ("solver.spec_launched", km, "solver.spec_launched", Counter);
    ("solver.spec_hits", km, "solver.spec_hits", Counter);
    ("solver.spec_wasted", km, "solver.spec_wasted", Counter);
    ("solver.repair_single_hits", km, "solver.repair_single_hits", Counter);
    ("solver.repair_single_fallbacks", km, "solver.repair_single_fallbacks", Counter);
    ("oracle.solves", om, "rsp.oracle_solves", Counter);
    ("oracle.narrow_tests", om, "rsp.oracle_narrow_tests", Counter);
    ("oracle.final_dps", om, "rsp.oracle_final_dps", Counter);
    ("oracle.gate_fallbacks", om, "rsp.oracle_gate_fallbacks", Counter)
  ]

(* One reading of every series, by metric name. *)
let globals () =
  List.map
    (fun (name, reg, series, r) ->
      let v =
        match r with
        | Count -> float_of_int (Metrics.count (Metrics.histogram reg series))
        | Sum -> Metrics.sum (Metrics.histogram reg series)
        | Counter -> float_of_int (Metrics.value (Metrics.counter reg series))
      in
      (name, v))
    global_series

let globals_diff a b = List.map2 (fun (name, x) (_, y) -> (name, y -. x)) a b
let global d name = List.assoc name d

(* Layer metrics every workload reports from a globals delta; [wall_ms] is
   the time the delta was taken over. *)
let globals_metrics d ~wall_ms =
  List.map2 (fun (name, _, _, r) (_, v) -> m name (if r = Sum then "ms" else "count") v) global_series d
  @ [ m "search.share" "frac" (if wall_ms > 0. then global d "search.ms" /. wall_ms else 0.) ]

(* The deterministic subset of a globals delta: work counts, no times. *)
let globals_counters d =
  List.filter_map
    (fun (name, _, _, r) -> if r = Sum then None else Some (name, int_of_float (global d name)))
    global_series

(* OCaml GC readings of this process (the main domain's view). *)
type gc = { minor_words : float; major_collections : int; top_heap_words : int }

let gc () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    major_collections = s.Gc.major_collections;
    top_heap_words = s.Gc.top_heap_words;
  }

let gc_metrics a b =
  [ m "gc.minor_mwords" "Mwords" ((b.minor_words -. a.minor_words) /. 1e6);
    m "gc.major_collections" "count" (float_of_int (b.major_collections - a.major_collections));
    m "gc.top_heap_mb" "MB" (float_of_int (b.top_heap_words * (Sys.word_size / 8)) /. 1048576.)
  ]

(* --- the certificate gate ----------------------------------------------------- *)

(* Certifies a solution given as edge-id paths against [inst]; returns the
   violations rendered as text (empty when it certifies). *)
let certify inst ~paths ~cost ~delay =
  let c = Check.certify inst { Instance.paths; cost; delay } in
  if Check.ok c then [] else [ Check.to_string c ]

(* The live [u -> v] edges of [g]. *)
let live g u v = List.filter (fun e -> G.dst g e = v) (G.out_edges g u)

(* Maps a reply's vertex sequences to edge ids of [g]: each hop takes the
   live [u -> v] edge. The benchmark's topologies have at most one live edge
   per ordered pair (checked at set-up and kept so by the churn generator),
   so the mapping is exact. A hop with no live edge maps to id -1, which the
   certificate rejects. *)
let edges_of_vertices g vs =
  let rec go acc = function
    | u :: (v :: _ as rest) ->
      let e = match live g u v with [] -> -1 | es -> List.fold_left min max_int es in
      go (e :: acc) rest
    | _ -> List.rev acc
  in
  go [] vs

let assert_simple g =
  let seen = Hashtbl.create (G.m g) in
  G.iter_edges g (fun e ->
      let key = (G.src g e, G.dst g e) in
      if Hashtbl.mem seen key then failwith "topology has parallel edges";
      Hashtbl.replace seen key ())

(* Run-wide correctness ledger. *)
let problems : string list ref = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt
