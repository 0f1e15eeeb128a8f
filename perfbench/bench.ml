(* The repository benchmark. Runs one workload for a given seed and time,
   checks every answer, and prints the metrics. Invoked through run.py,
   which builds this program first:

     bench.exe --workload <solve-cold|serve-churn> --seed <n>
               --seconds <s> --trace <0|1> [--out <dir>] [--stamp key=value]...

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1. The line before it is
   the full record (stamp, both metric sets, work counters, notes). *)

open Common

let workloads =
  [ ("solve-cold", Solve_cold.run);
    ("serve-churn", Serve.run ~make:Serve_churn.make)
  ]

(* Span names, one per layer the trace attributes self time to. *)
let span_names =
  [ "request"; "gen_late"; "protocol"; "shard_submit"; "shard_barrier"; "shard_wait"; "engine";
    "krsp_solve"; "phase1"; "certify"; "graph_freeze"
  ]

(* Every per-layer metric, in report order, with its unit. A workload that
   does not reach a layer reports 0 for it. *)
let layer_metrics =
  [ ("protocol.parse_us", "us"); ("protocol.print_us", "us"); ("shard.submit_us", "us");
    ("shard.barrier_ms", "ms"); ("shard.wait_ms", "ms"); ("shard.busy_frac", "frac");
    ("shard.shed", "count"); ("shard.max_depth", "count"); ("gen.late_ms", "ms");
    ("engine.hit_ratio", "frac"); ("engine.hits", "count"); ("engine.cold", "count");
    ("engine.warm", "count"); ("engine.hit_ms", "ms"); ("engine.cold_ms", "ms");
    ("engine.warm_ms", "ms"); ("engine.cold_k1_ms", "ms"); ("engine.invalidated_entries", "count");
    ("engine.scoped_invalidations", "count"); ("engine.full_invalidations", "count");
    ("engine.stale_hits_dropped", "count"); ("cache.evictions", "count");
    ("cache.occupancy", "frac"); ("graph.full_freezes", "count"); ("graph.overlay_freezes", "count");
    ("graph.compactions", "count"); ("graph.patched_edges", "count"); ("graph.freeze_us", "us");
    ("solver.solve_ms", "ms"); ("solver.guesses", "count"); ("solver.rounds", "count");
    ("solver.type0", "count"); ("solver.type1", "count"); ("solver.type2", "count");
    ("solver.fallbacks", "count"); ("solver.spec_launched", "count"); ("solver.spec_hits", "count");
    ("solver.spec_wasted", "count"); ("solver.repair_single_hits", "count");
    ("solver.repair_single_fallbacks", "count"); ("phase1.ms", "ms"); ("search.calls", "count");
    ("search.ms", "ms"); ("search.share", "frac"); ("residual.ms", "ms"); ("augment.ms", "ms");
    ("oracle.solves", "count"); ("oracle.narrow_tests", "count"); ("oracle.final_dps", "count");
    ("oracle.gate_fallbacks", "count"); ("pool.tasks", "count"); ("pool.busy_ms", "ms");
    ("gc.minor_mwords", "Mwords"); ("gc.major_collections", "count"); ("gc.top_heap_mb", "MB");
    ("trace.overhead_frac", "frac"); ("trace.spans", "count")
  ]
  @ List.concat_map
      (fun s -> [ ("self." ^ s ^ "_ms", "ms"); ("spans." ^ s, "count") ])
      span_names

let e2e_metrics =
  [ ("setup_s", "s"); ("throughput_rps", "1/s"); ("lat_p50_ms", "ms"); ("lat_tail_ms", "ms");
    ("ok_frac", "frac"); ("cost_ratio", "ratio"); ("peak_rss_mb", "MB")
  ]

(* JSON has no infinity: a latency percentile that lands on a failed
   request is reported as 1e9 ms. *)
let num x = if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else if Float.is_nan x then "0"
  else "1e9"

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (num x.value) x.unit) ms)
  ^ "}"

let obj kvs = "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) kvs) ^ "}"

let usage () =
  prerr_endline
    "usage: bench.exe --workload <solve-cold|serve-churn> --seed <n> --seconds <s> \
     --trace <0|1> [--out <dir>] [--stamp key=value]...";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let out = ref "" and stamp = ref [] in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | "--stamp" :: v :: rest -> (
      match String.index_opt v '=' with
      | Some i ->
        stamp := (String.sub v 0 i, String.sub v (i + 1) (String.length v - i - 1)) :: !stamp;
        parse rest
      | None -> usage ())
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run = match List.assoc_opt !workload workloads with Some r -> r | None -> usage () in
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0. -> (s, t, tr)
    | _ -> usage ()
  in
  let r = run ~seed ~seconds ~trace in
  let spans = !Span.len in
  let layers =
    if not trace then []
    else begin
      let tbl = Span.per_name () in
      let self =
        List.concat_map
          (fun s ->
            let c, ms = Option.value (Hashtbl.find_opt tbl s) ~default:(0, 0.) in
            [ m ("self." ^ s ^ "_ms") "ms" ms; m ("spans." ^ s) "count" (float_of_int c) ])
          span_names
      in
      let have = r.layers @ self @ [ m "trace.spans" "count" (float_of_int spans) ] in
      List.map
        (fun (name, unit) ->
          match List.find_opt (fun x -> x.name = name) have with
          | Some x -> x
          | None -> m name unit 0.)
        layer_metrics
    end
  in
  let e2e =
    List.map
      (fun (name, _) -> List.find (fun x -> x.name = name) r.e2e)
      e2e_metrics
  in
  let problems = List.rev !problems in
  let correct = problems = [] in
  let stamp =
    [ ("workload", Printf.sprintf "%S" !workload); ("seed", string_of_int seed);
      ("seconds", num seconds); ("trace", string_of_bool trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Printf.sprintf "%S" Sys.ocaml_version)
    ]
    @ List.map (fun (k, v) -> (k, Printf.sprintf "%S" v)) (List.rev !stamp)
    @ List.map (fun (k, v) -> (k, Printf.sprintf "%S" v)) r.notes
  in
  List.iter (fun p -> Printf.printf "# PROBLEM %s\n" p) (List.filteri (fun i _ -> i < 20) problems);
  List.iter (fun x -> Printf.printf "# %-32s %14s %s\n" x.name (num x.value) x.unit) (e2e @ layers);
  List.iter (fun (k, v) -> Printf.printf "# counter %-28s %d\n" k v) r.counters;
  let record =
    obj
      [ ("stamp", obj stamp); ("correct", string_of_bool correct);
        ("problems", string_of_int (List.length problems));
        ("attempted", string_of_int r.attempted); ("failed", string_of_int r.failed);
        ("end_to_end", metrics_json e2e); ("per_layer", metrics_json layers);
        ("counters", obj (List.map (fun (k, v) -> (k, string_of_int v)) r.counters))
      ]
  in
  if !out <> "" then begin
    let base =
      Filename.concat !out (Printf.sprintf "%s-seed%d-trace%d" !workload seed (Bool.to_int trace))
    in
    let oc = open_out (base ^ ".json") in
    output_string oc (record ^ "\n");
    close_out oc;
    if trace then Span.write (base ^ ".spans.json")
  end;
  print_endline ("# record " ^ record);
  print_endline
    (obj
       [ ("correct", string_of_bool correct); ("attempted", string_of_int r.attempted);
         ("failed", string_of_int r.failed);
         ("metrics", metrics_json (if trace then layers else e2e))
       ])
