(* solve-cold: one caller in a closed loop runs cold [Krsp.solve] with
   default options (DP engine, the default pool) over a fixed corpus of
   kRSP instances, in an order drawn from the seed. See README.md for why
   the corpus is fixed and how it was chosen. *)

open Common
module Krsp = Krsp_core.Krsp
module Topology = Krsp_gen.Topology
module Pool = Krsp_util.Pool

type family = Fat_tree | Erdos | Waxman | Waxman_wide

let topology family rng =
  match family with
  | Fat_tree -> Topology.fat_tree rng ~pods:4 Topology.default_weights
  | Erdos -> Topology.erdos_renyi rng ~n:24 ~p:0.4 Topology.default_weights
  | Waxman -> Topology.waxman rng ~n:32 ~alpha:0.9 ~beta:0.3 Topology.default_weights
  | Waxman_wide ->
    Topology.waxman rng ~n:32 ~alpha:0.9 ~beta:0.3
      { Topology.default_weights with Topology.cost_range = (10, 200) }

(* (family, k, instance seeds). Every instance is Instgen's draw at
   tightness 0.5 from its own seed. Per family these are the first seeds
   from 7001, without the ones whose solve took longer than 2.5 s at pool
   width 1 on the reference host (README.md lists them), cut so that one
   pass takes about 5 s. *)
let corpus =
  [ (Fat_tree, 2, List.init 8 (fun i -> 7001 + i));
    (Erdos, 2, List.init 8 (fun i -> 7001 + i));
    (Waxman, 2, [ 7001; 7002; 7004; 7005; 7006; 7007; 7008 ]);
    (Erdos, 3, List.init 4 (fun i -> 7001 + i));
    (Waxman_wide, 2, [ 7002 ]);
    (Waxman, 1, List.init 8 (fun i -> 7001 + i))
  ]

let instance (family, k, seed) =
  let rng = X.create ~seed in
  let g = topology family rng in
  match Krsp_gen.Instgen.instance rng g { Krsp_gen.Instgen.k; tightness = 0.5 } with
  | Some t -> t
  | None -> failwith (Printf.sprintf "corpus instance %d has no feasible endpoints" seed)

type setup = { instances : Instance.t array; lower : int array; order : int array }

let setup ~seed =
  let instances =
    List.concat_map (fun (f, k, seeds) -> List.map (fun s -> instance (f, k, s)) seeds) corpus
    |> Array.of_list
  in
  let lower =
    Array.map
      (fun t ->
        match Krsp_flow.Suurballe.min_cost t.Instance.graph ~src:t.src ~dst:t.dst ~k:t.k with
        | Some c -> c
        | None -> failwith "corpus instance without k disjoint paths")
      instances
  in
  let order = Array.init (Array.length instances) Fun.id in
  X.shuffle (X.create ~seed) order;
  { instances; lower; order }

type solved = { ms : float; cost : int; delay : int; stats : Krsp.stats }

(* One pass over the corpus in seed order. With [traced], each solve is a
   [krsp_solve] span whose inner time is the phase-histogram delta, and
   the benchmark also times [Phase1.run] and the certificate check as
   their own spans; [extra_ns] returns the time those extra calls took so
   the caller can leave it out of the pass time. *)
let pass s ~traced =
  let extra = ref 0L in
  let out =
    Array.map
      (fun i ->
        let inst = s.instances.(i) in
        let g0 = if traced then Some (globals ()) else None in
        let t0 = now_ns () in
        let r = Krsp.solve inst () in
        let t1 = now_ns () in
        (match g0 with
        | None -> ()
        | Some g0 ->
          let d = globals_diff g0 (globals ()) in
          let inner_ms = global d "search.ms" +. global d "residual.ms" +. global d "augment.ms" in
          let x0 = now_ns () in
          ignore (Span.add ~req:i "krsp_solve" t0 t1 ~inner_ns:(Int64.of_float (inner_ms *. 1e6)));
          Span.around ~req:i "phase1" (fun () ->
              ignore (Krsp_core.Phase1.run Krsp_core.Phase1.Min_sum inst));
          extra := Int64.add !extra (Int64.sub (now_ns ()) x0));
        match r with
        | Ok (sol, stats) ->
          Some (i, { ms = ms_of_ns (Int64.sub t1 t0); cost = sol.Instance.cost; delay = sol.delay; stats }, sol)
        | Error _ ->
          problem "corpus instance %d: solver reported infeasible" i;
          None)
      s.order
  in
  (out, !extra)

let phase1_ms s =
  let t = ref 0. in
  Array.iter
    (fun inst ->
      let _, ms = Krsp_util.Timer.time_ms (fun () -> Krsp_core.Phase1.run Krsp_core.Phase1.Min_sum inst) in
      t := !t +. ms)
    s.instances;
  !t /. float_of_int (Array.length s.instances)

let setup_repeats = 21
let latency_passes = 3

let run ~seed ~seconds ~trace =
  (* set-up takes a few milliseconds here, so one reading is mostly noise:
     the median of many is reported, each taken after a full collection
     and with only one set-up alive at a time *)
  let last = ref None in
  let setup_times =
    Array.init setup_repeats (fun _ ->
        last := None;
        Gc.full_major ();
        let t0 = now_ns () in
        last := Some (setup ~seed);
        since_s t0)
  in
  let s = Option.get !last in
  let setup_s = Sample.median setup_times in
  let pool = Pool.default () in
  let pool_kv () = Pool.to_kv pool in
  let gc0 = gc () in
  let glob0 = globals () in
  (* whole passes, at least [latency_passes], until [seconds] have
     elapsed; the first pass carries the deterministic counters and is
     certified. Latency percentiles are taken over the first
     [latency_passes] passes only, so that the rank the tail sits at does
     not depend on how many passes fit in the time. *)
  let lat = Sample.buf () in
  let times = Array.map (fun _ -> Sample.buf ()) s.instances in
  let first = ref [||] and first_globals = ref None in
  let passes = ref 0 and solves = ref 0 and failed = ref 0 in
  let cost_sum = ref 0 and lower_sum = ref 0 in
  let t_start = now_ns () in
  while !passes < latency_passes || since_s t_start < seconds do
    let out, _ = pass s ~traced:false in
    if !passes = 0 then begin
      first := out;
      first_globals := Some (globals_diff glob0 (globals ()))
    end
    else
      Array.iteri
        (fun j r ->
          match (r, !first.(j)) with
          | Some (_, a, _), Some (_, b, _) when a.cost = b.cost && a.delay = b.delay -> ()
          | _ -> problem "pass %d slot %d differs from the first pass" !passes j)
        out;
    Array.iter
      (function
        | Some (i, r, _) ->
          if !passes < latency_passes then Sample.push lat r.ms;
          Sample.push times.(i) r.ms;
          if !passes = 0 then begin
            cost_sum := !cost_sum + r.cost;
            lower_sum := !lower_sum + s.lower.(i)
          end
        | None ->
          if !passes < latency_passes then Sample.push lat infinity;
          incr failed)
      out;
    solves := !solves + Array.length out;
    incr passes
  done;
  let gc1 = gc () in
  let rss = peak_rss_mb () in
  Array.iter
    (function
      | Some (i, r, sol) ->
        let bad =
          certify s.instances.(i) ~paths:sol.Instance.paths ~cost:r.cost ~delay:r.delay
        in
        List.iter (fun v -> problem "corpus instance %d: %s" i v) bad;
        (* every pass repeated this answer *)
        if bad <> [] then failed := !failed + !passes
      | None -> ())
    !first;
  let lat = Sample.contents lat in
  let p50 = Sample.median lat in
  let tail, tail_pct, tail_n = Sample.tail lat in
  let first_ok = Array.to_list !first |> List.filter_map Fun.id in
  let sum f = List.fold_left (fun a (_, r, _) -> a + f r) 0 first_ok in
  let fg = Option.get !first_globals in
  let counters =
    [ ("solves", List.length first_ok);
      ("solver.guesses", sum (fun r -> r.stats.Krsp.guesses_tried));
      ("solver.rounds", sum (fun r -> r.stats.Krsp.iterations));
      ("solver.type0", sum (fun r -> r.stats.Krsp.type0));
      ("solver.type1", sum (fun r -> r.stats.Krsp.type1));
      ("solver.type2", sum (fun r -> r.stats.Krsp.type2));
      ("solver.fallbacks", sum (fun r -> Bool.to_int r.stats.Krsp.used_fallback));
      ("answers.cost_sum", sum (fun r -> r.cost))
    ]
    @ globals_counters fg
  in
  let e2e =
    [ m "setup_s" "s" setup_s;
      (* per instance the median over passes, so that a stall of the
         host during one pass does not move it *)
      m "throughput_rps" "1/s"
        (float_of_int (Array.length s.instances)
        /. (Array.fold_left (fun a b -> a +. Sample.median (Sample.contents b)) 0. times /. 1e3));
      m "lat_p50_ms" "ms" p50;
      m "lat_tail_ms" "ms" tail;
      m "ok_frac" "frac" (1. -. (float_of_int !failed /. float_of_int !solves));
      m "cost_ratio" "ratio" (float_of_int !cost_sum /. float_of_int !lower_sum);
      m "peak_rss_mb" "MB" rss
    ]
  in
  let layers =
    if not trace then []
    else begin
      (* the traced pass: the same corpus again, with spans *)
      Span.enable ();
      let kv0 = pool_kv () in
      let t0 = now_ns () in
      let out, extra = pass s ~traced:true in
      let traced_ms = ms_of_ns (Int64.sub (Int64.sub (now_ns ()) t0) extra) in
      let untraced_ms =
        List.fold_left (fun a (_, r, _) -> a +. r.ms) 0. first_ok
      in
      Array.iter
        (function
          | Some (i, r, sol) ->
            ignore
              (Span.around ~req:i "certify" (fun () ->
                   certify s.instances.(i) ~paths:sol.Instance.paths ~cost:r.cost ~delay:r.delay))
          | None -> ())
        out;
      let kv1 = pool_kv () in
      let kv_int kv name = try int_of_string (List.assoc name kv) with Not_found | Failure _ -> 0 in
      let busy kv =
        List.fold_left
          (fun a (k, v) ->
            if String.length k > 12 && String.sub k 0 11 = "pool.domain"
               && Filename.check_suffix k ".busy_us"
            then a + int_of_string v
            else a)
          0 kv
      in
      let n = float_of_int (List.length first_ok) in
      let solve_ms = List.fold_left (fun a (_, r, _) -> a +. r.ms) 0. first_ok /. n in
      [ m "solver.solve_ms" "ms" solve_ms;
        m "phase1.ms" "ms" (phase1_ms s);
        m "pool.tasks" "count" (float_of_int (kv_int kv1 "pool.tasks" - kv_int kv0 "pool.tasks"));
        m "pool.busy_ms" "ms" (float_of_int (busy kv1 - busy kv0) /. 1e3);
        m "trace.overhead_frac" "frac" ((traced_ms -. untraced_ms) /. untraced_ms)
      ]
      @ List.map
          (fun name -> m name "count" (float_of_int (List.assoc name counters)))
          [ "solver.guesses"; "solver.rounds"; "solver.type0"; "solver.type1"; "solver.type2";
            "solver.fallbacks" ]
      @ globals_metrics fg ~wall_ms:untraced_ms
      @ gc_metrics gc0 gc1
    end
  in
  let notes =
    [ ("passes", string_of_int !passes); ("solves", string_of_int !solves);
      ("corpus", string_of_int (Array.length s.instances));
      ("tail_percentile", Printf.sprintf "%.2f" tail_pct); ("tail_samples", string_of_int tail_n);
      ("pool_width", string_of_int (Pool.width pool)); ("shards", "0")
    ]
  in
  { e2e; layers; counters; attempted = !solves; failed = !failed; notes }
