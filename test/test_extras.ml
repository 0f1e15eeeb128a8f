(* Tests for the second wave of modules: graph IO, Floyd-Warshall, Yen's
   k shortest paths, kBCP, min-max disjoint paths, and priority routing. *)

module G = Krsp_graph.Digraph
module Path = Krsp_graph.Path
module Io = Krsp_graph.Io
module FW = Krsp_graph.Floyd_warshall
module Yen = Krsp_graph.Yen
module Dijkstra = Krsp_graph.Dijkstra
module BF = Krsp_graph.Bellman_ford
module X = Krsp_util.Xoshiro
module Instance = Krsp_core.Instance
module Kbcp = Krsp_core.Kbcp
module Minmax = Krsp_core.Minmax
module PR = Krsp_route.Priority_routing

let random_graph rng ~n ~p ~wmin ~wmax =
  let g = G.create ~n () in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && X.float rng 1.0 < p then
        ignore (G.add_edge g ~src:u ~dst:v ~cost:(X.int_in rng wmin wmax) ~delay:(X.int_in rng wmin wmax))
    done
  done;
  g

let diamond () =
  let g = G.create ~n:4 () in
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:1 ~delay:10);
  ignore (G.add_edge g ~src:1 ~dst:3 ~cost:1 ~delay:10);
  ignore (G.add_edge g ~src:0 ~dst:2 ~cost:2 ~delay:1);
  ignore (G.add_edge g ~src:2 ~dst:3 ~cost:2 ~delay:1);
  ignore (G.add_edge g ~src:0 ~dst:3 ~cost:10 ~delay:5);
  g

(* --- Io -------------------------------------------------------------------- *)

let test_io_roundtrip () =
  let g = diamond () in
  let g2 = Io.of_edge_list (Io.to_edge_list g) in
  Alcotest.(check int) "n" (G.n g) (G.n g2);
  Alcotest.(check int) "m" (G.m g) (G.m g2);
  G.iter_edges g (fun e ->
      Alcotest.(check int) "src" (G.src g e) (G.src g2 e);
      Alcotest.(check int) "dst" (G.dst g e) (G.dst g2 e);
      Alcotest.(check int) "cost" (G.cost g e) (G.cost g2 e);
      Alcotest.(check int) "delay" (G.delay g e) (G.delay g2 e))

let test_io_comments_and_blanks () =
  let g = Io.of_edge_list "# a comment\n\nn 3\n  e 0 1 5 7 \n# another\ne 1 2 1 1\n" in
  Alcotest.(check int) "n" 3 (G.n g);
  Alcotest.(check int) "m" 2 (G.m g);
  Alcotest.(check int) "cost" 5 (G.cost g 0)

let test_io_errors () =
  let expect_failure text =
    match Io.of_edge_list text with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail ("should reject: " ^ text)
  in
  expect_failure "e 0 1 2 3\n";
  expect_failure "n 2\nn 3\n";
  expect_failure "n 2\ne 0 5 1 1\n";
  expect_failure "n 2\ne 0 1 x 1\n";
  expect_failure "garbage\n";
  expect_failure ""

let test_io_dot () =
  let g = diamond () in
  let dot = Io.to_dot ~highlight:(fun e -> if e = 0 then Some 0 else None) g in
  let contains needle =
    let nh = String.length dot and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub dot i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph" true (contains "digraph");
  Alcotest.(check bool) "highlight color" true (contains "color=red");
  Alcotest.(check bool) "label" true (contains "c1 d10")

(* --- Floyd-Warshall ---------------------------------------------------------- *)

let test_fw_diamond () =
  let g = diamond () in
  match FW.run g ~weight:(G.cost g) () with
  | FW.Negative_cycle -> Alcotest.fail "no negative cycle here"
  | FW.Dist d ->
    Alcotest.(check int) "0->3" 2 d.(0).(3);
    Alcotest.(check int) "1->3" 1 d.(1).(3);
    Alcotest.(check bool) "3->0 unreachable" true (d.(3).(0) = max_int)

let test_fw_negative_cycle () =
  let g = G.create ~n:2 () in
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:1 ~delay:0);
  ignore (G.add_edge g ~src:1 ~dst:0 ~cost:(-2) ~delay:0);
  Alcotest.(check bool) "detected" true (FW.run g ~weight:(G.cost g) () = FW.Negative_cycle)

let test_fw_diameter () =
  let g = diamond () in
  Alcotest.(check (option int)) "diameter" (Some 2) (FW.diameter g ~weight:(G.cost g))

let fw_matches_bf_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"floyd-warshall matches bellman-ford rows" ~count:60
       QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let n = 3 + X.int rng 5 in
         let g = random_graph rng ~n ~p:0.4 ~wmin:(-3) ~wmax:10 in
         match FW.run g ~weight:(G.cost g) () with
         | FW.Negative_cycle -> (
           (* the cycle Bellman–Ford reports is simple and negative *)
           match BF.negative_cycle g ~weight:(G.cost g) () with
           | Some c -> Path.is_simple_cycle g c && Path.cost g c < 0
           | None -> false)
         | FW.Dist d ->
           BF.negative_cycle g ~weight:(G.cost g) () = None
           && List.for_all
                (fun src ->
                  match BF.run g ~weight:(G.cost g) ~src () with
                  | BF.Negative_cycle _ -> false
                  | BF.Dist { dist; _ } -> dist = d.(src))
                (List.init n Fun.id)))

(* --- Yen --------------------------------------------------------------------- *)

let test_yen_diamond () =
  let g = diamond () in
  let paths = Yen.k_shortest g ~weight:(G.cost g) ~src:0 ~dst:3 ~k:5 in
  Alcotest.(check int) "exactly 3 simple paths" 3 (List.length paths);
  let weights = List.map fst paths in
  Alcotest.(check (list int)) "sorted weights" [ 2; 4; 10 ] weights;
  List.iter
    (fun (w, p) ->
      Alcotest.(check bool) "valid" true (Path.is_valid g ~src:0 ~dst:3 p);
      Alcotest.(check bool) "simple" true (Path.is_simple g p);
      Alcotest.(check int) "weight matches" w (Path.cost g p))
    paths

let test_yen_no_path () =
  let g = G.create ~n:2 () in
  Alcotest.(check int) "empty" 0 (List.length (Yen.k_shortest g ~weight:(G.cost g) ~src:0 ~dst:1 ~k:3))

(* brute force all simple paths for the property test *)
let all_simple_paths g ~src ~dst =
  let out = ref [] in
  let rec dfs path visited v =
    if v = dst then out := List.rev path :: !out
    else
      G.iter_out g v (fun e ->
          let w = G.dst g e in
          if not (List.mem w visited) then dfs (e :: path) (w :: visited) w)
  in
  dfs [] [ src ] src;
  !out

let yen_matches_brute_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"yen returns the k cheapest simple paths" ~count:50
       QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let n = 3 + X.int rng 4 in
         let g = random_graph rng ~n ~p:0.5 ~wmin:0 ~wmax:9 in
         let k = 1 + X.int rng 4 in
         let yen = Yen.k_shortest g ~weight:(G.cost g) ~src:0 ~dst:(n - 1) ~k in
         let brute =
           all_simple_paths g ~src:0 ~dst:(n - 1)
           |> List.map (fun p -> Path.cost g p)
           |> List.sort compare
         in
         let expected_count = min k (List.length brute) in
         List.length yen = expected_count
         && List.map fst yen = List.filteri (fun i _ -> i < expected_count) brute
         && List.for_all (fun (_, p) -> Path.is_simple g p) yen))

(* --- Kbcp --------------------------------------------------------------------- *)

let test_kbcp_feasible () =
  let g = diamond () in
  match Kbcp.solve g ~src:0 ~dst:3 ~k:2 ~cost_bound:20 ~delay_bound:10 () with
  | Kbcp.Feasible sol ->
    Alcotest.(check bool) "both budgets" true (sol.Instance.cost <= 20 && sol.Instance.delay <= 10)
  | _ -> Alcotest.fail "budgets (20, 10) are satisfiable by {0-2-3, 0-3}"

let test_kbcp_infeasible_certified () =
  let g = diamond () in
  (* even the min cost pair costs 6 *)
  (match Kbcp.solve g ~src:0 ~dst:3 ~k:2 ~cost_bound:5 ~delay_bound:100 () with
  | Kbcp.Infeasible_certified -> ()
  | _ -> Alcotest.fail "cost bound 5 < min-sum 6 must be certified infeasible");
  (* k=4 impossible *)
  match Kbcp.solve g ~src:0 ~dst:3 ~k:4 ~cost_bound:100 ~delay_bound:100 () with
  | Kbcp.Infeasible_certified -> ()
  | _ -> Alcotest.fail "k=4 must be certified infeasible"

let kbcp_sound_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"kbcp verdicts are sound" ~count:40 QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let n = 4 + X.int rng 4 in
         let g = random_graph rng ~n ~p:0.5 ~wmin:0 ~wmax:6 in
         let cost_bound = X.int rng 40 and delay_bound = X.int rng 40 in
         match Kbcp.solve g ~src:0 ~dst:(n - 1) ~k:2 ~cost_bound ~delay_bound () with
         | Kbcp.Feasible sol ->
           sol.Instance.cost <= cost_bound && sol.Instance.delay <= delay_bound
           && Path.edge_disjoint sol.Instance.paths
         | Kbcp.Feasible_relaxed (sol, cs, ds) ->
           Float.max cs ds > 1.
           && float_of_int sol.Instance.cost <= (cs *. float_of_int (max 1 cost_bound)) +. 1e-6
           && float_of_int sol.Instance.delay <= (ds *. float_of_int (max 1 delay_bound)) +. 1e-6
         | Kbcp.Infeasible_certified ->
           (* verify against exact: no solution can satisfy both bounds *)
           (match
              Krsp_core.Exact.solve
                (Instance.create g ~src:0 ~dst:(n - 1) ~k:2 ~delay_bound)
            with
           | exception Invalid_argument _ -> true
           | None -> true
           | Some opt -> opt.Krsp_core.Exact.cost > cost_bound)
         | Kbcp.Unknown -> true))

(* --- Minmax -------------------------------------------------------------------- *)

let test_minmax_diamond () =
  let g = diamond () in
  match Minmax.two_approx g ~weight:(G.cost g) ~src:0 ~dst:3 with
  | Some r ->
    Alcotest.(check int) "total = min-sum" 6 r.Minmax.total;
    Alcotest.(check int) "longer" 4 r.Minmax.longer;
    Alcotest.(check int) "lower bound" 3 r.Minmax.lower_bound;
    Alcotest.(check bool) "2-approx certificate" true
      (r.Minmax.longer <= 2 * r.Minmax.lower_bound);
    Alcotest.(check bool) "disjoint" true (Path.edge_disjoint r.Minmax.paths)
  | None -> Alcotest.fail "two disjoint paths exist"

let test_minmax_length_bounded () =
  let g = diamond () in
  (match Minmax.length_bounded g ~weight:(G.cost g) ~src:0 ~dst:3 ~bound:4 with
  | `Yes paths -> Alcotest.(check int) "witness pair" 2 (List.length paths)
  | _ -> Alcotest.fail "bound 4 admits the min-sum pair");
  match Minmax.length_bounded g ~weight:(G.cost g) ~src:0 ~dst:3 ~bound:2 with
  | `No_certified -> ()
  | `Yes _ -> Alcotest.fail "two paths of length <= 2 don't exist"
  | `Unknown -> () (* acceptable: in the factor-2 gap *)

let minmax_sound_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"minmax 2-approx invariants" ~count:60 QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let n = 4 + X.int rng 4 in
         let g = random_graph rng ~n ~p:0.5 ~wmin:0 ~wmax:9 in
         match Minmax.two_approx g ~weight:(G.cost g) ~src:0 ~dst:(n - 1) with
         | None -> not (Krsp_graph.Bfs.edge_connectivity_at_least g ~src:0 ~dst:(n - 1) ~k:2)
         | Some r ->
           Path.edge_disjoint r.Minmax.paths
           && List.length r.Minmax.paths = 2
           && r.Minmax.longer <= r.Minmax.total
           && 2 * r.Minmax.lower_bound >= r.Minmax.total
           && r.Minmax.longer <= 2 * max 1 r.Minmax.lower_bound))

(* --- Priority routing ----------------------------------------------------------- *)

let routing_fixture () =
  let g = diamond () in
  (* two disjoint paths: fast (delay 2) and slow (delay 20) *)
  let fast = [ 2; 3 ] and slow = [ 0; 1 ] in
  (g, [ slow; fast ])

let test_routing_urgent_gets_fast () =
  let g, paths = routing_fixture () in
  let classes =
    [ { PR.name = "voice"; priority = 0; volume = 0.5 };
      { PR.name = "bulk"; priority = 9; volume = 1.0 }
    ]
  in
  let a = PR.assign g ~paths ~classes in
  Alcotest.(check (float 1e-9)) "voice rides the fast path" 2.
    (List.assoc "voice" a.PR.class_delay);
  Alcotest.(check bool) "urgency respected" true (PR.urgency_respected a);
  Alcotest.(check (float 1e-9)) "no overflow" 0. a.PR.overflow

let test_routing_spill_over () =
  let g, paths = routing_fixture () in
  let classes = [ { PR.name = "video"; priority = 1; volume = 1.5 } ] in
  let a = PR.assign g ~paths ~classes in
  (* 1.0 on the fast path (delay 2), 0.5 on the slow (delay 20) *)
  Alcotest.(check (float 1e-6)) "weighted mean" ((1.0 *. 2. +. 0.5 *. 20.) /. 1.5)
    (List.assoc "video" a.PR.class_delay);
  Alcotest.(check (float 1e-9)) "no overflow" 0. a.PR.overflow

let test_routing_overflow () =
  let g, paths = routing_fixture () in
  let classes = [ { PR.name = "flood"; priority = 0; volume = 5.0 } ] in
  let a = PR.assign g ~paths ~classes in
  Alcotest.(check (float 1e-9)) "overflow = demand - capacity" 3.0 a.PR.overflow

let test_routing_rejects_negative () =
  let g, paths = routing_fixture () in
  Alcotest.check_raises "negative volume"
    (Invalid_argument "Priority_routing.assign: negative volume") (fun () ->
      ignore (PR.assign g ~paths ~classes:[ { PR.name = "x"; priority = 0; volume = -1. } ]))

let routing_invariants_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"routing: urgency monotone, mean within bounds" ~count:60
       QCheck2.Gen.(pair int (int_range 1 5))
       (fun (seed, nclasses) ->
         let rng = X.create ~seed in
         let g, paths = routing_fixture () in
         let classes =
           List.init nclasses (fun i ->
               { PR.name = Printf.sprintf "c%d" i; priority = X.int rng 5;
                 volume = X.float rng 1.2 })
         in
         let a = PR.assign g ~paths ~classes in
         let delays = List.map (fun info -> float_of_int info.PR.path_delay) a.PR.paths in
         let lo = Krsp_util.Stats.minimum delays and hi = Krsp_util.Stats.maximum delays in
         PR.urgency_respected a
         && a.PR.overflow >= -1e-9
         && (PR.mean_delay a = 0. || (PR.mean_delay a >= lo -. 1e-9 && PR.mean_delay a <= hi +. 1e-9))))

let suites =
  [ ( "io",
      [ Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
        Alcotest.test_case "comments and blanks" `Quick test_io_comments_and_blanks;
        Alcotest.test_case "errors" `Quick test_io_errors;
        Alcotest.test_case "dot" `Quick test_io_dot
      ] );
    ( "floyd-warshall",
      [ Alcotest.test_case "diamond" `Quick test_fw_diamond;
        Alcotest.test_case "negative cycle" `Quick test_fw_negative_cycle;
        Alcotest.test_case "diameter" `Quick test_fw_diameter;
        fw_matches_bf_prop
      ] );
    ( "yen",
      [ Alcotest.test_case "diamond" `Quick test_yen_diamond;
        Alcotest.test_case "no path" `Quick test_yen_no_path;
        yen_matches_brute_prop
      ] );
    ( "kbcp",
      [ Alcotest.test_case "feasible" `Quick test_kbcp_feasible;
        Alcotest.test_case "infeasible certified" `Quick test_kbcp_infeasible_certified;
        kbcp_sound_prop
      ] );
    ( "minmax",
      [ Alcotest.test_case "diamond" `Quick test_minmax_diamond;
        Alcotest.test_case "length bounded" `Quick test_minmax_length_bounded;
        minmax_sound_prop
      ] );
    ( "priority-routing",
      [ Alcotest.test_case "urgent gets fast path" `Quick test_routing_urgent_gets_fast;
        Alcotest.test_case "spill over" `Quick test_routing_spill_over;
        Alcotest.test_case "overflow" `Quick test_routing_overflow;
        Alcotest.test_case "rejects negative volume" `Quick test_routing_rejects_negative;
        routing_invariants_prop
      ] )
  ]
