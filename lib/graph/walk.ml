module G = Digraph

(* Adjacency restricted to the given edge multiset: vertex -> mutable list of
   unused outgoing edges. *)
let build_adjacency g edges =
  let adj = Hashtbl.create 64 in
  let balance = Hashtbl.create 64 in
  let bump v d =
    Hashtbl.replace balance v (d + Option.value ~default:0 (Hashtbl.find_opt balance v))
  in
  List.iter
    (fun e ->
      let u = G.src g e in
      let existing = Option.value ~default:[] (Hashtbl.find_opt adj u) in
      Hashtbl.replace adj u (e :: existing);
      bump u 1;
      bump (G.dst g e) (-1))
    edges;
  (adj, balance)

let pop_out adj v =
  match Hashtbl.find_opt adj v with
  | None | Some [] -> None
  | Some (e :: rest) ->
    Hashtbl.replace adj v rest;
    Some e

(* Walk forward from [start] until [stop_at] answers true for the current
   vertex, popping enclosed simple cycles onto [cycles] along the way.
   Returns the simple path walked (start .. final vertex). The stack holds
   (vertex, edge taken *from* that vertex). *)
let walk_simple g adj ~start ~stop_at ~cycles =
  let rec go stack v =
    if stop_at v stack then List.rev_map snd stack
    else begin
      match pop_out adj v with
      | None ->
        (* dead end: only possible at the designated stop vertex when degrees
           are consistent; treat as stop *)
        List.rev_map snd stack
      | Some e ->
        let w = G.dst g e in
        (* If w is already on the stack, pop the enclosed cycle. The scan
           runs from the top of the stack (most recent edge, which is [e]
           itself) downward, so [acc] ends up in forward path order. *)
        let rec split acc = function
          | (u, eu) :: rest when u <> w -> split ((u, eu) :: acc) rest
          | (u, eu) :: rest ->
            (* u = w: the cycle is eu followed by the edges accumulated so
               far (which already include [e] at the tail) *)
            ignore u;
            Some (eu :: List.map snd acc, rest)
          | [] -> None
        in
        if w = start && stack = [] then begin
          (* immediate self-returning cycle from start *)
          cycles := [ e ] :: !cycles;
          go stack v
        end
        else begin
          match split [] ((v, e) :: stack) with
          | Some (cycle_edges, rest) ->
            (* the found cycle starts and ends at w *)
            cycles := cycle_edges :: !cycles;
            go rest w
          | None -> go ((v, e) :: stack) w
        end
    end
  in
  go [] start

let decompose_cycles g edges =
  let adj, balance = build_adjacency g edges in
  Hashtbl.iter
    (fun _ b -> if b <> 0 then invalid_arg "Walk.decompose_cycles: unbalanced vertex")
    balance;
  let cycles = ref [] in
  let remaining = Hashtbl.copy adj in
  let rec drain () =
    (* find any vertex with an unused out edge *)
    let start = Hashtbl.fold (fun v es acc -> if es <> [] then Some v else acc) remaining None in
    match start with
    | None -> ()
    | Some v ->
      (* walking from v must come back to v, popping cycles as it goes; the
         walk itself ends as a (possibly empty) path v..v which is itself a
         cycle when non-empty *)
      let path = walk_simple g remaining ~start:v ~stop_at:(fun u stack -> u = v && stack <> []) ~cycles in
      if path <> [] then cycles := path :: !cycles;
      drain ()
  in
  drain ();
  !cycles

(* Walk order: [pos.(v)] is the number of path edges in front of [v] while
   [v] lies on the current simple path from the walk's start, [-1]
   otherwise. Arriving at a vertex already on the path closes the edges
   above it on the stack into one simple cycle. *)
let cycles_of_closed_walk g walk =
  match walk with
  | [] -> []
  | e0 :: _ ->
    let pos = Array.make (G.n g) (-1) in
    let start = G.src g e0 in
    pos.(start) <- 0;
    (* [stack]: path edges, newest first; [depth]: its length; [v]: its end *)
    let rec go stack depth v cycles = function
      | [] ->
        if depth <> 0 || v <> start then
          invalid_arg "Walk.cycles_of_closed_walk: walk is not closed";
        List.rev cycles
      | e :: rest ->
        if G.src g e <> v then invalid_arg "Walk.cycles_of_closed_walk: edges do not chain";
        let w = G.dst g e in
        let at = pos.(w) in
        if at < 0 then begin
          pos.(w) <- depth + 1;
          go (e :: stack) (depth + 1) w cycles rest
        end
        else begin
          (* pop the [depth + 1 - at] edges from w's position up, [e] first;
             consing them restores walk order *)
          let rec pop k cyc stack =
            if k = 0 then (cyc, stack)
            else
              match stack with
              | x :: below ->
                pos.(G.dst g x) <- -1;
                pop (k - 1) (x :: cyc) below
              | [] -> assert false
          in
          let cyc, stack = pop (depth + 1 - at) [] (e :: stack) in
          pos.(w) <- at;
          go stack at w (cyc :: cycles) rest
        end
    in
    go [] 0 start [] walk

let decompose_st g ~src ~dst ~k edges =
  let adj, balance = build_adjacency g edges in
  let bal v = Option.value ~default:0 (Hashtbl.find_opt balance v) in
  if bal src <> k || bal dst <> -k then
    invalid_arg "Walk.decompose_st: source/sink surplus mismatch";
  Hashtbl.iter
    (fun v b ->
      if v <> src && v <> dst && b <> 0 then
        invalid_arg "Walk.decompose_st: unbalanced interior vertex")
    balance;
  let cycles = ref [] in
  let paths = ref [] in
  for _ = 1 to k do
    let p = walk_simple g adj ~start:src ~stop_at:(fun u _ -> u = dst) ~cycles in
    paths := p :: !paths
  done;
  (* leftovers are balanced: decompose them as cycles *)
  let leftover = Hashtbl.fold (fun _ es acc -> es @ acc) adj [] in
  let leftover_cycles = if leftover = [] then [] else decompose_cycles g leftover in
  (List.rev !paths, !cycles @ leftover_cycles)
