module G = Digraph
module V = Digraph.View

type result =
  | Dist of { dist : int array; parent : int array }
  | Negative_cycle of Path.t

(* FIFO label correcting with Tarjan's subtree disassembly (Cherkassky &
   Goldberg, "Negative-cycle detection algorithms", Math. Prog. 1999). The
   parent tree is a preorder list threaded through [next]/[prev], circular
   through a virtual root [n] whose children are the seeds; [depth.(v) < 0]
   marks a vertex outside the tree. When [v] improves, its subtree is cut
   out and every strict descendant detached: their labels are stale and
   will improve again through [v], so a detached vertex is skipped when it
   is popped. An improvement of [v] by an arc out of [v]'s own subtree
   closes a negative cycle at once — the tree path from [v] plus that arc. *)
let run_from g ~weight ~disabled dist =
  let view = G.freeze g in
  let n = G.n g in
  let parent = Array.make n (-1) in
  let next = Array.make (n + 1) n and prev = Array.make (n + 1) n in
  let depth = Array.make (n + 1) (-1) in
  depth.(n) <- 0;
  let in_queue = Array.make n false in
  let q = Queue.create () in
  let last = ref n in
  for v = 0 to n - 1 do
    if dist.(v) <> max_int then begin
      depth.(v) <- 1;
      next.(!last) <- v;
      prev.(v) <- !last;
      last := v;
      Queue.add v q;
      in_queue.(v) <- true
    end
  done;
  next.(!last) <- n;
  prev.(n) <- !last;
  let cycle = ref None in
  (try
     while not (Queue.is_empty q) do
       let u = Queue.pop q in
       in_queue.(u) <- false;
       if depth.(u) > 0 then begin
         let du = dist.(u) in
         V.iter_out view u (fun e ->
             if not (disabled e) then begin
               let v = V.dst view e in
               let nd = du + weight e in
               if nd < dist.(v) then begin
                 let dv = depth.(v) in
                 if dv > 0 then begin
                   (* cut v's subtree [v, x) out of the list *)
                   let x = ref next.(v) in
                   while depth.(!x) > dv && !x <> u do
                     depth.(!x) <- -1;
                     x := next.(!x)
                   done;
                   if v = u || (!x = u && depth.(u) > dv) then begin
                     let rec collect acc w =
                       if w = v then acc
                       else
                         let pe = parent.(w) in
                         collect (pe :: acc) (G.src g pe)
                     in
                     cycle := Some (collect [ e ] u);
                     raise_notrace Exit
                   end;
                   next.(prev.(v)) <- !x;
                   prev.(!x) <- prev.(v)
                 end;
                 dist.(v) <- nd;
                 parent.(v) <- e;
                 depth.(v) <- depth.(u) + 1;
                 let after = next.(u) in
                 next.(u) <- v;
                 prev.(v) <- u;
                 next.(v) <- after;
                 prev.(after) <- v;
                 if not in_queue.(v) then begin
                   Queue.add v q;
                   in_queue.(v) <- true
                 end
               end
             end)
       end
     done
   with Exit -> ());
  match !cycle with
  | Some c -> Negative_cycle c
  | None -> Dist { dist; parent }

let run g ~weight ?(disabled = fun _ -> false) ~src () =
  let dist = Array.make (G.n g) max_int in
  dist.(src) <- 0;
  run_from g ~weight ~disabled dist

let negative_cycle g ~weight ?(disabled = fun _ -> false) () =
  (* virtual super-source: every vertex starts at distance 0 *)
  let dist = Array.make (G.n g) 0 in
  match run_from g ~weight ~disabled dist with
  | Dist _ -> None
  | Negative_cycle c -> Some c

let shortest_path g ~weight ?disabled ~src ~dst () =
  match run g ~weight ?disabled ~src () with
  | Negative_cycle _ -> failwith "Bellman_ford.shortest_path: negative cycle"
  | Dist { dist; parent } ->
    if dist.(dst) = max_int then None
    else begin
      let rec go acc v =
        let e = parent.(v) in
        if e = -1 then acc else go (e :: acc) (G.src g e)
      in
      Some (dist.(dst), go [] dst)
    end
