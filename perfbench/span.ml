(* The benchmark's own spans, recorded from outside the program around each
   call into a layer. A span has a name (the layer), a request id shared by
   every span of one request, a parent span (or -1) and monotonic start and
   end times. [inner_ns] is time inside the span that a program counter
   attributes to a deeper layer (for example the cycle-search histogram
   delta over one solve); it is subtracted from the span's self time.

   Spans are kept in memory and written out when the run ends. Recording is
   off unless [enable] was called, and all recording happens on the
   benchmark's main domain. *)

type t = {
  name : string;
  req : int;
  parent : int;
  t0 : int64;
  t1 : int64;
  inner_ns : int64;
}

let on = ref false
let spans : t array ref = ref [||]
let len = ref 0

let enable () =
  on := true;
  spans := Array.make 4096 { name = ""; req = 0; parent = -1; t0 = 0L; t1 = 0L; inner_ns = 0L };
  len := 0

(* Records a span and returns its id, or -1 when tracing is off. *)
let add ?(parent = -1) ?(inner_ns = 0L) ~req name t0 t1 =
  if not !on then -1
  else begin
    if !len = Array.length !spans then begin
      let bigger = Array.make (2 * !len) !spans.(0) in
      Array.blit !spans 0 bigger 0 !len;
      spans := bigger
    end;
    !spans.(!len) <- { name; req; parent; t0; t1; inner_ns };
    incr len;
    !len - 1
  end

(* Times [f] as a span. *)
let around ~req name f =
  if not !on then f ()
  else begin
    let t0 = Krsp_util.Timer.now_ns () in
    let r = f () in
    ignore (add ~req name t0 (Krsp_util.Timer.now_ns ()));
    r
  end

(* Self time: the span's duration minus the union of its children's
   intervals (clipped to the span) minus [inner_ns], at least 0. *)
let self_times () =
  let n = !len in
  let a = !spans in
  let children = Array.make n [] in
  for i = n - 1 downto 0 do
    let p = a.(i).parent in
    if p >= 0 then children.(p) <- i :: children.(p)
  done;
  Array.init n (fun i ->
      let s = a.(i) in
      let kids =
        List.map (fun c -> (max a.(c).t0 s.t0, min a.(c).t1 s.t1)) children.(i)
        |> List.filter (fun (x, y) -> Int64.compare x y < 0)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (x, y) ->
            let x = if Int64.compare x hi < 0 then hi else x in
            if Int64.compare x y < 0 then (Int64.add acc (Int64.sub y x), y) else (acc, hi))
          (0L, Int64.min_int) kids
      in
      (* [inner_ns] sums over domains, so with a pool wider than 1 it can
         exceed the span; self time does not go below 0 *)
      Int64.(max 0L (sub (sub (sub s.t1 s.t0) covered) s.inner_ns)))

(* Per-name totals: (span count, summed self time in ms). *)
let per_name () =
  let self = self_times () in
  let tbl = Hashtbl.create 16 in
  for i = 0 to !len - 1 do
    let s = !spans.(i) in
    let c, ms = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.) in
    Hashtbl.replace tbl s.name (c + 1, ms +. (Int64.to_float self.(i) /. 1e6))
  done;
  tbl

let write path =
  let oc = open_out path in
  let base = if !len = 0 then 0L else !spans.(0).t0 in
  let base = ref base in
  for i = 0 to !len - 1 do
    if Int64.compare !spans.(i).t0 !base < 0 then base := !spans.(i).t0
  done;
  let us t = Int64.to_float (Int64.sub t !base) /. 1e3 in
  output_string oc "[\n";
  for i = 0 to !len - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc
      "%s{\"id\":%d,\"name\":%S,\"req\":%d,\"parent\":%d,\"start_us\":%.3f,\"end_us\":%.3f,\"inner_us\":%.3f}\n"
      (if i = 0 then "" else ",")
      i s.name s.req s.parent (us s.t0) (us s.t1)
      (Int64.to_float s.inner_ns /. 1e3)
  done;
  output_string oc "]\n";
  close_out oc
