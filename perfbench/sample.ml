(* Order statistics over raw samples. Latency percentiles are computed here
   from every recorded sample, never from the program's log-bucketed
   histograms, whose buckets are about 19% wide. A failed request enters as
   [infinity]: it counts as missing every latency limit. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median_sorted a =
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median xs = median_sorted (sorted xs)

(* The highest nearest-rank percentile that still has at least 10 samples
   above it: the sample at rank n - 10. Returns the value, the percentile
   it sits at and the sample count. With 10 samples or fewer the maximum is
   returned at percentile 100. *)
let tail xs =
  let beyond = 10 in
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan, 0)
  else if n <= beyond then (a.(n - 1), 100., n)
  else (a.(n - beyond - 1), 100. *. float_of_int (n - beyond) /. float_of_int n, n)

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

(* A growable float buffer, for samples whose count is not known up front. *)
type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 256 0.; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0. in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len
