(* Order statistics over the raw samples the benchmark holds. Nothing
   here reads a Metrics histogram: bucket interpolation would report a
   single 12.48 s sample as p50 = 10 s. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (the "type 7" estimator,
   as numpy's default). Requires a non-empty array. *)
let quantile a q =
  let n = Array.length a in
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile (sorted xs) 0.5

(* Samples strictly above the q-quantile rank: a percentile is only
   reported when at least ten samples lie beyond it. *)
let beyond n q = n - int_of_float (Float.ceil (q *. float_of_int n))

let percentile ~q xs =
  let n = List.length xs in
  if n = 0 || beyond n q < 10 then None else Some (quantile (sorted xs) q, n)
