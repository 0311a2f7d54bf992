(* A fixed reference kernel, timed between the benchmark's ops. It uses
   no library code, so no change to the program moves it; only the
   machine's speed at the moment does. Dividing a time by the kernel's
   time around it removes the machine-speed drift of a shared host,
   which on a 2-core VM moves raw times by 15% from one 10-second
   window to the next. *)

let n = 1 lsl 16
let keys = Array.make n 0
let perm = Array.init n (fun i -> i * 40503 land (n - 1))
let cells = Array.make n 0.0

(* sorting plus a dependent random gather-scatter: the integer,
   branch and cache-miss mix of the solvers' sparse kernels *)
let array_part () =
  for i = 0 to n - 1 do
    keys.(i) <- i * 7919 land 0xFFFFF
  done;
  Array.sort Int.compare keys;
  let acc = ref 0.0 in
  for r = 1 to 6 do
    for i = 0 to n - 1 do
      let j = perm.((i + keys.(i)) land (n - 1)) in
      cells.(j) <- (cells.(j) *. 0.5) +. float_of_int (keys.(i) lxor r);
      acc := !acc +. cells.(j)
    done
  done;
  !acc

(* short-lived lists of boxed tuples sorted and folded: the minor-heap
   churn and pointer chasing of the solvers' OCaml data structures *)
let list_part () =
  let l = List.init 20_000 (fun i -> (float_of_int (i * 7919 land 0xFFFF), i)) in
  List.fold_left
    (fun acc (x, i) -> acc +. (x *. float_of_int i))
    0.0
    (List.sort (fun (a, _) (b, _) -> Float.compare a b) l)

let once () = array_part () +. list_part ()

(* the kernel's time on the 2-core VM the benchmark was built on;
   set-up times are reported in seconds of that machine *)
let nominal = 0.030

let sink = ref 0.0

(* seconds of one kernel run: the median of three *)
let time () =
  let one () =
    let t0 = Monpos_obs.Clock.now () in
    sink := !sink +. once ();
    Monpos_obs.Clock.now () -. t0
  in
  let a = one () in
  let b = one () in
  let c = one () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)
