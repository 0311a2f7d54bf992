(* Property harness for the sparse LU factorization, plus pins on the
   exact arithmetic of the LP stack built on it.

   Random sparse bases are drawn to reach every special path of
   [Lu.factor]:

   - one dense row (an entry in every column), long from the start;
   - a row of 55-75 entries, which straddles the 64-entry size past
     which a row carries a column -> slot map, so fills push it
     across;
   - off-diagonal entries of magnitude ~1e-13, on both sides of the
     drop tolerance;
   - many columns of equal count, so the Markowitz candidate choice
     runs through its tie-breaks.

   Every basis is column diagonally dominant with margin 1, hence
   nonsingular with ||B^-1||_1 <= 1, so absolute residuals are
   meaningful. Checked: ftran and btran residuals <= 1e-9 right after
   the factorization and after each appended product-form eta, and
   [Singular] on bases with dependent columns or rows.

   The base seed comes from MONPOS_PROP_SEED (default 1), like the
   other property harnesses. *)

module Lu = Monpos_lp.Lu
module Sparse_vec = Monpos_lp.Sparse_vec
module Simplex = Monpos_lp.Simplex
module Model = Monpos_lp.Model
module Mip = Monpos_lp.Mip
module Metrics = Monpos_obs.Metrics
module Chaos = Monpos_resilience.Chaos
module Passive = Monpos.Passive
module Instance = Monpos.Instance
module Pop = Monpos_topo.Pop
module Prng = Monpos_util.Prng

let prop_seed =
  match Sys.getenv_opt "MONPOS_PROP_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 1)
  | None -> 1

let cases = 100

let tol = 1e-9

(* a basis as its position-indexed sparse columns *)
type basis = { m : int; cols : (int * float) array array }

let lu_of b =
  Lu.factor ~m:b.m ~col:(fun r f -> Array.iter (fun (i, a) -> f i a) b.cols.(r))

let signed rng x = if Prng.bool rng then x else -.x

let random_basis ?(tiny = true) rng =
  let m = 20 + Prng.int rng 130 in
  (* column j's dominant entry sits in row diag.(j) *)
  let diag = Array.init m Fun.id in
  for i = m - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = diag.(i) in
    diag.(i) <- diag.(j);
    diag.(j) <- t
  done;
  let dense_row = Prng.int rng m in
  let medium_row = (dense_row + 1 + Prng.int rng (m - 1)) mod m in
  let medium_len = min m (55 + Prng.int rng 21) in
  let in_medium = Array.make m false in
  for _ = 1 to medium_len do
    in_medium.(Prng.int rng m) <- true
  done;
  let cols =
    Array.init m (fun j ->
        let entries = Hashtbl.create 8 in
        let off i v = if i <> diag.(j) then Hashtbl.replace entries i v in
        off dense_row (signed rng (Prng.float rng 1.0));
        if in_medium.(j) then off medium_row (signed rng (Prng.float rng 1.0));
        (* 0-3 scattered entries: counts 1-6 repeat over many columns *)
        for _ = 1 to Prng.int rng 4 do
          let v =
            if tiny && Prng.int rng 6 = 0 then
              signed rng ((0.5 +. Prng.float rng 1.5) *. 1e-13)
            else signed rng (Prng.float rng 1.0)
          in
          off (Prng.int rng m) v
        done;
        let offs = Hashtbl.fold (fun i v acc -> (i, v) :: acc) entries [] in
        let offs = List.sort compare offs in
        let margin =
          List.fold_left (fun acc (_, v) -> acc +. abs_float v) 1.0 offs
        in
        Array.of_list
          ((diag.(j), signed rng (margin +. Prng.float rng 1.0)) :: offs))
  in
  { m; cols }

(* max |B x - b| over rows, x position-indexed *)
let ftran_residual b ~rhs ~x =
  let r = Array.copy rhs in
  Array.iteri
    (fun j xj ->
      Array.iter (fun (i, a) -> r.(i) <- r.(i) -. (a *. xj)) b.cols.(j))
    x;
  Array.fold_left (fun acc v -> max acc (abs_float v)) 0.0 r

(* max |B^T y - c| over positions, y row-indexed *)
let btran_residual b ~rhs ~y =
  let worst = ref 0.0 in
  Array.iteri
    (fun j col ->
      let acc = ref rhs.(j) in
      Array.iter (fun (i, a) -> acc := !acc -. (a *. y.(i))) col;
      worst := max !worst (abs_float !acc))
    b.cols;
  !worst

let random_rhs rng m =
  let v = Array.make m 0.0 in
  (* sparse most of the time, occasionally dense *)
  let k = if Prng.int rng 4 = 0 then m else 1 + Prng.int rng 5 in
  for _ = 1 to k do
    v.(Prng.int rng m) <- signed rng (Prng.float rng 1.0)
  done;
  v

let solve f lu rhs =
  let m = Array.length rhs in
  let src = Sparse_vec.create m and dst = Sparse_vec.create m in
  Array.iteri (fun i v -> if v <> 0.0 then Sparse_vec.set src i v) rhs;
  f lu ~rhs:src ~into:dst;
  Array.init m (Sparse_vec.get dst)

let check_residuals ~what rng b lu =
  for _ = 1 to 3 do
    let rhs = random_rhs rng b.m in
    let x = solve Lu.ftran lu rhs in
    let res = ftran_residual b ~rhs ~x in
    if res > tol then
      Alcotest.failf "%s: ftran residual %.3g (m = %d)" what res b.m;
    let rhs = random_rhs rng b.m in
    let y = solve Lu.btran lu rhs in
    let res = btran_residual b ~rhs ~y in
    if res > tol then
      Alcotest.failf "%s: btran residual %.3g (m = %d)" what res b.m
  done

(* Replace the basis column at the position where the entering
   column's ftran is largest (a ratio-test-like choice, so the new
   basis stays well conditioned), append the eta, and return the new
   basis. *)
let swap_in rng b lu =
  let entering =
    Array.of_list
      (List.sort_uniq
         (fun (i, _) (i', _) -> compare i i')
         (List.init (1 + Prng.int rng 4) (fun _ ->
              (Prng.int rng b.m, signed rng (0.5 +. Prng.float rng 1.0)))))
  in
  let rhs = Array.make b.m 0.0 in
  Array.iter (fun (i, a) -> rhs.(i) <- a) entering;
  let alpha = solve Lu.ftran lu rhs in
  let r = ref 0 in
  Array.iteri
    (fun j a -> if abs_float a > abs_float alpha.(!r) then r := j)
    alpha;
  let av = Sparse_vec.create b.m in
  Array.iteri (fun j a -> if a <> 0.0 then Sparse_vec.set av j a) alpha;
  Lu.append_eta lu ~r:!r ~alpha:av;
  let cols = Array.copy b.cols in
  cols.(!r) <- entering;
  { b with cols }

let test_residuals () =
  let rng = Prng.create (prop_seed * 7919) in
  for case = 1 to cases do
    let b = random_basis rng in
    let lu = lu_of b in
    let what = Printf.sprintf "case %d" case in
    check_residuals ~what rng b lu;
    let b = ref b in
    for eta = 1 to 1 + Prng.int rng 5 do
      b := swap_in rng !b lu;
      check_residuals ~what:(Printf.sprintf "%s, eta %d" what eta) rng !b lu
    done
  done

let expect_singular what b =
  match lu_of b with
  | _ -> Alcotest.failf "%s: dependent basis (m = %d) factorized" what b.m
  | exception Lu.Singular -> ()

let test_singular () =
  let rng = Prng.create ((prop_seed * 7919) + 1) in
  for case = 1 to cases do
    let b = random_basis ~tiny:false rng in
    let j = Prng.int rng b.m in
    let k = (j + 1 + Prng.int rng (b.m - 1)) mod b.m in
    (* a column that is an exact multiple of another *)
    let cols = Array.copy b.cols in
    cols.(j) <- Array.map (fun (i, a) -> (i, 2.0 *. a)) b.cols.(k);
    expect_singular
      (Printf.sprintf "case %d, scaled column" case)
      { b with cols };
    (* an empty column *)
    let cols = Array.copy b.cols in
    cols.(j) <- [||];
    expect_singular
      (Printf.sprintf "case %d, empty column" case)
      { b with cols };
    (* row j made a copy of row k: dependent columns *)
    let cols =
      Array.map
        (fun col ->
          let rest = List.filter (fun (i, _) -> i <> j) (Array.to_list col) in
          let copy =
            List.filter_map
              (fun (i, a) -> if i = k then Some (j, a) else None)
              (Array.to_list col)
          in
          Array.of_list (rest @ copy))
        b.cols
    in
    expect_singular
      (Printf.sprintf "case %d, duplicate row" case)
      { b with cols }
  done

(* ---------- exact-arithmetic pins ---------- *)

(* Values recorded before the factorization's O(nonzeros) rewrite;
   that rewrite keeps the pivot sequence and every factor entry, so
   they must not move. The exception is the pivot and refactorization
   counts of the solve_mip pin: they follow the dive's arithmetic,
   which carrying the factorization from one dive step to the next
   changed on purpose (pivots 1125 -> 1170); devices and nodes stay.
   Chaos is suppressed: the pins are about fault-free arithmetic, and
   an injected singular pivot legitimately changes the path. *)

let pop10_instance seed =
  Instance.of_pop (Pop.make_preset `Pop10 ~seed) ~seed:(seed * 3)

let test_golden_lp_bound () =
  Chaos.suppress @@ fun () ->
  List.iter
    (fun (name, seed, k, bits) ->
      let bound = Passive.lp_bound ~k (pop10_instance seed) in
      Alcotest.(check int64) name bits (Int64.bits_of_float bound))
    [
      ("pop10 seed 1, k = 0.9", 1, 0.9, 0x4010933995dc4ddcL);
      ("pop10 seed 4, k = 0.95", 4, 0.95, 0x4013564f6236e79cL);
    ]

let counter name = Metrics.sum_counter (Metrics.snapshot Metrics.default) name

let test_golden_solve_mip () =
  Chaos.suppress @@ fun () ->
  let nodes0 = counter "mip.nodes" and pivots0 = counter "simplex.iterations" in
  let refactors0 = counter "simplex.refactorizations" in
  let sol =
    Passive.solve_mip ~k:0.95
      ~options:{ Mip.default_options with Mip.jobs = 1 }
      (pop10_instance 2)
  in
  Alcotest.(check int) "devices" 6 sol.Passive.count;
  Alcotest.(check int) "nodes" 9 (counter "mip.nodes" - nodes0);
  Alcotest.(check int) "pivots" 1170 (counter "simplex.iterations" - pivots0);
  Alcotest.(check int) "refactorizations" 71
    (counter "simplex.refactorizations" - refactors0)

let test_warm_optimal_refactorizes_once () =
  (* a warm start on an optimal, nonsingular basis re-solves in zero
     pivots on the one factorization of that basis: no slack
     factorization is built first *)
  let model = Model.create Model.Maximize in
  let x = Model.add_var model ~obj:3.0 Model.Continuous in
  let y = Model.add_var model ~obj:5.0 Model.Continuous in
  Model.add_constr model [ (1.0, x) ] Model.Le 4.0;
  Model.add_constr model [ (2.0, y) ] Model.Le 12.0;
  Model.add_constr model [ (3.0, x); (2.0, y) ] Model.Le 18.0;
  let p = Simplex.of_model model in
  let cold = Simplex.solve p in
  Alcotest.(check bool) "cold optimal" true
    (cold.Simplex.status = Simplex.Optimal);
  let before = counter "simplex.refactorizations" in
  let warm = Simplex.solve ~basis:cold.Simplex.basis p in
  Alcotest.(check bool) "warm optimal" true
    (warm.Simplex.status = Simplex.Optimal);
  Alcotest.(check int) "zero pivots" 0 warm.Simplex.iterations;
  Alcotest.(check int) "one refactorization" 1
    (counter "simplex.refactorizations" - before)

(* ---------- carried factorizations ---------- *)

(* [t] disjoint triangles of x_i + x_j <= 1 rows over x in [0, 1],
   maximizing a per-triangle weight: the LP optimum is 1/2 on every
   variable, so a dive has one fix to make per triangle *)
let triangles_lp t =
  let model = Model.create Model.Maximize in
  let xs =
    Array.init (3 * t) (fun i ->
        Model.add_var model ~lb:0.0 ~ub:1.0
          ~obj:(1.0 +. (float_of_int (i / 3) /. 10.0))
          Model.Continuous)
  in
  for k = 0 to t - 1 do
    let a = xs.(3 * k) and b = xs.((3 * k) + 1) and c = xs.((3 * k) + 2) in
    List.iter
      (fun (u, v) -> Model.add_constr model [ (1.0, u); (1.0, v) ] Model.Le 1.0)
      [ (a, b); (b, c); (a, c) ]
  done;
  Simplex.of_model model

let optimal what (sol : Simplex.solution) =
  Alcotest.(check bool) (what ^ ": optimal") true (sol.Simplex.status = Simplex.Optimal)

(* a re-solve on the session, with the refactorizations it cost *)
let counted f =
  let before = counter "simplex.refactorizations" in
  let sol = f () in
  (sol, counter "simplex.refactorizations" - before)

let same_objective what (a : Simplex.solution) (b : Simplex.solution) =
  Alcotest.(check (float 1e-9)) (what ^ ": objective") b.Simplex.objective
    a.Simplex.objective

let test_dive_keeps_factorization () =
  Chaos.suppress @@ fun () ->
  let p = triangles_lp 8 in
  let n = Simplex.num_structural p in
  (* as in a branch-and-bound node: a new session factorizes the
     stored basis fresh, with an empty eta file, and the dive runs on
     that session *)
  let stored = (Simplex.solve p).Simplex.basis in
  let sess = Simplex.session p in
  let root = Simplex.resolve ~basis:stored sess in
  optimal "root" root;
  let lower = Array.make n 0.0 and upper = Array.make n 1.0 in
  let refactors = ref 0 and pivots = ref 0 and steps = ref 0 in
  (* fix the first fractional variable to its rounding, as Mip's dive
     does, until the relaxation is integral *)
  let rec dive (sol : Simplex.solution) =
    let x = sol.Simplex.primal in
    match List.find_opt (fun v -> abs_float (x.(v) -. Float.round x.(v)) > 1e-6) (List.init n Fun.id) with
    | None -> ()
    | Some v ->
      lower.(v) <- Float.round x.(v);
      upper.(v) <- lower.(v);
      let next, k =
        counted (fun () ->
            Simplex.resolve ~lower ~upper ~basis:sol.Simplex.basis sess)
      in
      let what = Printf.sprintf "step %d" !steps in
      optimal what next;
      same_objective what next
        (Simplex.solve ~lower ~upper ~basis:sol.Simplex.basis p);
      incr steps;
      refactors := !refactors + k;
      pivots := !pivots + next.Simplex.iterations;
      dive next
  in
  dive root;
  Alcotest.(check bool) (Printf.sprintf "dive pivoted (%d steps, %d pivots)" !steps !pivots)
    true (!steps > 1 && !pivots > 0);
  (* [solve ~basis] would have factorized once per step *)
  Alcotest.(check int) "no refactorization" 0 !refactors

let test_rollback_retry () =
  Chaos.suppress @@ fun () ->
  let p = triangles_lp 8 in
  let n = Simplex.num_structural p in
  let sess = Simplex.session p in
  let root = Simplex.resolve sess in
  optimal "root" root;
  let lower = Array.make n 0.0 and upper = Array.make n 1.0 in
  (* x0 = x1 = 1 breaks the row x0 + x1 <= 1 *)
  lower.(0) <- 1.0;
  lower.(1) <- 1.0;
  let dead, k1 =
    counted (fun () -> Simplex.resolve ~lower ~upper ~basis:root.Simplex.basis sess)
  in
  Alcotest.(check bool) "fix is infeasible" true
    (dead.Simplex.status = Simplex.Infeasible);
  Simplex.rollback sess;
  lower.(1) <- 0.0;
  let retry, k2 =
    counted (fun () -> Simplex.resolve ~lower ~upper ~basis:root.Simplex.basis sess)
  in
  optimal "retry" retry;
  same_objective "retry" retry (Simplex.solve ~lower ~upper ~basis:root.Simplex.basis p);
  Alcotest.(check int) "failed fix and retry keep the factorization" 0 (k1 + k2)

let test_stale_factor_refactorizes () =
  Chaos.suppress @@ fun () ->
  let p = triangles_lp 8 in
  let n = Simplex.num_structural p in
  let sess = Simplex.session p in
  let root = Simplex.resolve sess in
  optimal "root" root;
  (* a second rollback finds nothing to return to: the session forgets
     its factorization and the next warm start factorizes fresh, even
     from the session's own last basis *)
  Simplex.rollback sess;
  Simplex.rollback sess;
  let again, k =
    counted (fun () -> Simplex.resolve ~basis:root.Simplex.basis sess)
  in
  optimal "after forgetting" again;
  Alcotest.(check int) "zero pivots" 0 again.Simplex.iterations;
  Alcotest.(check int) "forgotten factor: one fresh factorization" 1 k;
  (* toggling one fix grows the eta file by a pivot or more per
     re-solve; once it is due, the stale factorization is replaced
     rather than carried, and every answer stays the fresh one *)
  let lower = Array.make n 0.0 and upper = Array.make n 1.0 in
  let basis = ref again.Simplex.basis and refactors = ref 0 and pivots = ref 0 in
  for step = 1 to 80 do
    lower.(3) <- (if step mod 2 = 1 then 1.0 else 0.0);
    let sol, k =
      counted (fun () -> Simplex.resolve ~lower ~upper ~basis:!basis sess)
    in
    let what = Printf.sprintf "toggle %d" step in
    optimal what sol;
    same_objective what sol (Simplex.solve ~lower ~upper ~basis:!basis p);
    refactors := !refactors + k;
    pivots := !pivots + sol.Simplex.iterations;
    basis := sol.Simplex.basis
  done;
  Alcotest.(check bool)
    (Printf.sprintf "eta file refilled and replaced (%d refactorizations, %d pivots)"
       !refactors !pivots)
    true
    (!refactors > 0 && !refactors < 20)

let suite =
  [
    Alcotest.test_case "ftran/btran residuals, factor and etas" `Quick
      test_residuals;
    Alcotest.test_case "dependent bases raise Singular" `Quick test_singular;
    Alcotest.test_case "golden lp_bound bits" `Quick test_golden_lp_bound;
    Alcotest.test_case "golden solve_mip counts" `Quick test_golden_solve_mip;
    Alcotest.test_case "warm optimal basis refactorizes once" `Quick
      test_warm_optimal_refactorizes_once;
    Alcotest.test_case "dive re-solves keep the factorization" `Quick
      test_dive_keeps_factorization;
    Alcotest.test_case "rolled-back fix, retry keeps the factorization" `Quick
      test_rollback_retry;
    Alcotest.test_case "stale factorization is replaced" `Quick
      test_stale_factor_refactorizes;
  ]
