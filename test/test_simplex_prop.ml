(* Randomized differential harness for the dual-simplex warm starts
   and for the two linear-algebra kernels.

   Generates small random LPs (mixed <=/>=/= rows; boxed, one-sided
   and free variables) with the deterministic Monpos_util.Prng and
   checks, instance by instance, that

   - re-solving from the final basis with unchanged bounds reproduces
     the cold solve,
   - after random branching-style bound flips the warm-started
     re-solve (dual simplex from the parent basis) agrees with a cold
     primal solve on status and objective within 1e-6,
   - a malformed warm basis silently degrades to the cold answer,
   - the dense explicit-inverse kernel and the sparse LU + eta-file
     kernel agree on status and objective on every instance (cold and
     warm-started), and on the final basis itself whenever the
     instance's optimum is non-degenerate (unique basis),
   - a singular or ill-conditioned warm basis never crashes the LU
     kernel: it either factorizes stably or falls back to the cold
     slack start, same answer either way.

   The base seed comes from MONPOS_PROP_SEED (default 1) so CI can run
   the same 200 instances under several seeds. *)

module Model = Monpos_lp.Model
module Simplex = Monpos_lp.Simplex
module Prng = Monpos_util.Prng

let prop_seed =
  match Sys.getenv_opt "MONPOS_PROP_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 1)
  | None -> 1

let cases = 200

let status_name = function
  | Simplex.Optimal -> "optimal"
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Iteration_limit -> "iteration_limit"
  | Simplex.Deadline_reached -> "deadline_reached"

(* random LP: 2-6 structural variables of every bound shape, 1-5 rows
   of every sense, signed coefficients and objective *)
let random_model rng =
  let n = 2 + Prng.int rng 5 in
  let rows = 1 + Prng.int rng 5 in
  let dir = if Prng.bool rng then Model.Minimize else Model.Maximize in
  let m = Model.create dir in
  let xs =
    Array.init n (fun _ ->
        (* boxed most of the time so a useful share of instances is
           bounded and optimal; every shape still appears *)
        let lb, ub =
          match Prng.int rng 8 with
          | 0 | 1 | 2 | 3 | 4 -> (0.0, 1.0 +. Prng.float rng 9.0)
          | 5 -> (0.0, infinity)
          | 6 -> (neg_infinity, Prng.float rng 10.0)
          | _ -> (neg_infinity, infinity)
        in
        Model.add_var m ~lb ~ub
          ~obj:(Prng.float rng 10.0 -. 5.0)
          Model.Continuous)
  in
  for _ = 1 to rows do
    let nterms = 1 + Prng.int rng n in
    let terms =
      List.init nterms (fun _ ->
          (Prng.float rng 8.0 -. 4.0, xs.(Prng.int rng n)))
    in
    let sense =
      match Prng.int rng 5 with
      | 0 | 1 -> Model.Le
      | 2 | 3 -> Model.Ge
      | _ -> Model.Eq
    in
    Model.add_constr m terms sense (Prng.float rng 16.0 -. 8.0)
  done;
  m

let check_agree ~case ~what model cold warm =
  if cold.Simplex.status <> warm.Simplex.status then
    Alcotest.failf "case %d (%s): status cold=%s warm=%s" case what
      (status_name cold.Simplex.status)
      (status_name warm.Simplex.status);
  if cold.Simplex.status = Simplex.Optimal then begin
    let scale = 1.0 +. abs_float cold.Simplex.objective in
    if
      abs_float (cold.Simplex.objective -. warm.Simplex.objective)
      > 1e-6 *. scale
    then
      Alcotest.failf "case %d (%s): objective cold=%.9f warm=%.9f" case what
        cold.Simplex.objective warm.Simplex.objective;
    (* each reported objective must be the objective of its own primal
       point (guards against a stale objective riding on a warm basis) *)
    List.iter
      (fun (name, (sol : Simplex.solution)) ->
        let v = Model.objective_value model sol.Simplex.primal in
        if abs_float (v -. sol.Simplex.objective) > 1e-5 *. scale then
          Alcotest.failf "case %d (%s): %s objective %.9f but primal scores %.9f"
            case what name sol.Simplex.objective v)
      [ ("cold", cold); ("warm", warm) ]
  end

(* branching-style flips: tighten a bound to cut off the current
   optimal value of a random variable, one to three times *)
let flip_bounds rng (cold : Simplex.solution) lower upper =
  let n = Array.length lower in
  let flips = 1 + Prng.int rng 2 in
  for _ = 1 to flips do
    let v = Prng.int rng n in
    let x = cold.Simplex.primal.(v) in
    if Prng.bool rng then begin
      let new_ub = x -. (0.1 +. Prng.float rng 2.0) in
      if new_ub >= lower.(v) then upper.(v) <- min upper.(v) new_ub
    end
    else begin
      let new_lb = x +. (0.1 +. Prng.float rng 2.0) in
      if new_lb <= upper.(v) then lower.(v) <- max lower.(v) new_lb
    end
  done

let test_differential () =
  let bound_flip_cases = ref 0 in
  let dual_pivots = ref 0 in
  for case = 0 to cases - 1 do
    let rng = Prng.create ((prop_seed * 1_000_003) + case) in
    let m = random_model rng in
    let p = Simplex.of_model m in
    let n = Simplex.num_structural p in
    let cold = Simplex.solve p in
    (* same bounds, final basis back in: nothing may change *)
    let replay = Simplex.solve ~basis:cold.Simplex.basis p in
    check_agree ~case ~what:"replay" m cold replay;
    if cold.Simplex.status = Simplex.Optimal then begin
      let lower =
        Array.init n (fun v -> Model.var_lb m (Model.var_of_index m v))
      in
      let upper =
        Array.init n (fun v -> Model.var_ub m (Model.var_of_index m v))
      in
      flip_bounds rng cold lower upper;
      let cold2 = Simplex.solve ~lower ~upper p in
      let warm2 = Simplex.solve ~lower ~upper ~basis:cold.Simplex.basis p in
      incr bound_flip_cases;
      dual_pivots := !dual_pivots + warm2.Simplex.dual_iterations;
      check_agree ~case ~what:"bound flip" m cold2 warm2
    end
  done;
  (* the harness must actually exercise the machinery it tests *)
  Alcotest.(check bool)
    (Printf.sprintf "enough optimal instances (%d)" !bound_flip_cases)
    true
    (!bound_flip_cases > cases / 8);
  Alcotest.(check bool)
    (Printf.sprintf "dual simplex pivoted (%d pivots)" !dual_pivots)
    true (!dual_pivots > 0)

let test_malformed_basis_degrades () =
  for case = 0 to 29 do
    let rng = Prng.create ((prop_seed * 7_368_787) + case) in
    let m = random_model rng in
    let p = Simplex.of_model m in
    let rows = Simplex.num_rows p in
    let cold = Simplex.solve p in
    let garbage =
      [
        [||];
        Array.make rows 0 (* duplicates *);
        Array.init rows (fun r -> r * 1_000_000) (* out of range *);
        Array.init (rows + 3) (fun r -> r) (* wrong length *);
      ]
    in
    List.iter
      (fun basis ->
        let warm = Simplex.solve ~basis p in
        check_agree ~case ~what:"malformed basis" m cold warm)
      garbage
  done

(* the slack basis passed explicitly must behave exactly like the
   implicit cold start *)
let test_explicit_slack_basis () =
  for case = 0 to 29 do
    let rng = Prng.create ((prop_seed * 15_485_863) + case) in
    let m = random_model rng in
    let p = Simplex.of_model m in
    let slack =
      Array.init (Simplex.num_rows p) (fun r -> Simplex.num_structural p + r)
    in
    let cold = Simplex.solve p in
    let warm = Simplex.solve ~basis:slack p in
    check_agree ~case ~what:"slack basis" m cold warm
  done

(* ------------------------------------------------------------------ *)
(* dense vs sparse-LU kernel differential                              *)

let dense_opts = { Simplex.kernel = Simplex.Dense }

let sparse_opts = { Simplex.kernel = Simplex.Sparse_lu }

(* A basic solution is non-degenerate when every basic variable sits
   strictly inside its bounds and every nonbasic variable has a
   strictly nonzero reduced cost (for a slack, its row's dual). Then
   the optimal basis is unique and both kernels must land on the same
   basic set; degenerate optima legitimately admit several. *)
let non_degenerate model (sol : Simplex.solution) =
  let margin = 1e-5 in
  let n = Model.num_vars model in
  let rows = Model.num_constrs model in
  let in_basis = Array.make (n + rows) false in
  Array.iter (fun j -> in_basis.(j) <- true) sol.Simplex.basis;
  let interior x lb ub =
    (lb = neg_infinity || x -. lb > margin)
    && (ub = infinity || ub -. x > margin)
  in
  let ok = ref true in
  for j = 0 to n - 1 do
    let v = Model.var_of_index model j in
    if in_basis.(j) then begin
      if
        not
          (interior sol.Simplex.primal.(j) (Model.var_lb model v)
             (Model.var_ub model v))
      then ok := false
    end
    else if abs_float sol.Simplex.reduced_costs.(j) <= margin then ok := false
  done;
  Model.iter_constrs model (fun r terms sense rhs ->
      let lhs =
        List.fold_left
          (fun acc (c, v) -> acc +. (c *. sol.Simplex.primal.(v)))
          0.0 terms
      in
      let slack = rhs -. lhs in
      if in_basis.(n + r) then begin
        match sense with
        | Model.Le -> if slack <= margin then ok := false
        | Model.Ge -> if slack >= -.margin then ok := false
        | Model.Eq -> ok := false (* Eq slack basic at 0 is degenerate *)
      end
      else if abs_float sol.Simplex.duals.(r) <= margin then ok := false);
  !ok

let sorted_basis (sol : Simplex.solution) =
  let b = Array.copy sol.Simplex.basis in
  Array.sort compare b;
  b

let test_kernel_differential () =
  let basis_checks = ref 0 in
  let warm_checks = ref 0 in
  for case = 0 to cases - 1 do
    (* same instance stream as the warm-start differential *)
    let rng = Prng.create ((prop_seed * 1_000_003) + case) in
    let m = random_model rng in
    let p = Simplex.of_model m in
    let n = Simplex.num_structural p in
    let dense = Simplex.solve ~options:dense_opts p in
    let sparse = Simplex.solve ~options:sparse_opts p in
    check_agree ~case ~what:"kernel cold" m dense sparse;
    if
      dense.Simplex.status = Simplex.Optimal
      && non_degenerate m dense && non_degenerate m sparse
    then begin
      incr basis_checks;
      if sorted_basis dense <> sorted_basis sparse then
        Alcotest.failf
          "case %d: non-degenerate optimum but kernels disagree on the basis"
          case
    end;
    if dense.Simplex.status = Simplex.Optimal then begin
      (* warm-started re-solve after bound flips, once per kernel,
         cross-checked against the other kernel's cold re-solve *)
      let lower =
        Array.init n (fun v -> Model.var_lb m (Model.var_of_index m v))
      in
      let upper =
        Array.init n (fun v -> Model.var_ub m (Model.var_of_index m v))
      in
      flip_bounds rng dense lower upper;
      let cold_d = Simplex.solve ~lower ~upper ~options:dense_opts p in
      let warm_s =
        Simplex.solve ~lower ~upper ~basis:sparse.Simplex.basis
          ~options:sparse_opts p
      in
      let warm_d =
        Simplex.solve ~lower ~upper ~basis:dense.Simplex.basis
          ~options:dense_opts p
      in
      incr warm_checks;
      check_agree ~case ~what:"kernel warm sparse" m cold_d warm_s;
      check_agree ~case ~what:"kernel warm dense" m cold_d warm_d
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "enough non-degenerate basis comparisons (%d)"
       !basis_checks)
    true
    (!basis_checks > cases / 16);
  Alcotest.(check bool)
    (Printf.sprintf "enough warm-start cross-checks (%d)" !warm_checks)
    true
    (!warm_checks > cases / 8)

(* A structurally singular warm basis (two identical columns) must be
   rejected by the factorization of either kernel and degrade to the
   cold answer. *)
let test_singular_basis_fallback () =
  let m = Model.create Model.Minimize in
  let x0 = Model.add_var m ~lb:0.0 ~ub:10.0 ~obj:1.0 Model.Continuous in
  let x1 = Model.add_var m ~lb:0.0 ~ub:10.0 ~obj:2.0 Model.Continuous in
  (* both rows use both variables with coefficient 1, so the columns
     of x0 and x1 are identical: basis [x0; x1] is singular *)
  Model.add_constr m [ (1.0, x0); (1.0, x1) ] Model.Le 4.0;
  Model.add_constr m [ (1.0, x0); (1.0, x1) ] Model.Ge 1.0;
  let p = Simplex.of_model m in
  let singular = [| Model.var_index x0; Model.var_index x1 |] in
  List.iter
    (fun (what, options) ->
      let cold = Simplex.solve ~options p in
      let warm = Simplex.solve ~basis:singular ~options p in
      check_agree ~case:0 ~what m cold warm;
      Alcotest.(check bool)
        (what ^ ": solved to optimality")
        true
        (cold.Simplex.status = Simplex.Optimal))
    [ ("singular dense", dense_opts); ("singular sparse", sparse_opts) ]

(* Nearly dependent columns and wild coefficient scales: the LU's
   threshold pivoting must either factorize stably or raise internally
   and fall back — never return a wrong optimum. *)
let test_ill_conditioned_basis () =
  let eps_list = [ 1e-6; 1e-9; 1e-11; 1e-13 ] in
  List.iter
    (fun eps ->
      let m = Model.create Model.Minimize in
      let x0 = Model.add_var m ~lb:0.0 ~ub:100.0 ~obj:1.0 Model.Continuous in
      let x1 = Model.add_var m ~lb:0.0 ~ub:100.0 ~obj:1.0 Model.Continuous in
      Model.add_constr m [ (1.0, x0); (1.0, x1) ] Model.Ge 2.0;
      Model.add_constr m [ (1.0, x0); (1.0 +. eps, x1) ] Model.Le 50.0;
      let p = Simplex.of_model m in
      let near_singular = [| Model.var_index x0; Model.var_index x1 |] in
      List.iter
        (fun (what, options) ->
          let cold = Simplex.solve ~options p in
          let warm = Simplex.solve ~basis:near_singular ~options p in
          check_agree ~case:0 ~what m cold warm)
        [
          (Printf.sprintf "ill-conditioned dense eps=%g" eps, dense_opts);
          (Printf.sprintf "ill-conditioned sparse eps=%g" eps, sparse_opts);
        ])
    eps_list;
  (* mixed huge/tiny coefficients in one basis *)
  let m = Model.create Model.Maximize in
  let x0 = Model.add_var m ~lb:0.0 ~ub:1e6 ~obj:1.0 Model.Continuous in
  let x1 = Model.add_var m ~lb:0.0 ~ub:1e6 ~obj:1.0 Model.Continuous in
  Model.add_constr m [ (1e8, x0); (1e-8, x1) ] Model.Le 1e8;
  Model.add_constr m [ (1e-8, x0); (1e8, x1) ] Model.Le 1e8;
  let p = Simplex.of_model m in
  let basis = [| Model.var_index x0; Model.var_index x1 |] in
  let dense = Simplex.solve ~basis ~options:dense_opts p in
  let sparse = Simplex.solve ~basis ~options:sparse_opts p in
  check_agree ~case:0 ~what:"mixed scales" m dense sparse

(* ------------------------------------------------------------------ *)
(* carried vs fresh factorization differential                         *)

(* Optimality certificate of a session re-solve, in minimization form
   (sgn = -1 for Maximize): x within its bounds and every row within
   its sense; the reported reduced costs recompute as c - y.A; every
   nonbasic-looking reduced cost has its optimality sign (d > 0 only
   at a finite lower bound, d < 0 only at a finite upper one, and the
   row multipliers signed by their slack's bounds, nonzero only on
   tight rows); and the dual objective y.b + d.x prices the optimum. *)
let check_certificate ~case ~what model lower upper (sol : Simplex.solution)
    (duals, reduced) =
  let tol = 1e-6 in
  let fail fmt = Alcotest.failf ("case %d (%s): " ^^ fmt) case what in
  let n = Model.num_vars model in
  let sgn = if Model.direction model = Model.Maximize then -1.0 else 1.0 in
  let x = sol.Simplex.primal in
  let y = Array.map (fun v -> sgn *. v) duals in
  let d_hat =
    Array.init n (fun j -> sgn *. Model.var_obj model (Model.var_of_index model j))
  in
  let yb = ref 0.0 in
  Model.iter_constrs model (fun r terms sense rhs ->
      let lhs = List.fold_left (fun acc (c, v) -> acc +. (c *. x.(v))) 0.0 terms in
      List.iter (fun (c, v) -> d_hat.(v) <- d_hat.(v) -. (y.(r) *. c)) terms;
      yb := !yb +. (y.(r) *. rhs);
      let scale = 1.0 +. abs_float rhs in
      let slack = rhs -. lhs in
      (match sense with
      | Model.Le ->
        if slack < -.tol *. scale then fail "row %d violated" r;
        if y.(r) > tol then fail "row %d: wrong-signed multiplier" r
      | Model.Ge ->
        if slack > tol *. scale then fail "row %d violated" r;
        if y.(r) < -.tol then fail "row %d: wrong-signed multiplier" r
      | Model.Eq -> if abs_float slack > tol *. scale then fail "row %d violated" r);
      if abs_float y.(r) > tol && abs_float slack > tol *. scale then
        fail "row %d: multiplier on a slack row" r);
  let dx = ref 0.0 in
  for j = 0 to n - 1 do
    let d = reduced.(j) in
    if abs_float (d -. d_hat.(j)) > tol *. (1.0 +. abs_float d) then
      fail "reduced cost %d does not recompute" j;
    let at b = b > neg_infinity && b < infinity && abs_float (x.(j) -. b) <= tol *. (1.0 +. abs_float b) in
    if x.(j) < lower.(j) -. tol || x.(j) > upper.(j) +. tol then
      fail "x%d = %g outside [%g, %g]" j x.(j) lower.(j) upper.(j);
    if d > tol && not (at lower.(j)) then fail "x%d: d > 0 off its lower bound" j;
    if d < -.tol && not (at upper.(j)) then fail "x%d: d < 0 off its upper bound" j;
    dx := !dx +. (d *. x.(j))
  done;
  let obj = sgn *. sol.Simplex.objective in
  if abs_float (obj -. (!yb +. !dx)) > 1e-5 *. (1.0 +. abs_float obj) then
    fail "dual objective %.9f does not price the optimum %.9f" (!yb +. !dx) obj

(* Dive-style sequences on one session: fix a variable to a value
   near its current one and re-solve from the last basis, on the
   session (carried factorization) and with a fresh [solve ~basis]
   (fresh factorization of the same basis). A fix that kills the LP
   is undone and rolled back, and the next step starts from the basis
   before it — on the session, from the rolled-back factorization. *)
let refactorizations () =
  Monpos_obs.Metrics.sum_counter
    (Monpos_obs.Metrics.snapshot Monpos_obs.Metrics.default)
    "simplex.refactorizations"

let test_carried_differential () =
  let steps = ref 0 and rollbacks = ref 0 and refactors = ref 0 in
  for case = 0 to cases - 1 do
    let rng = Prng.create ((prop_seed * 2_750_159) + case) in
    let m = random_model rng in
    let p = Simplex.of_model m in
    let n = Simplex.num_structural p in
    let sess = Simplex.session p in
    let first = Simplex.resolve sess in
    check_agree ~case ~what:"session cold" m (Simplex.solve p) first;
    if first.Simplex.status = Simplex.Optimal then begin
      let lower = Array.init n (fun v -> Model.var_lb m (Model.var_of_index m v)) in
      let upper = Array.init n (fun v -> Model.var_ub m (Model.var_of_index m v)) in
      let basis = ref first.Simplex.basis and x = ref first.Simplex.primal in
      for step = 1 to 6 do
        let v = Prng.int rng n in
        let value = Float.round !x.(v) +. float_of_int (Prng.int rng 3 - 1) in
        if value >= lower.(v) && value <= upper.(v) then begin
          let saved_l = lower.(v) and saved_u = upper.(v) in
          lower.(v) <- value;
          upper.(v) <- value;
          let what = Printf.sprintf "carried step %d" step in
          let r0 = refactorizations () in
          let carried = Simplex.resolve ~lower ~upper ~basis:!basis sess in
          refactors := !refactors + (refactorizations () - r0);
          let fresh = Simplex.solve ~lower ~upper ~basis:!basis p in
          incr steps;
          if carried.Simplex.status <> fresh.Simplex.status then
            Alcotest.failf "case %d (%s): status carried=%s fresh=%s" case what
              (status_name carried.Simplex.status)
              (status_name fresh.Simplex.status);
          if carried.Simplex.status = Simplex.Optimal then begin
            let a = carried.Simplex.objective and b = fresh.Simplex.objective in
            if abs_float (a -. b) > 1e-9 *. (1.0 +. abs_float b) then
              Alcotest.failf "case %d (%s): objective carried=%.12g fresh=%.12g"
                case what a b;
            check_certificate ~case ~what m lower upper carried
              (Simplex.certificate sess);
            basis := carried.Simplex.basis;
            x := carried.Simplex.primal
          end
          else begin
            lower.(v) <- saved_l;
            upper.(v) <- saved_u;
            Simplex.rollback sess;
            incr rollbacks
          end
        end
      done
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "enough carried re-solves (%d)" !steps)
    true (!steps > cases / 2);
  (* a fresh factorization per step would make these equal *)
  Alcotest.(check bool)
    (Printf.sprintf "re-solves keep the factorization (%d refactorizations)"
       !refactors)
    true (!refactors < !steps / 4);
  Alcotest.(check bool)
    (Printf.sprintf "rollbacks exercised (%d)" !rollbacks)
    true (!rollbacks > 0)

let suite =
  [
    Alcotest.test_case
      (Printf.sprintf "warm vs cold differential (seed %d)" prop_seed)
      `Quick test_differential;
    Alcotest.test_case
      (Printf.sprintf "carried vs fresh factorization differential (seed %d)"
         prop_seed)
      `Quick test_carried_differential;
    Alcotest.test_case "malformed basis degrades to cold" `Quick
      test_malformed_basis_degrades;
    Alcotest.test_case "explicit slack basis = cold start" `Quick
      test_explicit_slack_basis;
    Alcotest.test_case
      (Printf.sprintf "dense vs sparse-LU kernel differential (seed %d)"
         prop_seed)
      `Quick test_kernel_differential;
    Alcotest.test_case "singular warm basis falls back (both kernels)" `Quick
      test_singular_basis_fallback;
    Alcotest.test_case "ill-conditioned bases stay exact (both kernels)" `Quick
      test_ill_conditioned_basis;
  ]
