(* Bounded-variable revised primal and dual simplex over a pluggable
   linear-algebra kernel.

   Conventions: the problem is solved as a minimization; a Maximize
   model has its costs negated on input and its objective and duals
   negated on output. Every row [a.x {<=,>=,=} b] becomes
   [a.x + s = b] with slack bounds [0,inf) / (-inf,0] / [0,0], so the
   initial slack basis is the identity.

   Kernels: the [Sparse_lu] kernel keeps the basis as a Markowitz LU
   factorization plus a product-form eta file ({!Lu}); FTRAN/BTRAN
   and the dual phase's row extraction run on sparse, indexed work
   vectors, so a pivot costs O(nonzeros) instead of O(m^2) and a
   refactorization costs O(fill) instead of the O(m^3) Gauss-Jordan
   of the [Dense] explicit-inverse kernel. Production code runs only
   the LU kernel; the dense one is reachable through [options.kernel]
   as the oracle of the dense-vs-sparse differential test.
   Refactorization is adaptive: the LU path refactorizes when the eta
   file outgrows the factorization (eta count or accumulated fill),
   the dense path after a pivot count derived from m.

   Warm starts: [solve ?basis] installs a caller-supplied basic set
   (typically the parent branch-and-bound node's optimal basis)
   through the same kernel factorization as any other basis — the
   slack basis is factorized only for a cold start or as the fallback
   when the warm basis is malformed or singular — parks
   each nonbasic variable on the bound its reduced-cost sign asks for,
   and — when the result is dual feasible, which it always is after a
   pure bound change on an optimal basis — runs the dual simplex to
   primal feasibility. The primal phases then run from wherever the
   dual phase stopped, so the final status and objective are always
   produced by the same primal machinery as a cold solve; the dual
   phase is purely an accelerator.

   Sessions: the solver state outlives a solve. [resolve] reuses the
   workspace and, for a warm start from the session's own last basis,
   the factorization with its eta file; [solve] is a fresh session
   and one [resolve]. *)

module Trace = Monpos_obs.Trace
module Metrics = Monpos_obs.Metrics
module Span = Monpos_obs.Span
module Deadline = Monpos_resilience.Deadline
module Chaos = Monpos_resilience.Chaos

(* pivot work is one metric family split by phase label; summing the
   label sets recovers the historical total *)
let m_recoveries =
  lazy
    (Metrics.counter
       ~labels:[ ("solver", "simplex") ]
       Metrics.default "resilience.recoveries")

let m_primal_iterations =
  lazy
    (Metrics.counter
       ~labels:[ ("phase", "primal") ]
       Metrics.default "simplex.iterations")

let m_warm_starts =
  lazy (Metrics.counter Metrics.default "simplex.warm_starts")

let m_dual_iterations =
  lazy
    (Metrics.counter
       ~labels:[ ("phase", "dual") ]
       Metrics.default "simplex.iterations")

let m_refactorizations =
  lazy (Metrics.counter Metrics.default "simplex.refactorizations")

(* length of the eta file when a factorization is retired *)
let m_eta_len =
  lazy
    (Metrics.histogram
       ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024. |]
       Metrics.default "simplex.eta_len")

(* nnz(L+U) / nnz(B) of each fresh LU factorization *)
let m_lu_fill =
  lazy
    (Metrics.histogram
       ~buckets:[| 1.0; 1.25; 1.5; 2.0; 3.0; 5.0; 10.0 |]
       Metrics.default "simplex.lu_fill")

(* nnz(alpha) / m of each entering-column FTRAN *)
let m_ftran_nnz =
  lazy
    (Metrics.histogram
       ~buckets:[| 0.01; 0.02; 0.05; 0.1; 0.2; 0.3; 0.5; 0.7; 0.9; 1.0 |]
       Metrics.default "simplex.ftran_nnz_ratio")

type col = { rows : int array; coefs : float array }

type problem = {
  n : int; (* structural variables *)
  m : int; (* rows *)
  cols : col array; (* structural sparse columns, length n *)
  cost : float array; (* structural costs, minimization form *)
  base_lb : float array; (* structural bounds from the model *)
  base_ub : float array;
  slack_lb : float array; (* per-row slack bounds *)
  slack_ub : float array;
  b : float array;
  maximize : bool;
}

type status =
  | Optimal
  | Infeasible
  | Unbounded
  | Iteration_limit
  | Deadline_reached

type basis = int array

type solution = {
  status : status;
  objective : float;
  primal : float array;
  duals : float array;
  reduced_costs : float array;
  iterations : int;
  dual_iterations : int;
  basis : basis;
}

type kernel = Dense | Sparse_lu

type options = { kernel : kernel }

let default_options = { kernel = Sparse_lu }

let num_rows p = p.m

let num_structural p = p.n

let of_model model =
  let n = Model.num_vars model in
  let m = Model.num_constrs model in
  let cols =
    Array.map (fun (rows, coefs) -> { rows; coefs }) (Model.columns model)
  in
  let b = Array.make (max m 1) 0.0 in
  let slack_lb = Array.make (max m 1) 0.0 in
  let slack_ub = Array.make (max m 1) 0.0 in
  Model.iter_constrs model (fun i _terms sense rhs ->
      b.(i) <- rhs;
      match sense with
      | Model.Le ->
        slack_lb.(i) <- 0.0;
        slack_ub.(i) <- infinity
      | Model.Ge ->
        slack_lb.(i) <- neg_infinity;
        slack_ub.(i) <- 0.0
      | Model.Eq ->
        slack_lb.(i) <- 0.0;
        slack_ub.(i) <- 0.0);
  let maximize = Model.direction model = Model.Maximize in
  let cost =
    Array.init n (fun v ->
        let c = Model.var_obj model (Model.var_of_index model v) in
        if maximize then -.c else c)
  in
  let base_lb =
    Array.init n (fun v -> Model.var_lb model (Model.var_of_index model v))
  in
  let base_ub =
    Array.init n (fun v -> Model.var_ub model (Model.var_of_index model v))
  in
  { n; m; cols; cost; base_lb; base_ub; slack_lb; slack_ub; b; maximize }

(* --- solver state ------------------------------------------------------ *)

type vstatus = Basic | At_lower | At_upper | Free_nb

type kstate =
  | Kdense of float array array (* explicit m x m inverse *)
  | Klu of lu_slot (* factorization + eta file; None before first factor *)

and lu_slot = { mutable fact : Lu.t option }

(* A session: the problem, the workspace every re-solve reuses, the
   kernel's current factorization and the basis it represents. The
   per-solve fields (deadline, iteration and degeneracy counters, the
   recovery override) are reset by every re-solve. *)
type state = {
  p : problem;
  nn : int; (* n + m total columns *)
  lb : float array; (* length nn; slack bounds written once *)
  ub : float array;
  x : float array; (* current value per column *)
  vstat : vstatus array;
  basic_var : int array; (* row -> column *)
  in_row : int array; (* column -> row or -1 *)
  kern : kstate;
  alpha : Sparse_vec.t; (* FTRAN result, indexed by basis position *)
  y : Sparse_vec.t; (* BTRAN result, indexed by constraint row *)
  work : Sparse_vec.t; (* kernel right-hand-side scratch *)
  rho : Sparse_vec.t; (* dual phase pricing row of B^-1 *)
  seen : Bytes.t; (* basis well-formedness scratch, all zero between uses *)
  mutable deadline : Deadline.t;
  mutable iters : int;
  mutable degenerate_run : int;
  mutable bland : bool;
  mutable pivots_since_factor : int;
  mutable refactor_override : int option;
  (* the LU factor represents [basic_var]: the last re-solve finished
     on a consistent factorization *)
  mutable carried : bool;
  (* the factor and its eta mark at the start of the last re-solve,
     with the basis they represented then ([start_basis]), for
     [rollback]; None when there is nothing to roll back to *)
  mutable start : (Lu.t * Lu.mark) option;
  start_basis : int array;
  (* the last re-solve ran the simplex (it did not stop at crossed
     bounds) and was not rolled back, so [certificate] reads its final
     basis *)
  mutable ran : bool;
}

type session = state

let feas_tol = 1e-7

let dj_tol = 1e-7

let piv_tol = 1e-8

let zero_tol = 1e-11

(* Column access treating slacks as unit columns. *)
let col_iter st j f =
  if j < st.p.n then begin
    let c = st.p.cols.(j) in
    for k = 0 to Array.length c.rows - 1 do
      f c.rows.(k) c.coefs.(k)
    done
  end
  else f (j - st.p.n) 1.0

let cost_of st j = if j < st.p.n then st.p.cost.(j) else 0.0

let kernel_name st =
  match st.kern with Kdense _ -> "dense" | Klu _ -> "sparse_lu"

(* --- kernel dispatch --------------------------------------------------- *)

(* alpha := B^-1 work. The work vector is consumed. *)
let kernel_ftran st =
  match st.kern with
  | Kdense binv ->
    Sparse_vec.clear st.alpha;
    let av = Sparse_vec.raw st.alpha in
    let m = st.p.m in
    Sparse_vec.iter st.work (fun i a ->
        for r = 0 to m - 1 do
          av.(r) <- av.(r) +. (binv.(r).(i) *. a)
        done);
    Sparse_vec.rescan st.alpha
  | Klu slot -> (
    match slot.fact with
    | Some f -> Lu.ftran f ~rhs:st.work ~into:st.alpha
    | None -> Sparse_vec.clear st.alpha)

(* y := B^-T work. The work vector is consumed. *)
let kernel_btran st =
  match st.kern with
  | Kdense binv ->
    Sparse_vec.clear st.y;
    let yv = Sparse_vec.raw st.y in
    let m = st.p.m in
    Sparse_vec.iter st.work (fun r c ->
        let row = binv.(r) in
        for i = 0 to m - 1 do
          yv.(i) <- yv.(i) +. (c *. row.(i))
        done);
    Sparse_vec.rescan st.y
  | Klu slot -> (
    match slot.fact with
    | Some f -> Lu.btran f ~rhs:st.work ~into:st.y
    | None -> Sparse_vec.clear st.y)

(* rho := row [r] of B^-1 (equivalently B^-T e_r). *)
let kernel_row st r =
  match st.kern with
  | Kdense binv ->
    Sparse_vec.clear st.rho;
    let rv = Sparse_vec.raw st.rho in
    Array.blit binv.(r) 0 rv 0 st.p.m;
    Sparse_vec.rescan st.rho
  | Klu slot -> (
    Sparse_vec.clear st.work;
    Sparse_vec.set st.work r 1.0;
    match slot.fact with
    | Some f -> Lu.btran f ~rhs:st.work ~into:st.rho
    | None -> Sparse_vec.clear st.rho)

(* The loops over a column below are written out rather than passed to
   [col_iter]: a closure (and a boxed float accumulator) per column per
   pricing pass is most of what a solve allocates. They visit the
   entries in the same order, so the sums are bit-identical. *)

(* alpha := B^-1 A_j *)
let ftran st j =
  Sparse_vec.clear st.work;
  (if j < st.p.n then begin
     let c = st.p.cols.(j) in
     for k = 0 to Array.length c.rows - 1 do
       let a = c.coefs.(k) in
       if a <> 0.0 then Sparse_vec.add st.work c.rows.(k) a
     done
   end
   else Sparse_vec.add st.work (j - st.p.n) 1.0);
  kernel_ftran st;
  if st.p.m > 0 then
    Metrics.observe (Lazy.force m_ftran_nnz)
      (float_of_int (Sparse_vec.nnz st.alpha) /. float_of_int st.p.m)

(* work := per-row basic costs for the current phase objective *)
let load_phase_costs st ~phase1 =
  Sparse_vec.clear st.work;
  for r = 0 to st.p.m - 1 do
    let v = st.basic_var.(r) in
    let c =
      if phase1 then begin
        let x = st.x.(v) in
        if x < st.lb.(v) -. feas_tol then -1.0
        else if x > st.ub.(v) +. feas_tol then 1.0
        else 0.0
      end
      else cost_of st v
    in
    if c <> 0.0 then Sparse_vec.set st.work r c
  done

(* cost_j - y.A_j *)
let reduced_cost st j cost_j =
  let yv = Sparse_vec.raw st.y in
  if j < st.p.n then begin
    let c = st.p.cols.(j) in
    let acc = ref cost_j in
    for k = 0 to Array.length c.rows - 1 do
      acc := !acc -. (yv.(c.rows.(k)) *. c.coefs.(k))
    done;
    !acc
  end
  else cost_j -. (yv.(j - st.p.n) *. 1.0)

(* rho.A_j, with [rv] the raw row of B^-1 *)
let row_dot st rv j =
  if j < st.p.n then begin
    let c = st.p.cols.(j) in
    let acc = ref 0.0 in
    for k = 0 to Array.length c.rows - 1 do
      acc := !acc +. (rv.(c.rows.(k)) *. c.coefs.(k))
    done;
    !acc
  end
  else 0.0 +. (rv.(j - st.p.n) *. 1.0)

(* Recompute basic variable values from nonbasic values. *)
let recompute_basics st =
  let m = st.p.m in
  Sparse_vec.clear st.work;
  for i = 0 to m - 1 do
    if st.p.b.(i) <> 0.0 then Sparse_vec.set st.work i st.p.b.(i)
  done;
  for j = 0 to st.nn - 1 do
    let xj = st.x.(j) in
    if st.vstat.(j) <> Basic && xj <> 0.0 then
      if j < st.p.n then begin
        let c = st.p.cols.(j) in
        for k = 0 to Array.length c.rows - 1 do
          Sparse_vec.add st.work c.rows.(k) (-.c.coefs.(k) *. xj)
        done
      end
      else Sparse_vec.add st.work (j - st.p.n) (-.1.0 *. xj)
  done;
  kernel_ftran st;
  let av = Sparse_vec.raw st.alpha in
  for r = 0 to m - 1 do
    st.x.(st.basic_var.(r)) <- av.(r)
  done

exception Singular_basis

(* Rebuild the basis representation from scratch: Gauss-Jordan with
   partial pivoting for the dense kernel, a Markowitz LU for the
   sparse one. *)
let refactorize st =
  let m = st.p.m in
  if m > 0 then begin
    (match st.kern with
    | Kdense binv ->
      let mat = Array.init m (fun _ -> Array.make m 0.0) in
      for r = 0 to m - 1 do
        let j = st.basic_var.(r) in
        col_iter st j (fun i a -> mat.(i).(r) <- a)
      done;
      let inv =
        Array.init m (fun r ->
            Array.init m (fun i -> if r = i then 1.0 else 0.0))
      in
      for k = 0 to m - 1 do
        (* partial pivot *)
        let best = ref k and best_abs = ref (abs_float mat.(k).(k)) in
        for i = k + 1 to m - 1 do
          let a = abs_float mat.(i).(k) in
          if a > !best_abs then begin
            best := i;
            best_abs := a
          end
        done;
        if !best_abs < 1e-12 then raise Singular_basis;
        if !best <> k then begin
          let t = mat.(k) in
          mat.(k) <- mat.(!best);
          mat.(!best) <- t;
          let t = inv.(k) in
          inv.(k) <- inv.(!best);
          inv.(!best) <- t
        end;
        let piv = mat.(k).(k) in
        let mk = mat.(k) and ik = inv.(k) in
        for c = 0 to m - 1 do
          mk.(c) <- mk.(c) /. piv;
          ik.(c) <- ik.(c) /. piv
        done;
        for i = 0 to m - 1 do
          if i <> k then begin
            let f = mat.(i).(k) in
            if f <> 0.0 then begin
              let mi = mat.(i) and ii = inv.(i) in
              for c = 0 to m - 1 do
                mi.(c) <- mi.(c) -. (f *. mk.(c));
                ii.(c) <- ii.(c) -. (f *. ik.(c))
              done
            end
          end
        done
      done;
      for r = 0 to m - 1 do
        Array.blit inv.(r) 0 binv.(r) 0 m
      done
    | Klu slot ->
      (match slot.fact with
      | Some f ->
        let s = Lu.stats f in
        Metrics.observe (Lazy.force m_eta_len) (float_of_int s.Lu.eta_count)
      | None -> ());
      let fact =
        Span.run "lu_factor" @@ fun () ->
        try Lu.factor ~m ~col:(fun r f -> col_iter st st.basic_var.(r) f)
        with Lu.Singular -> raise Singular_basis
      in
      let s = Lu.stats fact in
      Metrics.observe (Lazy.force m_lu_fill)
        (float_of_int s.Lu.factor_nnz /. float_of_int (max 1 s.Lu.basis_nnz));
      slot.fact <- Some fact);
    Metrics.incr (Lazy.force m_refactorizations);
    st.pivots_since_factor <- 0;
    recompute_basics st
  end

(* Refactorization cadence. The LU kernel asks its own eta file (count
   and accumulated fill); the dense kernel refactorizes after a pivot
   count derived from m — small bases drift fast and are cheap to
   rebuild. [refactor_override] (set by the numerical-recovery path)
   forces a cadence / eta limit. *)
let need_refactor st =
  match st.kern with
  | Kdense _ ->
    let every =
      match st.refactor_override with
      | Some k -> max 1 k
      | None -> max 32 (min 256 (4 * st.p.m))
    in
    st.pivots_since_factor >= every
  | Klu slot -> (
    match slot.fact with
    | Some f -> Lu.should_refactor ?eta_limit:st.refactor_override f
    | None -> true)

let violation st j =
  let x = st.x.(j) in
  if x < st.lb.(j) -. feas_tol then st.lb.(j) -. x
  else if x > st.ub.(j) +. feas_tol then x -. st.ub.(j)
  else 0.0

let total_infeasibility st =
  let acc = ref 0.0 in
  for r = 0 to st.p.m - 1 do
    acc := !acc +. violation st st.basic_var.(r)
  done;
  !acc

(* Entering-variable selection. [phase1] switches the costs: nonbasic
   phase-1 costs are zero, so d_j = -y.A_j. Returns (j, dir, d_j). *)
let choose_entering st ~phase1 =
  let best = ref (-1) and best_score = ref 0.0 and best_dir = ref 1.0 in
  for j = 0 to st.nn - 1 do
    let vs = st.vstat.(j) in
    if vs <> Basic && (st.ub.(j) -. st.lb.(j) > zero_tol || vs = Free_nb) then begin
      let cj = if phase1 then 0.0 else cost_of st j in
      let d = reduced_cost st j cj in
      (* the improving direction, 0 when d has the optimality sign *)
      let dir =
        match vs with
        | At_lower -> if d < -.dj_tol then 1.0 else 0.0
        | At_upper -> if d > dj_tol then -1.0 else 0.0
        | Free_nb ->
          if d < -.dj_tol then 1.0 else if d > dj_tol then -1.0 else 0.0
        | Basic -> 0.0
      in
      let score = abs_float d in
      if
        dir <> 0.0 && score > dj_tol
        && if st.bland then !best = -1 else score > !best_score
      then begin
        best := j;
        best_score := score;
        best_dir := dir
      end
    end
  done;
  if !best = -1 then None else Some (!best, !best_dir)

type leave = Bound_flip | Leave of int * [ `Lower | `Upper ]

(* Ratio test over the nonzeros of the ftran'd entering column. In
   phase 1 infeasible basics may travel to the bound they violate and
   leave there. Returns (t, leave) or None when the direction is
   unbounded. Ties within [tie] are broken by the largest pivot
   magnitude (stability) or, in Bland mode, by the smallest
   leaving-variable index (anti-cycling). *)
let ratio_test st j dir ~phase1 =
  let tie = 1e-9 in
  let flip_limit =
    let span = st.ub.(j) -. st.lb.(j) in
    if span < 0.0 then 0.0 else span
  in
  let t_best = ref flip_limit in
  let leave_r = ref (-1) and leave_upper = ref false in
  let best_piv = ref 0.0 in
  let leave_var = ref max_int in
  let av = Sparse_vec.raw st.alpha in
  for k = 0 to Sparse_vec.nnz st.alpha - 1 do
    let r = Sparse_vec.nth st.alpha k in
    let a = av.(r) in
    if abs_float a > piv_tol then begin
      let v = st.basic_var.(r) in
      let delta = -.dir *. a in
      let xr = st.x.(v) and lr = st.lb.(v) and ur = st.ub.(v) in
      (* this row's step to the bound it would leave at, nan if none *)
      let t = ref nan and upper = ref false in
      let below = xr < lr -. feas_tol and above = xr > ur +. feas_tol in
      if (not below) && not above then begin
        if delta < 0.0 && lr > neg_infinity then t := (xr -. lr) /. -.delta
        else if delta > 0.0 && ur < infinity then begin
          t := (ur -. xr) /. delta;
          upper := true
        end
      end
      else if phase1 then begin
        if below && delta > 0.0 then t := (lr -. xr) /. delta
        else if above && delta < 0.0 then begin
          t := (xr -. ur) /. -.delta;
          upper := true
        end
      end;
      if not (Float.is_nan !t) then begin
        let t = if !t < 0.0 then 0.0 else !t in
        let strictly_less = t < !t_best -. tie in
        let tied = (not strictly_less) && t <= !t_best +. tie in
        let wins_tie =
          tied
          && if st.bland then v < !leave_var else abs_float a > !best_piv
        in
        if strictly_less || wins_tie then begin
          if t < !t_best then t_best := t;
          leave_r := r;
          leave_upper := !upper;
          best_piv := abs_float a;
          leave_var := v
        end
      end
    end
  done;
  if !t_best = infinity then None
  else if !leave_r < 0 then Some (!t_best, Bound_flip)
  else
    Some (!t_best, Leave (!leave_r, if !leave_upper then `Upper else `Lower))

(* Apply a step of length t along entering variable j / direction dir. *)
let apply_step st j dir t leave =
  let m = st.p.m in
  (* move basics along the nonzeros of alpha *)
  Sparse_vec.iter st.alpha (fun r a ->
      let v = st.basic_var.(r) in
      st.x.(v) <- st.x.(v) -. (a *. dir *. t));
  match leave with
  | Bound_flip ->
    (match st.vstat.(j) with
    | At_lower ->
      st.vstat.(j) <- At_upper;
      st.x.(j) <- st.ub.(j)
    | At_upper ->
      st.vstat.(j) <- At_lower;
      st.x.(j) <- st.lb.(j)
    | Free_nb | Basic ->
      (* a free variable has no opposite bound: a flip step of finite
         length can only come from a finite bound, so this is
         unreachable for Free_nb; keep the value consistent anyway. *)
      st.x.(j) <- st.x.(j) +. (dir *. t))
  | Leave (r, side) ->
    let v = st.basic_var.(r) in
    (match side with
    | `Lower ->
      st.x.(v) <- st.lb.(v);
      st.vstat.(v) <- At_lower
    | `Upper ->
      st.x.(v) <- st.ub.(v);
      st.vstat.(v) <- At_upper);
    st.in_row.(v) <- -1;
    st.x.(j) <- st.x.(j) +. (dir *. t);
    st.vstat.(j) <- Basic;
    st.basic_var.(r) <- j;
    st.in_row.(j) <- r;
    (* fold the basis change into the kernel *)
    (match st.kern with
    | Kdense binv ->
      (* binv := E * binv *)
      let piv = Sparse_vec.get st.alpha r in
      let pr = binv.(r) in
      for k = 0 to m - 1 do
        pr.(k) <- pr.(k) /. piv
      done;
      Sparse_vec.iter st.alpha (fun i f ->
          if i <> r && abs_float f > zero_tol then begin
            let row = binv.(i) in
            for k = 0 to m - 1 do
              row.(k) <- row.(k) -. (f *. pr.(k))
            done
          end)
    | Klu slot -> (
      match slot.fact with
      | Some fct -> Lu.append_eta fct ~r ~alpha:st.alpha
      | None -> assert false));
    st.pivots_since_factor <- st.pivots_since_factor + 1

(* One simplex phase; [phase1] selects the infeasibility objective.
   Returns [`Done] (phase-1 feasible / phase-2 optimal), [`Infeasible],
   [`Unbounded] or [`Iteration_limit]. *)
(* Deadline polling stride: a clock read every 32 pivots bounds the
   overrun past the budget to whatever 31 pivots cost, without the
   hot loops paying a syscall-ish read per iteration. *)
let deadline_due st = st.iters land 31 = 0 && Deadline.expired st.deadline

(* Fault-injection point for the numerical-recovery ladder: a
   singular basis out of nowhere, as if the factorization had
   drifted. Unscoped (fires wherever a chaos seed is installed)
   because the recovery below is internal to [solve] and
   answer-preserving. *)
let chaos_singular st =
  st.iters > 0 && Chaos.fire ~scoped:false ~site:"lu.singular" ~p:0.002 ()

let run_phase st ~phase1 ~max_iterations =
  let continue = ref true in
  let result = ref `Done in
  while !continue do
    if st.iters >= max_iterations then begin
      result := `Iteration_limit;
      continue := false
    end
    else if deadline_due st then begin
      result := `Deadline;
      continue := false
    end
    else begin
      if chaos_singular st then raise Singular_basis;
      if st.iters > 0 && need_refactor st then refactorize st;
      let inf = total_infeasibility st in
      if phase1 && inf <= feas_tol then begin
        result := `Done;
        continue := false
      end
      else begin
        (* multipliers for the current phase objective *)
        load_phase_costs st ~phase1;
        kernel_btran st;
        match choose_entering st ~phase1 with
        | None ->
          if phase1 && inf > feas_tol then result := `Infeasible
          else result := `Done;
          continue := false
        | Some (j, dir) -> (
          ftran st j;
          match ratio_test st j dir ~phase1 with
          | None ->
            result := `Unbounded;
            continue := false
          | Some (t, leave) ->
            apply_step st j dir t leave;
            st.iters <- st.iters + 1;
            if t <= 1e-10 then begin
              st.degenerate_run <- st.degenerate_run + 1;
              if st.degenerate_run > 80 then st.bland <- true
            end
            else begin
              st.degenerate_run <- 0;
              st.bland <- false
            end)
      end
    end
  done;
  !result

(* --- warm starts and the dual simplex ----------------------------- *)

(* Structural sanity of a caller-supplied basis: one distinct column
   per row, all in range. Anything else is silently treated as "no
   warm start" — a basis from a different problem must never crash the
   solve. *)
let basis_well_formed st basis =
  let m = st.p.m in
  Array.length basis = m
  && begin
    let k = ref 0 in
    while
      !k < m
      &&
      let j = basis.(!k) in
      j >= 0 && j < st.nn && Bytes.get st.seen j = '\000'
    do
      Bytes.set st.seen basis.(!k) '\001';
      incr k
    done;
    for i = 0 to !k - 1 do
      Bytes.set st.seen basis.(i) '\000'
    done;
    !k = m
  end

(* Make [basis] the basic set, parking each nonbasic provisionally;
   [prepare_warm_nonbasics] re-chooses the spot by reduced-cost sign
   once a factorization of the basis exists. *)
let assign_basis st basis =
  for j = 0 to st.nn - 1 do
    st.in_row.(j) <- -1
  done;
  for r = 0 to st.p.m - 1 do
    st.basic_var.(r) <- basis.(r);
    st.in_row.(basis.(r)) <- r
  done;
  for j = 0 to st.nn - 1 do
    if st.in_row.(j) >= 0 then st.vstat.(j) <- Basic
    else begin
      st.vstat.(j) <- (if st.lb.(j) > neg_infinity then At_lower
                       else if st.ub.(j) < infinity then At_upper
                       else Free_nb);
      st.x.(j) <-
        (if st.lb.(j) > neg_infinity then st.lb.(j)
         else if st.ub.(j) < infinity then st.ub.(j)
         else 0.0)
    end
  done

(* Install the basic set and factorize it through the kernel. Raises
   Singular_basis when the columns are dependent; the caller falls
   back to a cold start. *)
let install_basis st basis =
  assign_basis st basis;
  refactorize st

(* Whether a warm start from [basis] may run on the factorization the
   session already holds: the last re-solve finished consistently on
   exactly this basis (position by position, as the factor is
   position-indexed) and the eta file has room left. *)
let carries st basis =
  st.carried
  && (match st.kern with
     | Klu { fact = Some f } -> not (Lu.should_refactor f)
     | Klu { fact = None } | Kdense _ -> false)
  &&
  let same = ref true in
  for r = 0 to st.p.m - 1 do
    if basis.(r) <> st.basic_var.(r) then same := false
  done;
  !same

(* Park every nonbasic variable on the bound its reduced cost wants:
   a boxed variable is always dual feasible this way; a one-sided or
   free variable can only sit where its bounds allow, so a wrong-signed
   reduced cost there breaks dual feasibility. Returns whether the
   basis is dual feasible (so the dual simplex may run). *)
let prepare_warm_nonbasics st =
  load_phase_costs st ~phase1:false;
  kernel_btran st;
  let dual_ok = ref true in
  for j = 0 to st.nn - 1 do
    if st.in_row.(j) < 0 then begin
      let l = st.lb.(j) and u = st.ub.(j) in
      let d = reduced_cost st j (cost_of st j) in
      if l > neg_infinity && u < infinity then
        if d >= 0.0 then begin
          st.vstat.(j) <- At_lower;
          st.x.(j) <- l
        end
        else begin
          st.vstat.(j) <- At_upper;
          st.x.(j) <- u
        end
      else if l > neg_infinity then begin
        st.vstat.(j) <- At_lower;
        st.x.(j) <- l;
        if d < -.dj_tol then dual_ok := false
      end
      else if u < infinity then begin
        st.vstat.(j) <- At_upper;
        st.x.(j) <- u;
        if d > dj_tol then dual_ok := false
      end
      else begin
        st.vstat.(j) <- Free_nb;
        st.x.(j) <- 0.0;
        if abs_float d > dj_tol then dual_ok := false
      end
    end
  done;
  recompute_basics st;
  !dual_ok

(* Dual simplex phase. Precondition: the basis is dual feasible (every
   nonbasic reduced cost has its optimality sign). Each iteration picks
   the most bound-violating basic variable as the leaving row, extracts
   that row of B^-1 through the kernel (a sparse BTRAN of a unit vector
   on the LU path), prices it against the nonbasic columns, and enters
   the column whose reduced-cost ratio |d_j / alpha_j| is smallest
   among those that move the violated basic toward its bound — the
   bounded-variable dual ratio test, ties broken by the largest pivot
   magnitude.

   Returns [`Done] (primal feasible, hence optimal), [`No_pivot] (a
   violated row admits no entering column — the strong hint of primal
   infeasibility, confirmed afterwards by primal phase 1),
   [`Numerical] (row/column pivot disagreement; the primal phases take
   over from the current basis) or [`Iteration_limit]. *)
let run_dual_phase st ~max_iterations =
  let m = st.p.m in
  let continue = ref true in
  let result = ref `Done in
  while !continue do
    if st.iters >= max_iterations then begin
      result := `Iteration_limit;
      continue := false
    end
    else if deadline_due st then begin
      result := `Deadline;
      continue := false
    end
    else begin
      if chaos_singular st then raise Singular_basis;
      if st.iters > 0 && need_refactor st then refactorize st;
      let r_best = ref (-1) and viol_best = ref feas_tol in
      for r = 0 to m - 1 do
        let v = violation st st.basic_var.(r) in
        if v > !viol_best then begin
          r_best := r;
          viol_best := v
        end
      done;
      if !r_best = -1 then begin
        result := `Done;
        continue := false
      end
      else begin
        let r = !r_best in
        let v = st.basic_var.(r) in
        let to_upper = st.x.(v) > st.ub.(v) +. feas_tol in
        (* true multipliers for the reduced costs *)
        load_phase_costs st ~phase1:false;
        kernel_btran st;
        kernel_row st r;
        let rv = Sparse_vec.raw st.rho in
        let best = ref (-1) in
        let best_ratio = ref infinity in
        let best_piv = ref 0.0 in
        for j = 0 to st.nn - 1 do
          match st.vstat.(j) with
          | Basic -> ()
          | (At_lower | At_upper | Free_nb) as vs ->
            if vs = Free_nb || st.ub.(j) -. st.lb.(j) > zero_tol then begin
              let a = row_dot st rv j in
              if abs_float a > piv_tol then begin
                let eligible =
                  match vs with
                  | At_lower -> if to_upper then a > 0.0 else a < 0.0
                  | At_upper -> if to_upper then a < 0.0 else a > 0.0
                  | Free_nb -> true
                  | Basic -> false
                in
                if eligible then begin
                  let d = reduced_cost st j (cost_of st j) in
                  let ratio = abs_float (d /. a) in
                  if
                    ratio < !best_ratio -. 1e-9
                    || (ratio <= !best_ratio +. 1e-9 && abs_float a > !best_piv)
                  then begin
                    best := j;
                    best_ratio := ratio;
                    best_piv := abs_float a
                  end
                end
              end
            end
        done;
        if !best = -1 then begin
          result := `No_pivot;
          continue := false
        end
        else begin
          let j = !best in
          ftran st j;
          let a = Sparse_vec.get st.alpha r in
          if abs_float a <= piv_tol then begin
            (* the row view and the freshly ftran'd column disagree:
               the factorization has drifted; let the primal phases
               finish from here rather than pivot on noise *)
            result := `Numerical;
            continue := false
          end
          else begin
            let bound = if to_upper then st.ub.(v) else st.lb.(v) in
            let t = (st.x.(v) -. bound) /. a in
            let dir = if t >= 0.0 then 1.0 else -1.0 in
            apply_step st j dir (abs_float t)
              (Leave (r, if to_upper then `Upper else `Lower));
            st.iters <- st.iters + 1
          end
        end
      end
    end
  done;
  !result

let default_iterations p = 20_000 + (60 * (p.n + p.m))

let session ?(options = default_options) p =
  let n = p.n and m = p.m in
  let nn = n + m in
  let lb = Array.make nn 0.0 and ub = Array.make nn 0.0 in
  for r = 0 to m - 1 do
    lb.(n + r) <- p.slack_lb.(r);
    ub.(n + r) <- p.slack_ub.(r)
  done;
  {
    p;
    nn;
    lb;
    ub;
    x = Array.make nn 0.0;
    vstat = Array.make nn At_lower;
    basic_var = Array.init (max m 1) (fun r -> n + r);
    in_row = Array.make nn (-1);
    kern =
      (match options.kernel with
      | Dense ->
        Kdense
          (Array.init (max m 1) (fun r ->
               Array.init (max m 1) (fun i -> if r = i then 1.0 else 0.0)))
      | Sparse_lu -> Klu { fact = None });
    alpha = Sparse_vec.create m;
    y = Sparse_vec.create m;
    work = Sparse_vec.create m;
    rho = Sparse_vec.create m;
    seen = Bytes.make nn '\000';
    deadline = Deadline.none;
    iters = 0;
    degenerate_run = 0;
    bland = false;
    pivots_since_factor = 0;
    refactor_override = None;
    carried = false;
    start = None;
    start_basis = Array.make (max m 1) 0;
    ran = false;
  }

(* Remember the factor and basis a re-solve starts from. Called when
   the factor represents [basic_var]. *)
let mark_start st =
  match st.kern with
  | Klu { fact = Some f } ->
    st.start <- Some (f, Lu.mark f);
    Array.blit st.basic_var 0 st.start_basis 0 st.p.m
  | Klu { fact = None } | Kdense _ -> st.start <- None

let rollback st =
  st.ran <- false;
  (match (st.start, st.kern) with
  | Some (f, mk), Klu { fact = Some cur } when cur == f ->
    Lu.truncate f mk;
    Array.blit st.start_basis 0 st.basic_var 0 st.p.m;
    st.carried <- true
  | _ -> st.carried <- false);
  st.start <- None

let resolve ?max_iterations ?lower ?upper ?basis ?(deadline = Deadline.none) st
    =
  let p = st.p in
  let max_iterations =
    match max_iterations with Some k -> k | None -> default_iterations p
  in
  let n = p.n and m = p.m in
  let nn = st.nn and lb = st.lb and ub = st.ub in
  for j = 0 to n - 1 do
    lb.(j) <- (match lower with Some l -> l.(j) | None -> p.base_lb.(j));
    ub.(j) <- (match upper with Some u -> u.(j) | None -> p.base_ub.(j))
  done;
  (* slack bounds are never crossed *)
  let bounds_ok = ref true in
  for j = 0 to n - 1 do
    if lb.(j) > ub.(j) +. 1e-12 then bounds_ok := false
  done;
  if not !bounds_ok then begin
    (* nothing runs: the factor and the basis it represents stay as
       they were, and so does the point a rollback returns to *)
    st.ran <- false;
    if st.carried then mark_start st else st.start <- None;
    {
      status = Infeasible;
      objective = nan;
      primal = Array.make n 0.0;
      duals = [||];
      reduced_costs = [||];
      iterations = 0;
      dual_iterations = 0;
      basis = Array.init m (fun r -> n + r);
    }
  end
  else begin
    st.deadline <- deadline;
    st.iters <- 0;
    st.degenerate_run <- 0;
    st.bland <- false;
    st.refactor_override <- None;
    st.ran <- true;
    (* (re)start from the all-slack basis; used both for the initial
       start and to recover from a numerically singular basis *)
    let reset_to_slack_basis () =
      for j = 0 to nn - 1 do
        st.in_row.(j) <- -1
      done;
      for r = 0 to m - 1 do
        st.basic_var.(r) <- n + r;
        st.in_row.(n + r) <- r
      done;
      for j = 0 to n - 1 do
        let l = lb.(j) and u = ub.(j) in
        if l > neg_infinity && u < infinity then
          if abs_float l <= abs_float u then begin
            st.vstat.(j) <- At_lower;
            st.x.(j) <- l
          end
          else begin
            st.vstat.(j) <- At_upper;
            st.x.(j) <- u
          end
        else if l > neg_infinity then begin
          st.vstat.(j) <- At_lower;
          st.x.(j) <- l
        end
        else if u < infinity then begin
          st.vstat.(j) <- At_upper;
          st.x.(j) <- u
        end
        else begin
          st.vstat.(j) <- Free_nb;
          st.x.(j) <- 0.0
        end
      done;
      for r = 0 to m - 1 do
        st.vstat.(n + r) <- Basic
      done;
      (* the slack identity cannot be singular, but factorizing it
         still costs O(m) LU steps (an O(m^3) Gauss-Jordan on the
         dense kernel), so it is built only when no warm basis takes
         its place; this also recomputes the basics *)
      if m > 0 then refactorize st else recompute_basics st
    in
    (* Warm start: install the caller's basis and decide whether the
       dual simplex may run. The session's own last basis keeps the
       factorization it already has; any other basis is factorized
       fresh. Any failure (wrong shape, singular columns) falls back
       to the cold slack basis. Installation overwrites every basic
       and nonbasic value, so the state it starts from never matters. *)
    let warm_dual = ref false in
    let warm_installed = ref false in
    (match basis with
    | Some bas when m > 0 && basis_well_formed st bas -> (
      match
        if carries st bas then assign_basis st bas else install_basis st bas
      with
      | () ->
        warm_installed := true;
        warm_dual := prepare_warm_nonbasics st
      | exception Singular_basis -> reset_to_slack_basis ())
    | _ -> reset_to_slack_basis ());
    st.carried <- false;
    mark_start st;
    if !warm_installed then begin
      Metrics.incr (Lazy.force m_warm_starts);
      if not !warm_dual then begin
        let sink = Trace.current () in
        if Trace.enabled sink then
          Trace.warm_start sink ~dual_feasible:false ~iterations:0
            ~kernel:(kernel_name st) ~outcome:"primal_fallback"
      end
    end;
    let dual_iters = ref 0 in
    let finish status =
      (match st.kern with
      | Klu { fact = Some f } ->
        Metrics.observe (Lazy.force m_eta_len)
          (float_of_int (Lu.eta_count f))
      | _ -> ());
      let primal = Array.sub st.x 0 n in
      let obj_min =
        let acc = ref 0.0 in
        for j = 0 to n - 1 do
          acc := !acc +. (p.cost.(j) *. primal.(j))
        done;
        !acc
      in
      let sign = if p.maximize then -1.0 else 1.0 in
      {
        status;
        objective = sign *. obj_min;
        primal;
        duals = [||];
        reduced_costs = [||];
        iterations = st.iters;
        dual_iterations = !dual_iters;
        basis = Array.sub st.basic_var 0 m;
      }
    in
    let sink = Trace.current () in
    let phase_done phase iterations result =
      if Trace.enabled sink then begin
        let w = Monpos_obs.Sampler.decide Monpos_obs.Sampler.Simplex_phase in
        if w > 0 then
          Trace.simplex_phase sink ~sampled_of:w ~phase ~iterations
            ~outcome:
              (match result with
              | `Done -> if phase = 1 then "feasible" else "optimal"
              | `Infeasible -> "infeasible"
              | `Unbounded -> "unbounded"
              | `Iteration_limit -> "iteration_limit"
              | `Deadline -> "deadline")
            ()
      end
    in
    let run () =
      (* dual phase first when the warm basis allows it; the primal
         phases below then confirm (usually in zero pivots) whatever it
         reached, so a cold and a warm solve share one status
         authority *)
      if !warm_dual then begin
        warm_dual := false;
        let it0 = st.iters in
        let outcome = run_dual_phase st ~max_iterations in
        let pivots = st.iters - it0 in
        dual_iters := !dual_iters + pivots;
        Metrics.add (Lazy.force m_dual_iterations) pivots;
        if Trace.enabled sink then
          Trace.warm_start sink ~dual_feasible:true ~iterations:pivots
            ~kernel:(kernel_name st)
            ~outcome:
              (match outcome with
              | `Done -> "reoptimal"
              | `No_pivot -> "infeasible_guess"
              | `Numerical -> "primal_fallback"
              | `Iteration_limit -> "iteration_limit"
              | `Deadline -> "deadline")
      end;
      let r1 =
        if total_infeasibility st > feas_tol then begin
          let r = run_phase st ~phase1:true ~max_iterations in
          phase_done 1 st.iters r;
          r
        end
        else `Done
      in
      let phase1_iters = st.iters in
      match r1 with
      | `Infeasible -> finish Infeasible
      | `Deadline -> finish Deadline_reached
      | `Unbounded ->
        (* phase 1 cannot be unbounded: its objective is bounded below
           by zero, and every improving direction hits an infeasible
           basic's violated bound. *)
        assert false
      | `Iteration_limit -> finish Iteration_limit
      | `Done -> (
        st.bland <- false;
        st.degenerate_run <- 0;
        let r2 = run_phase st ~phase1:false ~max_iterations in
        phase_done 2 (st.iters - phase1_iters) r2;
        match r2 with
        | `Done -> finish Optimal
        | `Unbounded -> finish Unbounded
        | `Infeasible -> finish Infeasible
        | `Iteration_limit -> finish Iteration_limit
        | `Deadline -> finish Deadline_reached)
    in
    (* numerical recovery: a singular basis (accumulated factorization
       drift or a degenerate pivot sequence) restarts from the slack
       basis under Bland's rule with more frequent refactorization; a
       second failure gives up with Iteration_limit *)
    let sol, consistent =
      match run () with
      | sol -> (sol, true)
      | exception Singular_basis ->
        st.bland <- true;
        st.degenerate_run <- 0;
        st.refactor_override <- Some 64;
        (* the restart must not itself be sabotaged by an injected
           fault, so chaos is suppressed for its whole duration *)
        Chaos.suppress (fun () ->
            reset_to_slack_basis ();
            match run () with
            | sol ->
              Metrics.incr (Lazy.force m_recoveries);
              if Trace.enabled sink then
                Trace.recovery sink ~stage:"simplex"
                  ~detail:"singular basis: cold restart under Bland's rule";
              (sol, true)
            | exception Singular_basis -> (finish Iteration_limit, false))
    in
    st.carried <- consistent;
    (* the solve count is labeled by the kernel the solve actually ran
       on; registration is idempotent, so this lookup is a mutexed
       hashtable hit once per solve, not per pivot *)
    Metrics.incr
      (Metrics.counter
         ~labels:[ ("kernel", kernel_name st) ]
         Metrics.default "simplex.solves");
    Metrics.add (Lazy.force m_primal_iterations)
      (sol.iterations - sol.dual_iterations);
    sol
  end

let certificate st =
  let n = st.p.n and m = st.p.m in
  if not st.ran then (Array.make m 0.0, Array.make n 0.0)
  else begin
    (* multipliers for the true objective at the final basis *)
    load_phase_costs st ~phase1:false;
    kernel_btran st;
    let yv = Sparse_vec.raw st.y in
    let sign = if st.p.maximize then -1.0 else 1.0 in
    ( Array.init m (fun r -> sign *. yv.(r)),
      Array.init n (fun j -> reduced_cost st j st.p.cost.(j)) )
  end

let solve ?max_iterations ?lower ?upper ?basis ?deadline ?options p =
  let st = session ?options p in
  let sol = resolve ?max_iterations ?lower ?upper ?basis ?deadline st in
  let duals, reduced_costs = certificate st in
  { sol with duals; reduced_costs }

let solve_model ?max_iterations ?deadline ?options m =
  solve ?max_iterations ?deadline ?options (of_model m)
