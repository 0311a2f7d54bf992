module Trace = Monpos_obs.Trace
module Metrics = Monpos_obs.Metrics
module Clock = Monpos_obs.Clock
module Sampler = Monpos_obs.Sampler
module Status = Monpos_obs.Status
module Flightrec = Monpos_obs.Flightrec
module Error = Monpos_resilience.Error
module Deadline = Monpos_resilience.Deadline
module Chaos = Monpos_resilience.Chaos
module Preempt = Monpos_resilience.Preempt
module Prng = Monpos_util.Prng
module H = Monpos_util.Heap
include Mip_types

(* module-scope instrument handles: registration is idempotent and
   handles survive Metrics.reset, so hot paths pay no lookup. Every
   lazy here is forced on the main domain at solve entry — Lazy.force
   is not safe to race from two domains. *)
let m_nodes = lazy (Metrics.counter Metrics.default "mip.nodes")

let m_incumbents = lazy (Metrics.counter Metrics.default "mip.incumbents")

let m_prunes = lazy (Metrics.counter Metrics.default "mip.prunes")

let m_solves = lazy (Metrics.counter Metrics.default "mip.solves")

(* registered at entry so every solve reports it; the worker pool adds
   its steal counts at shutdown *)
let m_steals = lazy (Metrics.counter Metrics.default "mip.steals")

(* checkpoint write count plus the wall-clock instant of the last
   write: /statusz derives the operator-facing "checkpoint age" (how
   much search a crash right now would lose) from the pair. *)
let m_ck_writes = lazy (Metrics.counter Metrics.default "checkpoint.writes")

let m_g_ck_clock =
  lazy (Metrics.gauge Metrics.default "checkpoint.last_write_clock")

(* cumulative seconds this solve spent serializing + atomically
   replacing checkpoint files: the direct numerator of the checkpoint
   overhead, which the bench's overhead phase gates as a fraction of the
   solve wall (a paired wall-clock diff cannot resolve sub-percent
   costs on a shared machine) *)
let m_g_ck_seconds =
  lazy (Metrics.gauge Metrics.default "checkpoint.write_seconds")

(* Search-progress watermarks for live introspection (/statusz):
   last-published incumbent objective, best known relaxation bound,
   and their relative gap. Gauges, not counters — the serve loop reads
   whatever the solve last wrote. *)
let m_g_incumbent = lazy (Metrics.gauge Metrics.default "mip.incumbent")

let m_g_bound = lazy (Metrics.gauge Metrics.default "mip.bound")

let m_g_gap = lazy (Metrics.gauge Metrics.default "mip.gap")

type status = Optimal | Feasible | Infeasible | Unbounded | No_solution

type result = {
  status : status;
  objective : float;
  solution : float array option;
  bound : float;
  nodes : int;
  gap : float;
  deadline_hit : bool;
  preempted : bool;
}

let resolved_jobs options =
  let j =
    if options.jobs <= 0 then Domain.recommended_domain_count ()
    else options.jobs
  in
  max 1 j

(* ---- node evaluation: the node LP plus the dive -------------------- *)

(* The per-solve constants: everything a node evaluation reads, plus
   what the coordinator needs for checkpoints and the final report.
   Node evaluations run on any domain; the only thing they write is
   the incumbent cell, through its CAS. *)
type ctx = {
  options : options;
  model : Model.t;  (** the presolved model *)
  problem : Simplex.problem;
  deadline : Deadline.t;
  budget : float;
  elapsed_base : float;  (** seconds a resumed run had already spent *)
  sink : Trace.sink;
  minimize : bool;
  int_vars : int list;
  (* every objective coefficient sits on an integer variable and is
     itself integral: any LP bound can be rounded up to the next
     integer — a large amount of extra pruning for pure cardinality
     objectives like the paper's device counts *)
  integral_objective : bool;
  incumbent : Incumbent.t;
  prngs : Prng.t array;  (** per-slot steal-victim streams *)
  model_lines : string list Lazy.t;
      (** the model's checkpoint records, encoded at the first write;
          forced on the coordinating domain only *)
}

let to_score ctx obj = if ctx.minimize then obj else -.obj

let of_score ctx s = if ctx.minimize then s else -.s

let sharpen ctx score =
  if ctx.integral_objective && score > neg_infinity && score < infinity then
    Float.round (Float.ceil (score -. 1e-6))
  else score

(* most fractional integer variable, or None if integral *)
let fractional_var ctx primal =
  let itol = ctx.options.integrality_tol in
  let best = ref (-1) and best_dist = ref 0.0 in
  List.iter
    (fun v ->
      let x = primal.(v) in
      let dist = abs_float (x -. Float.round x) in
      if dist > itol && dist > !best_dist then begin
        best := v;
        best_dist := dist
      end)
    ctx.int_vars;
  if !best = -1 then None else Some !best

let inc_score ctx =
  match Incumbent.get ctx.incumbent with
  | Some c -> c.Incumbent.score
  | None -> infinity

(* could a candidate at [score] with minimal key [key] (or any
   candidate from a subtree bounded below by that pair) still become
   the final incumbent? The order is exact, so "no" is a proof and
   the work can be dropped on any domain without changing the
   result. *)
let worth ctx ~key score =
  match Incumbent.get ctx.incumbent with
  | None -> true
  | Some c ->
    score < c.Incumbent.score
    || (score = c.Incumbent.score && key < c.Incumbent.key)

(* prune test: a (sharpened) score at or above incumbent -
   gap_tolerance*(1+|incumbent|) cannot improve the answer by more
   than the accepted gap. False while no incumbent exists. *)
let within_gap ctx score =
  match Incumbent.get ctx.incumbent with
  | None -> false
  | Some c ->
    score
    >= c.Incumbent.score
       -. (ctx.options.gap_tolerance *. (1.0 +. abs_float c.Incumbent.score))

let publish_candidate ctx ~key primal score =
  if worth ctx ~key score then begin
    (* snap integers exactly before the feasibility re-check *)
    let snapped = Array.copy primal in
    List.iter (fun v -> snapped.(v) <- Float.round snapped.(v)) ctx.int_vars;
    if Model.value_feasible ~tol:1e-6 ctx.model snapped then begin
      let c = { Incumbent.score; key; x = snapped } in
      if Incumbent.publish ctx.incumbent c then begin
        Metrics.incr (Lazy.force m_incumbents);
        Metrics.set (Lazy.force m_g_incumbent) (of_score ctx score);
        if Trace.enabled ctx.sink then
          Trace.incumbent ctx.sink ~solver:"mip" ~node:(fst key)
            ~objective:(of_score ctx score);
        if ctx.options.log then
          Printf.eprintf "[mip] incumbent %.6f\n%!" (of_score ctx score)
      end
    end
  end

(* LP diving: repeatedly fix the most fractional integer variable to
   its rounded value (retrying the opposite value if that kills
   feasibility) until the LP relaxation comes out integral. Much more
   reliable than one-shot rounding on covering-type programs, where
   rounding fractional openings down is almost always infeasible.
   Runs entirely on the domain that owns the node, on the session
   that solved the node LP: each step starts from the previous step's
   final basis, so it keeps that step's factorization, and a failed
   fix is rolled back so the retry keeps it too. The candidate is
   published under key (node seq, 1) so the incumbent order covers
   it. *)
let dive ctx sess node primal0 basis0 =
  let lower = Array.copy node.lower and upper = Array.copy node.upper in
  let warm basis = if ctx.options.warm_start then Some basis else None in
  let lp basis =
    Simplex.resolve ~lower ~upper ?basis:(warm basis) ~deadline:ctx.deadline
      sess
  in
  let rec go primal basis fuel =
    if fuel >= 0 then
      match fractional_var ctx primal with
      | None ->
        (* integral: re-solve once to get the continuous completion *)
        let sol = lp basis in
        if sol.Simplex.status = Simplex.Optimal then
          publish_candidate ctx ~key:(node.seq, 1) sol.Simplex.primal
            (to_score ctx sol.Simplex.objective)
      | Some v ->
        let try_fix value =
          let saved_l = lower.(v) and saved_u = upper.(v) in
          lower.(v) <- value;
          upper.(v) <- value;
          let sol = lp basis in
          if sol.Simplex.status = Simplex.Optimal then Some sol
          else begin
            lower.(v) <- saved_l;
            upper.(v) <- saved_u;
            Simplex.rollback sess;
            None
          end
        in
        let rounded = Float.round primal.(v) in
        let rounded = max node.lower.(v) (min node.upper.(v) rounded) in
        let other =
          if rounded +. 1.0 <= upper.(v) +. 1e-9 then rounded +. 1.0
          else rounded -. 1.0
        in
        (match try_fix rounded with
        | Some sol -> go sol.Simplex.primal sol.Simplex.basis (fuel - 1)
        | None -> (
          match try_fix other with
          | Some sol -> go sol.Simplex.primal sol.Simplex.basis (fuel - 1)
          | None -> ()))
  in
  go primal0 basis0 (List.length ctx.int_vars)

type outcome =
  | O_pending
  | O_infeasible
  | O_unbounded
  | O_iter_limit
  | O_deadline
  | O_optimal of { raw : float; primal : float array; basis : Simplex.basis }

type task = {
  t_node : node;
  t_bound : float;
  t_num : int;
  t_dive : bool;
  mutable t_outcome : outcome;
}

(* Solve a task's node LP, offer an integral relaxation to the
   incumbent, dive when the task asks for it, and leave the outcome
   for the merge. Runs on whichever domain the pool hands it to, and
   may run twice when a worker slot dies mid-task: everything it
   writes is either the outcome (overwritten whole) or an incumbent
   offer (idempotent under the exact order). *)
let evaluate ctx (t : task) =
  (* Scoped chaos is suppressed during node processing: a fault
     injected into one node LP (say a singular warm basis) is
     recovered to the same optimum but possibly a different basis and
     primal, and which domain solves which node is timing-dependent —
     letting it fire here would break jobs-invariance. Chaos still
     hits the coordinator points (deadline compression at entry, NaN
     poisoning at merge) and every LP solve outside the search. *)
  Chaos.suppress @@ fun () ->
  let node = t.t_node in
  (* The node LP factorizes its start basis fresh on a new session,
     so its arithmetic is the stored node's alone; the dive then
     carries that session's factorization. The session never leaves
     this task, so no factorization crosses tasks, domains or a
     checkpoint. *)
  let sess = Simplex.session ctx.problem in
  let sol =
    Simplex.resolve ~lower:node.lower ~upper:node.upper
      ?basis:(if ctx.options.warm_start then node.start_basis else None)
      ~deadline:ctx.deadline sess
  in
  match sol.Simplex.status with
  | Simplex.Infeasible -> t.t_outcome <- O_infeasible
  | Simplex.Iteration_limit -> t.t_outcome <- O_iter_limit
  | Simplex.Deadline_reached -> t.t_outcome <- O_deadline
  | Simplex.Unbounded -> t.t_outcome <- O_unbounded
  | Simplex.Optimal ->
    let raw = to_score ctx sol.Simplex.objective in
    (match fractional_var ctx sol.Simplex.primal with
    | None ->
      publish_candidate ctx ~key:(node.seq, 0) sol.Simplex.primal
        (sharpen ctx raw)
    | Some _ ->
      (* skipping a provably-losing dive is result-invariant (see
         Incumbent); (node.seq, 1) bounds every candidate the dive
         could offer from below *)
      if t.t_dive && worth ctx ~key:(node.seq, 1) raw then
        dive ctx sess node sol.Simplex.primal sol.Simplex.basis);
    t.t_outcome <-
      O_optimal { raw; primal = sol.Simplex.primal; basis = sol.Simplex.basis }

(* ---- frontier and branching state ---------------------------------- *)

(* One run of the wave loop over a [search], restored or fresh.
   [stopped_at_limit]/[deadline_stop] start from the persisted merge
   stops and also absorb this run's own halts (max_nodes, deadline,
   preemption). Those halts are artifacts of the interruption — a
   resumed run keeps searching — so they are never persisted: that
   would permanently poison a resumed result's status. *)
type run = {
  st : search;
  mutable stopped_at_limit : bool;
  mutable deadline_stop : bool;
  mutable preempted : bool;
  mutable root_unbounded : bool;
  mutable last_ck : float;  (** clock of the last checkpoint write *)
  mutable ck_seconds : float;  (** checkpoint write time this solve *)
}

let new_search model =
  let n = Model.num_vars model in
  let bound f = Array.init n (fun v -> f model (Model.var_of_index model v)) in
  let queue = H.create () in
  H.push queue neg_infinity
    {
      lower = bound Model.var_lb;
      upper = bound Model.var_ub;
      depth = 0;
      seq = 0;
      branched = None;
      start_basis = None;
    };
  {
    queue;
    pc = pc_create n;
    next_seq = 1;
    nodes = 0;
    best_open = neg_infinity;
    infeasible_root = true;
    merge_stopped = false;
    merge_deadline = false;
  }

let start_run st =
  {
    st;
    stopped_at_limit = st.merge_stopped;
    deadline_stop = st.merge_deadline;
    preempted = false;
    root_unbounded = false;
    last_ck = Clock.now ();
    ck_seconds = 0.0;
  }

(* The fractional part recorded at branch time is x - floor(x + itol),
   which sits in (itol, 1 - itol) for the default tolerance but can
   approach 0 or 1 (or even leave [0, 1] entirely) when callers loosen
   integrality_tol; dividing by it unguarded turns one degenerate
   branch into a pseudocost that dwarfs every honest observation.
   Clamp the denominator below by the tolerance itself. *)
let pc_frac ctx f = Float.max f (Float.max ctx.options.integrality_tol 1e-6)

(* fold one observation into a running mean *)
let average means counts v x =
  means.(v) <-
    ((means.(v) *. float_of_int counts.(v)) +. x) /. float_of_int (counts.(v) + 1);
  counts.(v) <- counts.(v) + 1

let record_pseudocost ctx pc node child_score =
  match node.branched with
  | None -> ()
  | Some (v, dir, parent_score, frac) -> (
    let degradation = max 0.0 (child_score -. parent_score) in
    match dir with
    | `Down -> average pc.pc_down pc.pc_down_n v (degradation /. pc_frac ctx frac)
    | `Up ->
      average pc.pc_up pc.pc_up_n v (degradation /. pc_frac ctx (1.0 -. frac)))

let branch_var ctx pc primal =
  match ctx.options.branching with
  | Most_fractional -> fractional_var ctx primal
  | Pseudocost ->
    (* product rule over estimated degradations; variables without
       history fall back to their fractionality *)
    let itol = ctx.options.integrality_tol in
    let best = ref (-1) and best_score = ref neg_infinity in
    List.iter
      (fun v ->
        let x = primal.(v) in
        let frac = x -. Float.floor x in
        let dist = abs_float (x -. Float.round x) in
        if dist > itol then begin
          let est_down =
            if pc.pc_down_n.(v) > 0 then pc.pc_down.(v) *. frac else dist
          in
          let est_up =
            if pc.pc_up_n.(v) > 0 then pc.pc_up.(v) *. (1.0 -. frac) else dist
          in
          let score = max est_down 1e-6 *. max est_up 1e-6 in
          if score > !best_score then begin
            best := v;
            best_score := score
          end
        end)
      ctx.int_vars;
    if !best = -1 then None else Some !best

(* Push the two children of [node] on [v]. Both differ from [node] by
   one bound, so its relaxation's [basis] stays dual feasible for
   them. Children get consecutive seq numbers, down before up. *)
let branch ctx st node v ~raw ~score primal basis =
  let x = primal.(v) in
  let f = floor (x +. ctx.options.integrality_tol) in
  let frac = x -. f in
  let child_basis = Some basis in
  let down =
    {
      node with
      upper = Array.copy node.upper;
      depth = node.depth + 1;
      seq = st.next_seq;
      branched = Some (v, `Down, raw, frac);
      start_basis = child_basis;
    }
  in
  down.upper.(v) <- f;
  let up =
    {
      node with
      lower = Array.copy node.lower;
      depth = node.depth + 1;
      seq = st.next_seq + 1;
      branched = Some (v, `Up, raw, frac);
      start_basis = child_basis;
    }
  in
  up.lower.(v) <- f +. 1.0;
  st.next_seq <- st.next_seq + 2;
  if down.upper.(v) >= down.lower.(v) -. 1e-9 then H.push st.queue score down;
  if up.lower.(v) <= up.upper.(v) +. 1e-9 then H.push st.queue score up

(* Fold one evaluated task into the search state. Everything
   order-sensitive — pseudocost updates, branching decisions, child
   seq assignment, bound pruning, chaos draws — happens here, on the
   coordinating domain, in wave order. *)
let merge ctx r (t : task) =
  let st = r.st and node = t.t_node in
  match t.t_outcome with
  | O_pending ->
    (* unreachable: a worker failure re-raises from Mip_pool.run before
       the merge runs *)
    assert false
  | O_infeasible -> ()
  | O_iter_limit ->
    (* treat as unresolved: keep the parent bound, re-queueing would
       loop, so give up on this subtree pessimistically by keeping it
       open in the bound accounting *)
    st.best_open <- min st.best_open t.t_bound;
    st.merge_stopped <- true;
    r.stopped_at_limit <- true
  | O_deadline ->
    (* same pessimistic accounting; the wave filler notices the expired
       deadline on the next wave *)
    st.best_open <- min st.best_open t.t_bound;
    st.merge_stopped <- true;
    st.merge_deadline <- true;
    r.stopped_at_limit <- true;
    r.deadline_stop <- true
  | O_unbounded ->
    st.infeasible_root <- false;
    if node.depth = 0 then r.root_unbounded <- true
  | O_optimal { raw; primal; basis } -> (
    st.infeasible_root <- false;
    (* NaN guard: a poisoned node objective would silently rank the
       subtree as best-possible in the heap and corrupt every bound
       downstream, so it is a typed numerical failure instead. Chaos
       poisons the score here — at the merge, a deterministic point, so
       the draw sequence is jobs-invariant — to prove the guard (and
       the ladder above it) works. *)
    let raw =
      if Chaos.fire ~site:"mip.nan_cost" ~p:0.05 () then Float.nan else raw
    in
    if Float.is_nan raw then
      Error.numerical ~stage:"mip.node_lp"
        ~detail:(Printf.sprintf "NaN relaxation objective at node %d" t.t_num);
    record_pseudocost ctx st.pc node raw;
    let score = sharpen ctx raw in
    if within_gap ctx score then begin
      Metrics.incr (Lazy.force m_prunes);
      if Trace.enabled ctx.sink then
        Trace.bound_pruned ctx.sink ~solver:"mip" ~node:t.t_num
          ~bound:(of_score ctx score)
          ~incumbent:(of_score ctx (inc_score ctx))
    end
    else
      match branch_var ctx st.pc primal with
      | None ->
        (* integral: the candidate was already offered worker-side
           under key (seq, 0) *)
        ()
      | Some v -> branch ctx st node v ~raw ~score primal basis)

(* ---- the coordinator ----------------------------------------------- *)

(* live bound/gap watermark for /statusz: [score] is the relaxation
   bound of the node being expanded — in best-first wave order the
   global bound. Gauges are last-writer-wins, which is all a live view
   needs. *)
let publish_bound_watermark ctx score =
  let b = of_score ctx score in
  Metrics.set (Lazy.force m_g_bound) b;
  let inc = inc_score ctx in
  if Float.is_finite inc then begin
    let i = of_score ctx inc in
    Metrics.set (Lazy.force m_g_gap)
      (Float.abs (i -. b) /. Float.max 1e-9 (Float.abs i))
  end

(* Pop up to [wave] nodes off the best-bound heap, numbering them,
   emitting bb_node events and deciding stop conditions — all in
   heap order. Returns the wave and whether the search must halt after
   it. *)
let next_wave ctx r =
  let options = ctx.options and st = r.st in
  let rec fill count rev_tasks =
    let stop halt = (List.rev rev_tasks, halt) in
    if count >= max 1 options.wave then stop false
    else
      match H.min st.queue with
      | None -> stop false
      | Some (parent_bound, node) ->
        if st.nodes >= options.max_nodes || Deadline.expired ctx.deadline
        then begin
          (* peek, don't pop: the node stays on the heap so the final
             checkpoint and the post-loop drain both see the complete
             frontier *)
          if Deadline.expired ctx.deadline then r.deadline_stop <- true;
          r.stopped_at_limit <- true;
          stop true
        end
        else if within_gap ctx parent_bound then begin
          (* best-first: every remaining node is at least as bad *)
          ignore (H.pop_min st.queue);
          if Trace.enabled ctx.sink then
            Trace.bound_pruned ctx.sink ~solver:"mip" ~node:st.nodes
              ~bound:(of_score ctx parent_bound)
              ~incumbent:(of_score ctx (inc_score ctx));
          st.best_open <- min st.best_open parent_bound;
          stop true
        end
        else begin
          ignore (H.pop_min st.queue);
          st.nodes <- st.nodes + 1;
          Metrics.incr (Lazy.force m_nodes);
          publish_bound_watermark ctx parent_bound;
          if Trace.enabled ctx.sink then begin
            let w = Sampler.decide Sampler.Bb_node in
            if w > 0 then
              Trace.bb_node ctx.sink ~sampled_of:w ~solver:"mip"
                ~node:st.nodes ~depth:node.depth
                ~bound:(of_score ctx parent_bound) ()
          end;
          let t_dive =
            options.heuristic_period > 0
            && (st.nodes = 1 || st.nodes mod options.heuristic_period = 0)
          in
          fill (count + 1)
            ({
               t_node = node;
               t_bound = parent_bound;
               t_num = st.nodes;
               t_dive;
               t_outcome = O_pending;
             }
            :: rev_tasks)
        end
  in
  fill 0 []

(* chaos site [process.kill]: a self-delivered SIGKILL right after a
   durable checkpoint write — the harshest crash the checkpoint layer
   claims to survive, placed at the exact moment the claim is
   strongest. Gated behind MONPOS_CHAOS_KILL because a stray fire
   would take the whole test runner down with it. With the chaos
   lottery armed the site draws from its per-site stream; without it
   the kill is deterministic on the first write — which is what the
   CI crash/resume identity check uses, keeping chaos draws out of
   the bit-identity comparison. *)
let kill_armed = lazy (Sys.getenv_opt "MONPOS_CHAOS_KILL" <> None)

let process_kill_site () =
  if Lazy.force kill_armed then begin
    let fire =
      if Chaos.active () then
        Chaos.fire ~scoped:false ~site:"process.kill" ~p:0.5 ()
      else true
    in
    if fire then Unix.kill (Unix.getpid ()) Sys.sigkill
  end

(* Checkpoint writes happen at a wave barrier, on the coordinating
   domain, with no task in flight — so the heap, the pseudocosts and
   [next_seq] are a consistent snapshot of the search. The run's own
   stop flags stay off disk; see [run]. *)
let write_checkpoint ctx r =
  match ctx.options.checkpoint with
  | None -> ()
  | Some path ->
    let t0 = Clock.now () in
    Mip_codec.write ~path ~model:ctx.model
      ~model_lines:(Lazy.force ctx.model_lines) ~options:ctx.options
      ~elapsed:(ctx.elapsed_base +. Deadline.elapsed ctx.deadline)
      ~incumbent:(Incumbent.get ctx.incumbent)
      ~prngs:ctx.prngs r.st;
    let dt = Clock.now () -. t0 in
    r.ck_seconds <- r.ck_seconds +. dt;
    Metrics.incr (Lazy.force m_ck_writes);
    Metrics.set (Lazy.force m_g_ck_clock) (Clock.now ());
    Metrics.set (Lazy.force m_g_ck_seconds) r.ck_seconds;
    if Trace.enabled ctx.sink then
      Trace.checkpoint_write ctx.sink ~path ~nodes:r.st.nodes
        ~frontier:(H.size r.st.queue) ~seconds:dt;
    r.last_ck <- Clock.now ();
    process_kill_site ()

(* The wave loop: pop a wave, evaluate it on the pool, barrier, merge
   the outcomes in wave order. Workers only solve LPs and offer
   candidates to the exact-ordered incumbent, so node counts, the
   incumbent, objective, bound and gap are identical for every [jobs]
   value. *)
let rec search_loop ctx r pool =
  if Preempt.requested () then begin
    (* cooperative preemption lands exactly like a node-budget stop:
       the incumbent and the certified bound remain valid, and the
       final checkpoint captures the frontier *)
    r.preempted <- true;
    r.stopped_at_limit <- true;
    if Trace.enabled ctx.sink then
      Trace.preempt_stop ctx.sink ~phase:"mip" ~nodes:r.st.nodes;
    Flightrec.trigger ~reason:"preempt"
  end
  else
    match next_wave ctx r with
    | [], false -> ()
    | tasks, halt ->
      Mip_pool.run pool tasks;
      List.iter (merge ctx r) tasks;
      if not (halt || r.root_unbounded) then begin
        if
          ctx.options.checkpoint <> None
          && Clock.now () -. r.last_ck >= ctx.options.checkpoint_every
        then write_checkpoint ctx r;
        search_loop ctx r pool
      end

(* interrupted (budget, deadline or preemption): one final checkpoint
   before the heap is drained, so a resume restarts from exactly this
   barrier; then fold every still-queued node into the bound *)
let close_interrupted ctx r =
  if r.stopped_at_limit then begin
    write_checkpoint ctx r;
    let rec drain () =
      match H.pop_min r.st.queue with
      | None -> ()
      | Some (b, _) ->
        r.st.best_open <- min r.st.best_open b;
        drain ()
    in
    drain ()
  end

let finish ctx r =
  let inc = Incumbent.get ctx.incumbent in
  let inc_score = inc_score ctx in
  let bound_score =
    if r.stopped_at_limit || r.st.best_open > neg_infinity then
      min r.st.best_open inc_score
    else inc_score
  in
  let gap =
    if inc_score = infinity || bound_score = neg_infinity then infinity
    else (inc_score -. bound_score) /. max 1.0 (abs_float inc_score)
  in
  let status =
    if r.root_unbounded then Unbounded
    else
      match inc with
      | Some _ ->
        if (not r.stopped_at_limit) || gap <= ctx.options.gap_tolerance then
          Optimal
        else Feasible
      | None -> if r.stopped_at_limit then No_solution else Infeasible
  in
  if r.deadline_stop then begin
    let elapsed = Deadline.elapsed ctx.deadline in
    if Trace.enabled ctx.sink then
      Trace.deadline_hit ctx.sink ~phase:"mip" ~elapsed ~budget:ctx.budget;
    if ctx.options.log then
      Printf.eprintf "[mip] deadline hit after %.3fs (budget %.3fs)\n%!" elapsed
        ctx.budget
  end;
  {
    status;
    objective =
      (match inc with Some c -> of_score ctx c.Incumbent.score | None -> nan);
    solution = (match inc with Some c -> Some c.Incumbent.x | None -> None);
    bound = of_score ctx bound_score;
    nodes = r.st.nodes;
    gap = (if status = Optimal then 0.0 else gap);
    deadline_hit = r.deadline_stop;
    preempted = r.preempted;
  }

let is_integer model v =
  match Model.var_kind model (Model.var_of_index model v) with
  | Model.Integer | Model.Binary -> true
  | Model.Continuous -> false

(* The one search routine behind both [solve] and [resume]: [restore]
   carries a decoded checkpoint, and every piece of search state
   initializes from it when present. *)
let solve_gen ~options ~(restore : Mip_codec.saved option) model =
  Monpos_obs.Span.run "mip.solve" @@ fun () ->
  Status.with_phase "mip.solve" @@ fun () ->
  let sink = Trace.current () in
  ignore (Lazy.force m_nodes);
  ignore (Lazy.force m_incumbents);
  ignore (Lazy.force m_prunes);
  ignore (Lazy.force m_steals);
  ignore (Lazy.force m_g_incumbent);
  ignore (Lazy.force m_g_bound);
  ignore (Lazy.force m_g_gap);
  Metrics.incr (Lazy.force m_solves);
  let minimize = Model.direction model = Model.Minimize in
  (* The wall-clock budget becomes a Deadline threaded through the
     whole solve — root presolve included, and every node (and diving)
     LP polls it, on whichever domain it runs — so neither a long
     probing phase nor a single large relaxation can overrun
     [time_limit] unboundedly. Chaos may compress the budget to a
     tenth to exercise the deadline paths. *)
  let budget =
    if Chaos.fire ~site:"deadline.compress" ~p:0.25 () then
      options.time_limit *. 0.1
    else options.time_limit
  in
  (* a resumed run inherits the original run's wall-clock budget minus
     what it had already consumed, so crash/resume cycles cannot
     stretch a time-limited solve without bound *)
  let elapsed_base =
    match restore with Some s -> s.s_elapsed | None -> 0.0
  in
  let budget = Float.max 0.001 (budget -. elapsed_base) in
  let deadline = Deadline.of_budget budget in
  (* Root presolve: every reduction is exact and preserves variable
     indices, so the search below can pretend the reduced model is the
     original. Nodes inherit the tightened bounds. *)
  let model, presolved_infeasible =
    if options.presolve then begin
      let reduced, info = Presolve.reduce ~deadline model in
      if info.Presolve.infeasible then (model, true) else (reduced, false)
    end
    else (model, false)
  in
  if presolved_infeasible then
    {
      status = Infeasible;
      objective = nan;
      solution = None;
      bound = (if minimize then infinity else neg_infinity);
      nodes = 0;
      gap = infinity;
      deadline_hit = false;
      preempted = false;
    }
  else begin
    let problem = Simplex.of_model model in
    let vars = List.init (Model.num_vars model) Fun.id in
    let jobs = resolved_jobs options in
    let ctx =
      {
        options;
        model;
        problem;
        deadline;
        budget;
        elapsed_base;
        sink;
        minimize;
        int_vars = List.filter (is_integer model) vars;
        integral_objective =
          List.for_all
            (fun v ->
              let c = Model.var_obj model (Model.var_of_index model v) in
              if is_integer model v then Float.is_integer c else c = 0.0)
            vars;
        incumbent = Incumbent.create ();
        (* steal-victim sweep order comes from per-worker split
           streams: deterministic to construct, irrelevant to results
           (stealing only moves a node between domains). Restored
           positions keep the streams where the crashed run left them;
           on a jobs mismatch fresh streams are equally valid. *)
        prngs =
          (match restore with
          | Some s when Array.length s.s_prngs = jobs ->
            Array.map Prng.of_state s.s_prngs
          | _ ->
            let base = Prng.create 0x6d6f6e50 in
            Array.init jobs (fun _ -> Prng.split base));
        model_lines = lazy (Mip_codec.model_lines model);
      }
    in
    let st =
      match restore with
      | Some s ->
        (* a restored incumbent re-enters the lattice silently: it was
           already counted, traced and logged by the run that found it *)
        Option.iter
          (fun c -> ignore (Incumbent.publish ctx.incumbent c))
          s.s_incumbent;
        if Trace.enabled sink then
          Trace.checkpoint_resume sink ~path:s.s_path ~nodes:s.s_search.nodes
            ~frontier:(H.size s.s_search.queue);
        s.s_search
      | None -> new_search model
    in
    let r = start_run st in
    let pool =
      Mip_pool.create ~jobs ~prngs:ctx.prngs ~process:(evaluate ctx) ~sink
    in
    Fun.protect
      ~finally:(fun () -> Mip_pool.shutdown pool)
      (fun () ->
        search_loop ctx r pool;
        close_interrupted ctx r);
    finish ctx r
  end

let check_options options =
  if not options.deterministic then
    invalid_arg
      "Mip: options.deterministic = false is not supported; the wave \
       scheduler is the only branch-and-bound scheduler"

let solve ?(options = default_options) model =
  check_options options;
  solve_gen ~options ~restore:None model

(* Options split on resume: the checkpoint owns everything that shapes
   the search tree (branching rule, tolerances, heuristic period, warm
   start, wave size) — honoring caller overrides there would
   silently break the bit-identity contract. The caller keeps the
   run-environment knobs: jobs (results are jobs-invariant), budgets,
   logging and where the next checkpoint goes (defaulting to
   overwriting the file being resumed). *)
let resume ?(options = default_options) path =
  check_options options;
  let s = Mip_codec.load path in
  let options =
    {
      s.s_options with
      jobs = options.jobs;
      max_nodes = options.max_nodes;
      time_limit = options.time_limit;
      log = options.log;
      checkpoint =
        (match options.checkpoint with None -> Some path | c -> c);
      checkpoint_every = options.checkpoint_every;
    }
  in
  solve_gen ~options ~restore:(Some s) s.s_model

(* Shared by every caller that needs a typed error out of a result
   that carries no usable solution: infeasibility and unboundedness
   are properties of the model, a deadline stop is a deadline error,
   anything else (node budget, iteration limits) is internal. *)
let fail ?options ~stage r =
  match r.status with
  | Infeasible -> Error.infeasible (stage ^ ": no feasible solution exists")
  | Unbounded -> Error.numerical ~stage ~detail:"relaxation unbounded"
  | _ when r.deadline_hit ->
    let limit = (Option.value options ~default:default_options).time_limit in
    Error.deadline_exceeded ~phase:stage ~elapsed:limit
  | _ ->
    Error.internal
      (Printf.sprintf "%s: solver stopped without a solution after %d nodes"
         stage r.nodes)

let solve_or_fail ?options model =
  let r = solve ?options model in
  match (r.status, r.solution) with
  | Optimal, Some x -> (x, r.objective)
  | _ -> fail ?options ~stage:"Mip.solve_or_fail" r
