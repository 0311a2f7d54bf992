(** Branch-and-bound mixed-integer programming solver.

    This is the replacement for the CPLEX runs of the paper: it solves
    the 0–1 programs of §4 (Linear programs 1 and 2), the MILP of §5
    (Linear program 3) and the beacon-placement ILP of §6 to proven
    optimality on the instance sizes of the evaluation.

    Strategy: best-bound node selection over LP relaxations solved by
    {!Simplex}, each node warm-started with the dual simplex from its
    parent's basis (the basis is stored per node as the basic-variable
    index set); configurable branching (pseudocost by default, see
    {!branching}); an LP-diving heuristic for incumbents; {!Presolve}
    bound tightening before the search; pruning by bound, with bounds
    rounded up when the objective is provably integral (pure device
    counts). Node and wall-clock limits turn the solver into an
    anytime heuristic that reports the remaining gap.

    The tree is explored in fixed-size waves whose composition,
    branching decisions and incumbent updates are all decided in a
    scheduling-independent order. With [jobs > 1] the node LPs of a
    wave run on OCaml 5 domains (work-stealing deques, the incumbent
    in a shared atomic cell), and the reported incumbent, objective,
    bound, node count and gap are bit-identical for every [jobs]
    value (deadline-triggered stops excepted — wall clock is
    inherently timing-dependent). See DESIGN.md §14 for the scheduler
    and the memory-model argument. *)

type branching =
  | Most_fractional
      (** branch on the integer variable farthest from integrality *)
  | Pseudocost
      (** branch on the variable with the best observed
          objective-degradation history (initialized by
          most-fractional until observations accumulate) *)

type options = {
  branching : branching;  (** default [Pseudocost] *)
  max_nodes : int;  (** branch-and-bound node budget (default 200000) *)
  time_limit : float;
      (** wall-clock seconds budget, measured against the monotonic
          {!Monpos_obs.Clock} (default 120.). Enforced as a
          {!Monpos_resilience.Deadline} threaded into every node and
          diving LP, where the simplex polls it every 32 pivots — so
          the bound holds even when a single node LP is large. *)
  gap_tolerance : float;
      (** stop when the relative incumbent/bound gap is below this
          (default 1e-9, i.e. prove optimality) *)
  integrality_tol : float;
      (** how far from an integer an LP value may be and still count as
          integral (default 1e-6) *)
  heuristic_period : int;
      (** run the fix-and-resolve rounding heuristic every this many
          nodes (default 16; 0 disables) *)
  warm_start : bool;
      (** re-solve each node with the dual simplex warm-started from
          its parent's basis instead of a cold primal solve (default
          [true]; results are identical, only pivot counts change —
          turn off to benchmark or to bisect numerical issues) *)
  presolve : bool;
      (** run {!Presolve.reduce} (bound tightening, probing, row
          removal) on the model before branching so every node starts
          from tighter bounds (default [true]) *)
  jobs : int;
      (** worker domains for the branch-and-bound search. [1] (the
          default) keeps everything on the calling domain; [n > 1]
          spawns [n - 1] extra domains; [<= 0] means auto
          ([Domain.recommended_domain_count ()]). The default can be
          overridden by the [MONPOS_JOBS] environment variable, which
          is how CI forces the whole tier-1 suite through the parallel
          scheduler. *)
  deterministic : bool;
      (** must be [true] (the default): the wave scheduler, whose
          result is jobs-invariant, is the only scheduler, and {!solve}
          and {!resume} raise [Invalid_argument] on [false]. The field
          stays only because the frozen benchmark sets it; it goes at
          the next change to the benchmark contract. *)
  wave : int;
      (** nodes dispatched per wave (default 16).
          Larger waves expose more parallelism; the value changes which
          tree is explored but is independent of [jobs], so any fixed
          [wave] preserves the determinism contract. *)
  checkpoint : string option;
      (** write crash-recovery checkpoints of the search state to this
          path (default [None]: no checkpoints). Writes are atomic
          (tmp file + rename) and happen at wave barriers, so a reader
          never sees a torn file and a crash at any instant leaves
          either the previous or the new checkpoint intact. A final checkpoint is written when the
          solve stops at a limit or is preempted. See {!resume} and
          DESIGN.md §16. *)
  checkpoint_every : float;
      (** minimum wall-clock seconds between periodic checkpoint
          writes (default 60.; [0.] checkpoints at every wave — for
          tests and crash drills; ignored when [checkpoint = None]) *)
  log : bool;  (** print a search trace to stderr *)
}

val default_options : options
(** The defaults documented above. *)

val resolved_jobs : options -> int
(** The worker-domain count a solve with these options will actually
    use: [jobs] when positive, else [Domain.recommended_domain_count],
    floored at 1. Exposed so run manifests can record the resolved
    value. *)

(** The shared incumbent cell of a parallel search, exposed for the
    multi-domain stress tests. Candidates carry a minimization score
    and a unique (node seq, sub) key; [publish] is a CAS loop that
    installs a candidate iff it beats the current content under the
    exact order [better] (score, then key). Because the order is total
    and exact, the cell converges to the minimum over every candidate
    offered, whatever the interleaving — the property the
    jobs-invariance contract rests on. *)
module Incumbent : sig
  type cand = { score : float; key : int * int; x : float array }

  type t = cand option Atomic.t

  val create : unit -> t

  val better : cand -> cand -> bool
  (** Strict total order: smaller score wins, ties go to the smaller
      key. *)

  val publish : t -> cand -> bool
  (** Atomically install the candidate if it beats the cell's current
      content; returns [true] iff it was installed. Safe to call from
      any domain. *)

  val get : t -> cand option
end

type status =
  | Optimal  (** incumbent proved optimal within [gap_tolerance] *)
  | Feasible  (** stopped at a limit with an incumbent but a gap left *)
  | Infeasible  (** no integer-feasible point exists *)
  | Unbounded  (** the relaxation is unbounded below/above *)
  | No_solution  (** stopped at a limit before finding any incumbent *)

type result = {
  status : status;
  objective : float;
      (** incumbent objective in the model's direction; [nan] when no
          incumbent exists *)
  solution : float array option;
      (** incumbent assignment indexed by {!Model.var_index} *)
  bound : float;
      (** best proven bound on the optimum, in the model's direction *)
  nodes : int;  (** nodes processed *)
  gap : float;  (** final relative gap; [0.] when proved optimal *)
  deadline_hit : bool;
      (** the wall-clock [time_limit] expired (between nodes or inside
          a node LP) — distinguishes a time-bounded stop from a
          node-budget stop for the degradation ladder *)
  preempted : bool;
      (** the solve stopped cooperatively because
          {!Monpos_resilience.Preempt.requested} became true (SIGINT /
          SIGTERM with the handler installed). The incumbent, bound
          and gap are still valid; with [checkpoint] set, a final
          checkpoint captures the frontier for {!resume}. *)
}

val solve : ?options:options -> Model.t -> result
(** Solve the model to optimality (or to its limits). Integrality of
    [Integer]/[Binary] variables is enforced; [Continuous] variables
    are free to take fractional values. Raises [Invalid_argument] when
    [options.deterministic] is [false]. *)

val resume : ?options:options -> string -> result
(** [resume path] loads the checkpoint at [path] and continues the
    search to completion (or to this run's limits). The search-shaping
    options are read from the checkpoint — branching rule, tolerances,
    heuristic period, warm start, wave size — because honoring
    overrides there would change the explored tree; [options] supplies
    only the run-environment knobs: [jobs], [max_nodes], [time_limit]
    (interpreted as the original run's total budget: the checkpoint's
    recorded elapsed time is subtracted), [log], [checkpoint] (default:
    overwrite [path]) and [checkpoint_every].

    Determinism contract: for a solve interrupted at any wave barrier
    — including a [SIGKILL] between barriers, which leaves the last
    atomic checkpoint — resuming yields bit-identical
    [status]/[objective]/[solution]/[bound]/[gap] and the same total
    [nodes] as the uninterrupted run, for any [jobs] value on both
    sides. Floats round-trip through the file as hexadecimal literals
    and the frontier heap is restored verbatim, so resumed arithmetic
    starts from exactly the interrupted run's bits.

    Raises {!Monpos_resilience.Error.Error}: [Io_error] when [path]
    cannot be read, [Parse_error] (with a line number) on truncation,
    checksum mismatch or an unsupported format version — this build
    reads version 2 only; version 1 files, which also recorded a
    simplex kernel choice, are rejected at line 1. Raises
    [Invalid_argument] when [options.deterministic] is [false]. *)

val fail : ?options:options -> stage:string -> result -> 'a
(** Raise the {!Monpos_resilience.Error.Error} that best describes why
    [result] carries no usable solution: [Infeasible_model] /
    [Numerical] for infeasible and unbounded models,
    [Deadline_exceeded] when {!result.deadline_hit} is set, [Internal]
    for limit stops. [options] only supplies the budget quoted in the
    deadline error (defaults to {!default_options}). *)

val solve_or_fail : ?options:options -> Model.t -> float array * float
(** Convenience for callers that require an optimal solution: returns
    (assignment, objective) and raises {!Monpos_resilience.Error.Error}
    when the solver stops without proving optimality —
    [Infeasible_model] when no integer point exists,
    [Deadline_exceeded] when the wall clock ran out, [Numerical] on an
    unbounded relaxation, [Internal] otherwise. *)
