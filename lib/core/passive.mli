(** Passive monitoring device placement — PPM(k), §4 of the paper.

    Given an {!Instance.t} and a coverage target [k ∈ (0, 1]], place a
    minimum number of tap devices on links so that the traffics
    crossing monitored links carry at least [k] of the total volume.

    Solvers:
    - {!greedy}: the most-loaded-link-first heuristic of §4.3 (the
      [ln|D| − ln ln|D| + o(1)]-approximation);
    - {!solve_mip}: the paper's MIP formulations, Linear program 1
      (arc-path flow variables) or Linear program 2 (compact), solved
      by the branch-and-bound of {!Monpos_lp.Mip};
    - {!solve_exact}: the combinatorial branch-and-bound working
      directly on the Theorem 1 set-cover view — same optimum as the
      MIPs, much faster, used as the "ILP" oracle in large sweeps;
    - {!lp_bound}: the LP relaxation of Linear program 2 (a lower
      bound on the device count).

    Variants of §4.3's discussion: {!incremental} (new devices on top
    of an installed, immovable set) and {!budgeted} (best coverage
    with at most [budget] devices). *)

type solution = {
  monitors : Monpos_graph.Graph.edge list;
      (** links that receive a measurement point, ascending ids *)
  coverage : float;  (** volume monitored by [monitors] *)
  fraction : float;  (** [coverage / total_volume] *)
  count : int;  (** number of devices, [List.length monitors] *)
  optimal : bool;  (** true when the solver proved optimality *)
  method_name : string;  (** "greedy", "mip-lp2", "exact", ... *)
}

val validate : ?k:float -> Instance.t -> Monpos_graph.Graph.edge list -> bool
(** Whether the given links monitor at least fraction [k] (default 1.)
    of the volume. *)

val greedy : ?k:float -> Instance.t -> solution
(** §4.3's adaptive greedy (the heuristic of [3]/[22]): repeatedly tap
    the link carrying the most not-yet-monitored volume. Raises
    [Failure] if [k] is unreachable. *)

val greedy_static : ?k:float -> Instance.t -> solution
(** The literal "most loaded link is chosen first, and so on and so
    forth" reading of §4.3: links are taken in decreasing static load
    order, without discounting already-monitored traffic. This is the
    weaker baseline whose gap to the ILP matches the paper's Figures
    7-8. Raises [Failure] if [k] is unreachable. *)

val solve_exact : ?k:float -> ?node_limit:int -> Instance.t -> solution
(** Exact minimum placement via combinatorial branch and bound on the
    set-cover view (Theorem 1). [optimal = false] only if the node
    budget was exhausted (the greedy-or-better incumbent is still
    returned). *)

val solve_mip :
  ?k:float ->
  ?formulation:[ `Lp1 | `Lp2 ] ->
  ?options:Monpos_lp.Mip.options ->
  Instance.t ->
  solution
(** Solve the paper's MIP (default [`Lp2]). [`Lp1] is the arc-path
    flow formulation with variables [f_t^e]; [`Lp2] the compact one
    with [δ_t]. Raises [Failure] when the MIP solver stops without an
    incumbent. *)

val lp_bound :
  ?k:float ->
  ?deadline:Monpos_resilience.Deadline.t ->
  Instance.t ->
  float
(** Optimal value of the LP relaxation of Linear program 2: a valid
    lower bound on the minimum device count, solved on the sparse LU
    simplex kernel. [deadline] is polled inside the simplex; on expiry
    raises a typed [Deadline_exceeded]. *)

val randomized_rounding :
  ?k:float ->
  ?trials:int ->
  ?seed:int ->
  ?deadline:Monpos_resilience.Deadline.t ->
  Instance.t ->
  solution
(** The flow-based heuristic suggested by §4.3's MECF discussion
    ("randomized rounding or branching algorithms"): solve the LP
    relaxation of Linear program 2, then sample placements by keeping
    each link with probability scaled from its fractional value
    (escalating the scale until feasible), prune redundant picks, and
    return the best of [trials] samples (default 32). Deterministic
    for a fixed [seed]. [deadline] is polled inside the LP solve (a
    typed [Deadline_exceeded] if it expires there) and between trials
    (the best sample so far is returned). *)

val incremental :
  ?k:float ->
  ?options:Monpos_lp.Mip.options ->
  installed:Monpos_graph.Graph.edge list ->
  Instance.t ->
  solution
(** Minimum number of {e additional} devices reaching coverage [k]
    when the [installed] ones cannot move (their [x_e] is fixed to 1
    with zero cost, §4.3). The returned [monitors] are the new links
    only; [coverage]/[fraction] account for installed ∪ new. *)

val budgeted :
  budget:int -> ?options:Monpos_lp.Mip.options -> Instance.t -> solution
(** Best achievable coverage with at most [budget] devices ("the best
    positioning of a limited number of devices", §4.3). The [fraction]
    field carries the optimum coverage; [optimal] reflects proof of
    optimality. *)

val marginal_gains :
  ?max_budget:int -> ?options:Monpos_lp.Mip.options -> Instance.t ->
  (int * float) list
(** "The estimation of the expected gain in buying one or a set of new
    devices" (§4.3): for each budget 1..[max_budget] (default 8, capped
    at the number of loaded links), the best achievable coverage
    fraction. Monotone nondecreasing. *)

val pp : Format.formatter -> solution -> unit
(** "method: n devices, cov 95.2% (optimal)". *)
