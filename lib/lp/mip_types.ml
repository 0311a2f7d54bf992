(* The vocabulary every layer of the branch-and-bound solver shares:
   options, search-tree nodes, the incumbent cell and the pseudocost
   tables. [Mip] re-exports the public part through mip.mli. *)

type branching = Most_fractional | Pseudocost

type options = {
  branching : branching;
  max_nodes : int;
  time_limit : float;
  gap_tolerance : float;
  integrality_tol : float;
  heuristic_period : int;
  warm_start : bool;
  presolve : bool;
  jobs : int;
  deterministic : bool;
  wave : int;
  checkpoint : string option;
  checkpoint_every : float;
  log : bool;
}

let env_jobs () =
  match Sys.getenv_opt "MONPOS_JOBS" with
  | None | Some "" -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with Some j -> j | None -> 1)

let default_options =
  {
    branching = Pseudocost;
    max_nodes = 200_000;
    time_limit = 120.0;
    gap_tolerance = 1e-9;
    integrality_tol = 1e-6;
    heuristic_period = 16;
    warm_start = true;
    presolve = true;
    jobs = env_jobs ();
    deterministic = true;
    wave = 16;
    checkpoint = None;
    checkpoint_every = 60.0;
    log = false;
  }

type node = {
  lower : float array;
  upper : float array;
  depth : int;
  (* deterministic creation sequence number: the root is 0 and
     children get consecutive numbers in coordinator merge order (down
     branch before up branch), so seq totally orders nodes by creation
     independently of which domain later solves them *)
  seq : int;
  (* pseudocost bookkeeping: which branch created this node, and the
     parent relaxation's score and fractional part, so the child's LP
     value updates the per-variable degradation statistics *)
  branched : (int * [ `Down | `Up ] * float * float) option;
  (* the parent relaxation's optimal basis (basic-variable index set):
     the child differs by one bound, so this basis is dual feasible
     and the node re-solve warm-starts off it *)
  start_basis : Simplex.basis option;
}

(* Internal scores are minimization scores: score = obj for Minimize,
   -obj for Maximize, so "smaller is better" throughout. *)

(* Shared incumbent under a deterministic total order.

   Candidates are ordered by score with ties broken by the (node seq,
   sub) key under which the candidate was produced (sub 0 is the
   node's own integral relaxation, sub >= 1 a diving candidate of that
   node). Keys are unique and the comparison is exact — no tolerance
   band — so publication is a lattice meet: the final cell content is
   the minimum over every candidate ever offered, independent of
   arrival order. That is the heart of the determinism contract: any
   interleaving of worker publishes converges to the same incumbent.

   The same exact order also makes work-skipping provably safe: a dive
   whose candidates all carry score >= s and key >= k can be skipped
   whenever the current cell beats (s, k), because the final incumbent
   beats the current cell and therefore beats everything the dive
   could have produced. Which skips happen is timing-dependent; the
   result is not. *)
module Incumbent = struct
  type cand = { score : float; key : int * int; x : float array }

  type t = cand option Atomic.t

  let create () : t = Atomic.make None

  let better a b = a.score < b.score || (a.score = b.score && a.key < b.key)

  let beats c = function None -> true | Some i -> better c i

  let rec publish t c =
    let cur = Atomic.get t in
    if beats c cur then
      if Atomic.compare_and_set t cur (Some c) then true else publish t c
    else false

  let get = Atomic.get
end

(* per-search pseudocost state: average objective degradation per unit
   of rounded-away fraction, per variable and direction. Owned by the
   coordinator and updated only at merge, in wave order — a
   worker-side update would make branching decisions depend on
   scheduling. *)
type pc = {
  pc_down : float array;
  pc_down_n : int array;
  pc_up : float array;
  pc_up_n : int array;
}

let pc_create n =
  {
    pc_down = Array.make n 0.0;
    pc_down_n = Array.make n 0;
    pc_up = Array.make n 0.0;
    pc_up_n = Array.make n 0;
  }

(* The search state a checkpoint persists, owned by the coordinating
   domain and updated only in wave order: the best-bound frontier, the
   pseudocosts, node numbering and the bound accounting. [merge_*]
   record stops observed at merges (node iteration limits, in-flight
   deadline hits): genuine search state that must survive a resume. *)
type search = {
  queue : node Monpos_util.Heap.t;
  pc : pc;
  mutable next_seq : int;
  mutable nodes : int;
  mutable best_open : float;
  mutable infeasible_root : bool;
  mutable merge_stopped : bool;
  mutable merge_deadline : bool;
}
