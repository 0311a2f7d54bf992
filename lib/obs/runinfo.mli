(** Run manifests: who/what/where of one solver invocation.

    Every traced run opens with a [run_info] event carrying this
    manifest, and bench reports stamp it under a ["run"] member, so
    offline tooling ({!Diff}, dashboards) can join artifacts from the
    same run and tell apart runs from different revisions or hosts. *)

val version : string
(** The monpos release version, quoted by [--version], bench reports
    and the [monpos_build_info] exposition. *)

val detect_git_rev : unit -> string option
(** The code revision: [MONPOS_GIT_REV] when set, else a [git
    rev-parse] of the working directory, else [None]. Forks a process
    in the fallback case — cache the result if calling repeatedly. *)

type t = {
  run_id : string;  (** generated, unique per invocation *)
  git_rev : string option;
      (** from [MONPOS_GIT_REV] or [git rev-parse]; [None] when
          neither is available *)
  ocaml_version : string;
  hostname : string;
  chaos_seed : int option;  (** set when fault injection was armed *)
  jobs : int option;  (** worker domain count of parallel solves *)
  scheduler : string option;
      (** the branch-and-bound scheduler, always ["wave"]; [None] for
          runs that never touch the solver. Kept so manifests written
          by every version join on the same field. *)
  argv : string list;
}

val capture :
  ?chaos_seed:int ->
  ?jobs:int ->
  ?scheduler:string ->
  ?argv:string array ->
  unit ->
  t
(** Mint a manifest for this process. [argv] defaults to [Sys.argv];
    [chaos_seed] is passed by callers that know the fault-injection
    state (this module cannot ask {!Monpos_resilience.Chaos} itself —
    the dependency points the other way), and [jobs] likewise
    describes the worker-domain count the caller resolved. [scheduler]
    defaults to ["wave"] when [jobs] is given. *)

val to_fields : t -> (string * Json.t) list

val to_json : t -> Json.t

val emit : Trace.sink -> t -> unit
(** Emit the [run_info] event (a no-op on the null sink). *)
