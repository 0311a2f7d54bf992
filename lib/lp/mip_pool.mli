(** The branch-and-bound worker pool: runs waves of independent tasks
    on OCaml 5 domains with work-stealing deques, and supervises the
    worker slots fail-stop.

    Slot 0 is the calling (coordinating) domain; slots [1 .. jobs - 1]
    are spawned domains. A wave is dealt round-robin to the live
    slots' deques; every slot drains its own deque and then steals
    from random victims. A worker slot whose task raises anything but
    a typed {!Monpos_resilience.Error.Error} is marked dead and its
    unfinished tasks are requeued for the survivors, so a wave always
    completes with every task processed exactly once to completion.
    Tasks must therefore be safe to re-run from scratch. *)

type 'a t

val create :
  jobs:int ->
  prngs:Monpos_util.Prng.t array ->
  process:('a -> unit) ->
  sink:Monpos_obs.Trace.sink ->
  'a t
(** [prngs.(w)] orders slot [w]'s steal victims ([jobs] entries).
    Nothing is spawned until the first wave of two or more tasks with
    [jobs > 1]. Call on the coordinating domain. *)

val run : 'a t -> 'a list -> unit
(** Apply [process] to every task and return at the wave barrier.
    Singleton waves, and every wave when [jobs = 1], run inline on the
    calling domain. Re-raises the first failure supervision did not
    absorb: a typed error, any failure on slot 0, or a task that has
    already killed three slots. *)

val shutdown : 'a t -> unit
(** Join the spawned domains, if any, and add their steal counts and
    idle seconds to the metrics registry. *)
