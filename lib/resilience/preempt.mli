(** Cooperative preemption for long-running solves.

    SIGINT/SIGTERM must not kill a branch-and-bound search mid-wave:
    the frontier would be lost and the incumbent unreported. Instead
    {!install} registers handlers that merely set a process-wide flag;
    the wave scheduler polls {!requested} at every wave
    barrier — the one point where the open-node heap is consistent —
    and on a pending request writes a final checkpoint, triggers a
    flight dump, stops searching and returns the incumbent with its
    LP-certified bound ([preempted = true] on the result). A second
    signal escalates to an immediate [exit (128 + signo)] (130 for
    SIGINT, 143 for SIGTERM) for operators who do not want to wait for
    the barrier.

    The flag is a plain [Atomic.t], so worker domains observe it too;
    {!request}/{!reset} exist as test hooks to drive preemption
    deterministically without delivering real signals. *)

val install : unit -> unit
(** Register the SIGINT/SIGTERM handlers. Idempotent; safe to call
    from any entry point. On platforms without these signals the call
    degrades to a no-op and only {!request} can trigger preemption. *)

val requested : unit -> bool
(** True once a stop has been requested (by signal or {!request}) and
    not yet {!reset}. *)

val request : unit -> unit
(** Request a cooperative stop, exactly as the first signal would. *)

val reset : unit -> unit
(** Clear the flag. Tests use this between runs; servers use it after
    a drained shutdown. *)
