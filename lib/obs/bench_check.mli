(** Regression gate comparing two bench reports (schema
    [monpos-bench/1], as written by [bench/main.ml]).

    Every numeric headline of every baseline phase that the current
    run also executed is compared under a per-metric-class relative
    threshold: time-like keys tolerate +50% (plus 0.1s absolute
    slack), speedup/pivot-ratio keys tolerate a 50% drop, and all
    other numbers (device counts, coverage, pivot/node counters —
    deterministic under fixed seeds) tolerate ±1%. A metric present in
    the baseline but missing from the current run is a finding;
    baseline phases the current run skipped are only noted.

    Gates (["*_gate*"] extras, the bench's own 0/1 verdicts) read
    absolutely: a current gate other than 1 is a finding whatever the
    baseline holds, and one written as null (the run could not
    measure it) is listed in {!report.unevaluated}, never passed. *)

type finding = {
  phase : string;
  key : string;  (** ["seconds"], ["extras.<k>"] or ["metrics.<k>"] *)
  baseline : float;
  current : float option;  (** [None]: the metric disappeared *)
  limit : string;  (** human-readable threshold that was violated *)
}

type report = {
  compared : int;  (** metric pairs examined *)
  findings : finding list;
      (** gating threshold violations, in phase order *)
  tolerated : finding list;
      (** threshold violations in a run made under [MONPOS_CHAOS]:
          injected faults and degraded-rung outcomes legitimately
          shift timings and solution-quality numbers, so these are
          reported but do not gate *)
  chaos_seed : int option;
      (** the current report's ["chaos_seed"] field, when the run was
          chaotic *)
  missing_phases : string list;
  unevaluated : (string * string) list;
      (** (phase, key) of every gate the current run wrote as null:
          not evaluated, so neither a pass nor a finding *)
}

val compare_reports :
  baseline:Json.t -> current:Json.t -> (report, string) result
(** [Error] on schema problems: missing/unsupported ["schema"],
    mismatched schema versions, or mismatched bench ["mode"] (default
    vs full runs are not comparable). Callers should treat [Error] as
    a hard failure and findings as a gate-able regression. *)

val render : report -> string
