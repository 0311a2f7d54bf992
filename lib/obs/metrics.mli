(** Registry of named counters, gauges and fixed-bucket histograms
    with optional label dimensions.

    Instruments are registered once per (name, labels) series and are
    stable for the registry's lifetime: {!reset} zeroes their values
    but keeps the instrument handles valid, so solver modules can
    cache handles at module scope and pay no lookup on hot paths.
    Re-registering an existing series returns the existing instrument.
    A metric name has one kind across every label set (the Prometheus
    data model); registering the same name with a different kind
    raises [Invalid_argument].

    Labels are an ordered [(key * value) list]. Keys must match
    [[a-zA-Z_][a-zA-Z0-9_]*] and be unique within a series; values are
    arbitrary strings (escaped on rendering). The series key interning
    happens once at registration, so incrementing a cached handle
    allocates nothing.

    Registration, {!snapshot} and {!reset} are mutex-guarded and safe
    to call from any domain; recording through a handle is a plain
    single-field write (atomic enough for monitoring counters — a
    racing increment may drop a tick but never corrupts the value).

    The {!default} registry is the ambient one used by the solver
    stack; tools snapshot and render it after a run. *)

type t

type counter

type gauge

type histogram

type labels = (string * string) list
(** Ordered label dimensions, e.g. [["solver", "ppm"; "rung", "lp"]]. *)

type series = { name : string; labels : labels }

val series_key : series -> string
(** Canonical rendering: the bare name, or [name{k="v",...}] with
    values escaped as in the Prometheus exposition format
    (backslash, double quote and newline). *)

val create : unit -> t

val default : t
(** The process-wide registry the solvers record into. *)

(** {1 Registration} *)

val counter : ?labels:labels -> t -> string -> counter

val gauge : ?labels:labels -> t -> string -> gauge

val histogram :
  ?buckets:float array -> ?labels:labels -> t -> string -> histogram
(** [buckets] are ascending upper bounds; observations above the last
    bound land in an implicit overflow bucket. The default buckets are
    log-spaced latencies from 100µs to 30s. Raises [Invalid_argument]
    on empty or non-ascending bounds. *)

(** {1 Recording} *)

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

val set : gauge -> float -> unit

val gauge_value : gauge -> float

val observe : histogram -> float -> unit

(** {1 Snapshot and rendering} *)

type entry =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of {
      upper : float array;  (** bucket upper bounds *)
      counts : int array;  (** one per bound plus a final overflow *)
      count : int;
      sum : float;
      min : float;  (** smallest observation; [infinity] when empty *)
      max : float;  (** largest observation; [neg_infinity] when empty *)
    }

type snapshot = (series * entry) list
(** Series/value pairs in registration order. *)

val snapshot : t -> snapshot

val reset : t -> unit
(** Zero every instrument's value; handles stay valid. *)

val find : ?labels:labels -> snapshot -> string -> entry option
(** The entry for exactly (name, labels); [labels] defaults to the
    empty set, so unlabeled lookups read as before. *)

val sum_counter : snapshot -> string -> int
(** Total of a counter family across all its label sets (0 when the
    name is absent). *)

val render_table : snapshot -> string
(** Aligned plain-text table (one series per row, named by
    {!series_key}). Histogram rows include p50/p90/p99 estimated by
    linear interpolation within buckets
    ({!Monpos_util.Stats.percentile_buckets}) and clamped to the
    observed [[min, max]]; an estimate landing in the overflow bucket
    reports [max]. *)

val to_json : snapshot -> Json.t
(** Object keyed by {!series_key}; counters render as integers,
    gauges as numbers, histograms as
    [{"count":..,"sum":..,"p50":..,"p90":..,"p99":..,
      "buckets":[{"le":..,"count":..},...]}]
    where the final bucket has ["le":null] (overflow). Percentiles
    are estimated as in {!render_table}, and are [null] only for an
    empty histogram. *)
