(** The Decima metrics registry: counters, gauges, and log-bucketed
    histograms with labeled series, Prometheus and JSON exposition.

    The registry is the aggregated counterpart of the event trace: always-on
    telemetry a controller (or a dashboard) can read while a run is in
    flight.  It is dependency-free and deterministic — families and series
    are exposed in sorted order with fixed float formatting, so same-seed
    runs produce byte-identical snapshots.

    Disabled mode mirrors {!Trace}: a physical [null] registry makes
    {!enabled} one load and one pointer comparison, and every emitter in the
    runtime guards with

    {[ if Metrics.enabled () then Metrics.inc (handles ()).something ]}

    so that with metrics off the hot path allocates nothing. *)

(** {1 Instruments} *)

type counter
(** A monotonically increasing integer (e.g. total sends, total busy ns). *)

type gauge
(** A float that can go up and down (e.g. queue depth, busy cores). *)

type histogram
(** A log-bucketed (HDR-style) distribution with a sum and a count.
    Recording is O(log #buckets) with at most a few dozen buckets. *)

val inc : counter -> unit
val inc_by : counter -> int -> unit
val counter_value : counter -> int

val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
val observe_ns : histogram -> int -> unit
(** [observe] on [float_of_int ns] — the common case for virtual-time
    durations. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

type summary = Hdr.t
(** A fixed-precision HDR-backed distribution over integer nanoseconds
    with a bounded-relative-error quantile API ({!Hdr}).  Summaries
    replace reservoir sampling for serve-path latency: a reservoir
    percentile depends on the sampling seed, an HDR quantile is a
    deterministic function of the observations. *)

val observe_summary : summary -> int -> unit
(** Record one integer observation (nanoseconds).  Allocation-free. *)

val log_buckets : base:float -> lo:float -> count:int -> float array
(** [count] upper bounds starting at [lo], each [base] times the previous.
    @raise Invalid_argument unless [base > 1], [lo > 0], [count > 0]. *)

val seconds_buckets : float array
(** Default buckets for response times in seconds: 1 ms to ~65 s, x2. *)

(** {1 Registries} *)

type t

val create : unit -> t

val null : t
(** The disabled registry: instruments created against it are inert
    dummies, and {!enabled} is [false] while it is installed. *)

val is_null : t -> bool

(** {1 The installed registry}

    One global current-registry cell, race-free because the simulator is
    cooperative and single-threaded (see {!Trace}). *)

val set : t -> unit
val clear : unit -> unit
val current : unit -> t
val enabled : unit -> bool

val with_registry : t -> (unit -> 'a) -> 'a
(** Run [f] with [r] installed, restoring the previous registry on exit
    (also on exception). *)

val cached : (t -> 'a) -> unit -> 'a
(** [cached build] memoizes [build reg] against the installed registry:
    the thunk rebuilds only when a different registry is installed.
    Instrumented modules use this to create their handle records once per
    run instead of once per event. *)

(** {1 Families}

    An instrument is identified by a family name plus label key/value
    pairs; requesting the same (name, labels) again returns the same
    instrument.  A family's kind and label arity are fixed at first
    creation ([Invalid_argument] on mismatch). *)

val counter : ?help:string -> ?labels:(string * string) list -> t -> string -> counter
val gauge : ?help:string -> ?labels:(string * string) list -> t -> string -> gauge

val histogram :
  ?help:string -> ?buckets:float array -> ?labels:(string * string) list -> t -> string -> histogram
(** [buckets] defaults to nanosecond durations, 256 ns to ~4.6 hours in
    x4 steps; only the first creation of a family determines its
    buckets. *)

val summary :
  ?help:string -> ?labels:(string * string) list -> ?sub_bits:int -> t -> string -> summary
(** [sub_bits] (default 7: relative error <= 1/128) is fixed by the first
    creation of a family, like histogram buckets. *)

(** {1 Snapshots} *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { bounds : float array; counts : int array; sum : float; count : int }
      (** [counts] are per-bucket (not cumulative) and include the overflow
          bucket, so [Array.length counts = Array.length bounds + 1]. *)
  | Summary_v of { quantiles : (float * float) list; sum : float; count : int }
      (** [(q, value)] pairs for q in 0.5, 0.9, 0.99 and 0.999, in every
          snapshot and Prometheus exposition. *)

type sample = { labels : (string * string) list; value : value }

type kind = Counter_kind | Gauge_kind | Histogram_kind | Summary_kind

type fam_snapshot = { name : string; help : string; skind : kind; samples : sample list }

val kind_name : kind -> string

val snapshot : t -> fam_snapshot list
(** Deep copy of the registry, families sorted by name and series by label
    values — deterministic given deterministic recording. *)

val quantile : bounds:float array -> counts:int array -> float -> float
(** [quantile ~bounds ~counts q] is the upper bound of the bucket holding
    the [q]-quantile (bucket-resolution, like PromQL's histogram_quantile);
    the largest finite bound for overflow samples, [nan] when empty. *)

(** {1 Exposition} *)

val to_prometheus : t -> string
(** Prometheus text format 0.0.4: HELP/TYPE lines per family, cumulative
    histogram buckets ending at [le="+Inf"], [_sum]/[_count] series. *)

val to_json : t -> Json.t
val to_json_string : t -> string
(** Self-contained JSON snapshot (parses back with {!Json.parse}). *)
