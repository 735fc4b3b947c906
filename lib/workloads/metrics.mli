(** Response-time and throughput bookkeeping for the server workloads.

    Memory is constant: means are exact running sums and latency
    quantiles come from one HDR distribution.  When a metrics registry is
    installed
    ({!Parcae_obs.Metrics.set}), every observation also feeds the
    [parcae_requests_*_total] counters and the [parcae_response_seconds] /
    [parcae_exec_seconds] histograms. *)

type t

val create : Parcae_platform.Engine.t -> t

val reset : t -> unit
(** Rewind counts, sums, completion stamps and the latency distribution
    to a fresh state in place — repeated batch runs can share one [t]
    without per-run allocation.  Cumulative registry counters are
    unaffected. *)

val submitted : t -> int
val completed : t -> int

val note_submit : t -> unit

val note_complete : t -> Request.t -> unit
(** Record the completion of a request at the current virtual time:
    updates the response-time and execution-time sums and the latency
    distribution. *)

val mean_response : t -> float
(** Mean response time in seconds; [nan] before the first completion. *)

val p95_response : t -> float
(** [response_quantile t 0.95]. *)

val response_quantile : t -> float -> float
(** Latency quantile in seconds from the always-on HDR distribution —
    deterministic and within the configured relative error over {e every}
    completion.  [nan] before the first completion. *)

val latency_quantile_ns : t -> float -> int
(** The same quantile in integer nanoseconds (0 before the first
    completion) — what the bench records as [latency_p50_ns] etc. *)

val mean_exec : t -> float
(** Mean per-request execution time (T_exec of Equation 2.1); exact over
    all completions that recorded a start. *)

val throughput : t -> float
(** Sustained completion throughput, requests/second, first to last
    completion. *)
