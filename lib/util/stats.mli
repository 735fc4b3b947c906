(** Descriptive statistics over float samples, plus the moving-average
    estimators Decima uses for task throughput and execution time.

    {b Empty-input contract.}  Aggregates with a natural zero ({!mean},
    {!variance}, {!stddev}, {!geomean}) return [0.0] on an empty sample;
    order statistics with no meaningful default ({!percentile}, {!median},
    {!min_max}) raise [Invalid_argument] instead of inventing a value.
    Callers that may hold an empty sample must check before asking for a
    percentile. *)

val mean : float array -> float
(** Arithmetic mean; 0 for an empty sample. *)

val variance : float array -> float
(** Unbiased sample variance; 0 for fewer than two samples. *)

val stddev : float array -> float
(** Square root of {!variance}. *)

val percentile : float -> float array -> float
(** [percentile p xs] for [p] in [\[0, 100\]], by linear interpolation
    between closest ranks.  Does not mutate its argument.  A single-element
    sample returns that element for every [p].  Samples are ordered with
    [Float.compare], so NaNs sort before every number and the result is
    deterministic (though rarely meaningful) in their presence.
    @raise Invalid_argument on an empty sample or out-of-range [p]. *)

val median : float array -> float
(** [percentile 50.0]. *)

val min_max : float array -> float * float
(** Smallest and largest sample.
    @raise Invalid_argument on an empty sample. *)

val geomean : float array -> float
(** Geometric mean; 0 for an empty sample. *)

(** Exponentially-weighted moving average: O(1) state, responsive to
    workload change. *)
module Ewma : sig
  type t

  val create : alpha:float -> t
  (** [alpha] in (0, 1]: weight of the newest observation. *)

  val observe : t -> float -> unit
  (** Fold in an observation; the first observation is taken as-is. *)

  val value : t -> float
  (** Current estimate (0 before any observation). *)

  val primed : t -> bool
  (** Whether at least one observation has been folded in. *)

  val reset : t -> unit
end

(** Mean over a sliding window of the last [capacity] observations. *)
module Window : sig
  type t

  val create : int -> t
  (** @raise Invalid_argument if the capacity is not positive. *)

  val observe : t -> float -> unit
  val mean : t -> float
  val count : t -> int
  val reset : t -> unit
end
