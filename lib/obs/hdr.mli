(* Fixed-precision streaming histogram with log-linear HDR-style buckets.

   Tracks non-negative integer values (nanoseconds throughout Parcae) in
   a fixed-size bucket array: one bucket per integer below 2^sub_bits,
   then 2^sub_bits equal sub-buckets per power-of-two octave.  Quantile
   estimates carry a bounded relative error of at most 1/2^sub_bits
   (under 1% at the default sub_bits = 7), observation is allocation-free,
   and histograms with matching resolution merge by bucket addition. *)

type t

(* [create ?sub_bits ()] makes an empty histogram.  [sub_bits] (default 7,
   valid 1..14) sets the resolution: relative error <= 1/2^sub_bits at a
   memory cost of (64 - sub_bits) * 2^sub_bits words. *)
val create : ?sub_bits:int -> unit -> t

(* Record one value.  Negative values clamp to 0.  Never allocates. *)
val observe : t -> int -> unit

val count : t -> int
val sum : t -> int
val max_value : t -> int
val mean : t -> float

(* [quantile t q] estimates the q-quantile (q in [0,1], clamped) as the
   inclusive upper bound of the bucket holding the rank-⌈q·count⌉
   observation, clamped to the observed maximum — so the estimate [est]
   of an exact value [x] satisfies x <= est <= x·(1 + 1/2^sub_bits)
   rounded up to the next integer.  Returns 0 on an empty histogram. *)
val quantile : t -> float -> int

(* [merge ~into src] adds [src]'s counts into [into].  Raises
   [Invalid_argument] if the two resolutions differ. *)
val merge : into:t -> t -> unit

val clear : t -> unit
