(** Host clock and the calibrated spin kernel.

    The native backend replaces the simulator's virtual [compute n] with a
    busy loop that runs until the host clock shows [n] real nanoseconds
    have passed.  Calibration runs once, lazily, the first time any spin
    executes; its result is shared by every native engine in the process
    and only sizes the slices between clock reads. *)

val now_ns : unit -> int
(** Host monotonic clock, nanoseconds.  Only differences are meaningful. *)

val spins_per_ns : unit -> float
(** Calibrated spin-loop iterations per nanosecond; forces calibration on
    first use. *)

val spin_ns : int -> int
(** Burn at least [n] ns of CPU (by the host clock) and return the
    measured elapsed nanoseconds, which is what callers should account so
    that clock and busy-time bookkeeping agree. *)
