(** The Decima monitor (the paper's Chapter 6 and Section 4.7).

    Decima observes the application through begin/end hooks inserted into
    task functors and through load callbacks, and the platform through a
    registry of named feature callbacks.  Hooks cost the machine's
    rdtsc-equivalent.  The additive counters are lane-local: each
    worker's {!hook_slot} carries its own sums, and every reader adds
    them up exactly. *)

type t

val create : Parcae_platform.Engine.t -> tasks:int -> t

val reset : t -> tasks:int -> unit
(** Re-size and clear statistics (used on parallelization-scheme switch). *)

val task_count : t -> int

val set_names : t -> region:string -> scheme:string -> tasks:string array -> unit
(** Label values under which this monitor's statistics appear in the metrics
    registry ([parcae_task_compute_ns_total{region,scheme,task}] feeds the
    folded-stack profiler).  Called by [Region.create] and on scheme switch;
    registry series are cumulative, so a switch starts fresh series rather
    than clearing history. *)

(** {1 Hooks and counts}

    A hook pair measures the CPU a worker consumed between begin and end,
    excluding time blocked on channels.  Hooks and counts go through the
    worker's own slot: only that worker writes it, so lanes never share a
    counter on the per-instance path.  A slot registers with the monitor
    on first use and serves one monitor. *)

type hook_slot

val make_slot : unit -> hook_slot
val hook_begin : t -> hook_slot -> unit
val hook_end : t -> task:int -> hook_slot -> unit

val count : t -> hook_slot -> int -> int -> unit
(** [count t slot i n] records [n] completed instances of task [i] on the
    slot's worker — how a batch-draining stage reports its whole claim in
    one call.  No-op for [n <= 0] or an out-of-range task. *)

val retire : t -> hook_slot -> unit
(** Fold the slot's sums into the monitor and unregister it; the worker
    calls it once, after its last hook and count. *)

val complete : t -> unit
(** Record the completion of one region-level unit of work. *)

val iters : t -> int -> int
(** Completed instances of a task since the last reset, summed over
    retired and live slots. *)

val completions : t -> int
val hook_calls : t -> int

val compute_ns : t -> int -> int
(** Total hook-attributed compute ns of a task since the last reset. *)

val exec_time : t -> int -> float
(** Decima's estimate of a task's per-instance execution time in ns
    (the paper's [Parcae::getExecTime]). *)

val task_rate : t -> int -> float
(** Average observed completion rate of a task, instances/second, over the
    whole run. *)

val recent_samples : t -> int -> int array
(** The last hook samples of a task (dt in ns, oldest first) still present
    in the monitor's preallocated sample ring — a bounded raw-sample
    window for diagnostics.  Cold path: allocates the result. *)

(** {1 Interval throughput}

    The closed-loop controller compares configurations by the throughput
    achieved between two snapshots. *)

type snapshot

val snapshot : t -> snapshot
val rate_since : t -> snapshot -> int -> float
val completion_rate_since : t -> snapshot -> float
val iters_since : t -> snapshot -> int -> int

(** {1 Platform feature registry (Figure 5.8)} *)

val register_feature : t -> string -> (unit -> float) -> unit
val feature : t -> string -> float option

val flight_tasks : t -> Parcae_obs.Flight.task_obs list
(** Per-task measurement snapshot (label, iterations, rate, exec time)
    attached to flight-recorder decisions. *)
