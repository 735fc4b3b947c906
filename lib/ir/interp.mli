(** Reference sequential interpreter: the ground-truth semantics of a
    loop, and the sequential execution time every speedup is measured
    against.  Parallel executions produced by Nona are checked for
    semantics preservation against this. *)

type result = {
  arrays : (string * int array) list;  (** final array contents *)
  live_out : (Instr.reg * int) list;  (** final live-out phi values *)
  externals : Externals.observation;
  iterations : int;  (** completed iterations *)
  work_ns : int;  (** total instruction cost, sequential *)
}

val run : ?externals:Externals.t -> ?profile:float array -> ?max_iters:int -> Loop.t -> result
(** Run the loop (fresh externals by default).  [max_iters] bounds While
    loops.  When [profile] is given (sized to [Loop.nodes]), per-node
    execution cost is accumulated into it — the execution-profile weights
    Nona's partitioner uses (the paper's Section 4.3.2).  A node is
    charged its base cost, then any [Work] amount, before it executes, so
    a run that raises leaves a partial profile.

    The loop is resolved once before it runs: registers become slots of
    a register file and arrays are bound to their loads and stores.
    Resolution raises [Invalid_argument] when a body reads a register
    before the iteration defines it, a phi carry is never defined, a
    live-out is not a phi, or an array is undeclared.  Out-of-bounds
    loads and stores and unknown calls raise only when executed. *)

val equal_observable : result -> result -> bool
(** Structural equality of observable results: arrays, live-outs,
    externals and iterations.  [work_ns] is not compared, and results
    holding different numbers of arrays are unequal. *)
