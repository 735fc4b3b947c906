(* Isolated microprobes of the public per-request functions: host ns per
   call, median of five repetitions.  They run outside every workload
   pass, so their pools, registries and collectors never touch a pass's
   counters. *)

module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Pool = Parcae_core.Pool
module Span = Parcae_obs.Span
module Metrics = Parcae_obs.Metrics
module Hdr = Parcae_obs.Hdr
module Decima = Parcae_runtime.Decima

let reps = 5

let per_op ~iters f =
  let samples =
    List.init reps (fun _ ->
        let t0 = Pb.now_ns () in
        f iters;
        float_of_int (Pb.now_ns () - t0) /. float_of_int iters)
  in
  Pb.median samples

(* Run [body] inside one simulated thread and return its result. *)
let in_sim body =
  let eng = Engine.create Parcae_sim.Machine.xeon_x7460 in
  let out = ref nan in
  ignore (Engine.spawn eng ~name:"probe" (fun () -> out := body eng));
  ignore (Engine.run eng);
  !out

let pool_pair () =
  let p = Pool.create ~stripes:1 ~capacity:64 ~name:"perfbench-probe" ~dummy:(ref 0) (fun () -> ref 0) in
  per_op ~iters:200_000 (fun n ->
      for _ = 1 to n do
        Pool.release p (Pool.acquire p)
      done)

(* One single-item send_batch plus one recv_batch on a sim channel, from
   one simulated thread: the channel code plus the engine turn its
   [chan_op] charge costs. *)
let chan_pair () =
  in_sim (fun eng ->
      let ch = Chan.create eng "probe" in
      per_op ~iters:50_000 (fun n ->
          for i = 1 to n do
            Chan.send_batch ch [ i ];
            ignore (Chan.recv_batch ~max:1 ch)
          done))

(* One compute burst: an effect suspension and a sim event. *)
let engine_turn () =
  in_sim (fun eng ->
      per_op ~iters:50_000 (fun n ->
          for _ = 1 to n do
            Engine.compute_in eng 1_000
          done))

let span_enter_exit () =
  let sc = Span.create ~capacity:1024 () in
  Span.with_collector sc (fun () ->
      let sp = Span.make_span () in
      Span.reset sp ~id:0 ~arrival_ns:0;
      let clock = ref 0 in
      per_op ~iters:500_000 (fun n ->
          for _ = 1 to n do
            incr clock;
            let tok = Span.enter sp ~now:!clock in
            incr clock;
            Span.exit sp ~token:tok ~now:!clock
          done))

(* Re-arm plus finish: what completing one request costs the collector. *)
let span_finish () =
  let sc = Span.create ~capacity:1024 () in
  Span.with_collector sc (fun () ->
      let sp = Span.make_span () in
      per_op ~iters:200_000 (fun n ->
          for i = 1 to n do
            Span.reset sp ~id:i ~arrival_ns:i;
            Span.finish sp ~now:(i + 1000)
          done))

let counter_inc () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "perfbench_probe_total" in
  per_op ~iters:2_000_000 (fun n ->
      for _ = 1 to n do
        Metrics.inc c
      done)

let hdr_observe () =
  let h = Hdr.create () in
  per_op ~iters:2_000_000 (fun n ->
      for i = 1 to n do
        Hdr.observe h (1000 + ((i * 7919) land 0xfffff))
      done)

let decima_hook () =
  in_sim (fun eng ->
      let d = Decima.create eng ~tasks:1 in
      let slot = Decima.make_slot () in
      per_op ~iters:200_000 (fun n ->
          for _ = 1 to n do
            Decima.hook_begin d slot;
            Decima.hook_end d ~task:0 slot
          done))

type t = {
  pool_ns : float;
  chan_ns : float;
  turn_ns : float;
  span_ns : float;
  finish_ns : float;
  inc_ns : float;
  hdr_ns : float;
  hook_ns : float;
}

let run () =
  {
    pool_ns = pool_pair ();
    chan_ns = chan_pair ();
    turn_ns = engine_turn ();
    span_ns = span_enter_exit ();
    finish_ns = span_finish ();
    inc_ns = counter_inc ();
    hdr_ns = hdr_observe ();
    hook_ns = decima_hook ();
  }
