(* sim-nona-kernels: Nona compile, launch and controller-driven execution
   as a stream of kernel jobs.

   Set-up builds and compiles forty programs (eight seeded sizes of each
   of blackscholes, crc32, histogram, adaptive and recurrence, one drawn
   from each eighth of the kernel's size range, so every seed offers the
   same mix) and runs the sequential reference interpreter on each.  A pass then runs
   [jobs] jobs round-robin over the programs; a job is a fresh simulated
   24-core platform, [Compiler.launch] with an 8-thread budget, and the
   closed-loop [Controller] driving the region to completion.  A job's latency is its virtual completion
   time; adaptive jobs quadruple their per-iteration work part-way
   through, which the controller must notice and re-optimise for. *)

module Engine = Parcae_platform.Engine
module Region = Parcae_runtime.Region
module Controller = Parcae_runtime.Controller
module Obs = Parcae_obs
module Rng = Parcae_util.Rng
module Series = Parcae_util.Series
open Parcae_ir
open Parcae_nona

let name = "sim-nona-kernels"
let machine = Parcae_sim.Machine.xeon_x7460
let budget = 8
(* Enough jobs for p99 to clear the sample floor in both sizes. *)
let jobs () = if !Pb.tiny then 1_000 else 1_200
let sizes_per_kernel = 8

let params =
  {
    Controller.default_params with
    Controller.nseq = 16;
    npar_factor = 16;
    poll_ns = 20_000;
    monitor_ns = 20_000_000;
    change_frac = 0.3;
  }

(* (kernel, size range, loop constructor) *)
let kernels =
  [
    ("blackscholes", (300, 600), fun n -> Kernels.blackscholes ~n ());
    ("crc32", (450, 900), fun n -> Kernels.crc32 ~n ());
    ("histogram", (450, 900), fun n -> Kernels.histogram ~n ());
    ("adaptive", (1_500, 3_000), fun n -> Kernels.adaptive ~n ());
    ("recurrence", (600, 1_200), fun n -> Kernels.recurrence ~n ());
  ]

let adaptive_work = 60_000

type program = {
  kernel : string;
  n : int;
  compiled : Compiler.compiled;
  reference : Interp.result;
  compile_ns : int;
}

let setup ~seed =
  let rng = Rng.create ((seed * 7_368_787) + 5) in
  List.concat_map
    (fun (kernel, (lo, hi), build) ->
      List.init sizes_per_kernel (fun i ->
          let stratum = (hi - lo) / sizes_per_kernel in
          let n = lo + (i * stratum) + Rng.int rng stratum in
          let loop = build n in
          let t0 = Pb.now_ns () in
          let compiled = Pb.span "nona.compile" (fun () -> Compiler.compile loop) in
          let compile_ns = Pb.now_ns () - t0 in
          { kernel; n; compiled; reference = Interp.run loop; compile_ns }))
    kernels
  |> Array.of_list

(* The adaptive kernel's live-out is sum_i (3 w_i + i), where every w_i is
   the knob before or after the change: the run is correct exactly when
   some split point k in [0, n] reproduces it. *)
let adaptive_ok ~n ~w0 ~w1 (r : Interp.result) =
  match r.Interp.live_out with
  | [ (_, sum) ] ->
      let s3 = sum - (n * (n - 1) / 2) in
      s3 mod 3 = 0
      &&
      let s = s3 / 3 in
      let num = (w1 * n) - s in
      num mod (w1 - w0) = 0
      &&
      let k = num / (w1 - w0) in
      k >= 0 && k <= n
  | _ -> false

type job = {
  vtime_ns : int;
  iters : int;
  launch_ns : int;
  reconfigs : int;
  time_to_monitor_ns : int;  (* -1 when the controller never reached it *)
  ok : bool;
}

let monitor_code = Controller.state_code Controller.Monitor

let run_job (p : program) ~flip ~check =
  let eng = Pb.span "engine.create" (fun () -> Engine.create machine) in
  let t0 = Pb.now_ns () in
  let h = Pb.span "nona.launch" (fun () -> Compiler.launch ~budget eng p.compiled) in
  let launch_ns = Pb.now_ns () - t0 in
  let ctl = Controller.create ~params h.Compiler.region in
  ignore (Controller.spawn eng ctl);
  let adaptive = p.kernel = "adaptive" in
  if adaptive then
    ignore
      (Engine.spawn eng ~name:"phase-change" (fun () ->
           (* [flip] of the way through at the sequential pace of the
              budget's lanes. *)
           Engine.sleep (int_of_float (flip *. float_of_int (p.reference.Interp.work_ns / budget)));
           (List.assoc "knob" h.Compiler.rs.Flex.arrays).(0) <- 4 * adaptive_work));
  ignore (Pb.span "engine.run.job" (fun () -> Engine.run ~until:600_000_000_000 eng));
  let region = h.Compiler.region in
  let ok =
    Region.is_done region
    &&
    if adaptive then adaptive_ok ~n:p.n ~w0:adaptive_work ~w1:(4 * adaptive_work) (Compiler.result h)
    else if check then Compiler.preserves_semantics h
    else Interp.equal_observable (Compiler.result h) p.reference
  in
  let ttm = ref (-1) in
  Series.iter (Controller.states ctl) (fun ts v ->
      if !ttm < 0 && int_of_float v = monitor_code then ttm := int_of_float (ts *. 1e9));
  {
    vtime_ns = Engine.time eng;
    iters = p.reference.Interp.iterations;
    launch_ns;
    reconfigs = Region.reconfig_count region;
    time_to_monitor_ns = !ttm;
    ok;
  }

type pass = { js : job array; windows : float list }

(* All jobs round-robin over the programs; host time is sampled per
   window of one round of the programs (the same mix in every window) as
   us per 1000 kernel iterations. *)
let run_pass programs ~seed ~tally ~verify =
  (* Each job's phase-change point is its own, so jobs of one program do
     not all finish at one instant and the latency tail is not a single
     program's completion time. *)
  let rng = Rng.create ((seed * 40_503) + 9) in
  let np = Array.length programs in
  let windows = ref [] in
  let w0 = ref (Pb.now_ns ()) and it0 = ref 0 in
  let js =
    Array.init (jobs ()) (fun j ->
        let p = programs.(j mod np) in
        let flip = Rng.uniform rng ~lo:0.25 ~hi:0.75 in
        let job = run_job p ~flip ~check:(verify && j < np) in
        Pb.check tally job.ok (fun () ->
            Printf.sprintf "%s n=%d: job %d did not reproduce the sequential semantics" p.kernel
              p.n j);
        it0 := !it0 + job.iters;
        if (j + 1) mod np = 0 then begin
          let now = Pb.now_ns () in
          windows := (float_of_int (now - !w0) /. 1e3 /. (float_of_int !it0 /. 1e3)) :: !windows;
          w0 := now;
          it0 := 0
        end;
        job)
  in
  { js; windows = !windows }

(* Deterministic results of a pass. *)
let virtual_key ps = Array.map (fun j -> (j.vtime_ns, j.reconfigs, j.time_to_monitor_ns)) ps.js

let run ~seed ~seconds ~trace =
  let tally = Pb.tally () in
  let t_start = Pb.now_ns () in
  let setups = ref [] in
  let do_setup () =
    Gc.compact ();
    let t0 = Pb.now_ns () in
    let ps = setup ~seed in
    setups := Pb.secs_since t0 :: !setups;
    ps
  in
  let programs = do_setup () in
  let first = run_pass programs ~seed ~tally ~verify:true in
  let key = virtual_key first in
  let traced = ref [] in
  let plain_host = ref [] in
  let step = ref 0 in
  while Pb.secs_since t_start < seconds || (trace && !traced = []) do
    let programs = do_setup () in
    let tr = trace && !step mod 2 = 1 in
    let reg = Obs.Metrics.create () and ledger = Obs.Ledger.create () in
    let p =
      if tr then
        Pb.with_tracing (fun () ->
            Obs.Metrics.with_registry reg (fun () ->
                Obs.Ledger.with_ledger ledger (fun () -> run_pass programs ~seed ~tally ~verify:false)))
      else run_pass programs ~seed ~tally ~verify:false
    in
    Pb.check tally (virtual_key p = key) (fun () ->
        name ^ ": virtual results differ between passes of one seed");
    if tr then traced := (p, reg, ledger) :: !traced
    else plain_host := p.windows @ !plain_host;
    (* One more set-up between passes spreads the samples over the run. *)
    ignore (do_setup ());
    incr step
  done;
  while List.length !setups < Pb.min_setups do
    ignore (do_setup ())
  done;
  (* The first pass warms up; its host windows count only if it is alone. *)
  let host = Pb.low_decile (if !plain_host = [] then first.windows else !plain_host) in
  let vt = Array.map (fun j -> float_of_int j.vtime_ns /. 1e6) first.js in
  Array.sort compare vt;
  let q x =
    match Pb.quantile_sorted vt x with
    | Some v -> v
    | None ->
        Pb.check tally false (fun () -> Printf.sprintf "%s: q%g is below the sample floor" name x);
        nan
  in
  (* Per-kernel speedup: total sequential work over total virtual time of
     that kernel's jobs; the headline is their geometric mean. *)
  let per_kernel f =
    List.map
      (fun (k, _, _) ->
        let num = ref 0.0 and den = ref 0.0 in
        Array.iteri
          (fun j job ->
            let p = programs.(j mod Array.length programs) in
            if p.kernel = k then begin
              num := !num +. f p job;
              den := !den +. float_of_int job.vtime_ns
            end)
          first.js;
        (k, !num /. !den))
      kernels
  in
  let speedups = per_kernel (fun p _ -> float_of_int p.reference.Interp.work_ns) in
  let vspeedup = Pb.geomean (List.map snd speedups) in
  let total_iters = Array.fold_left (fun acc j -> acc + j.iters) 0 first.js in
  let total_vt = Array.fold_left (fun acc j -> acc + j.vtime_ns) 0 first.js in
  let iters_per_vs = float_of_int total_iters /. (float_of_int total_vt *. 1e-9) in
  let p50 = q 0.5 and p99 = q 0.99 in
  let layers =
    match !traced with
    | [] -> []
    | (tp, reg, ledger) :: _ ->
        let snap = Obs.Metrics.snapshot reg in
        let njobs = float_of_int (Array.length tp.js) in
        let mean f = Array.fold_left (fun acc j -> acc +. f j) 0.0 tp.js /. njobs in
        let reached = Array.to_list tp.js |> List.filter (fun j -> j.time_to_monitor_ns >= 0) in
        let ledger_ms ph =
          float_of_int
            (List.fold_left
               (fun acc (_, p, ns) -> if p = ph then acc + ns else acc)
               0 (Obs.Ledger.snapshot ledger))
          /. 1e6
        in
        let host_traced = Pb.low_decile tp.windows in
        let probes = Probes.run () in
        Layers.complete
          ([
             ("host.us_per_op", host);
             ("ctrl.time_to_monitor_ms",
               Pb.median (List.map (fun j -> float_of_int j.time_to_monitor_ns /. 1e6) reached));
             ("ctrl.reconfigs_per_kernel", mean (fun j -> float_of_int j.reconfigs));
             ( "nona.compile_ms",
               Array.fold_left (fun acc p -> acc +. float_of_int p.compile_ns) 0.0 programs
               /. float_of_int (Array.length programs) /. 1e6 );
             ("nona.launch_ms", mean (fun j -> float_of_int j.launch_ns) /. 1e6);
             ("runtime.reconfigs", mean (fun j -> float_of_int j.reconfigs));
             ("sim.ctx_switches_per_req", Reg.total snap "parcae_sim_ctx_switches_total" /. njobs);
             ("sim.threads_spawned_per_req", Reg.total snap "parcae_sim_threads_spawned_total" /. njobs);
             ("runtime.reconfig_phase_ms.signal", ledger_ms "signal");
             ("runtime.reconfig_phase_ms.barrier", ledger_ms "barrier");
             ("runtime.reconfig_phase_ms.flush", ledger_ms "flush");
             ("runtime.reconfig_phase_ms.restart", ledger_ms "restart");
             ("bench.trace_overhead_frac", (host_traced /. host) -. 1.0);
           ]
          @ Layers.of_probes probes)
  in
  let heap = Pb.heap_peak_mb () in
  {
    Pb.attempted = tally.Pb.t_attempted;
    failed = tally.Pb.t_failed;
    failures = List.rev tally.Pb.t_why;
    e2e =
      [
        Pb.metric "setup_s" "s" (Pb.median !setups);
        Pb.metric "ops_per_s" "1/s" iters_per_vs;
        Pb.metric "speedup" "x" vspeedup;
        Pb.metric "lat_p50_ms" "ms" p50;
        Pb.metric "lat_p99_ms" "ms" p99;
        Pb.metric "heap_peak_mb" "MB" heap;
      ];
    named =
      [
        Pb.metric "kernel_vspeedup" "x" vspeedup;
        Pb.metric "host_us_per_kiter" "us" host;
      ]
      @ List.map (fun (k, s) -> Pb.metric ("vspeedup." ^ k) "x" s) speedups;
    layers;
    labels =
      [
        ("jobs", string_of_int (Array.length first.js));
        ("programs", string_of_int (Array.length programs));
        ("passes", string_of_int (1 + !step));
      ];
  }
