(* The two simulated serve workloads: ferret (flat pipeline, static even
   config, registry and span collector installed) and x264 (two-level
   server under the WQ-Linear nested mechanism, observability off).

   Every pass runs an open-loop sub-run driven by the benchmark's own
   generator at fixed offered rates; verifying and traced passes also run
   a batch sub-run (M requests at t=0: the paper's maximum sustainable
   throughput).  The open loop runs
   in virtual-time windows so host time per request is sampled many
   times per pass; the reported host figure is the fast decile of the
   windows ([Pb.low_decile]). *)

module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Pipeline = Parcae_core.Pipeline
module Pool = Parcae_core.Pool
module Region = Parcae_runtime.Region
module Executor = Parcae_runtime.Executor
module Morta = Parcae_runtime.Morta
module Obs = Parcae_obs
module Rng = Parcae_util.Rng
open Parcae_workloads

let machine = Parcae_sim.Machine.xeon_x7460
let budget = machine.Parcae_sim.Machine.cores

type spec = {
  name : string;
  make_app : budget:int -> Engine.t -> App.t;
  config : string;  (* both sub-runs launch with it *)
  batch_m : int;
  phases : (float * int) list;  (* (offered req/s, requests), cycled *)
  open_n : int;
  mech : (App.t -> Morta.mechanism) option;
  observed : bool;  (* registry + span collector on in the plain run *)
}

let ferret =
  {
    name = "sim-ferret-observed";
    make_app = (fun ~budget eng -> Ferret.make ~budget eng);
    config = "even";
    batch_m = 20_000;
    phases = [ (400.0, max_int) ];
    open_n = 100_000;
    mech = None;
    observed = true;
  }

let x264 =
  {
    name = "sim-x264-phased";
    make_app = (fun ~budget eng -> Transcode.make ~budget eng);
    config = "outer-only";
    batch_m = 1_500;
    phases = [ (4.0, 50); (12.0, 50) ];
    open_n = 16_000;
    mech =
      Some
        (fun app ->
          Parcae_mechanisms.Wq_linear.nested ~load:app.App.wq_load ~dpmin:1
            ~dpmax:app.App.dpmax ~qmax:20.0
            ~make_config:(Option.get app.App.inner_dop_config) ());
    observed = false;
  }

(* The self-test's small variant: same shape, quantiles still above the
   sample floor. *)
let sized spec =
  if not !Pb.tiny then spec
  else { spec with batch_m = min spec.batch_m 600; open_n = min spec.open_n 2_000 }

let period_ns = 500_000_000
let windows_per_pass = 32

(* ---- inputs ---- *)

type sched = {
  due : int array;  (* open-loop due times, virtual ns *)
  scale : float array;  (* open-loop per-request work factors *)
  bscale : float array;  (* batch per-request work factors *)
}

let scale_of rng = Float.max 0.5 (Rng.gaussian rng ~mu:1.0 ~sigma:0.08)

(* Poisson arrivals at fixed rates: phase [i] offers [rate] req/s for
   [count] requests, phases cycling until [open_n].  No calibration: a
   faster build is never offered a heavier load. *)
let schedule spec ~seed =
  let rng = Rng.create ((seed * 1_000_003) + 11) in
  let phases = Array.of_list spec.phases in
  let due = Array.make spec.open_n 0 in
  let t = ref 0.0 and ph = ref 0 and left = ref (snd phases.(0)) in
  for i = 0 to spec.open_n - 1 do
    if !left = 0 then begin
      ph := (!ph + 1) mod Array.length phases;
      left := snd phases.(!ph)
    end;
    decr left;
    t := !t +. Rng.exponential rng ~rate:(fst phases.(!ph));
    due.(i) <- int_of_float (!t *. 1e9)
  done;
  let scale = Array.init spec.open_n (fun _ -> scale_of rng) in
  let bscale = Array.init spec.batch_m (fun _ -> scale_of rng) in
  { due; scale; bscale }

(* ---- set-up ---- *)

type env = { sched : sched; beng : Engine.t; bapp : App.t; oeng : Engine.t; oapp : App.t }

let setup spec ~seed =
  let sched = schedule spec ~seed in
  let create () = Pb.span "engine.create" (fun () -> Engine.create machine) in
  let build eng = Pb.span "app.build" (fun () -> spec.make_app ~budget eng) in
  let beng = create () in
  let bapp = build beng in
  let oeng = create () in
  let oapp = build oeng in
  { sched; beng; bapp; oeng; oapp }

(* ---- per-pass instrumentation ---- *)

(* What a pass installs: [`Off] nothing; [`Observed] the registry and
   span collector ([serve --listen]'s set); [`Verify] the same with a
   span ring large enough to keep every request (untimed: it checks ids
   and takes exact latency quantiles); [`Traced] the observed set plus
   the overhead ledger, a trace sink and the benchmark's own timers. *)
type mode = [ `Off | `Observed | `Verify | `Traced ]

type probe = {
  mutable send_ns : int;  (* Request.alloc + note_submit, summed *)
  mutable sends : int;
  mutable late_max : int;  (* generator lateness, virtual ns *)
  mutable decide_ns : int;  (* mechanism closure, summed *)
  mutable epochs : int;
}

let fresh_probe () = { send_ns = 0; sends = 0; late_max = 0; decide_ns = 0; epochs = 0 }

type sub = {
  completed : int;
  submitted : int;
  vmax : float;  (* batch only *)
  p50 : int;
  p99 : int;
  windows : float list;  (* host us/request per window, open loop only *)
  offered : float;
  delivered : float;
  reconfigs : int;
  light : int;
  pause_wait : int;
  sink : Obs.Sink.t option;
  snap : Obs.Metrics.fam_snapshot list;
  collector : Obs.Span.t option;
  ledger : Obs.Ledger.t option;
  minor_words : float;
  majors : int;
  pool_hits : int;
  pool_misses : int;
  probe : probe;
}

let trace_capacity = 1 lsl 18

(* Run [f] under the instrumentation [mode] installs; [requests] sizes a
   verifying pass's span ring so that no completed span is dropped. *)
let instrumented mode ~requests f =
  match mode with
  | `Off -> f ~reg:None ~sc:None ~ledger:None ~sink:None
  | (`Observed | `Verify) as m ->
      let sc =
        if m = `Verify then Obs.Span.create ~capacity:(requests + 64) () else Obs.Span.create ()
      in
      let reg = Obs.Metrics.create () in
      Obs.Metrics.with_registry reg (fun () ->
          Obs.Span.with_collector sc (fun () -> f ~reg:(Some reg) ~sc:(Some sc) ~ledger:None ~sink:None))
  | `Traced ->
      let reg = Obs.Metrics.create () and sc = Obs.Span.create () in
      let ledger = Obs.Ledger.create () and sink = Obs.Sink.create ~capacity:trace_capacity () in
      Obs.Metrics.with_registry reg (fun () ->
          Obs.Span.with_collector sc (fun () ->
              Obs.Ledger.with_ledger ledger (fun () ->
                  Obs.Trace.with_sink sink (fun () ->
                      f ~reg:(Some reg) ~sc:(Some sc) ~ledger:(Some ledger) ~sink:(Some sink)))))

let launch app eng config =
  Pb.span "executor.launch" (fun () ->
      Executor.launch ~budget ~name:app.App.name eng app.App.schemes (App.config app config)
        ~on_pause:app.App.on_pause ~on_reset:app.App.on_reset)

(* Process-wide counters a sub-run reports as deltas. *)
type base = { b_minor : float; b_majors : int; b_hits : int; b_misses : int }

let base () =
  let gc = Gc.quick_stat () in
  {
    b_minor = gc.Gc.minor_words;
    b_majors = gc.Gc.major_collections;
    b_hits = Pool.total_hits ();
    b_misses = Pool.total_misses ();
  }

let finish_sub ~mode ~app ~region ~reg ~sc ~ledger ~sink ~base ~vmax ~windows ~offered ~probe =
  let m = app.App.metrics in
  let completed = Metrics.completed m in
  let gc = Gc.quick_stat () in
  {
    completed;
    submitted = Metrics.submitted m;
    vmax;
    p50 = Metrics.latency_quantile_ns m 0.5;
    p99 = Metrics.latency_quantile_ns m 0.99;
    windows;
    offered;
    delivered = Metrics.throughput m;
    reconfigs = Region.reconfig_count region;
    light = Region.light_resizes region;
    pause_wait = Region.pause_wait_ns region;
    sink;
    snap = (match reg with Some r when mode = `Traced -> Obs.Metrics.snapshot r | _ -> []);
    collector = sc;
    ledger;
    minor_words = gc.Gc.minor_words -. base.b_minor;
    majors = gc.Gc.major_collections - base.b_majors;
    pool_hits = Pool.total_hits () - base.b_hits;
    pool_misses = Pool.total_misses () - base.b_misses;
    probe;
  }

(* M requests enqueued at t=0 with one batched send, run to completion. *)
let batch_sub spec env ~mode =
  let eng = env.beng and app = env.bapp in
  let m = spec.batch_m in
  instrumented mode ~requests:m (fun ~reg ~sc ~ledger ~sink ->
      let base = base () in
      let region = launch app eng spec.config in
      ignore
        (Engine.spawn eng ~name:"batch-loader" (fun () ->
             let items =
               List.init m (fun id ->
                   let r = Request.alloc ~id ~arrival_ns:0 ~scale:env.sched.bscale.(id) in
                   Metrics.note_submit app.App.metrics;
                   Pipeline.Item r)
             in
             Chan.send_batch app.App.queue items;
             Pipeline.inject_eos app.App.queue));
      let horizon = (m * app.App.seq_request_ns) + 20_000_000_000 in
      ignore (Pb.span "engine.run.batch" (fun () -> Engine.run ~until:horizon eng));
      finish_sub ~mode ~app ~region ~reg ~sc ~ledger ~sink ~base
        ~vmax:(Metrics.throughput app.App.metrics) ~windows:[] ~offered:nan ~probe:(fresh_probe ()))

(* The honest open-loop generator: each request is stamped with its
   scheduled due time (so response time includes any generator lateness),
   lateness itself is recorded, and the offered schedule is fixed. *)
let generator env app probe ~timed () =
  let eng = app.App.eng in
  let due = env.sched.due and scale = env.sched.scale in
  for id = 0 to Array.length due - 1 do
    let d = due.(id) in
    if Engine.time eng < d then Engine.sleep_until d;
    let late = Engine.time eng - d in
    if late > probe.late_max then probe.late_max <- late;
    let t0 = if timed then Pb.now_ns () else 0 in
    let req = Request.alloc ~id ~arrival_ns:d ~scale:scale.(id) in
    Metrics.note_submit app.App.metrics;
    if timed then begin
      let dt = Pb.now_ns () - t0 in
      Pb.record "loadgen.send" dt;
      probe.send_ns <- probe.send_ns + dt;
      probe.sends <- probe.sends + 1
    end;
    Pipeline.send app.App.queue req
  done;
  Pipeline.inject_eos app.App.queue

let open_sub spec env ~mode =
  let eng = env.oeng and app = env.oapp in
  let n = spec.open_n in
  let last_due = env.sched.due.(n - 1) in
  instrumented mode ~requests:n (fun ~reg ~sc ~ledger ~sink ->
      let probe = fresh_probe () in
      let timed = mode = `Traced in
      let base = base () in
      let region = launch app eng spec.config in
      ignore (Engine.spawn eng ~name:"perfbench-generator" (generator env app probe ~timed));
      Option.iter
        (fun mk ->
          let mech = mk app in
          let mechanism r =
            if not timed then mech r
            else begin
              let t0 = Pb.now_ns () in
              let p = mech r in
              let dt = Pb.now_ns () - t0 in
              Pb.record "mech.decide" dt;
              probe.decide_ns <- probe.decide_ns + dt;
              probe.epochs <- probe.epochs + 1;
              p
            end
          in
          ignore
            (Morta.spawn ~stop:(fun () -> Region.is_done region) ~period_ns ~mechanism eng region))
        spec.mech;
      let horizon = last_due + 600_000_000_000 in
      let w = max 1 (last_due / windows_per_pass) in
      let windows = ref [] and t = ref 0 and fin = ref false in
      let m = app.App.metrics in
      while not !fin do
        t := !t + w;
        let c0 = Metrics.completed m and t0 = Pb.now_ns () in
        let processed = Pb.span "engine.run.window" (fun () -> Engine.run ~until:!t eng) in
        let dh = Pb.now_ns () - t0 and dc = Metrics.completed m - c0 in
        if dc >= 50 then windows := (float_of_int dh /. 1e3 /. float_of_int dc) :: !windows;
        if processed = 0 && (Metrics.completed m >= n || !t > horizon) then fin := true
      done;
      let offered = float_of_int n /. (float_of_int last_due *. 1e-9) in
      finish_sub ~mode ~app ~region ~reg ~sc ~ledger ~sink ~base ~vmax:nan ~windows:!windows
        ~offered ~probe)

(* ---- checks ---- *)

let check_sub tally ~what ~n ~mode (s : sub) =
  Pb.check tally (s.completed = n && s.submitted = n) (fun () ->
      Printf.sprintf "%s: completed %d, submitted %d of %d by the horizon" what s.completed
        s.submitted n);
  match s.collector with
  | Some sc when mode = `Verify ->
      let ids = Pb.ids n in
      List.iter (fun (r : Obs.Span.rec_view) -> Pb.mark ids r.Obs.Span.rv_id) (Obs.Span.records sc);
      Pb.check_ids tally ~what ids;
      Pb.check tally
        (Obs.Span.drops sc = 0 && Obs.Span.double_finishes sc = 0)
        (fun () ->
          Printf.sprintf "%s: %d span drops, %d double finishes" what (Obs.Span.drops sc)
            (Obs.Span.double_finishes sc))
  | _ -> ()

type pass = { batch : sub option; open_ : sub; seq_ns : int }

(* The deterministic fingerprint of a pass: identical on every pass of a
   seed whatever the instrumentation. *)
let virtual_key p = (p.open_.p50, p.open_.p99, p.open_.completed, p.open_.reconfigs)

let run_pass spec ~seed ~mode =
  (* Every pass starts from a compacted heap: host time per request
     depends on heap size, which must not depend on how many passes ran
     before. *)
  Gc.compact ();
  let t0 = Pb.now_ns () in
  let env = setup spec ~seed in
  let setup_s = Pb.secs_since t0 in
  (* The batch sub-run is deterministic and untimed: verifying and traced
     passes run it, measured passes only the open loop. *)
  let batch = if mode = `Verify || mode = `Traced then Some (batch_sub spec env ~mode) else None in
  let open_ = open_sub spec env ~mode in
  (setup_s, { batch; open_; seq_ns = env.oapp.App.seq_request_ns })

(* ---- chan batching from the trace window ---- *)

(* Consecutive channel events by one task at one instant with one busy
   stamp are one batched operation.  Returns (send ops, recv ops, recv
   items) over the retained window, and the work-queue recv items (the
   requests the window covers). *)
let chan_ops sink =
  let sends = ref 0 and recvs = ref 0 and items = ref 0 and reqs = ref 0 in
  let last = ref ("", -1, -1, -1, false) in
  Obs.Sink.iter sink (fun ev ->
      match ev.Obs.Event.kind with
      | Obs.Event.Chan_send_ev { chan; task; busy_ns; _ } ->
          let key = (chan, task, ev.Obs.Event.t, busy_ns, true) in
          if key <> !last then incr sends;
          last := key
      | Obs.Event.Chan_recv_ev { chan; task; busy_ns; _ } ->
          let key = (chan, task, ev.Obs.Event.t, busy_ns, false) in
          if key <> !last then incr recvs;
          last := key;
          incr items;
          if chan = "work-queue" then incr reqs
      | _ -> ());
  (!sends, !recvs, !items, !reqs)

let items_per_recv s =
  match s.sink with
  | None -> nan
  | Some sink ->
      let _, recvs, items, _ = chan_ops sink in
      if recvs = 0 then 0.0 else float_of_int items /. float_of_int recvs


(* ---- the workload ---- *)

let ms ns = float_of_int ns /. 1e6
let per n x = if n = 0 then 0.0 else x /. float_of_int n

let host ps = Pb.low_decile (List.concat_map (fun p -> p.open_.windows) ps)

(* Per-layer metrics from a traced pass, the microprobes, and the host
   figures of the plain and comparison passes. *)
let layers spec (tp : pass) ~probes ~host_plain ~host_off ~host_traced =
  let o = tp.open_ and b = Option.get tp.batch in
  let n = o.completed in
  let snap = o.snap in
  let tot = Reg.total snap in
  let sends, recvs, items, reqs =
    match o.sink with Some s -> chan_ops s | None -> (0, 0, 0, 0)
  in
  let ops_per_req = per reqs (float_of_int (sends + recvs)) in
  let hops_per_req = per reqs (float_of_int items) in
  let pool_pairs = per n (float_of_int (o.pool_hits + o.pool_misses)) in
  let turns = per n (tot "parcae_sim_ctx_switches_total") in
  let p = (probes : Probes.t) in
  let chan_code = Float.max 0.0 (p.Probes.chan_ns -. (2.0 *. p.Probes.turn_ns)) in
  let obs_terms =
    if spec.observed then
      [
        (hops_per_req *. p.Probes.span_ns) +. p.Probes.finish_ns;
        per n (Reg.counter_incs snap) *. p.Probes.inc_ns;
        per n (Reg.observations snap) *. p.Probes.hdr_ns;
      ]
    else []
  in
  let explained =
    List.fold_left ( +. ) 0.0
      ([
         pool_pairs *. p.Probes.pool_ns;
         ops_per_req /. 2.0 *. chan_code;
         turns *. p.Probes.turn_ns;
         per n (Reg.count snap "parcae_decima_hook_ns") *. p.Probes.hook_ns;
       ]
      @ obs_terms)
  in
  let measured_ns = host_plain *. 1e3 in
  let phase ph =
    match o.collector with
    | Some sc when Pb.quantile_supported ~count:(Obs.Span.completed sc) 0.99 ->
        ms (Obs.Span.phase_quantile_ns sc ph 0.99)
    | _ -> 0.0
  in
  let ledger ph =
    match o.ledger with
    | Some l ->
        ms
          (List.fold_left
             (fun acc (_, p, ns) -> if p = ph then acc + ns else acc)
             0 (Obs.Ledger.snapshot l))
    | None -> 0.0
  in
  let busy = tot "parcae_sim_busy_core_ns_total" and idle = tot "parcae_sim_idle_core_ns_total" in
  [
    ("host.us_per_op", host_plain);
    ("loadgen.send_ns", per o.probe.sends (float_of_int o.probe.send_ns));
    ("loadgen.late_max_us", float_of_int o.probe.late_max /. 1e3);
    ("pool.hit_ratio", per (o.pool_hits + o.pool_misses) (float_of_int o.pool_hits));
    ("chan.ops_per_req", ops_per_req);
    ("chan.items_per_recv", items_per_recv o);
    ("chan.items_per_recv_batch", items_per_recv b);
    ( "chan.block_ms_per_req",
      per n (tot "parcae_chan_recv_block_ns" +. tot "parcae_chan_send_block_ns") /. 1e6 );
    ("sim.ctx_switches_per_req", turns);
    ("sim.threads_spawned_per_req", per n (tot "parcae_sim_threads_spawned_total"));
    ("sim.busy_core_frac", if busy +. idle > 0.0 then busy /. (busy +. idle) else 0.0);
    ("obs.overhead_us_per_req", if spec.observed then host_plain -. host_off else host_off -. host_plain);
    ("obs.span_drops", match o.collector with Some sc -> float_of_int (Obs.Span.drops sc) | None -> 0.0);
    ("span.queue_ms_p99", phase Obs.Span.Queue);
    ("span.chan_ms_p99", phase Obs.Span.Chan);
    ("span.compute_ms_p99", phase Obs.Span.Compute);
    ("span.reconfig_ms_p99", phase Obs.Span.Reconfig);
    ("runtime.reconfigs", float_of_int o.reconfigs);
    ("runtime.light_resizes", float_of_int o.light);
    ("runtime.pause_wait_ms", ms o.pause_wait);
    ("runtime.reconfig_phase_ms.signal", ledger "signal");
    ("runtime.reconfig_phase_ms.barrier", ledger "barrier");
    ("runtime.reconfig_phase_ms.flush", ledger "flush");
    ("runtime.reconfig_phase_ms.restart", ledger "restart");
    ("mech.decide_us", per o.probe.epochs (float_of_int o.probe.decide_ns) /. 1e3);
    ("mech.adopted_frac", per o.probe.epochs (float_of_int o.reconfigs));
    ("gc.minor_words_per_req", per n o.minor_words);
    ("gc.major_collections", float_of_int o.majors);
    ("budget.explained_frac", if measured_ns > 0.0 then explained /. measured_ns else 0.0);
    ("budget.unexplained_us_per_req", (measured_ns -. explained) /. 1e3);
    ("bench.trace_overhead_frac", (host_traced /. host_plain) -. 1.0);
  ]
  @ Layers.of_probes probes

(* Set-up is timed on every pass and once more between passes, so its
   samples spread over the run. *)
let timed_setup spec ~seed =
  Gc.compact ();
  let t0 = Pb.now_ns () in
  ignore (setup spec ~seed);
  Pb.secs_since t0

let run spec ~seed ~seconds ~trace =
  let spec = sized spec in
  let tally = Pb.tally () in
  let t_start = Pb.now_ns () in
  let plain_mode = if spec.observed then `Observed else `Off in
  let setups = ref [] in
  let pass mode =
    let s, p = run_pass spec ~seed ~mode in
    setups := timed_setup spec ~seed :: s :: !setups;
    Option.iter (check_sub tally ~what:(spec.name ^ "/batch") ~n:spec.batch_m ~mode) p.batch;
    check_sub tally ~what:(spec.name ^ "/open") ~n:spec.open_n ~mode p.open_;
    (* Only verifying and traced passes keep their collectors (for exact
       quantiles and layer metrics); retained rings would grow the heap
       of later passes. *)
    if mode = `Traced || mode = `Verify then p
    else
      let strip s = { s with collector = None; sink = None; ledger = None } in
      { p with batch = Option.map strip p.batch; open_ = strip p.open_ }
  in
  (* The first pass is a plain one that warms the request pool; its host
     time is not used.  Peak memory is read right after it: set-up plus
     one measured pass, before the verifying pass installs its
     request-sized span ring. *)
  let warm = pass plain_mode in
  let heap = Pb.heap_peak_mb () in
  (* The verifying pass keeps every span: every request id is checked and
     latency quantiles are exact. *)
  let p0 = pass `Verify in
  let key = virtual_key p0 in
  let vmax p = Option.map (fun b -> b.vmax) p.batch in
  Pb.check tally (virtual_key warm = key) (fun () ->
      spec.name ^ ": virtual results differ between passes of one seed");
  let pass mode =
    let p = pass mode in
    Pb.check tally
      (virtual_key p = key && (p.batch = None || vmax p = vmax p0))
      (fun () -> spec.name ^ ": virtual results differ between passes of one seed");
    p
  in
  (* The comparison pass flips observability: off for the observed
     workload, on for the unobserved one. *)
  let other = if spec.observed then `Off else `Observed in
  let rotation = if trace then [ `Plain; `Other; `Traced ] else [ `Plain ] in
  let plain = ref [] and others = ref [] and traced = ref [] in
  let step = ref 0 in
  while !step < List.length rotation || Pb.secs_since t_start < seconds do
    (match List.nth rotation (!step mod List.length rotation) with
    | `Plain -> plain := pass plain_mode :: !plain
    | `Other -> others := pass other :: !others
    | `Traced -> traced := Pb.with_tracing (fun () -> pass `Traced) :: !traced);
    incr step
  done;
  while List.length !setups < Pb.min_setups do
    setups := timed_setup spec ~seed :: !setups
  done;
  let o = p0.open_ in
  (* Exact response times (completion minus due time) of every request of
     the verifying pass. *)
  let totals =
    match o.collector with
    | Some sc ->
        Array.of_list
          (List.map (fun (r : Obs.Span.rec_view) -> ms r.Obs.Span.rv_total) (Obs.Span.records sc))
    | None -> [||]
  in
  Array.sort compare totals;
  let q x =
    match Pb.quantile_sorted totals x with
    | Some v -> v
    | None ->
        Pb.check tally false (fun () ->
            Printf.sprintf "%s: q%g over %d samples is below the sample floor" spec.name x
              (Array.length totals));
        nan
  in
  let host_plain = host !plain in
  let setup_s = Pb.median !setups in
  let vlat50 = q 0.5 and vlat99 = q 0.99 in
  let b0 = Option.get p0.batch in
  let vmax = b0.vmax in
  let speedup = vmax *. float_of_int p0.seq_ns /. 1e9 in
  let overloaded = o.delivered /. o.offered < 0.95 in
  let layers =
    match !traced with
    | [] -> []
    | tp :: _ ->
        let probes = Probes.run () in
        Layers.complete
          (layers spec tp ~probes ~host_plain ~host_off:(host !others) ~host_traced:(host !traced))
  in
  {
    Pb.attempted = tally.Pb.t_attempted;
    failed = tally.Pb.t_failed;
    failures = List.rev tally.Pb.t_why;
    e2e =
      [
        Pb.metric "setup_s" "s" setup_s;
        Pb.metric "ops_per_s" "1/s" vmax;
        Pb.metric "speedup" "x" speedup;
        Pb.metric "lat_p50_ms" "ms" vlat50;
        Pb.metric "lat_p99_ms" "ms" vlat99;
        Pb.metric "heap_peak_mb" "MB" heap;
      ];
    named =
      [
        Pb.metric "host_us_per_req" "us" host_plain;
        Pb.metric "vlat_p50_ms" "ms" vlat50;
        Pb.metric "vlat_p99_ms" "ms" vlat99;
        Pb.metric "vmax_rps" "1/s" vmax;
      ];
    layers;
    labels =
      [
        ("overloaded", string_of_bool overloaded);
        ("offered_rps", Printf.sprintf "%.3f" o.offered);
        ("delivered_rps", Printf.sprintf "%.3f" o.delivered);
        ("vlat_samples", string_of_int o.completed);
        ("vmax_samples", string_of_int b0.completed);
        ("host_windows", string_of_int (List.length (List.concat_map (fun p -> p.open_.windows) !plain)));
        ("passes", string_of_int (2 + !step));
        ("generator_late_max_us", Printf.sprintf "%.3f" (float_of_int o.probe.late_max /. 1e3));
      ];
  }
