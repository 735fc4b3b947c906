(* native-pipe: produce | transform x2 | consume on a 2-domain native
   engine, load generated in-process.

   The transform does benchmark-owned deterministic integer work (about
   5 us per item on a 2-vCPU Xeon VM), not [Engine.compute], so spin
   calibration cannot move the result and the consumer's order-independent
   checksum can be compared with a sequential reference.  A round is a
   saturating burst (throughput, and latency with every item due at the
   burst's start) followed by an open loop at a fixed light rate (wake-up
   latency from each item's due time); rounds repeat until the run's time
   is spent. *)

module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Config = Parcae_core.Config
module Task = Parcae_core.Task
module Task_status = Parcae_core.Task_status
module Pipeline = Parcae_core.Pipeline
module Executor = Parcae_runtime.Executor
module Native = Parcae_native.Engine
module Obs = Parcae_obs
module Rng = Parcae_util.Rng

let name = "native-pipe"
let pool = 2
(* Short rounds, many of them: the best decile over rounds needs rounds
   the host left alone, and short ones are likelier to be. *)
let burst_items () = if !Pb.tiny then 5_000 else 10_000
let open_items () = 2_000
let open_rate = 20_000.0
let work_rounds = 1_000

(* The transform's work: an integer mix of [work_rounds] xorshift steps,
   seeded by the item and the run's seed. *)
let work ~salt id =
  let x = ref ((id * 0x9E3779B1) lxor salt lor 1) in
  for _ = 1 to work_rounds do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    x := v lxor (v lsl 17)
  done;
  !x land 0xFFFF_FFFF

(* A consumed item: its id marks the bitmap and its transform output goes
   into an order-independent sum. *)
type sink = {
  ids : Pb.ids;
  out : int array;  (* transform output by id *)
  mutable sum : int;
  mutable consumed : int;
  mutable last_ns : int;  (* engine time of the latest consume *)
  lat : Obs.Hdr.t;  (* consume time - due time, ns *)
}

let make_sink n = { ids = Pb.ids n; out = Array.make n 0; sum = 0; consumed = 0; last_ns = 0; lat = Obs.Hdr.create () }

(* Build the pipeline over [n] items.  [due] is [None] for a burst (every
   item falls due when the producer first runs, and it sends as fast as
   the channel takes them) or the open-loop schedule, in ns after that
   first run. *)
let launch eng ~salt ~n ~due ~sink =
  let q1 = Chan.create ~capacity:256 eng "np-q1" and q2 = Chan.create ~capacity:256 eng "np-q2" in
  let next = ref 0 and t0 = ref (-1) in
  let late_max = ref 0 in
  let produce =
    Pipeline.source ~name:"produce" ~forward:(Pipeline.forward_to q1) (fun _ctx ->
        let id = !next in
        if id >= n then Task_status.Complete
        else begin
          if !t0 < 0 then t0 := Engine.now ();
          (match due with
          | None -> ()
          | Some d ->
              let at = !t0 + d.(id) in
              if Engine.now () < at then Engine.sleep_until at;
              late_max := max !late_max (Engine.now () - at));
          Pipeline.send q1 id;
          next := id + 1;
          Task_status.Iterating
        end)
  in
  let transform =
    Pipeline.drain_stage ~name:"transform" ~input:q1 ~load:(Pipeline.load q1) ~next:q2
      ~forward:(Pipeline.forward_to q2) (fun _ctx id ->
        if !Pb.tracing then begin
          let t0 = Pb.now_ns () in
          sink.out.(id) <- work ~salt id;
          Pb.record "stage.transform" (Pb.now_ns () - t0)
        end
        else sink.out.(id) <- work ~salt id;
        Task_status.Iterating)
  in
  let consume =
    Pipeline.drain_stage ~ttype:Task.Seq ~name:"consume" ~input:q2 ~forward:(fun _ -> ())
      (fun _ctx id ->
        let due_ns = match due with None -> 0 | Some d -> d.(id) in
        Obs.Hdr.observe sink.lat (max 0 (Engine.now () - (!t0 + due_ns)));
        Pb.mark sink.ids id;
        sink.sum <- sink.sum + sink.out.(id);
        sink.consumed <- sink.consumed + 1;
        sink.last_ns <- Engine.now ();
        Task_status.Iterating)
  in
  let stages = [ produce; transform; consume ] in
  let pd = Task.descriptor ~name:"native-pipe" (List.map (fun s -> s.Pipeline.task) stages) in
  let on_reset = Pipeline.make_reset ~stages ~channels:[ q1; q2 ] in
  let config = Config.make [ Config.seq_task; Config.task 2; Config.seq_task ] in
  ignore (Executor.launch ~budget:4 ~name:"native-pipe" eng [ pd ] ~on_reset config);
  (late_max, t0)

(* Each round draws its own arrival times, so a run's latency figures do
   not hang on one schedule's chance clusters. *)
let schedule ~seed ~round =
  let rng = Rng.create (Hashtbl.hash (seed, round, "native-pipe")) in
  let t = ref 0.0 in
  Array.init (open_items ()) (fun _ ->
      t := !t +. Rng.exponential rng ~rate:open_rate;
      int_of_float (!t *. 1e9))

(* The sequential reference: the same work on one domain. *)
let reference ~salt n =
  let t0 = Pb.now_ns () in
  let s = ref 0 in
  for id = 0 to n - 1 do
    s := !s + work ~salt id
  done;
  (!s, float_of_int (Pb.now_ns () - t0) /. float_of_int n)

type round = {
  setup_s : float;
  p50_us : float;  (* open-loop latency quantiles of this round *)
  p99_us : float;
  burst_p50_us : float;  (* burst latency quantiles of this round *)
  burst_p99_us : float;
  seq_ns : float;  (* single-domain ns per item, this round *)
  items_per_s : float;
  late_max_ns : int;
  offered : float;  (* open loop: items/s of the round's schedule *)
  delivered : float;  (* open loop: items/s from the first due time to the last consume *)
  spawned : int;
  steals : int;
  attempts : int;
  burst_shares : (Obs.Timeline.state * float) list;  (* traced rounds only *)
  open_shares : (Obs.Timeline.state * float) list;
  minor_words : float;
  majors : int;
}

(* The single-domain baseline is re-measured every round on this slice of
   the burst, so its best decile, like the burst's, comes from rounds the
   host left alone. *)
let seq_slice = 2_000

(* Run [f] (an [Engine.run]) under a fresh scheduler timeline when traced,
   and return each state's share of the lanes' time. *)
let shares_of ~traced ne f =
  if not traced then begin
    ignore (f ());
    []
  end
  else begin
    let tl = Obs.Timeline.create ~lanes:pool ~now:(Native.now ne) () in
    Obs.Timeline.with_timeline tl (fun () ->
        ignore (f ());
        Obs.Timeline.merged_shares (Obs.Timeline.breakdown tl ~until:(Native.now ne)))
  end

(* [into], when given, also receives the round's open-loop latencies. *)
let run_round ?into ~salt ~due ~tally ~refs ~corrupt ~traced () =
  let t0 = Pb.now_ns () in
  let burst_items = burst_items () and open_items = open_items () in
  let eng = Pb.span "engine.create_native" (fun () -> Engine.create_native ~pool ()) in
  let ne = Option.get (Engine.native_engine eng) in
  let setup_s = Pb.secs_since t0 in
  let bsink = make_sink burst_items in
  let gc0 = Gc.stat () in
  let st0 = Native.steal_count ne and at0 = Native.steal_attempt_count ne in
  (* The pool starts on the pipeline as soon as it is launched, so the
     burst is timed from the launch. *)
  let b0 = Pb.now_ns () in
  let burst_shares =
    shares_of ~traced ne (fun () ->
        Pb.span "pipeline.launch" (fun () ->
            ignore (launch eng ~salt ~n:burst_items ~due:None ~sink:bsink));
        Pb.span "engine.run.burst" (fun () -> Engine.run eng))
  in
  let burst_ns = Pb.now_ns () - b0 in
  let steals = Native.steal_count ne - st0 and attempts = Native.steal_attempt_count ne - at0 in
  let gc1 = Gc.stat () in
  let _, seq_ns = reference ~salt (min seq_slice burst_items) in
  let osink = make_sink open_items in
  let late, ot0 = launch eng ~salt ~n:open_items ~due:(Some due) ~sink:osink in
  let open_shares =
    shares_of ~traced ne (fun () -> Pb.span "engine.run.open" (fun () -> Engine.run eng))
  in
  let spawned = Native.pool_size ne in
  Engine.shutdown eng;
  Option.iter (fun into -> Obs.Hdr.merge ~into osink.lat) into;
  let q (s : sink) what x =
    let count = Obs.Hdr.count s.lat in
    if Pb.quantile_supported ~count x then float_of_int (Obs.Hdr.quantile s.lat x) /. 1e3
    else begin
      Pb.check tally false (fun () ->
          Printf.sprintf "%s/%s: q%g over %d samples is below the sample floor" name what x count);
      nan
    end
  in
  let ref_burst, ref_open = refs in
  let check (s : sink) n expect what =
    let sum = if corrupt then s.sum + 1 else s.sum in
    Pb.check tally (s.consumed = n) (fun () ->
        Printf.sprintf "%s/%s: consumed %d of %d items" name what s.consumed n);
    Pb.check_ids tally ~what:(name ^ "/" ^ what) s.ids;
    Pb.check tally (sum = expect) (fun () ->
        Printf.sprintf "%s/%s: checksum %d differs from the sequential reference %d" name what sum
          expect)
  in
  check bsink burst_items ref_burst "burst";
  check osink open_items ref_open "open";
  {
    setup_s;
    p50_us = q osink "open" 0.5;
    p99_us = q osink "open" 0.99;
    burst_p50_us = q bsink "burst" 0.5;
    burst_p99_us = q bsink "burst" 0.99;
    seq_ns;
    items_per_s = float_of_int burst_items /. (float_of_int burst_ns *. 1e-9);
    late_max_ns = !late;
    offered = float_of_int open_items /. (float_of_int due.(open_items - 1) *. 1e-9);
    delivered = float_of_int open_items /. (float_of_int (osink.last_ns - !ot0) *. 1e-9);
    spawned;
    steals;
    attempts;
    burst_shares;
    open_shares;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    majors = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

let run ?(corrupt = false) ~seed ~seconds ~trace () =
  let tally = Pb.tally () in
  let t_start = Pb.now_ns () in
  let salt = seed * 0x5bd1e995 in
  let burst_items = burst_items () and open_items = open_items () in
  let ref_burst, _ = reference ~salt burst_items in
  let ref_open, _ = reference ~salt open_items in
  let refs = (ref_burst, ref_open) in
  let rounds = ref [] and traced = ref [] in
  let all_lat = Obs.Hdr.create () in
  let step = ref 0 in
  (* Round 0 warms up (domain spawn paths, code, heap) and is dropped. *)
  ignore (run_round ~salt ~due:(schedule ~seed ~round:0) ~tally ~refs ~corrupt ~traced:false ());
  while !step < 3 || Pb.secs_since t_start < seconds do
    let tr = trace && !step mod 2 = 1 in
    let due = schedule ~seed ~round:(!step + 1) in
    let r =
      if tr then Pb.with_tracing (run_round ~salt ~due ~tally ~refs ~corrupt ~traced:tr)
      else run_round ~into:all_lat ~salt ~due ~tally ~refs ~corrupt ~traced:tr ()
    in
    if tr then traced := r :: !traced else rounds := r :: !rounds;
    incr step
  done;
  let rs = !rounds in
  (* Every end-to-end wall-clock figure is per round, and the result is
     the best decile across rounds: a round the host disturbed moves that
     round, not the result.  Speedup divides the best-decile single-domain
     time per item by the burst's best-decile time per item; the two may
     come from different rounds.  Pairing them per round reads a round
     whose baseline the host slowed as a speedup above 2 on 2 domains,
     and a best decile of the products picks exactly those rounds. *)
  let best pick f = pick (List.map f rs) in
  let med f = Pb.median (List.map f rs) in
  let items_per_s = best Pb.high_decile (fun r -> r.items_per_s) in
  let p50_us = best Pb.low_decile (fun r -> r.p50_us) in
  let p99_us = best Pb.low_decile (fun r -> r.p99_us) in
  let burst_p50_us = best Pb.low_decile (fun r -> r.burst_p50_us) in
  let burst_p99_us = best Pb.low_decile (fun r -> r.burst_p99_us) in
  let seq_ns = best Pb.low_decile (fun r -> r.seq_ns) in
  let speedup = seq_ns *. items_per_s *. 1e-9 in
  let count = Obs.Hdr.count all_lat in
  (* The best decile hides a tail the program causes in most but not all
     rounds; the pooled samples of every untraced round keep it, host
     stalls included. *)
  let pooled x =
    if Pb.quantile_supported ~count x then float_of_int (Obs.Hdr.quantile all_lat x) /. 1e3
    else begin
      Pb.check tally false (fun () ->
          Printf.sprintf "%s: pooled q%g over %d samples is below the sample floor" name x count);
      nan
    end
  in
  let pooled_p50_us = pooled 0.5 and pooled_p99_us = pooled 0.99 in
  let spawned = List.fold_left (fun acc r -> min acc r.spawned) max_int rs in
  let degraded = spawned < pool in
  let offered = med (fun r -> r.offered) and delivered = med (fun r -> r.delivered) in
  let overloaded = med (fun r -> r.delivered /. r.offered) < 0.95 in
  let late_max_us =
    float_of_int (List.fold_left (fun acc r -> max acc r.late_max_ns) 0 (rs @ !traced)) /. 1e3
  in
  let setup_s = Pb.median (List.map (fun r -> r.setup_s) (rs @ !traced)) in
  let wall_ns_per_item = 1e9 /. items_per_s in
  let layers =
    match !traced with
    | [] -> []
    | trs ->
        let per_item f = Pb.median (List.map (fun r -> f r /. float_of_int burst_items) trs) in
        let share phase st =
          Pb.median
            (List.map (fun r -> Option.value (List.assoc_opt st (phase r)) ~default:0.0) trs)
        in
        let burst r = r.burst_shares and open_loop r = r.open_shares in
        let traced_ips = Pb.high_decile (List.map (fun r -> r.items_per_s) trs) in
        let probes = Probes.run () in
        Layers.complete
          ([
             ("host.us_per_op", wall_ns_per_item /. 1e3);
             ("loadgen.late_max_us", late_max_us);
             ("native.steals_per_item", per_item (fun r -> float_of_int r.steals));
             ("native.steal_attempts_per_item", per_item (fun r -> float_of_int r.attempts));
             ("native.run_share", share burst Obs.Timeline.Run);
             ("native.steal_search_share", share burst Obs.Timeline.Steal_search);
             ("native.park_share", share open_loop Obs.Timeline.Park);
             ("native.chan_wait_share", share open_loop Obs.Timeline.Chan_wait);
             ("native.seq_ns_per_item", seq_ns);
             ("native.overhead_ns_per_item", (float_of_int pool *. wall_ns_per_item) -. seq_ns);
             ("native.open_lat_p50_us", p50_us);
             ("native.open_lat_p99_us", p99_us);
             ("native.lat_p50_pooled_us", pooled_p50_us);
             ("native.lat_p99_pooled_us", pooled_p99_us);
             ("gc.minor_words_per_req", med (fun r -> r.minor_words /. float_of_int burst_items));
             ("gc.major_collections", med (fun r -> float_of_int r.majors));
             ("bench.trace_overhead_frac", (items_per_s /. traced_ips) -. 1.0);
           ]
          @ Layers.of_probes probes)
  in
  {
    Pb.attempted = tally.Pb.t_attempted;
    failed = tally.Pb.t_failed;
    failures = List.rev tally.Pb.t_why;
    e2e =
      [
        Pb.metric "setup_s" "s" setup_s;
        Pb.metric "ops_per_s" "1/s" items_per_s;
        Pb.metric "speedup" "x" speedup;
        (* The gated latencies are the burst's.  The open loop's are
           wake-ups of sleeping domains, which is what the host's steal
           moves most: at 24% steal its p50 rose by half where the
           burst's rose by an eighth.  Its p99 falls inside the
           stop-the-world minor collections (about one every 18 ms on a
           2-vCPU VM, each holding up some ten arrivals for up to 0.6 ms),
           whose length follows how soon the host wakes a domain; its
           best decile spread by 0.1 to 0.4 of its median across seeds.
           They are printed as [lat_p50_us]/[lat_p99_us] and reported per
           layer as [native.open_lat_p50_us]/[native.open_lat_p99_us]. *)
        Pb.metric "lat_p50_ms" "ms" (burst_p50_us /. 1e3);
        Pb.metric "lat_p99_ms" "ms" (burst_p99_us /. 1e3);
        Pb.metric "heap_peak_mb" "MB" (Pb.heap_peak_mb ());
      ];
    named =
      [
        Pb.metric "items_per_s" "1/s" items_per_s;
        Pb.metric "host_us_per_item" "us" (wall_ns_per_item /. 1e3);
        Pb.metric "lat_p50_us" "us" p50_us;
        Pb.metric "lat_p99_us" "us" p99_us;
        Pb.metric "burst_lat_p50_us" "us" burst_p50_us;
        Pb.metric "burst_lat_p99_us" "us" burst_p99_us;
        Pb.metric "lat_p50_us_pooled" "us" pooled_p50_us;
        Pb.metric "lat_p99_us_pooled" "us" pooled_p99_us;
      ];
    layers;
    labels =
      [
        ("degraded", string_of_bool degraded);
        ("requested_pool", string_of_int pool);
        ("spawned_pool", string_of_int spawned);
        ("overloaded", string_of_bool overloaded);
        ("offered_per_s", Printf.sprintf "%.1f" offered);
        ("delivered_per_s", Printf.sprintf "%.1f" delivered);
        ("open_lat_samples_pooled", string_of_int count);
        ("burst_lat_samples_per_round", string_of_int burst_items);
        ("open_lat_samples_per_round", string_of_int open_items);
        ("burst_rounds", string_of_int (List.length rs));
        ("generator_late_max_us", Printf.sprintf "%.3f" late_max_us);
      ];
  }
