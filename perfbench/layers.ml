(* The per-layer metrics a traced run prints, in BENCHMARK.json order.
   Every workload prints all of them; a layer the workload never enters
   reads 0 (no steals on the simulator, no mechanism on ferret, ...). *)

let all =
  [
    ("host.us_per_op", "us");
    ("loadgen.send_ns", "ns");
    ("loadgen.late_max_us", "us");
    ("pool.hit_ratio", "ratio");
    ("pool.acquire_release_ns", "ns");
    ("chan.ops_per_req", "count");
    ("chan.items_per_recv", "count");
    ("chan.items_per_recv_batch", "count");
    ("chan.block_ms_per_req", "ms");
    ("chan.sendrecv_ns", "ns");
    ("sim.ctx_switches_per_req", "count");
    ("sim.threads_spawned_per_req", "count");
    ("sim.busy_core_frac", "ratio");
    ("sim.turn_ns", "ns");
    ("obs.overhead_us_per_req", "us");
    ("obs.span_ns", "ns");
    ("obs.span_finish_ns", "ns");
    ("obs.counter_inc_ns", "ns");
    ("obs.hdr_observe_ns", "ns");
    ("obs.span_drops", "count");
    ("span.queue_ms_p99", "ms");
    ("span.chan_ms_p99", "ms");
    ("span.compute_ms_p99", "ms");
    ("span.reconfig_ms_p99", "ms");
    ("runtime.reconfigs", "count");
    ("runtime.light_resizes", "count");
    ("runtime.pause_wait_ms", "ms");
    ("runtime.reconfig_phase_ms.signal", "ms");
    ("runtime.reconfig_phase_ms.barrier", "ms");
    ("runtime.reconfig_phase_ms.flush", "ms");
    ("runtime.reconfig_phase_ms.restart", "ms");
    ("decima.hook_ns", "ns");
    ("mech.decide_us", "us");
    ("mech.adopted_frac", "ratio");
    ("ctrl.time_to_monitor_ms", "ms");
    ("ctrl.reconfigs_per_kernel", "count");
    ("nona.compile_ms", "ms");
    ("nona.launch_ms", "ms");
    ("native.steals_per_item", "count");
    ("native.steal_attempts_per_item", "count");
    ("native.run_share", "ratio");
    ("native.park_share", "ratio");
    ("native.steal_search_share", "ratio");
    ("native.chan_wait_share", "ratio");
    ("native.seq_ns_per_item", "ns");
    ("native.overhead_ns_per_item", "ns");
    ("native.open_lat_p50_us", "us");
    ("native.open_lat_p99_us", "us");
    ("native.lat_p50_pooled_us", "us");
    ("native.lat_p99_pooled_us", "us");
    ("gc.minor_words_per_req", "words");
    ("gc.major_collections", "count");
    ("budget.explained_frac", "ratio");
    ("budget.unexplained_us_per_req", "us");
    ("bench.trace_overhead_frac", "ratio");
  ]

(* Complete a workload's measured layers to the full list, in order. *)
let complete (measured : (string * float) list) =
  List.iter
    (fun (k, _) -> if not (List.mem_assoc k all) then invalid_arg ("Layers.complete: " ^ k))
    measured;
  List.map
    (fun (name, unit) ->
      let v = Option.value (List.assoc_opt name measured) ~default:0.0 in
      Pb.metric name unit (if Float.is_nan v then 0.0 else v))
    all

(* The microprobe rows every workload shares. *)
let of_probes (p : Probes.t) =
  [
    ("pool.acquire_release_ns", p.Probes.pool_ns);
    ("chan.sendrecv_ns", p.Probes.chan_ns);
    ("sim.turn_ns", p.Probes.turn_ns);
    ("obs.span_ns", p.Probes.span_ns);
    ("obs.span_finish_ns", p.Probes.finish_ns);
    ("obs.counter_inc_ns", p.Probes.inc_ns);
    ("obs.hdr_observe_ns", p.Probes.hdr_ns);
    ("decima.hook_ns", p.Probes.hook_ns);
  ]
