(* Allocation microbench: minor words per request on the serve path.

   The zero-allocation work (DESIGN.md section 14) is only honest if it is
   measured: this experiment runs the ferret and x264 serve loops on the
   simulator backend (ferret also with metrics and spans on) and a
   produce|transform|consume pipeline on the native backend, bracketing
   each run with [Gc] counters, and reports minor words allocated per
   completed request (host-side allocation — the tax the OCaml allocator
   charges the runtime itself, independent of the virtual-time cost
   model).

   Output: a table, plus BENCH_alloc.json for CI.  When a baseline file
   exists (bench/alloc_baseline.json, overridable via
   PARCAE_ALLOC_BASELINE), any workload whose words/request exceeds the
   committed baseline by more than 10% fails the run — the allocation
   regression gate. *)

module Engine = Parcae_platform.Engine
module Chan = Parcae_platform.Chan
module Config = Parcae_core.Config
module Task = Parcae_core.Task
module Task_status = Parcae_core.Task_status
module Pipeline = Parcae_core.Pipeline
module Pool = Parcae_core.Pool
module Executor = Parcae_runtime.Executor
module Json = Parcae_obs.Json
module Table = Parcae_util.Table
module Rng = Parcae_util.Rng
open Parcae_workloads

type sample = {
  s_name : string;
  s_backend : string;
  s_requests : int;
  s_minor_words : float;  (* allocator delta across the serve loop *)
  s_words_per_req : float;
  s_pool_hits : int;
  s_pool_misses : int;
}

(* Aggregate minor words across every domain: [Gc.minor_words] reads only
   the calling domain, which misses worker-domain allocation on the native
   backend.  [Gc.stat] performs a heap walk, so take it outside the timed
   region on the sim too for symmetry. *)
let minor_words_all () = (Gc.stat ()).Gc.minor_words

(* ---- simulator serve loops ---- *)

(* Run [m] batch requests through [make_app] under the named configuration
   and return the allocator delta around the serve loop (generation +
   pipeline + completion: everything [Engine.run] executes). *)
let measure_sim ~name ~config ~m make_app =
  let machine = Parcae_sim.Machine.xeon_x7460 in
  let eng = Engine.create machine in
  let budget = machine.Parcae_sim.Machine.cores in
  let app : App.t = make_app ~budget eng in
  let rng = Rng.create 17 in
  ignore
    (Load_gen.spawn_batch ~rng ~m ~queue:app.App.queue ~metrics:app.App.metrics eng);
  let horizon_ns = (m * app.App.seq_request_ns) + 20_000_000_000 in
  ignore
    (Executor.launch ~budget ~name eng app.App.schemes (App.config app config)
       ~on_pause:app.App.on_pause ~on_reset:app.App.on_reset);
  let hits0 = Pool.total_hits () and misses0 = Pool.total_misses () in
  let w0 = minor_words_all () in
  ignore (Engine.run ~until:horizon_ns eng);
  let dw = minor_words_all () -. w0 in
  let completed = Metrics.completed app.App.metrics in
  Engine.shutdown eng;
  if completed < m then
    failwith (Printf.sprintf "allocs/%s: completed %d of %d requests" name completed m);
  {
    s_name = name;
    s_backend = "sim";
    s_requests = completed;
    s_minor_words = dw;
    s_words_per_req = dw /. float_of_int completed;
    s_pool_hits = Pool.total_hits () - hits0;
    s_pool_misses = Pool.total_misses () - misses0;
  }

let measure_sim_ferret ?(m = 200) () =
  measure_sim ~name:"ferret" ~config:"even" ~m (fun ~budget eng ->
      Ferret.make ~budget eng)

(* The same ferret loop with a metrics registry and a span collector
   installed, so the instrumented serve path is gated too. *)
let measure_sim_ferret_observed ?(m = 200) () =
  let reg = Parcae_obs.Metrics.create () and sc = Parcae_obs.Span.create () in
  Parcae_obs.Metrics.with_registry reg (fun () ->
      Parcae_obs.Span.with_collector sc (fun () ->
          measure_sim ~name:"ferret-observed" ~config:"even" ~m (fun ~budget eng ->
              Ferret.make ~budget eng)))

let measure_sim_x264 ?(m = 150) () =
  measure_sim ~name:"x264" ~config:"outer-only" ~m (fun ~budget eng ->
      Transcode.make ~budget eng)

(* ---- native pipeline ---- *)

(* A small real-time run: produce | transform | consume over [items]
   requests with a light spin per item, allocation measured across every
   domain.  Mirrors exp_native's pipeline so the words/item number tracks
   the same code path BENCH_native times. *)
let measure_native ?(items = 400) () =
  let eng = Engine.create_native ~pool:2 () in
  let q1 = Chan.create ~capacity:64 eng "aq1" and q2 = Chan.create ~capacity:64 eng "aq2" in
  let produced = ref 0 and consumed = ref 0 in
  let produce =
    Pipeline.source ~name:"produce"
      ~forward:(Pipeline.forward_to q1)
      (fun _ctx ->
        if !produced >= items then Task_status.Complete
        else begin
          Pipeline.send q1 !produced;
          incr produced;
          Task_status.Iterating
        end)
  in
  let transform =
    Pipeline.drain_stage ~name:"transform" ~input:q1 ~load:(Pipeline.load q1)
      ~next:q2
      ~forward:(Pipeline.forward_to q2)
      (fun _ctx _v ->
        Engine.compute 20_000;
        Task_status.Iterating)
  in
  let consume =
    Pipeline.drain_stage ~ttype:Task.Seq ~name:"consume" ~input:q2
      ~forward:(fun _ -> ())
      (fun _ctx _ ->
        incr consumed;
        Task_status.Iterating)
  in
  let pd =
    Task.descriptor ~name:"alloc-pipe"
      [ produce.Pipeline.task; transform.Pipeline.task; consume.Pipeline.task ]
  in
  let on_reset =
    Pipeline.make_reset ~stages:[ produce; transform; consume ] ~channels:[ q1; q2 ]
  in
  let config = Config.make [ Config.seq_task; Config.task 2; Config.seq_task ] in
  let w0 = minor_words_all () in
  ignore (Executor.launch ~budget:4 ~name:"alloc-pipe" eng [ pd ] ~on_reset config);
  ignore (Engine.run eng);
  let dw = minor_words_all () -. w0 in
  Engine.shutdown eng;
  if !consumed <> items then
    failwith (Printf.sprintf "allocs/native: consumed %d of %d items" !consumed items);
  {
    s_name = "native-pipe";
    s_backend = "native";
    s_requests = items;
    s_minor_words = dw;
    s_words_per_req = dw /. float_of_int items;
    s_pool_hits = 0;
    s_pool_misses = 0;
  }

(* ---- baseline gate ---- *)

let baseline_path () =
  match Sys.getenv_opt "PARCAE_ALLOC_BASELINE" with
  | Some p -> p
  | None -> Filename.concat "bench" "alloc_baseline.json"

(* The committed baseline is a flat {name: words_per_request} object.  A
   sample regresses when it exceeds its baseline by more than 10%;
   workloads without a baseline entry pass (and should be added once
   their number stabilizes). *)
let check_baseline ~samples path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ ->
      Printf.printf "no baseline at %s; skipping regression gate\n" path;
      true
  | text -> (
      match Json.parse text with
      | Json.Obj fields ->
          let slack = 1.10 in
          List.for_all
            (fun s ->
              let base =
                match List.assoc_opt s.s_name fields with
                | Some (Json.Float f) -> Some f
                | Some (Json.Int i) -> Some (float_of_int i)
                | _ -> None
              in
              match base with
              | Some base ->
                  let ok = s.s_words_per_req <= base *. slack in
                  if not ok then
                    Printf.eprintf
                      "ALLOC REGRESSION: %s at %.1f words/request exceeds baseline \
                       %.1f by >10%%\n"
                      s.s_name s.s_words_per_req base;
                  ok
              | None ->
                  Printf.printf "no baseline entry for %s (%.1f words/request)\n"
                    s.s_name s.s_words_per_req;
                  true)
            samples
      | _ | (exception Json.Parse_error _) ->
          Printf.eprintf "malformed baseline %s\n" path;
          false)

let run () =
  (* Pools are process-wide, so each row starts with the pools the rows
     before it left: run in a fixed order, ferret-observed after ferret. *)
  let native = measure_native () in
  let x264 = measure_sim_x264 () in
  let ferret = measure_sim_ferret () in
  let ferret_observed = measure_sim_ferret_observed () in
  let samples = [ ferret; ferret_observed; x264; native ] in
  let t =
    Table.create ~title:"Allocation on the serve path (host minor words)"
      ~header:[ "workload"; "backend"; "requests"; "minor words"; "words/req"; "pool hit"; "pool miss" ]
  in
  List.iter
    (fun s ->
      Table.add_row t
        [
          s.s_name;
          s.s_backend;
          string_of_int s.s_requests;
          Printf.sprintf "%.0f" s.s_minor_words;
          Printf.sprintf "%.1f" s.s_words_per_req;
          string_of_int s.s_pool_hits;
          string_of_int s.s_pool_misses;
        ])
    samples;
  Table.print t;
  let json =
    Json.Obj
      (Prov.provenance ()
      @ [
          ( "samples",
            Json.List
              (List.map
                 (fun s ->
                   Json.Obj
                     [
                       ("name", Json.Str s.s_name);
                       ("backend", Json.Str s.s_backend);
                       ("requests", Json.Int s.s_requests);
                       ("minor_words", Json.Float s.s_minor_words);
                       ("minor_words_per_request", Json.Float s.s_words_per_req);
                       ("pool_hits", Json.Int s.s_pool_hits);
                       ("pool_misses", Json.Int s.s_pool_misses);
                     ])
                 samples) );
        ])
  in
  Parcae_obs.Export.write_file "BENCH_alloc.json" (Json.to_string json ^ "\n");
  Printf.printf "wrote BENCH_alloc.json\n";
  if not (check_baseline ~samples (baseline_path ())) then exit 1
