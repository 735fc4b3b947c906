(* The benchmark executable: one workload per invocation, chosen by name.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

   Prints human-readable lines (provenance, labels, every metric by name
   and unit, failed checks), then as its last line one JSON object with
   the keys correct, attempted, failed and metrics: the end-to-end set
   with --trace 0, the per-layer set with --trace 1.  A traced run also
   writes its spans, labels and metrics to
   perfbench/out/trace-WORKLOAD-seedN.json.  perfbench/run.py builds this
   executable and is the supported entry point. *)

(* Self-test hook: perturb the native consumer's checksum so the
   correctness check must report a failure. *)
let corrupt = ref false

let workloads =
  [
    ("sim-ferret-observed", fun ~seed ~seconds ~trace -> Serve.run Serve.ferret ~seed ~seconds ~trace);
    ("sim-x264-phased", fun ~seed ~seconds ~trace -> Serve.run Serve.x264 ~seed ~seconds ~trace);
    ("sim-nona-kernels", Kernels.run);
    ("native-pipe", fun ~seed ~seconds ~trace -> Native.run ~corrupt:!corrupt ~seed ~seconds ~trace ());
  ]

let usage () =
  prerr_endline "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny]";
  prerr_endline ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

(* Above this stolen share of the VM's CPU time, a native run's
   wall-clock figures measure the hypervisor, not the program. *)
let steal_limit = 0.05

let env k = Option.value (Sys.getenv_opt k) ~default:"unknown"

let provenance ~workload ~seed ~trace =
  [
    ("workload", Pb.json_str workload);
    ("seed", string_of_int seed);
    ("trace", string_of_bool trace);
    ("commit", Pb.json_str (env "PERFBENCH_COMMIT"));
    ("source_sha256", Pb.json_str (env "PERFBENCH_SOURCE"));
    ("ocaml_version", Pb.json_str Sys.ocaml_version);
    ("nproc", Pb.json_str (env "PERFBENCH_NPROC"));
    ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
  ]

let write_trace ~workload ~seed ~prov (r : Pb.result) =
  let dir = Filename.concat "perfbench" "out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
  let body =
    Pb.json_obj
      [
        ("provenance", Pb.json_obj prov);
        ("labels", Pb.json_obj (List.map (fun (k, v) -> (k, Pb.json_str v)) r.Pb.labels));
        ("end_to_end", Pb.metrics_json (r.Pb.e2e @ r.Pb.named));
        ("per_layer", Pb.metrics_json r.Pb.layers);
        ("spans", Pb.spans_json ());
      ]
  in
  Out_channel.with_open_text path (fun oc -> output_string oc (body ^ "\n"));
  Printf.printf "# wrote %s\n" path

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := (t = "1"); parse rest
    | "--tiny" :: rest -> Pb.tiny := true; parse rest
    | "--corrupt-checksum" :: rest -> corrupt := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run = match List.assoc_opt !workload workloads with Some r -> r | None -> usage () in
  let prov = provenance ~workload:!workload ~seed:!seed ~trace:!trace in
  Printf.printf "# provenance %s\n%!" (Pb.json_obj prov);
  let ticks = Pb.cpu_ticks () in
  let r : Pb.result = run ~seed:!seed ~seconds:!seconds ~trace:!trace in
  let steal = Pb.steal_frac ~since:ticks in
  let r = { r with Pb.labels = r.Pb.labels @ [ ("host_steal_frac", Printf.sprintf "%.4f" steal) ] } in
  List.iter (fun (k, v) -> Printf.printf "# label %s = %s\n" k v) r.Pb.labels;
  List.iter
    (fun (m : Pb.metric) -> Printf.printf "# metric %s = %s %s\n" m.Pb.m_name (Pb.num m.Pb.m_value) m.Pb.m_unit)
    (r.Pb.e2e @ r.Pb.named @ r.Pb.layers);
  Printf.printf "# metric fail_frac = %s ratio\n"
    (Pb.num (float_of_int r.Pb.failed /. float_of_int (max 1 r.Pb.attempted)));
  List.iter (fun f -> Printf.printf "# FAILED %s\n" f) r.Pb.failures;
  let labelled =
    List.exists (fun (k, v) -> (k = "overloaded" || k = "degraded") && v = "true") r.Pb.labels
    || (!workload = "native-pipe" && steal > steal_limit)
  in
  if labelled then
    print_endline
      "# NOTE this run is labelled (overloaded, degraded, or wall-clock figures under host steal): not a quotable result";
  if !trace then write_trace ~workload:!workload ~seed:!seed ~prov r;
  let metrics = if !trace then r.Pb.layers else r.Pb.e2e in
  print_endline
    (Pb.json_obj
       [
         ("correct", string_of_bool (r.Pb.failed = 0));
         ("attempted", string_of_int r.Pb.attempted);
         ("failed", string_of_int r.Pb.failed);
         ("metrics", Pb.metrics_json metrics);
       ])
