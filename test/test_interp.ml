(* The reference interpreter against its test-only oracle
   ([Interp_oracle], the direct Hashtbl reading of the IR).  [Interp.run]
   resolves a loop into a register file before running it; these tests
   pin that it changes nothing observable: arrays, live-outs, externals,
   iterations and [work_ns] are equal, and the [?profile] floats are
   bit-identical — including after a run that raises part-way. *)

open Parcae_ir

let check_bool = Alcotest.(check bool)

let fresh_profile loop = Array.make (Array.length (Loop.nodes loop)) 0.1

(* Where the two interpreters disagree on [loop], by field ([] when they
   agree).  Profiles start at 0.1 so the float sums are not plain
   integers; [test_profile_order] pins the order of the additions. *)
let mismatches ?max_iters loop =
  let p = fresh_profile loop and q = fresh_profile loop in
  let a = Interp.run ~profile:p ?max_iters loop in
  let b = Interp_oracle.run ~profile:q ?max_iters loop in
  let bits = Array.map Int64.bits_of_float in
  List.filter_map
    (fun (field, same) -> if same then None else Some field)
    [
      ("arrays", a.Interp.arrays = b.Interp.arrays);
      ("live_out", a.Interp.live_out = b.Interp.live_out);
      ("externals", a.Interp.externals = b.Interp.externals);
      ("iterations", a.Interp.iterations = b.Interp.iterations);
      ("work_ns", a.Interp.work_ns = b.Interp.work_ns);
      ("profile", bits p = bits q);
    ]

let agree ?max_iters what loop =
  Alcotest.(check (list string)) (what ^ ": fields differing from the oracle") []
    (mismatches ?max_iters loop)

let test_kernels () =
  List.iter (fun (k : Kernels.expectation) -> agree k.Kernels.k_name (k.Kernels.make ())) Kernels.suite;
  agree "adaptive" (Kernels.adaptive ~n:500 ());
  agree "finegrain" (Kernels.finegrain ~n:500 ());
  agree "statecarry" (Kernels.statecarry ~n:500 ());
  (* the constructors outside [Kernels.suite] at other sizes too *)
  List.iter
    (fun n ->
      agree "url" (Kernels.url ~n ());
      agree "montecarlo" (Kernels.montecarlo ~n ()))
    [ 0; 1; 7 ]

let test_samples () =
  let dir = "../../../examples/kernels" in
  let dir = if Sys.file_exists dir then dir else "examples/kernels" in
  let files =
    Sys.readdir dir |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f ".loop")
  in
  check_bool "found sample kernels" true (List.length files >= 4);
  List.iter (fun f -> agree f (Parser.parse_file (Filename.concat dir f))) files

let prop_kgen =
  QCheck.Test.make ~name:"interp: agrees with the oracle on Kgen kernels" ~count:50
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      match mismatches (Kgen.generate ~seed).Kgen.g_loop with
      | [] -> true
      | fields -> QCheck.Test.fail_reportf "seed %d differs in %s" seed (String.concat ", " fields))

(* A While loop whose exit never fires: only [max_iters] stops it.  It
   stores, emits and carries two phis (one swapping through the other) so
   a truncated run has state to compare. *)
let endless () =
  let b = Builder.create "endless" in
  Builder.array b "ring" (Array.make 8 0);
  let i = Builder.induction b ~from:0 ~step:1 in
  let x = Builder.phi b ~init:(Instr.Const 5) in
  let y = Builder.phi b ~init:(Instr.Const 11) in
  let slot = Builder.binop b Instr.And (Instr.Reg i) (Instr.Const 7) in
  let old = Builder.load b "ring" (Instr.Reg slot) in
  let v = Builder.add b (Instr.Reg old) (Instr.Reg x) in
  Builder.store b "ring" (Instr.Reg slot) (Instr.Reg v);
  Builder.work b (Instr.Reg slot);
  ignore (Builder.call ~returns:false b "emit" (Instr.Reg y));
  let never = Builder.binop b Instr.Lt (Instr.Reg i) (Instr.Const 0) in
  Builder.break_if b (Instr.Reg never);
  Builder.set_carry b ~phi:x ~carry:y;
  Builder.set_carry b ~phi:y ~carry:v;
  Builder.live_out b x;
  Builder.live_out b y;
  Builder.finish ~trip:Loop.While b

let test_while () =
  List.iter
    (fun max_iters ->
      agree (Printf.sprintf "endless, max_iters %d" max_iters) ~max_iters (endless ());
      (* stringsearch breaks after 40 iterations: below that max_iters
         stops it, above that its Break_if does *)
      agree (Printf.sprintf "stringsearch, max_iters %d" max_iters) ~max_iters
        (Kernels.stringsearch ~n:40 ()))
    [ 0; 1; 17; 39; 40; 41; 100 ];
  let r = Interp.run ~max_iters:17 (endless ()) in
  Alcotest.(check int) "max_iters stops the endless loop" 17 r.Interp.iterations

(* Work of 2^53 ns on a profile cell holding 0.5: adding the base cost
   first gives (0.5 + 1) + 2^53 = 2^53 + 2, while any other order rounds
   the 1.5 away and gives 2^53.  Integer-valued kernels rarely expose the
   order, so it is pinned here. *)
let test_profile_order () =
  let big = 1 lsl 53 in
  let loop = Loop.create ~name:"order" ~trip:(Loop.Count 1) [ Instr.Work { amount = Instr.Const big } ] in
  let expected = Int64.bits_of_float ((0.5 +. 1.0) +. float_of_int big) in
  List.iter
    (fun (what, run) ->
      let profile = [| 0.5 |] in
      let r = run ~profile loop in
      Alcotest.(check int64) (what ^ ": base cost, then Work amount") expected
        (Int64.bits_of_float profile.(0));
      Alcotest.(check int) (what ^ ": work_ns") (big + 1) r.Interp.work_ns)
    [
      ("interp", fun ~profile l -> Interp.run ~profile l);
      ("oracle", fun ~profile l -> Interp_oracle.run ~profile l);
    ]

(* [arr] has 4 cells and the loop runs 6 iterations; an emit before the
   access leaves a trace in the externals of the failed run. *)
let out_of_bounds ~store =
  let b = Builder.create (if store then "oob-store" else "oob-load") in
  Builder.array b "a" (Array.make 4 1);
  let i = Builder.induction b ~from:0 ~step:1 in
  ignore (Builder.call ~returns:false b "emit" (Instr.Reg i));
  Builder.work b (Instr.Const 3);
  if store then Builder.store b "a" (Instr.Reg i) (Instr.Reg i)
  else ignore (Builder.load b "a" (Instr.Reg i));
  Builder.finish ~trip:(Loop.Count 6) b

let test_out_of_bounds () =
  List.iter
    (fun store ->
      let loop = out_of_bounds ~store in
      let msg = loop.Loop.name ^ (if store then ": store" else ": load") ^ " out of bounds" in
      let run interp =
        let ext = Externals.create () and profile = fresh_profile loop in
        Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
            ignore (interp ~externals:ext ~profile loop));
        (Externals.observe ext, Array.map Int64.bits_of_float profile)
      in
      let ext_a, prof_a = run (fun ~externals ~profile l -> Interp.run ~externals ~profile l) in
      let ext_b, prof_b = run (fun ~externals ~profile l -> Interp_oracle.run ~externals ~profile l) in
      check_bool (msg ^ ": externals of the failed run") true (ext_a = ext_b);
      check_bool (msg ^ ": partial profile") true (prof_a = prof_b);
      Alcotest.(check int) (msg ^ ": calls before the fault") 5 ext_a.Externals.obs_calls)
    [ false; true ]

(* Registers read before the iteration defines them are rejected when the
   loop is resolved, before any instruction runs (so even at trip 0), and
   never read a previous iteration's value. *)
let test_read_before_def () =
  let reject what body msg =
    let loop = Loop.create ~name:"early" ~trip:(Loop.Count 0) body in
    let ext = Externals.create () and profile = fresh_profile loop in
    Alcotest.check_raises what (Invalid_argument msg) (fun () ->
        ignore (Interp.run ~externals:ext ~profile loop));
    Alcotest.(check int) (what ^ ": nothing ran") 0 (Externals.observe ext).Externals.obs_calls;
    check_bool (what ^ ": profile untouched") true (Array.for_all (fun x -> x = 0.1) profile)
  in
  let emit = Instr.Call { dst = None; fn = "emit"; arg = Instr.Const 1; commutative = false } in
  let def1 = Instr.Binop { dst = 1; op = Instr.Add; a = Instr.Const 0; b = Instr.Const 1 } in
  let use1 = Instr.Binop { dst = 2; op = Instr.Add; a = Instr.Reg 1; b = Instr.Const 1 } in
  reject "use before def" [ emit; use1; def1 ] "early: r1 read before its definition (r2 = add r1, 1)";
  reject "self use"
    [ emit; Instr.Binop { dst = 1; op = Instr.Add; a = Instr.Reg 1; b = Instr.Const 1 } ]
    "early: r1 read before its definition (r1 = add r1, 1)";
  reject "store of a later def"
    [ emit; Instr.Store { arr = "a"; idx = Instr.Const 0; v = Instr.Reg 1 }; def1 ]
    "early: r1 read before its definition (store a[0], r1)";
  (* defined in program order, the same body is accepted *)
  let ok = Loop.create ~name:"ok" ~trip:(Loop.Count 3) [ emit; def1; use1 ] in
  Alcotest.(check int) "def before use runs" 3 (Interp.run ok).Interp.externals.Externals.obs_calls

let test_unknown_call () =
  let call = Instr.Call { dst = Some 2; fn = "nope"; arg = Instr.Const 0; commutative = false } in
  let exit_first = Instr.Break_if { cond = Instr.Const 1 } in
  let loop body = Loop.create ~name:"calls" ~trip:Loop.While body in
  Alcotest.(check int) "an unreached unknown call is harmless" 0
    (Interp.run (loop [ exit_first; call ])).Interp.iterations;
  Alcotest.check_raises "a reached unknown call raises"
    (Invalid_argument "Externals.call: unknown function nope") (fun () ->
      ignore (Interp.run (loop [ call; exit_first ])))

let test_equal_observable_arity () =
  let r = Interp.run (Kernels.histogram ~n:20 ()) in
  let extra = { r with Interp.arrays = r.Interp.arrays @ [ ("extra", [| 1 |]) ] } in
  check_bool "reflexive" true (Interp.equal_observable r r);
  check_bool "more arrays" false (Interp.equal_observable r extra);
  check_bool "fewer arrays" false (Interp.equal_observable extra r);
  check_bool "no arrays" false (Interp.equal_observable { r with Interp.arrays = [] } r)

let suite =
  [
    Alcotest.test_case "interp: oracle on every kernel constructor" `Quick test_kernels;
    Alcotest.test_case "interp: oracle on sample .loop files" `Quick test_samples;
    QCheck_alcotest.to_alcotest prop_kgen;
    Alcotest.test_case "interp: oracle on While loops (Break_if, max_iters)" `Quick test_while;
    Alcotest.test_case "interp: profile order (base cost, then Work)" `Quick test_profile_order;
    Alcotest.test_case "interp: out-of-bounds messages and partial state" `Quick test_out_of_bounds;
    Alcotest.test_case "interp: read before definition rejected" `Quick test_read_before_def;
    Alcotest.test_case "interp: unknown calls raise only when executed" `Quick test_unknown_call;
    Alcotest.test_case "interp: equal_observable on differing array counts" `Quick
      test_equal_observable_arity;
  ]
