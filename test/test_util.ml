(* Unit and property tests for Parcae_util: RNG, statistics, priority queue,
   time series, table rendering. *)

open Parcae_util

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)

(* ---------------------------- Rng ---------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xa = Rng.float a and xb = Rng.float b in
  Alcotest.(check bool) "split streams differ" true (xa <> xb)

let test_rng_float_range () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_int_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (x >= 0 && x < 17)
  done

let test_rng_exponential_mean () =
  let r = Rng.create 11 in
  let n = 20_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential r ~rate:2.0
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f close to 0.5" mean)
    true
    (abs_float (mean -. 0.5) < 0.02)

let test_rng_gaussian_moments () =
  let r = Rng.create 13 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian r ~mu:5.0 ~sigma:2.0) in
  Alcotest.(check bool) "mean ~5" true (abs_float (Stats.mean xs -. 5.0) < 0.1);
  Alcotest.(check bool) "stddev ~2" true (abs_float (Stats.stddev xs -. 2.0) < 0.1)

(* Golden streams: the first 1000 draws of each sampler at two seeds,
   folded into an MD5 of their exact bit patterns, so any change to the
   generator's output, however small, changes a digest.  Simulations are
   reproducible across versions only while these hold. *)
let golden_digest n draw =
  let b = Buffer.create (n * 17) in
  for i = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "%Lx;" (draw i))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_streams seed =
  let fbits x = Int64.bits_of_float x in
  let int_bounds = [| 1; 2; 17; 1000; 1 lsl 40; max_int |] in
  let rates = [| 0.5; 2.0; 400.0 |] in
  let fresh f = let r = Rng.create seed in fun i -> f r i in
  [
    ("float", fresh (fun r _ -> fbits (Rng.float r)));
    ("int", fresh (fun r i -> Int64.of_int (Rng.int r int_bounds.(i mod 6))));
    ("bool", fresh (fun r _ -> if Rng.bool r then 1L else 0L));
    ("exponential", fresh (fun r i -> fbits (Rng.exponential r ~rate:rates.(i mod 3))));
    ("gaussian", fresh (fun r _ -> fbits (Rng.gaussian r ~mu:5.0 ~sigma:2.0)));
    ( "split",
      fresh (fun r _ ->
          let child = Rng.split r in
          Int64.logxor (fbits (Rng.float child)) (Int64.shift_left (fbits (Rng.float r)) 1)) );
  ]

let golden_expected =
  [
    ( 42,
      [
        ("float", "98bf2a21ec750624ae2a9952a6732819");
        ("int", "b3f0c16d98e313ca69f512279d21704f");
        ("bool", "967d6b9f55bf321cf318a78d917071d7");
        ("exponential", "610e5b824c752749044be472ba0c4018");
        ("gaussian", "8853d4af4473e02cffea6acb57037585");
        ("split", "d5a9c96890b730d372160786322cc392");
      ] );
    ( -987654321,
      [
        ("float", "8e73b6e3d3e0e79d3ff45856703b3b6f");
        ("int", "a80d98120dafda82a667c80f1a2b52a1");
        ("bool", "c8b927f73e37f112cdb7a2118f8294d8");
        ("exponential", "b59c31d4c5a753fab42ff10510744849");
        ("gaussian", "125f46a145be972b4c0564950681bc69");
        ("split", "45b37ed1e216b9288e07293545adf02a");
      ] );
  ]

let test_rng_golden () =
  List.iter
    (fun (seed, expected) ->
      List.iter2
        (fun (name, draw) (name', want) ->
          assert (name = name');
          Alcotest.(check string)
            (Printf.sprintf "seed %d %s" seed name)
            want (golden_digest 1000 draw))
        (golden_streams seed) expected)
    golden_expected;
  (* A readable anchor beside the digests. *)
  Alcotest.(check (float 0.0))
    "first float, seed 42" 0x1.7bae644c5fd6dp-1
    (Rng.float (Rng.create 42))

(* --------------------------- Stats --------------------------- *)

let test_stats_basic () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean xs);
  check_float "median" 2.5 (Stats.median xs);
  check_float "p0" 1.0 (Stats.percentile 0.0 xs);
  check_float "p100" 4.0 (Stats.percentile 100.0 xs);
  let lo, hi = Stats.min_max xs in
  check_float "min" 1.0 lo;
  check_float "max" 4.0 hi

let test_stats_variance () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  (* Sample variance of this classic example is 32/7. *)
  check_float "variance" (32.0 /. 7.0) (Stats.variance xs)

let test_stats_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |])

let test_stats_empty_contract () =
  (* Aggregates degrade to 0.0 on empty input; order statistics raise. *)
  check_float "empty mean is 0" 0.0 (Stats.mean [||]);
  check_float "empty variance is 0" 0.0 (Stats.variance [||]);
  check_float "empty stddev is 0" 0.0 (Stats.stddev [||]);
  check_float "empty geomean is 0" 0.0 (Stats.geomean [||]);
  Alcotest.check_raises "empty percentile raises"
    (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Stats.percentile 50.0 [||]));
  Alcotest.check_raises "empty median raises"
    (Invalid_argument "Stats.percentile: empty sample") (fun () -> ignore (Stats.median [||]));
  Alcotest.check_raises "empty min_max raises"
    (Invalid_argument "Stats.min_max: empty sample") (fun () -> ignore (Stats.min_max [||]));
  Alcotest.check_raises "p out of range raises"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile 101.0 [| 1.0 |]))

let test_stats_single_element () =
  (* One sample is every percentile of itself. *)
  List.iter
    (fun p -> check_float (Printf.sprintf "p%.0f of singleton" p) 7.5
        (Stats.percentile p [| 7.5 |]))
    [ 0.0; 25.0; 50.0; 95.0; 100.0 ];
  check_float "singleton median" 7.5 (Stats.median [| 7.5 |]);
  let lo, hi = Stats.min_max [| 7.5 |] in
  check_float "singleton min" 7.5 lo;
  check_float "singleton max" 7.5 hi;
  check_float "singleton variance" 0.0 (Stats.variance [| 7.5 |])

let test_stats_nan_ordering () =
  (* Float.compare gives NaN a total order (before every number), so a
     NaN-polluted sample still sorts deterministically: the answer depends
     only on the multiset of values, not on their input order. *)
  let a = [| nan; 3.0; 1.0; 2.0 |] and b = [| 2.0; 1.0; nan; 3.0 |] in
  let pa = Stats.percentile 75.0 a and pb = Stats.percentile 75.0 b in
  check_float "input order irrelevant with NaN" pa pb;
  (* NaN sorts first, so p100 is still the largest real number. *)
  check_float "p100 ignores NaN position" 3.0 (Stats.percentile 100.0 a);
  Alcotest.(check bool) "p0 is the NaN" true (Float.is_nan (Stats.percentile 0.0 a))

let test_ewma () =
  let e = Stats.Ewma.create ~alpha:0.5 in
  Alcotest.(check bool) "not primed" false (Stats.Ewma.primed e);
  Stats.Ewma.observe e 10.0;
  check_float "first observation taken as-is" 10.0 (Stats.Ewma.value e);
  Stats.Ewma.observe e 20.0;
  check_float "decayed" 15.0 (Stats.Ewma.value e)

let test_window () =
  let w = Stats.Window.create 3 in
  Stats.Window.observe w 1.0;
  Stats.Window.observe w 2.0;
  Stats.Window.observe w 3.0;
  check_float "full window mean" 2.0 (Stats.Window.mean w);
  Stats.Window.observe w 7.0;
  (* Window now holds 2,3,7. *)
  check_float "sliding mean" 4.0 (Stats.Window.mean w);
  check_int "count capped" 3 (Stats.Window.count w)

(* --------------------------- Pqueue -------------------------- *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  Pqueue.push q 5 "e";
  Pqueue.push q 1 "a";
  Pqueue.push q 3 "c";
  Pqueue.push q 1 "b";
  let order = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | None -> ()
    | Some (_, v) ->
        order := v :: !order;
        drain ()
  in
  drain ();
  Alcotest.(check (list string)) "ties in insertion order" [ "a"; "b"; "c"; "e" ] (List.rev !order)

let test_pqueue_peek () =
  let q = Pqueue.create () in
  Alcotest.(check (option int)) "empty peek" None (Pqueue.peek_key q);
  Pqueue.push q 9 ();
  Pqueue.push q 2 ();
  Alcotest.(check (option int)) "min key" (Some 2) (Pqueue.peek_key q);
  check_int "length" 2 (Pqueue.length q)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops keys in nondecreasing order" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let q = Pqueue.create () in
      List.iter (fun k -> Pqueue.push q k k) keys;
      let rec drain acc =
        match Pqueue.pop q with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
      in
      let out = drain [] in
      out = List.sort compare keys)

(* --------------------------- Series -------------------------- *)

let test_series () =
  let s = Series.create "throughput" in
  Series.add s ~time:0.0 ~value:1.0;
  Series.add s ~time:1.0 ~value:3.0;
  Series.add s ~time:2.0 ~value:5.0;
  check_int "length" 3 (Series.length s);
  let t, v = Series.get s 1 in
  check_float "time" 1.0 t;
  check_float "value" 3.0 v;
  (match Series.mean_in s ~t0:0.5 ~t1:2.5 with
  | Some m -> check_float "mean in window" 4.0 m
  | None -> Alcotest.fail "expected samples in window");
  match Series.last s with
  | Some (t, v) ->
      check_float "last time" 2.0 t;
      check_float "last value" 5.0 v
  | None -> Alcotest.fail "expected last"

let test_series_bucketed () =
  let s = Series.create "x" in
  for i = 0 to 9 do
    Series.add s ~time:(float_of_int i) ~value:(float_of_int i)
  done;
  let buckets = Series.bucketed s ~t0:0.0 ~t1:10.0 ~buckets:5 in
  check_int "bucket count" 5 (Array.length buckets);
  let _, v0 = buckets.(0) in
  check_float "first bucket mean" 0.5 v0

(* --------------------------- Table --------------------------- *)

let test_table_render () =
  let t = Table.create ~title:"demo" ~header:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1.5" ];
  Table.add_row t [ "beta"; "22.0" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains title" true (String.length s > 0 && String.sub s 0 7 = "== demo");
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "contains row" true (contains s "alpha");
  Alcotest.(check bool) "contains value" true (contains s "22.0")

let suite =
  [
    Alcotest.test_case "rng: determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng: split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng: int range" `Quick test_rng_int_range;
    Alcotest.test_case "rng: exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "rng: gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "rng: golden streams at two seeds" `Quick test_rng_golden;
    Alcotest.test_case "stats: basic" `Quick test_stats_basic;
    Alcotest.test_case "stats: variance" `Quick test_stats_variance;
    Alcotest.test_case "stats: geomean" `Quick test_stats_geomean;
    Alcotest.test_case "stats: empty-input contract" `Quick test_stats_empty_contract;
    Alcotest.test_case "stats: single-element percentiles" `Quick test_stats_single_element;
    Alcotest.test_case "stats: NaN ordering is deterministic" `Quick test_stats_nan_ordering;
    Alcotest.test_case "stats: ewma" `Quick test_ewma;
    Alcotest.test_case "stats: window" `Quick test_window;
    Alcotest.test_case "pqueue: order" `Quick test_pqueue_order;
    Alcotest.test_case "pqueue: peek/length" `Quick test_pqueue_peek;
    QCheck_alcotest.to_alcotest prop_pqueue_sorted;
    Alcotest.test_case "series: basic" `Quick test_series;
    Alcotest.test_case "series: bucketed" `Quick test_series_bucketed;
    Alcotest.test_case "table: render" `Quick test_table_render;
  ]
