(* Shared plumbing for the benchmark: clocks, order statistics with a
   sample floor, result records, and the output line formats. *)

(* Host monotonic nanoseconds. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Deciles for figures that co-tenant interference can only make worse.
   On a shared 2-vCPU host, neighbours and hypervisor steal slow the
   cache-bound simulator path by up to 4x and stretch wake-ups by
   milliseconds, for seconds at a time.  The best decile of many short
   samples tracks the program's own cost where the median tracks the
   neighbours: [low_decile] for lower-is-better samples (times,
   latencies), [high_decile] for higher-is-better ones (throughputs). *)
let decile_at xs pick =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      a.(pick (Array.length a - 1))

let low_decile xs = decile_at xs (fun last -> last / 10)
let high_decile xs = decile_at xs (fun last -> last - (last / 10))

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(* [setup_s] is the median of at least this many timed set-ups per run:
   host interference can slow any single one by several times. *)
let min_setups = 15

(* The sample floor: a quantile is reported only when at least this many
   samples lie beyond it. *)
let floor_beyond = 10

let quantile_supported ~count q = float_of_int count *. (1.0 -. q) >= float_of_int floor_beyond

(* Exact nearest-rank quantile of a sorted array, or [None] below the
   floor. *)
let quantile_sorted (a : float array) q =
  let n = Array.length a in
  if not (quantile_supported ~count:n q) then None
  else Some a.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

(* ---- results ---- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

type result = {
  attempted : int;
  failed : int;
  failures : string list;  (* one line per failed check *)
  e2e : metric list;  (* the generic end-to-end set (JSON line) *)
  named : metric list;  (* the workload's own headline names (human lines) *)
  layers : metric list;  (* per-layer metrics (traced run only) *)
  labels : (string * string) list;  (* overloaded / degraded and counts *)
}

(* A tally of checks: every check is one attempted operation; a false one
   is a failure with its reason. *)
type tally = { mutable t_attempted : int; mutable t_failed : int; mutable t_why : string list }

let tally () = { t_attempted = 0; t_failed = 0; t_why = [] }

let check t ok why =
  t.t_attempted <- t.t_attempted + 1;
  if not ok then begin
    t.t_failed <- t.t_failed + 1;
    if List.length t.t_why < 20 then t.t_why <- why () :: t.t_why
  end

(* ---- an id bitmap for exactly-once delivery ---- *)

type ids = { seen : Bytes.t; mutable dups : int; mutable strays : int }

let ids n = { seen = Bytes.make n '\000'; dups = 0; strays = 0 }

let mark ids i =
  if i < 0 || i >= Bytes.length ids.seen then ids.strays <- ids.strays + 1
  else if Bytes.unsafe_get ids.seen i <> '\000' then ids.dups <- ids.dups + 1
  else Bytes.unsafe_set ids.seen i '\001'

let missing ids =
  let m = ref 0 in
  Bytes.iter (fun c -> if c = '\000' then incr m) ids.seen;
  !m

(* Exactly-once check over [n] ids: one attempted operation per id; a
   missing, duplicated or out-of-range id is a failed one. *)
let check_ids t ~what ids =
  let n = Bytes.length ids.seen in
  let miss = missing ids in
  let bad = miss + ids.dups + ids.strays in
  t.t_attempted <- t.t_attempted + n;
  if bad > 0 then begin
    t.t_failed <- t.t_failed + bad;
    if List.length t.t_why < 20 then
      t.t_why <-
        Printf.sprintf "%s: %d missing, %d duplicated, %d stray ids of %d" what miss ids.dups
          ids.strays n
        :: t.t_why
  end

(* ---- memory ---- *)

(* Peak resident set in MB (VmHWM), falling back to the GC's top heap. *)
let heap_peak_mb () =
  let from_proc =
    match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
    | exception Sys_error _ -> None
    | text ->
        String.split_on_char '\n' text
        |> List.find_map (fun line ->
               match String.split_on_char ':' line with
               | [ "VmHWM"; v ] -> (
                   match String.split_on_char ' ' (String.trim v) with
                   | kb :: _ -> Option.map (fun k -> float_of_int k /. 1024.0) (int_of_string_opt kb)
                   | [] -> None)
               | _ -> None)
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. (1024.0 *. 1024.0)

(* Hypervisor steal: (steal ticks, all ticks) of this VM's CPUs from
   /proc/stat, or None off Linux.  A run reports the stolen share of its
   wall time as a label; native wall-clock figures from a run the host
   stole from are labelled degraded. *)
let cpu_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | exception Sys_error _ -> None
  | None -> None
  | Some line -> (
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | "cpu" :: fields ->
          let v = List.filter_map int_of_string_opt fields in
          if List.length v >= 8 then Some (List.nth v 7, List.fold_left ( + ) 0 v) else None
      | _ -> None)

let steal_frac ~since =
  match (since, cpu_ticks ()) with
  | Some (s0, t0), Some (s1, t1) when t1 > t0 -> float_of_int (s1 - s0) /. float_of_int (t1 - t0)
  | _ -> 0.0

(* ---- output ---- *)

(* Every digit of a double, but no trailing noise for exact values. *)
let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

let metrics_json ms =
  json_obj
    (List.map
       (fun m -> (m.m_name, json_obj [ ("value", num m.m_value); ("unit", json_str m.m_unit) ]))
       ms)

(* ---- the benchmark's own spans ----

   With [tracing] on, [span] records host time around a call the
   benchmark makes into the program, aggregated by name in memory and
   written out once at the end of a traced run.  Off, it costs one load
   (callers on per-item paths test [!tracing] themselves so no closure is
   built). *)

let tracing = ref false

type agg = { mutable calls : int; mutable total_ns : int; mutable max_ns : int }

let spans : (string, agg) Hashtbl.t = Hashtbl.create 16

(* Native stage bodies record from several domains at once. *)
let spans_mu = Mutex.create ()

let record name ns =
  Mutex.protect spans_mu @@ fun () ->
  let a =
    match Hashtbl.find_opt spans name with
    | Some a -> a
    | None ->
        let a = { calls = 0; total_ns = 0; max_ns = 0 } in
        Hashtbl.add spans name a;
        a
  in
  a.calls <- a.calls + 1;
  a.total_ns <- a.total_ns + ns;
  if ns > a.max_ns then a.max_ns <- ns

let span name f =
  if not !tracing then f ()
  else begin
    let t0 = now_ns () in
    let r = f () in
    record name (now_ns () - t0);
    r
  end

let with_tracing f =
  tracing := true;
  Fun.protect ~finally:(fun () -> tracing := false) f

let spans_json () =
  Hashtbl.fold (fun k a acc -> (k, a) :: acc) spans []
  |> List.sort compare
  |> List.map (fun (k, a) ->
         ( k,
           json_obj
             [
               ("calls", string_of_int a.calls);
               ("total_ns", string_of_int a.total_ns);
               ("mean_ns", num (float_of_int a.total_ns /. float_of_int (max 1 a.calls)));
               ("max_ns", string_of_int a.max_ns);
             ] ))
  |> json_obj

(* Small-size mode for the self-test: every workload shrinks to a few
   seconds' worth while keeping its quantiles above the sample floor. *)
let tiny = ref false
