(* Response-time and throughput bookkeeping for the server workloads.

   Memory is constant per run: means come from running sums, latency
   quantiles from one HDR distribution.  When a metrics registry is
   installed the same observations also feed the [parcae_request_*]
   counter and histogram families, which is what the live dashboard and
   the Prometheus exposition read. *)

module Engine = Parcae_platform.Engine
module Obs = Parcae_obs.Metrics
module Hdr = Parcae_obs.Hdr
module Span = Parcae_obs.Span

type req_metrics = {
  rm_submitted : Obs.counter;
  rm_completed : Obs.counter;
  rm_response : Obs.histogram;
  rm_exec : Obs.histogram;
}

(* Running sums of seconds.  An all-float record is stored flat, so
   adding to a field boxes nothing. *)
type sums = { mutable response_s : float; mutable exec_s : float }

type t = {
  eng : Engine.t;
  sums : sums;
  mutable executed : int;  (* completions with a start stamp *)
  mutable completed : int;
  mutable submitted : int;
  mutable first_completion_ns : int;
  mutable last_completion_ns : int;
  lat_hdr : Hdr.t;
      (* always-on end-to-end latency distribution, integer ns: latency
         quantiles on the serve path come from here (bounded relative
         error, deterministic; DESIGN.md section 15). *)
  mutable mx : (Obs.t * req_metrics) option;
}

let create eng =
  {
    eng;
    sums = { response_s = 0.0; exec_s = 0.0 };
    executed = 0;
    completed = 0;
    submitted = 0;
    first_completion_ns = -1;
    last_completion_ns = -1;
    lat_hdr = Hdr.create ();
    mx = None;
  }

(* Rewind to a fresh state without reallocating, so repeated batch runs
   (max-throughput searches, the allocation bench) reuse one [t].
   Registry counters are cumulative by design and are left alone. *)
let reset t =
  t.sums.response_s <- 0.0;
  t.sums.exec_s <- 0.0;
  t.executed <- 0;
  t.completed <- 0;
  t.submitted <- 0;
  t.first_completion_ns <- -1;
  t.last_completion_ns <- -1;
  Hdr.clear t.lat_hdr

let handles t =
  let reg = Obs.current () in
  match t.mx with
  | Some (r, h) when r == reg -> h
  | _ ->
      let h =
        {
          rm_submitted =
            Obs.counter reg "parcae_requests_submitted_total"
              ~help:"Requests submitted to the server workload.";
          rm_completed =
            Obs.counter reg "parcae_requests_completed_total"
              ~help:"Requests completed by the server workload.";
          rm_response =
            Obs.histogram reg "parcae_response_seconds" ~buckets:Obs.seconds_buckets
              ~help:"Request response time, arrival to completion.";
          rm_exec =
            Obs.histogram reg "parcae_exec_seconds" ~buckets:Obs.seconds_buckets
              ~help:"Request execution time, processing only (no queue wait).";
        }
      in
      t.mx <- Some (reg, h);
      h

let submitted t = t.submitted
let completed t = t.completed

let note_submit t =
  t.submitted <- t.submitted + 1;
  if Obs.enabled () then Obs.inc (handles t).rm_submitted

(* Record the completion of [req] at the current virtual time. *)
let note_complete t (req : Request.t) =
  let now = Engine.time t.eng in
  (* Close the request's span first so the completion stamp matches the
     latency observed below; publishes to the installed span collector
     (no-op without one). *)
  if Span.enabled () then Span.finish req.Request.span ~now;
  let lat_ns = now - req.Request.arrival_ns in
  Hdr.observe t.lat_hdr lat_ns;
  let resp = Engine.seconds_of_ns lat_ns in
  t.sums.response_s <- t.sums.response_s +. resp;
  let started = req.Request.start_ns >= 0 in
  if started then begin
    t.sums.exec_s <- t.sums.exec_s +. Engine.seconds_of_ns (now - req.Request.start_ns);
    t.executed <- t.executed + 1
  end;
  t.completed <- t.completed + 1;
  if t.first_completion_ns < 0 then t.first_completion_ns <- now;
  t.last_completion_ns <- now;
  if Obs.enabled () then begin
    let h = handles t in
    Obs.inc h.rm_completed;
    Obs.observe h.rm_response resp;
    if started then
      Obs.observe h.rm_exec (Engine.seconds_of_ns (now - req.Request.start_ns))
  end

(* Mean per-request execution time (T_exec of Equation 2.1), exact over
   every completion. *)
let mean_exec t = if t.executed = 0 then nan else t.sums.exec_s /. float_of_int t.executed

let mean_response t =
  if t.completed = 0 then nan else t.sums.response_s /. float_of_int t.completed

(* Latency quantiles read the HDR distribution: deterministic and exact
   to the configured relative error over every completion. *)
let latency_quantile_ns t q = Hdr.quantile t.lat_hdr q

let response_quantile t q =
  if Hdr.count t.lat_hdr = 0 then nan
  else Engine.seconds_of_ns (Hdr.quantile t.lat_hdr q)

let p95_response t = response_quantile t 0.95

(* Sustained completion throughput in requests/second, measured from first
   to last completion (robust to warm-up). *)
let throughput t =
  if t.completed < 2 then 0.0
  else begin
    let span = t.last_completion_ns - t.first_completion_ns in
    if span <= 0 then 0.0
    else float_of_int (t.completed - 1) /. Engine.seconds_of_ns span
  end
