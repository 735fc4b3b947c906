(* The Decima monitor (Chapter 6, Section 4.7).

   Decima observes the application through the begin/end hooks Nona (or the
   programmer) inserts into task functors, and through load callbacks; it
   observes the platform through a registry of named feature callbacks
   ("SystemPower", ...).  Everything is per-region and cheap: hook costs are
   charged to the calling simulated thread at the machine's rdtsc-equivalent
   cost, and counters are plain mutable fields (the paper implements them in
   shared memory without synchronization), each written by one worker.

   Telemetry is stored flat (DESIGN.md section 14.6): per-task iteration,
   compute and EWMA state live in parallel int arrays rather than one
   record per task, and the EWMA itself is integer fixed-point (whole
   nanoseconds) — a float-valued mixed record would box a float on every
   sample, taxing the serve path's hook_end with an allocation per
   instance.  Recent hook samples additionally land in a preallocated
   (task, dt) ring, like the event sink's, so observability keeps a
   bounded window of raw samples without per-sample list cells.

   The additive sums (iterations, compute ns, hook calls) are lane-local:
   each worker's [hook_slot] carries its own, registered with the monitor
   on first use and folded into the monitor's base arrays when the worker
   retires.  A worker's hot path then writes only its own slot — on the
   native backend no cache line is shared per iteration and no increment
   can be lost to a racing lane — and every reader sums base plus live
   slots under the monitor's lock, exactly.  The EWMA and the sample ring
   stay shared: they are estimates, not counts. *)

module Engine = Parcae_platform.Engine
module Trace = Parcae_obs.Trace
module Event = Parcae_obs.Event
module Metrics = Parcae_obs.Metrics

(* Registry handles, one set per task plus region-level completions.  The
   compute counter is labeled (region, scheme, task) — exactly the frames
   Obs.Profile folds into flamegraph stacks. *)
type task_metrics = {
  dm_compute : Metrics.counter;
  dm_hook : Metrics.histogram;
  dm_iters : Metrics.counter;
}

type decima_metrics = { dm_tasks : task_metrics array; dm_completions : Metrics.counter }

(* EWMA weight of the newest sample is 1/ewma_inv (alpha = 0.2). *)
let ewma_inv = 5

(* Capacity of the recent-sample ring (power of two for cheap wrap). *)
let ring_cap = 256

type t = {
  eng : Engine.t;
  mon : Engine.monitor;  (* guards the registry, the base sums and [epoch] *)
  mutable epoch : int;  (* bumped by every reset: names the task table *)
  mutable iters_a : int array;  (* base: completed instances folded in from slots *)
  mutable compute_a : int array;  (* base: CPU ns between begin/end hooks *)
  mutable ewma_a : int array;  (* per-instance compute estimate, ns; -1 = unprimed *)
  ring_task : int array;  (* recent hook samples: task index... *)
  ring_dt : int array;  (* ...and duration, ns *)
  mutable ring_next : int;  (* total samples ever ringed *)
  features : (string, unit -> float) Hashtbl.t;
  mutable hook_calls : int;  (* base: hook calls of retired slots *)
  mutable slots : hook_slot array;  (* registry: live slots in [0, nslots) *)
  mutable nslots : int;
  mutable completions : int;  (* region-level unit-of-work completions *)
  mutable region_name : string;  (* label values for the registry series; *)
  mutable scheme_name : string;  (* set by Region.create / Executor.resume *)
  mutable task_names : string array;
  mutable mx : (Metrics.t * decima_metrics) option;
}

(* One worker's hook state and its share of the sums.  Only the owning
   worker writes it outside the monitor.  [s_iters]/[s_compute] count task
   [s_task] of the task table of epoch [s_epoch]; readers ignore them once
   a reset has moved the monitor on. *)
and hook_slot = {
  mutable t0 : int;
  mutable open_ : bool;
  mutable s_index : int;  (* position in the registry; -1 = not registered *)
  mutable s_epoch : int;
  mutable s_task : int;  (* -1 = none yet *)
  mutable s_iters : int;
  mutable s_compute : int;
  mutable s_hooks : int;
}

let create eng ~tasks =
  {
    eng;
    mon = Engine.monitor_create eng;
    epoch = 0;
    iters_a = Array.make tasks 0;
    compute_a = Array.make tasks 0;
    ewma_a = Array.make tasks (-1);
    ring_task = Array.make ring_cap (-1);
    ring_dt = Array.make ring_cap 0;
    ring_next = 0;
    features = Hashtbl.create 7;
    hook_calls = 0;
    slots = [||];
    nslots = 0;
    completions = 0;
    region_name = "";
    scheme_name = "";
    task_names = [||];
    mx = None;
  }

(* Re-size and clear task statistics; used when the runtime switches to a
   parallelization scheme with a different task count. *)
let reset t ~tasks =
  Engine.locked t.mon (fun () ->
      t.epoch <- t.epoch + 1;
      t.iters_a <- Array.make tasks 0;
      t.compute_a <- Array.make tasks 0;
      t.ewma_a <- Array.make tasks (-1);
      t.mx <- None)

let task_count t = Array.length t.iters_a

(* Name the label values under which this monitor's statistics appear in the
   metrics registry.  Registry series are cumulative across resets, so a
   scheme switch moves attribution to a fresh (region, scheme, task) series
   instead of clearing history. *)
let set_names t ~region ~scheme ~tasks =
  t.region_name <- region;
  t.scheme_name <- scheme;
  t.task_names <- tasks;
  t.mx <- None

let task_label t i =
  if i < Array.length t.task_names then t.task_names.(i) else Printf.sprintf "t%d" i

let handles t =
  let reg = Metrics.current () in
  match t.mx with
  | Some (r, h) when r == reg -> h
  | _ ->
      let h =
        {
          dm_tasks =
            Array.init (task_count t) (fun i ->
                let name = task_label t i in
                {
                  dm_compute =
                    Metrics.counter reg "parcae_task_compute_ns_total"
                      ~labels:
                        [
                          ("region", t.region_name);
                          ("scheme", t.scheme_name);
                          ("task", name);
                        ]
                      ~help:"Hook-attributed compute ns per (region, scheme, task).";
                  dm_hook =
                    Metrics.histogram reg "parcae_decima_hook_ns"
                      ~labels:[ ("region", t.region_name); ("task", name) ]
                      ~help:"Per-instance compute time between begin/end hooks.";
                  dm_iters =
                    Metrics.counter reg "parcae_decima_iters_total"
                      ~labels:[ ("region", t.region_name); ("task", name) ]
                      ~help:"Completed dynamic task instances.";
                });
          dm_completions =
            Metrics.counter reg "parcae_decima_completions_total"
              ~labels:[ ("region", t.region_name) ]
              ~help:"Region-level unit-of-work completions.";
        }
      in
      t.mx <- Some (reg, h);
      h

(* ---- Hooks (Section 4.7) ---- *)

(* A hook pair measures the CPU consumed by a worker between begin and end,
   excluding time spent blocked on channels — the simulator's per-thread
   busy-time counter gives exactly that.  Each hook costs [machine.hook] ns,
   modelling the rdtsc reads whose overhead Section 8.3.6 reports. *)
let make_slot () =
  {
    t0 = 0;
    open_ = false;
    s_index = -1;
    s_epoch = -1;
    s_task = -1;
    s_iters = 0;
    s_compute = 0;
    s_hooks = 0;
  }

(* Under [mon]: move the slot's per-task sums into the base, or drop them
   if a reset has cleared the table they belong to. *)
let settle t slot =
  let i = slot.s_task in
  if slot.s_epoch = t.epoch && i >= 0 && i < task_count t then begin
    t.iters_a.(i) <- t.iters_a.(i) + slot.s_iters;
    t.compute_a.(i) <- t.compute_a.(i) + slot.s_compute
  end;
  slot.s_iters <- 0;
  slot.s_compute <- 0

(* Register [slot] on first use and point its sums at task [task] of the
   current table.  Cold: once per worker, and again only after a reset
   (or for a slot that serves several tasks). *)
let bind t slot task =
  Engine.locked t.mon (fun () ->
      if slot.s_index < 0 then begin
        if t.nslots = Array.length t.slots then begin
          let grown = Array.make (max 8 (2 * t.nslots)) slot in
          Array.blit t.slots 0 grown 0 t.nslots;
          t.slots <- grown
        end;
        t.slots.(t.nslots) <- slot;
        slot.s_index <- t.nslots;
        t.nslots <- t.nslots + 1
      end;
      settle t slot;
      slot.s_task <- task;
      slot.s_epoch <- t.epoch)

let[@inline] bound t slot task =
  if slot.s_task <> task || slot.s_epoch <> t.epoch then bind t slot task

(* Fold a worker's sums into the base and unregister its slot: called
   once, by the worker, after its last hook and count. *)
let retire t slot =
  if slot.s_index >= 0 then
    Engine.locked t.mon (fun () ->
        settle t slot;
        t.hook_calls <- t.hook_calls + slot.s_hooks;
        (* Swap-remove; the vacated cell keeps [moved], which is live
           anyway, rather than the retired slot. *)
        let last = t.nslots - 1 in
        let moved = t.slots.(last) in
        t.slots.(slot.s_index) <- moved;
        moved.s_index <- slot.s_index;
        t.nslots <- last;
        slot.s_index <- -1;
        slot.s_task <- -1;
        slot.s_hooks <- 0)

(* Hook costs are sub-microsecond, so they go through [Engine.charge]
   (deferred, bounded-skew) rather than paying an effect suspension each;
   the busy read likewise avoids the ambient [Self] effect. *)
let hook_begin t slot =
  Engine.charge t.eng (Engine.hook_cost t.eng);
  if slot.s_index < 0 then bind t slot slot.s_task;
  slot.s_hooks <- slot.s_hooks + 1;
  slot.t0 <- Engine.busy_ns_in t.eng;
  slot.open_ <- true

let hook_end t ~task slot =
  Engine.charge t.eng (Engine.hook_cost t.eng);
  if slot.s_index < 0 then bind t slot slot.s_task;
  slot.s_hooks <- slot.s_hooks + 1;
  if slot.open_ then begin
    slot.open_ <- false;
    let dt = Engine.busy_ns_in t.eng - slot.t0 in
    if task >= 0 && task < task_count t then begin
      bound t slot task;
      slot.s_compute <- slot.s_compute + dt;
      (* Integer EWMA, newest sample weighted 1/ewma_inv: whole-ns
         precision is far below hook noise, and the update touches no
         boxed float. *)
      let prev = t.ewma_a.(task) in
      t.ewma_a.(task) <-
        (if prev < 0 then dt else prev + ((dt - prev) / ewma_inv));
      let slot_i = t.ring_next land (ring_cap - 1) in
      t.ring_task.(slot_i) <- task;
      t.ring_dt.(slot_i) <- dt;
      t.ring_next <- t.ring_next + 1;
      if Trace.enabled () then
        Trace.emit ~t:(Engine.time t.eng) (Event.Hook_sample { task; dt_ns = dt });
      if Metrics.enabled () then begin
        let m = (handles t).dm_tasks.(task) in
        Metrics.inc_by m.dm_compute dt;
        Metrics.observe_ns m.dm_hook dt
      end
    end
  end

(* Record the completion of [n] dynamic instances of task [i] on [slot]'s
   worker — a batch drain reports its whole claim in one call. *)
let count t slot i n =
  if n > 0 && i >= 0 && i < task_count t then begin
    bound t slot i;
    slot.s_iters <- slot.s_iters + n;
    if Metrics.enabled () then begin
      let c = (handles t).dm_tasks.(i).dm_iters in
      if n = 1 then Metrics.inc c else Metrics.inc_by c n
    end
  end

(* Record the completion of one region-level unit of work (one transcoded
   video, one answered query, ...). *)
let complete t =
  t.completions <- t.completions + 1;
  if Metrics.enabled () then Metrics.inc (handles t).dm_completions

(* ---- Exact reads: base plus every live slot ---- *)

(* Under [mon]: task [i]'s base plus every live slot counting it. *)
let live_sum t i ~compute =
  let acc = ref (if compute then t.compute_a.(i) else t.iters_a.(i)) in
  for k = 0 to t.nslots - 1 do
    let s = t.slots.(k) in
    if s.s_task = i && s.s_epoch = t.epoch then
      acc := !acc + if compute then s.s_compute else s.s_iters
  done;
  !acc

let iters t i = Engine.locked t.mon (fun () -> live_sum t i ~compute:false)
let completions t = t.completions

let hook_calls t =
  Engine.locked t.mon (fun () ->
      let acc = ref t.hook_calls in
      for k = 0 to t.nslots - 1 do
        acc := !acc + t.slots.(k).s_hooks
      done;
      !acc)

(* Total hook-attributed compute ns of task [i] since the last reset —
   matches the [parcae_task_compute_ns_total] series one-for-one when the
   region never switched scheme. *)
let compute_ns t i = Engine.locked t.mon (fun () -> live_sum t i ~compute:true)

(* Decima's estimate of a task's per-instance execution time in ns
   (Parcae::getExecTime). *)
let exec_time t i =
  let e = t.ewma_a.(i) in
  if e >= 0 then float_of_int e
  else
    let n = iters t i in
    if n > 0 then float_of_int (compute_ns t i) /. float_of_int n else 0.0

(* Average observed throughput of task [i] in instances per second, over the
   whole run so far. *)
let task_rate t i =
  let now = Engine.time t.eng in
  if now = 0 then 0.0 else float_of_int (iters t i) /. Engine.seconds_of_ns now

(* Recent hook samples for task [i], oldest first — read out of the
   preallocated ring (cold path: allocates the result array). *)
let recent_samples t i =
  let len = min t.ring_next ring_cap in
  let start = t.ring_next - len in
  let out = ref [] in
  for k = len - 1 downto 0 do
    let slot_i = (start + k) land (ring_cap - 1) in
    if t.ring_task.(slot_i) = i then out := t.ring_dt.(slot_i) :: !out
  done;
  Array.of_list !out

(* ---- Snapshots for interval throughput ---- *)

(* The closed-loop controller compares configurations by the iteration
   throughput achieved between two snapshots. *)
type snapshot = { at : int; iters_v : int array; completions_v : int }

let snapshot t =
  {
    at = Engine.time t.eng;
    iters_v = Array.init (task_count t) (iters t);
    completions_v = t.completions;
  }

(* Iterations per second of task [i] between [a] and the present. *)
let rate_since t (a : snapshot) i =
  let dt = Engine.time t.eng - a.at in
  if dt <= 0 then 0.0
  else float_of_int (iters t i - a.iters_v.(i)) /. Engine.seconds_of_ns dt

(* Region-level completions per second since snapshot [a]. *)
let completion_rate_since t (a : snapshot) =
  let dt = Engine.time t.eng - a.at in
  if dt <= 0 then 0.0 else float_of_int (t.completions - a.completions_v) /. Engine.seconds_of_ns dt

let iters_since t (a : snapshot) i = iters t i - a.iters_v.(i)

(* ---- Platform feature registry (Figure 5.8) ---- *)

let register_feature t name cb = Hashtbl.replace t.features name cb

let feature t name =
  match Hashtbl.find_opt t.features name with
  | None -> None
  | Some cb ->
      let value = cb () in
      if Trace.enabled () then
        Trace.emit ~t:(Engine.time t.eng) (Event.Feature_sample { name; value });
      if Metrics.enabled () then
        Metrics.set_gauge
          (Metrics.gauge (Metrics.current ()) "parcae_decima_feature"
             ~labels:[ ("name", name) ]
             ~help:"Last sampled platform feature value.")
          value;
      Some value

(* ---- Flight-recorder snapshot ---- *)

(* The per-task measurement block every flight decision carries: what the
   monitor currently believes about each task's progress and cost. *)
let flight_tasks t =
  List.init (task_count t) (fun i ->
      {
        Parcae_obs.Flight.task = task_label t i;
        iters = iters t i;
        ips = task_rate t i;
        exec_ns = exec_time t i;
      })
