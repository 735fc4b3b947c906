(* Blocking FIFO channels between simulated threads.

   MTCG-style pipelines use these as the point-to-point communication
   channels between tasks; workloads also use them as work queues.  Each
   operation charges the machine's [chan_op] cost to the calling thread,
   which is how communication overhead erodes parallel efficiency in the
   simulation (Section 2.3 of the paper).  Channels are multi-producer
   multi-consumer; used single-producer single-consumer they preserve
   sequential order, which the pause/reconfigure protocol relies on.

   Each operation has one body, the same whether or not anything observes
   it, and that body allocates nothing of its own: the wait loops are
   top-level functions that return whether they waited, the block start
   time is a field read of the engine clock, and every sink (metrics,
   timeline, trace, sanitizer) is one test of its install cell. *)

module Metrics = Parcae_obs.Metrics
module Trace = Parcae_obs.Trace
module Event = Parcae_obs.Event
module Timeline = Parcae_obs.Timeline
module Hb = Parcae_obs.Hb
module Ring = Parcae_util.Ring

(* Per-channel metric handles, labeled by channel name.  Cached against the
   installed registry so the hot path pays one physical comparison, not a
   hashtable lookup per operation. *)
type chan_metrics = {
  cm_sends : Metrics.counter;
  cm_recvs : Metrics.counter;
  cm_depth : Metrics.gauge;
  cm_send_block : Metrics.histogram;
  cm_recv_block : Metrics.histogram;
  cm_flushed : Metrics.counter;
}

type 'a t = {
  name : string;
  capacity : int;  (* 0 = unbounded *)
  q : 'a Ring.t;  (* slot-reusing FIFO: no cell per message *)
  eng : Engine.t;
  nonempty : Engine.cond;
  nonfull : Engine.cond;
  op_cost : int;  (* resolved against the machine at creation *)
  mutable total_sent : int;
  mutable total_received : int;
  mutable mx : (Metrics.t * chan_metrics) option;
}

(* The operation cost is resolved once here — looking the machine up per
   operation needed an [Engine_of] effect on every send and receive. *)
let create ?(capacity = 0) ?op_cost eng name =
  {
    name;
    capacity;
    q = Ring.create ();
    eng;
    nonempty = Engine.cond_create ();
    nonfull = Engine.cond_create ();
    op_cost =
      (match op_cost with
      | Some c -> c
      | None -> (Engine.machine eng).Machine.chan_op);
    total_sent = 0;
    total_received = 0;
    mx = None;
  }

let handles ch =
  let reg = Metrics.current () in
  match ch.mx with
  | Some (r, h) when r == reg -> h
  | _ ->
      let labels = [ ("chan", ch.name) ] in
      let h =
        {
          cm_sends =
            Metrics.counter reg "parcae_chan_sends_total" ~labels
              ~help:"Items enqueued, per channel.";
          cm_recvs =
            Metrics.counter reg "parcae_chan_recvs_total" ~labels
              ~help:"Items dequeued, per channel.";
          cm_depth =
            Metrics.gauge reg "parcae_chan_depth" ~labels
              ~help:"Current queue occupancy, per channel.";
          cm_send_block =
            Metrics.histogram reg "parcae_chan_send_block_ns" ~labels
              ~help:"Virtual time senders spent blocked on a full channel.";
          cm_recv_block =
            Metrics.histogram reg "parcae_chan_recv_block_ns" ~labels
              ~help:"Virtual time receivers spent blocked on an empty channel.";
          cm_flushed =
            Metrics.counter reg "parcae_chan_flushed_total" ~labels
              ~help:"Items dropped by filter/drain on reconfiguration.";
        }
      in
      ch.mx <- Some (reg, h);
      h

let note_depth ch =
  if Metrics.enabled () then
    Metrics.set_gauge (handles ch).cm_depth (float_of_int (Ring.length ch.q))

(* Explain a measured block as Chan_wait on the core the thread last
   computed on (non-burst code runs off-core in the sim).  While blocked
   the thread held no core — the wait displaced Park time on that lane,
   which is exactly what the timeline's idle-first attribution transfer
   expresses. *)
let tl_wait ch t0 =
  match Timeline.get () with
  | Some tl ->
      let th = Engine.self () in
      let core = if th.Engine.core >= 0 then th.Engine.core else th.Engine.last_core in
      if core >= 0 && core < Timeline.lanes tl then
        Timeline.attribute tl ~lane:core Timeline.Chan_wait (Engine.time ch.eng - t0)
  | None -> ()

(* Account [k] items moved by one operation that started waiting at [t0]
   if it [waited]: counters, depth gauge, block histogram, timeline. *)
let note_send ch k waited t0 =
  if Metrics.enabled () then begin
    let h = handles ch in
    Metrics.inc_by h.cm_sends k;
    Metrics.set_gauge h.cm_depth (float_of_int (Ring.length ch.q));
    if waited then Metrics.observe_ns h.cm_send_block (Engine.time ch.eng - t0)
  end;
  if waited then tl_wait ch t0

let note_recv ch k waited t0 =
  if Metrics.enabled () then begin
    let h = handles ch in
    Metrics.inc_by h.cm_recvs k;
    Metrics.set_gauge h.cm_depth (float_of_int (Ring.length ch.q));
    if waited then Metrics.observe_ns h.cm_recv_block (Engine.time ch.eng - t0)
  end;
  if waited then tl_wait ch t0

(* Sanitizer edges use the exact (chan, seq) FIFO pairing.  The send-side
   clock must be published before any other thread can observe the item:
   these run at the seq-assignment point, before the [signal] effect can
   transfer control to a consumer. *)
let hb_send ch seq =
  if Hb.enabled () then Hb.on_send ~task:(Engine.self ()).Engine.tid ~chan:ch.name ~seq

let hb_recv ch seq =
  if Hb.enabled () then Hb.on_recv ~task:(Engine.self ()).Engine.tid ~chan:ch.name ~seq

let emit_send ch seq =
  if Trace.enabled () then begin
    let th = Engine.self () in
    Trace.emit ~t:(Engine.time ch.eng)
      (Event.Chan_send_ev
         { chan = ch.name; seq; task = th.Engine.tid; busy_ns = th.Engine.busy_ns })
  end

let emit_recv ch seq =
  if Trace.enabled () then begin
    let th = Engine.self () in
    Trace.emit ~t:(Engine.time ch.eng)
      (Event.Chan_recv_ev
         { chan = ch.name; seq; task = th.Engine.tid; busy_ns = th.Engine.busy_ns })
  end

let length ch = Ring.length ch.q
let is_empty ch = Ring.is_empty ch.q
let total_sent ch = ch.total_sent
let total_received ch = ch.total_received
let is_full ch = ch.capacity > 0 && Ring.length ch.q >= ch.capacity

(* The blocking operations share a discipline: the op cost is computed
   immediately ([compute_in]) — a channel operation is a synchronization
   edge, so deferring its cost would shorten the simulated critical path
   and let dependent threads observe data before the communication was
   paid for.  Only thread-local bookkeeping debt (hook charges) stays
   deferred, and that debt is flushed before the thread would wait.
   Flushing suspends, so the wait predicate is always re-checked after a
   flush — waiting right after one could miss a signal sent while the
   thread was off the waiter queue.

   The wait loops return whether they waited; [waited] is the caller's
   verdict so far, so a batch can thread it through its items. *)
let rec wait_nonfull ch waited =
  if is_full ch then begin
    if not (Engine.flush_charges ch.eng) then Engine.wait_on_in ch.eng ch.nonfull;
    wait_nonfull ch true
  end
  else waited

let rec wait_nonempty ch waited =
  if Ring.is_empty ch.q then begin
    if not (Engine.flush_charges ch.eng) then Engine.wait_on_in ch.eng ch.nonempty;
    wait_nonempty ch true
  end
  else waited

(* Enqueue [v] and wake one receiver; returns the item's send number. *)
let push ch v =
  let seq = ch.total_sent in
  Ring.push ch.q v;
  ch.total_sent <- seq + 1;
  hb_send ch seq;
  Engine.signal ch.nonempty;
  seq

(* Number the item just dequeued; returns its receive number.  The wake-up
   of blocked senders is left to the caller: one [signal] per receive, one
   [broadcast] per batch. *)
let popped ch =
  let seq = ch.total_received in
  ch.total_received <- seq + 1;
  hb_recv ch seq;
  seq

(* Enqueue [v], blocking while the channel is at capacity. *)
let send ch v =
  Engine.compute_in ch.eng ch.op_cost;
  let t0 = Engine.time ch.eng in
  let waited = wait_nonfull ch false in
  let seq = push ch v in
  note_send ch 1 waited t0;
  emit_send ch seq

(* Dequeue, blocking while the channel is empty. *)
let recv ch =
  Engine.charge ch.eng ch.op_cost;
  let t0 = Engine.time ch.eng in
  let waited = wait_nonempty ch false in
  let v = Ring.pop ch.q in
  let seq = popped ch in
  Engine.signal ch.nonfull;
  note_recv ch 1 waited t0;
  emit_recv ch seq;
  v

(* Enqueue [v] regardless of capacity.  Control sentinels use this: a lane
   re-enqueueing a sentinel it just consumed must never block, or the
   pause/flush protocol could deadlock on a full channel. *)
let force_send ch v =
  Engine.compute_in ch.eng ch.op_cost;
  let seq = push ch v in
  note_send ch 1 false 0;
  emit_send ch seq

(* Non-blocking receive.  The item is numbered at the pop: the charge can
   suspend, and a receiver that pops meanwhile must not take its number. *)
let try_recv ch =
  if Ring.is_empty ch.q then None
  else begin
    let v = Ring.pop ch.q in
    let seq = popped ch in
    Engine.charge ch.eng ch.op_cost;
    Engine.signal ch.nonfull;
    note_recv ch 1 false 0;
    emit_recv ch seq;
    Some v
  end

(* Non-blocking send; [false] if the channel is full. *)
let try_send ch v =
  if is_full ch then false
  else begin
    Engine.compute_in ch.eng ch.op_cost;
    let seq = push ch v in
    note_send ch 1 false 0;
    emit_send ch seq;
    true
  end

(* Enqueue a whole batch for a single [chan_op] charge — the amortized
   communication of Section 2.3.  Blocks (after the charge) whenever the
   next item would overflow a bounded channel. *)
let rec send_all ch vs waited =
  match vs with
  | [] -> waited
  | v :: tl ->
      let waited = wait_nonfull ch waited in
      emit_send ch (push ch v);
      send_all ch tl waited

let send_batch ch vs =
  Engine.compute_in ch.eng ch.op_cost;
  let t0 = Engine.time ch.eng in
  let waited = send_all ch vs false in
  note_send ch (List.length vs) waited t0

(* Claim up to [n] queued items in FIFO order; the caller has ensured the
   queue is nonempty.  Builds the result front-first so no reversal (and
   no accumulator cells) is needed. *)
let[@tail_mod_cons] rec take_n ch n =
  if n = 0 || Ring.is_empty ch.q then []
  else begin
    let v = Ring.pop ch.q in
    emit_recv ch (popped ch);
    v :: take_n ch (n - 1)
  end

(* Dequeue at least one and at most [max] items (default: everything
   queued) for a single [chan_op] charge. *)
let recv_batch ?max ch =
  Engine.charge ch.eng ch.op_cost;
  let limit =
    match max with
    | Some m ->
        if m < 1 then invalid_arg "Chan.recv_batch: max must be >= 1";
        m
    | None -> -1
  in
  let t0 = Engine.time ch.eng in
  let waited = wait_nonempty ch false in
  let base = ch.total_received in
  let out = take_n ch (if limit = -1 then Ring.length ch.q else limit) in
  Engine.broadcast ch.nonfull;
  note_recv ch (ch.total_received - base) waited t0;
  out

(* Keep only the items satisfying [keep], preserving order; returns how many
   were removed.  Used to strip pause sentinels from work queues on
   resumption without dropping pending requests. *)
let filter ch keep =
  (* A flush is a real channel operation: charge one op of virtual time so
     the reconfiguration overhead ledger sees a nonzero flush phase. *)
  Engine.compute_in ch.eng ch.op_cost;
  let removed = Ring.filter_in_place keep ch.q in
  if removed > 0 then Engine.broadcast ch.nonfull;
  if Trace.enabled () then
    Trace.emit ~t:(Engine.time ch.eng) (Event.Chan_flush { chan = ch.name; dropped = removed });
  if Metrics.enabled () then begin
    Metrics.inc_by (handles ch).cm_flushed removed;
    note_depth ch
  end;
  removed

(* Discard all queued items; used when the runtime resets communication
   channels on resumption after a reconfiguration (Section 4.5). *)
let drain ch =
  Engine.compute_in ch.eng ch.op_cost;
  let n = Ring.length ch.q in
  Ring.clear ch.q;
  Engine.broadcast ch.nonfull;
  if Trace.enabled () then
    Trace.emit ~t:(Engine.time ch.eng) (Event.Chan_flush { chan = ch.name; dropped = n });
  if Metrics.enabled () then begin
    Metrics.inc_by (handles ch).cm_flushed n;
    note_depth ch
  end;
  n
