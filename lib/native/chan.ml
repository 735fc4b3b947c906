(* Blocking FIFO channels between native tasks, contention-free on the
   hot path.

   The queue itself is a lock-free Michael–Scott linked queue (GC makes
   the classic ABA hazard vanish: nodes are never reused).  A single send
   is one CAS on [tail.next] (plus the cooperative tail swing) and a
   single receive is one CAS on [head]; [send_batch] links the whole
   batch into a private chain and appends it with a single CAS, and
   [recv_batch] walks up to [max] nodes and claims them all with a single
   CAS on [head] — the "batched CAS reservation" that makes batch cost
   O(1) synchronisation instead of one lock round-trip per item.

   Each node carries its send sequence number, stamped before the
   publishing CAS, so the queue needs no counters of its own: occupancy
   is the tail's number minus the head's, the totals are the two numbers
   plus the corrections a flush records, and the trace's (chan, seq)
   pairs are read off the node.  Those CASes are the only atomic
   read-modify-writes on the hot path.

   Blocking is layered on top: each channel owns a small {!Engine.Monitor}
   with one counted condition per direction, used only when a caller must
   wait.  A waiter counts itself before re-checking the queue; a producer
   enqueues first and reads the count second ({!Engine.Monitor.await} and
   {!Engine.Monitor.wake}), so a wake-up can never be lost and nobody
   takes the monitor unless someone is parked.

   Capacity is a soft bound: senders check the occupancy before
   enqueueing, so with k concurrent producers occupancy can transiently
   overshoot the capacity by at most k-1 items.  The pause/flush
   protocol's guarantees are unaffected (its bound is the flush, not the
   capacity).

   [filter] and [drain] are only linearizable against concurrent senders
   in the weak sense that late arrivals may survive the flush; the
   runtime only calls them inside a pause window, where producers are
   parked. *)

module Metrics = Parcae_obs.Metrics
module Trace = Parcae_obs.Trace
module Event = Parcae_obs.Event
module Timeline = Parcae_obs.Timeline
module Monitor = Engine.Monitor
module Hb = Parcae_obs.Hb

type chan_metrics = {
  cm_sends : Metrics.counter;
  cm_recvs : Metrics.counter;
  cm_depth : Metrics.gauge;
  cm_send_block : Metrics.histogram;
  cm_recv_block : Metrics.histogram;
  cm_flushed : Metrics.counter;
}

(* A node is one 4-word block.  [value] is a plain field holding the
   item, or [nil] in the dummy.  It is written before the CAS that
   publishes the node and read only after the load that reached the node,
   so the atomic's ordering makes the write visible; only the node's
   unique claimant clears it.  [next] holds [nil] (as a node) until the
   node's successor is linked, once.  Storing both raw, like the sim
   engine's [kont_nil], spares an [option] box per item and per link.
   [seq] is the send sequence number, stamped before publication. *)
type 'a node = { mutable next : 'a node; mutable value : Obj.t; mutable seq : int }

(* [next] is the record's first field, so the node itself serves as the
   atomic cell for it — OCaml 5's atomic primitives act on field 0 of the
   block they are given — and a node needs no separate [Atomic.t].  Once a
   node may be shared, [next] is read and written only through [succ] and
   [link]; the plain field is written only while the node is private. *)
external as_atomic : 'a node -> 'a node Atomic.t = "%identity"

let succ n = Atomic.get (as_atomic n)
let link t ~after:expected n = Atomic.compare_and_set (as_atomic t) expected n

(* Sentinel for "no item" and "no successor": immediate, GC-inert, and
   never dereferenced. *)
let nil : Obj.t = Obj.repr 0
let null () : 'a node = Obj.obj nil
let node v = { next = null (); value = Obj.repr v; seq = 0 }

type 'a t = {
  name : string;
  capacity : int;  (* 0 = unbounded *)
  eng : Engine.t;
  head : 'a node Atomic.t;  (* dummy: the last claimed node; items start at head.next *)
  tail : 'a node Atomic.t;  (* the last linked node, or a predecessor of it *)
  (* Flush corrections, written under [mon] by [filter]/[drain]: a
     re-enqueued survivor is not a new send, and a flushed item is sent
     but never received. *)
  mutable resent : int;
  mutable flushed_out : int;
  (* A head sequence number some sender read earlier: the head only
     advances, so occupancy measured against it is an upper bound, and a
     sender re-reads the head (a line every claim writes) only when the
     bound says the channel is full. *)
  mutable head_seen : int;
  mon : Monitor.m;
  nonempty : Monitor.c;
  nonfull : Monitor.c;
  mutable mx : (Metrics.t * chan_metrics) option;  (* benign racy cache *)
}

let create ?(capacity = 0) eng name =
  let dummy = { next = null (); value = nil; seq = -1 } in
  let mon = Monitor.create () in
  {
    name;
    capacity;
    eng;
    head = Atomic.make dummy;
    tail = Atomic.make dummy;
    resent = 0;
    flushed_out = 0;
    head_seen = -1;
    mon;
    nonempty = Monitor.cond mon;
    nonfull = Monitor.cond mon;
    mx = None;
  }

(* The node actually last in the queue: [tail] lags by at most the swing
   an enqueuer has yet to make. *)
let rec last_from n =
  let nx = succ n in
  if nx == null () then n else last_from nx

(* Head first: every node the tail reaches afterwards was linked no
   earlier than the head node, so the difference is never negative. *)
let length ch =
  let h = (Atomic.get ch.head).seq in
  (last_from (Atomic.get ch.tail)).seq - h

let name ch = ch.name
let is_empty ch = length ch = 0
let total_sent ch = (last_from (Atomic.get ch.tail)).seq + 1 - ch.resent
let total_received ch = (Atomic.get ch.head).seq + 1 - ch.flushed_out

(* ------------------------------------------------------------------ *)
(* The lock-free core.                                                 *)
(* ------------------------------------------------------------------ *)

(* Append the pre-linked chain [first..last] of [k] nodes with one CAS on
   the live tail's [next], numbering it after the tail first; then swing
   [tail] (cooperatively — a stalled swing is helped by the next
   enqueuer).  Returns the first node's sequence number. *)
let rec enqueue_chain ch first last k =
  let t = Atomic.get ch.tail in
  let nx = succ t in
  if nx != null () then begin
    (* Help a lagging enqueuer finish its tail swing. *)
    ignore (Atomic.compare_and_set ch.tail t nx : bool);
    enqueue_chain ch first last k
  end
  else begin
    let base = t.seq + 1 in
    if k = 1 then first.seq <- base
    else begin
      let n = ref first in
      for i = 0 to k - 1 do
        !n.seq <- base + i;
        if i < k - 1 then n := succ !n
      done
    end;
    if link t ~after:(null ()) first then begin
      ignore (Atomic.compare_and_set ch.tail t last : bool);
      base
    end
    else enqueue_chain ch first last k
  end

let enqueue ch v =
  let n = node v in
  enqueue_chain ch n n 1

(* One CAS on [head] claims the first node, which becomes the new dummy.
   Returns the claimed node ([null ()] when empty); its value is still in
   place, for {!take}. *)
let rec claim ch =
  let h = Atomic.get ch.head in
  let n = succ h in
  if n == null () then n
  else if Atomic.compare_and_set ch.head h n then n
  else claim ch

(* Read a claimed dummy's value and clear it for the GC. *)
let take n =
  let v = n.value in
  n.value <- nil;
  Obj.obj v

(* The [limit]-th node after [n], or the last one if the queue ends
   sooner. *)
let rec walk n limit =
  if limit = 0 then n
  else
    let nx = succ n in
    if nx == null () then n else walk nx (limit - 1)

(* The values of the claimed nodes [n..last], in order; clears [last],
   the new dummy. *)
let[@tail_mod_cons] rec collect n last =
  if n == last then [ take n ] else Obj.obj n.value :: collect (succ n) last

(* Claim up to [limit] nodes with a single CAS on [head].  The walk only
   follows [next] links, which never change once set; the values are
   read after the claim, when no one else can clear them.  Returns the
   claimed values in FIFO order, the receive sequence number of the first
   and their count — one list cell per item, so the result list can be
   forwarded downstream as-is (the zero-copy hand-off
   [Pipeline.drain_stage] relies on). *)
let rec claim_batch ch limit =
  let h = Atomic.get ch.head in
  let last = walk h limit in
  if last == h then ([], 0, 0)
  else if Atomic.compare_and_set ch.head h last then begin
    let first = succ h in
    (collect first last, first.seq, last.seq - h.seq)
  end
  else claim_batch ch limit

(* ------------------------------------------------------------------ *)
(* Metrics (same families and labels as the sim channels).             *)
(* ------------------------------------------------------------------ *)

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
              ~help:"Real time senders spent blocked on a full channel.";
          cm_recv_block =
            Metrics.histogram reg "parcae_chan_recv_block_ns" ~labels
              ~help:"Real time receivers spent blocked on an empty channel.";
          cm_flushed =
            Metrics.counter reg "parcae_chan_flushed_total" ~labels
              ~help:"Items dropped by filter/drain on reconfiguration.";
        }
      in
      ch.mx <- Some (reg, h);
      h

let note_depth ch =
  if Metrics.enabled () then
    Metrics.set_gauge (handles ch).cm_depth (float_of_int (length ch))

let note_send ch k waited t0 =
  if Metrics.enabled () then begin
    let h = handles ch in
    if k = 1 then Metrics.inc h.cm_sends else Metrics.inc_by h.cm_sends k;
    Metrics.set_gauge h.cm_depth (float_of_int (length ch));
    if waited then Metrics.observe_ns h.cm_send_block (Engine.now ch.eng - t0)
  end

let note_recv ch k waited t0 =
  if Metrics.enabled () then begin
    let h = handles ch in
    if k = 1 then Metrics.inc h.cm_recvs else Metrics.inc_by h.cm_recvs k;
    Metrics.set_gauge h.cm_depth (float_of_int (length ch));
    if waited then Metrics.observe_ns h.cm_recv_block (Engine.now ch.eng - t0)
  end

(* The wait instruments want a start time when either sink is live. *)
let observing () = Metrics.enabled () || Timeline.enabled ()

(* A measured block explains this worker lane's time as Chan_wait.  On the
   native engine the blocked *fiber* suspends and the domain may run other
   work meanwhile, so this can over-report; the timeline's clamped
   attribution transfer absorbs that (idle donor states first). *)
let tl_wait ch waited t0 =
  if waited then
    match Timeline.get () with
    | Some tl -> (
        match Engine.worker_id_opt () with
        | Some lane when lane < Timeline.lanes tl ->
            Timeline.attribute tl ~lane Timeline.Chan_wait (Engine.now ch.eng - t0)
        | _ -> ())
    | None -> ()

(* Sanitizer edges.  Native channels cannot use exact (chan, seq) pairing:
   an item's sequence number is fixed only by the CAS that also makes it
   visible to consumers, too late to publish the sender's clock under it.
   Instead the sender publishes into the
   channel's *cumulative* clock before enqueueing and the receiver
   acquires it after dequeueing — an over-approximation (a receive joins
   every earlier send on the channel) that can only add happens-before
   edges, never miss a real one, so it cannot produce false races. *)
let hb_send ch =
  if Hb.enabled () then
    match Engine.self_opt () with
    | Some t -> Hb.on_send ~task:(Engine.task_id t) ~chan:ch.name ~seq:(-1)
    | None -> ()

let hb_recv ch =
  if Hb.enabled () then
    match Engine.self_opt () with
    | Some t -> Hb.on_recv ~task:(Engine.task_id t) ~chan:ch.name ~seq:(-1)
    | None -> ()

let caller_ids () =
  match Engine.self_opt () with
  | Some task -> (Engine.task_id task, Engine.task_busy_ns task)
  | None -> (-1, 0)

(* [seq] is the node's number; the trace numbers sends and receives
   apart, each net of the flush corrections (as the sim's counters do). *)
let emit_send ch seq =
  if Trace.enabled () then begin
    let task, busy_ns = caller_ids () in
    Trace.emit ~t:(Engine.now ch.eng)
      (Event.Chan_send_ev { chan = ch.name; seq = seq - ch.resent; task; busy_ns })
  end

let emit_recv ch seq =
  if Trace.enabled () then begin
    let task, busy_ns = caller_ids () in
    Trace.emit ~t:(Engine.now ch.eng)
      (Event.Chan_recv_ev { chan = ch.name; seq = seq - ch.flushed_out; task; busy_ns })
  end

let emit_send_range ch base k =
  if Trace.enabled () then
    for i = 0 to k - 1 do
      emit_send ch (base + i)
    done

let emit_recv_range ch base k =
  if Trace.enabled () then
    for i = 0 to k - 1 do
      emit_recv ch (base + i)
    done

(* ------------------------------------------------------------------ *)
(* Blocking protocol.                                                  *)
(* ------------------------------------------------------------------ *)

(* Free places, by the cached head when that already shows some. *)
let room ch =
  let last = (last_from (Atomic.get ch.tail)).seq in
  let r = ch.capacity - (last - ch.head_seen) in
  if r > 0 then r
  else begin
    let h = (Atomic.get ch.head).seq in
    ch.head_seen <- h;
    ch.capacity - (last - h)
  end

let has_room ch = ch.capacity = 0 || room ch > 0

(* Wake-ups cost one atomic load unless someone is parked. *)
let wake_recv ch ~all = if all then Monitor.wake_all ch.nonempty else Monitor.wake ch.nonempty

let wake_send ch ~all =
  if ch.capacity > 0 then if all then Monitor.wake_all ch.nonfull else Monitor.wake ch.nonfull

let await_room ch = Monitor.await ch.nonfull (fun () -> has_room ch)

let send ch v =
  let waited = not (has_room ch) in
  let t0 = if waited && observing () then Engine.now ch.eng else 0 in
  if waited then await_room ch;
  hb_send ch;
  let seq = enqueue ch v in
  wake_recv ch ~all:false;
  note_send ch 1 waited t0;
  tl_wait ch waited t0;
  emit_send ch seq

let force_send ch v =
  (* Sentinel re-enqueue must never block: ignore capacity. *)
  hb_send ch;
  let seq = enqueue ch v in
  wake_recv ch ~all:false;
  note_send ch 1 false 0;
  emit_send ch seq

let try_send ch v =
  if not (has_room ch) then false
  else begin
    hb_send ch;
    let seq = enqueue ch v in
    wake_recv ch ~all:false;
    note_send ch 1 false 0;
    emit_send ch seq;
    true
  end

(* Finish a receive of the claimed node [n]. *)
let received ch n waited t0 =
  let seq = n.seq in
  let v = take n in
  hb_recv ch;
  wake_send ch ~all:false;
  note_recv ch 1 waited t0;
  tl_wait ch waited t0;
  emit_recv ch seq;
  v

let recv ch =
  let n = claim ch in
  if n != null () then received ch n false 0
  else begin
    let t0 = if observing () then Engine.now ch.eng else 0 in
    let n = ref n in
    Monitor.await ch.nonempty (fun () ->
        n := claim ch;
        !n != null ());
    received ch !n true t0
  end

let try_recv ch =
  let n = claim ch in
  if n == null () then None else Some (received ch n false 0)

(* Link [vs] after [last] until the chunk holds [room] nodes, publish the
   chunk [first..last] with one CAS, and return the values left over. *)
let rec publish_chunk ch first last k room vs =
  match vs with
  | v :: tl when k < room ->
      let n = node v in
      last.next <- n;
      publish_chunk ch first n (k + 1) room tl
  | rest ->
      let base = enqueue_chain ch first last k in
      wake_recv ch ~all:(k > 1);
      emit_send_range ch base k;
      rest

(* Bounded channels take the batch in capacity-sized chunks, waiting for
   room between chunks, so a batch larger than the capacity wraps through
   the queue instead of overshooting it wholesale.  Returns whether any
   chunk had to wait. *)
let rec send_chunks ch vs waited =
  match vs with
  | [] -> waited
  | v :: tl ->
      let full = not (has_room ch) in
      if full then await_room ch;
      let room = if ch.capacity = 0 then max_int else max 1 (room ch) in
      let first = node v in
      send_chunks ch (publish_chunk ch first first 1 room tl) (waited || full)

let send_batch ch vs =
  if vs <> [] then begin
    let t0 = if observing () then Engine.now ch.eng else 0 in
    hb_send ch;
    let waited = send_chunks ch vs false in
    if Metrics.enabled () then note_send ch (List.length vs) waited t0;
    tl_wait ch waited t0
  end

(* The claimed list is returned verbatim: the fast path re-sends these
   very cells downstream, so no copy is made here. *)
let deliver ch (items, base, k) waited t0 =
  hb_recv ch;
  wake_send ch ~all:true;
  note_recv ch k waited t0;
  tl_wait ch waited t0;
  emit_recv_range ch base k;
  items

let claim_upto ch limit = claim_batch ch (if limit = max_int then max 1 (length ch) else limit)

let recv_batch ?max ch =
  let limit =
    match max with
    | Some m ->
        if m < 1 then invalid_arg "Chan.recv_batch: max must be >= 1";
        m
    | None -> max_int
  in
  (* Blocks only while the channel is empty; returns 1..limit items. *)
  match claim_upto ch limit with
  | (_ :: _, _, _) as got -> deliver ch got false 0
  | [], _, _ ->
      let t0 = if observing () then Engine.now ch.eng else 0 in
      let got = ref ([], 0, 0) in
      Monitor.await ch.nonempty (fun () ->
          got := claim_upto ch limit;
          match !got with [], _, _ -> false | _ -> true);
      deliver ch !got true t0

(* ------------------------------------------------------------------ *)
(* Flush operations (pause-window protocol).                           *)
(* ------------------------------------------------------------------ *)

let flush_note ch removed =
  if removed > 0 then wake_send ch ~all:true;
  if Trace.enabled () then
    Trace.emit ~t:(Engine.now ch.eng) (Event.Chan_flush { chan = ch.name; dropped = removed });
  if Metrics.enabled () then begin
    Metrics.inc_by (handles ch).cm_flushed removed;
    note_depth ch
  end

let take_all ch =
  let rec go acc =
    match claim_batch ch 1024 with
    | [], _, _ -> List.concat (List.rev acc)
    | items, _, _ -> go (items :: acc)
  in
  go []

let filter ch keep =
  Monitor.locked ch.mon (fun () ->
      let items = take_all ch in
      let kept = List.filter keep items in
      let n = List.length items and k = List.length kept in
      (* Re-enqueue survivors in order.  The corrections keep the totals to
         real traffic, not the flush round-trip (flushed items stay "sent
         but never received", like the sim). *)
      List.iter (fun v -> ignore (enqueue ch v : int)) kept;
      ch.resent <- ch.resent + k;
      ch.flushed_out <- ch.flushed_out + n;
      if kept <> [] then wake_recv ch ~all:true;
      flush_note ch (n - k);
      n - k)

let drain ch =
  Monitor.locked ch.mon (fun () ->
      let n = List.length (take_all ch) in
      ch.flushed_out <- ch.flushed_out + n;
      flush_note ch n;
      n)
