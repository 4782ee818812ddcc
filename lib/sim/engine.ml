(* The pending-event queue is a binary min-heap over *slot ids* — small
   ints indexing parallel unboxed [times]/[seqs] arrays — rather than a
   heap of timer records. Sift comparisons are primitive float/int
   reads (no closure call, no polymorphic compare) and sift swaps store
   immediate ints (no caml_modify write barrier), which together are
   the bulk of the event core's cost on long traces. Slots are recycled
   through a free stack. A handle is an immediate int packing the slot
   id with the sequence key the slot was scheduled under; a recycled
   slot carries a fresh key, so a stale cancel on it is a no-op.

   On top of the heap sits a hierarchical timer wheel (the default
   [`Wheel] backend; DESIGN.md §12). SRM-style workloads are dominated
   by bounded-horizon timers — request/repair back-offs, session
   heartbeats, CESRM expedited deadlines — that are scheduled and
   cancelled far more often than they fire; at 10k receivers the
   O(log n) heap insert per schedule is the scheduler's hot path. The
   wheel gives O(1) insert for any timer within its horizon, and keeps
   the heap small (its O(log n) costs scale with the *due* events, not
   the pending ones).

   The wheel NEVER fires events itself: a due bucket is flushed *into
   the heap*, and the heap alone decides firing order by the exact
   (time, seq) lexicographic key. Firing order is therefore
   byte-identical to the pure-heap backend — the wheel only changes
   when an event enters the heap, never when it leaves. Far-future
   timers (beyond the wheel horizon) and past/immediate ones go
   straight into the heap, which doubles as the overflow level and,
   via [~backend:`Heap], as the reference oracle the differential
   tests compare against.

   Geometry: ticks of [granularity] seconds (1 ms), [wheel_slots] = 256
   physical slots per level, 3 levels. Level l spans 256^(l+1) ticks;
   anything past 256^3 ticks (~4.7 h of virtual time) overflows to the
   heap. A frontier tick F (monotone, >= tick(clock)) tracks how far
   the wheel has been flushed. An event with tick T' lands in the
   smallest level l with T' - F <= 256^(l+1); its bucket is
   T' / 256^l, stored at physical slot (T' / 256^l) mod 256. Because
   occupied buckets at level l always lie in the window
   [F/256^l + 1, F/256^l + 256] — exactly 256 consecutive values,
   injective mod 256 — a physical slot never mixes two logical
   buckets. *)

let wheel_bits = 8

let wheel_slots = 1 lsl wheel_bits (* 256 *)

let wheel_mask = wheel_slots - 1

let wheel_levels = 3

(* Horizon in ticks: 256^3. Kept as a float for the overflow test so
   absurdly large times never reach int_of_float. *)
let wheel_span_f = 16777216.

(* Tick granularity is 1 ms; times are converted with the inverse to
   keep the hot path on a multiply. *)
let inv_granularity = 1e3

(* A flat float record: OCaml stores a record whose fields are all
   floats unboxed, so [step]'s per-event store into [now] allocates
   nothing. A float field of the mixed record [t] would instead point
   to a fresh 16-byte box on every event. *)
type clock = { mutable now : float }

type t = {
  clock : clock;
  mutable next_seq : int;
  root_rng : Rng.t;
  mutable live : int; (* pending (scheduled, not fired/cancelled) timers *)
  (* Slot tables, indexed by slot id. [actions] holds the physical
     sentinel [no_action] for cancelled / fired / free slots. A slot
     holding the [call_marker] sentinel instead dispatches through the
     parallel [calls]/[args] columns — a shared [int -> unit] closure
     plus an immediate argument — so the network's delivery fan-out
     (the dominant scheduler client at scale) and the SRM hosts'
     recovery timers cost zero allocations per event: no per-event
     closure, no boxed time, and the handle is an immediate int. *)
  mutable times : float array;
  mutable seqs : int array;
  mutable actions : (unit -> unit) array;
  mutable calls : (int -> unit) array;
  mutable args : int array;
  mutable free : int array; (* stack of recycled slot ids *)
  mutable free_top : int;
  mutable n_slots : int; (* slot high-water mark *)
  (* The heap proper: [heap.(0 .. size-1)] are slot ids. *)
  mutable heap : int array;
  mutable size : int;
  (* The wheel: [buckets.(level * 256 + phys_slot)] heads an intrusive
     singly-linked list through [wheel_next]; -1 terminates. A slot id
     is in at most one structure (wheel xor heap), flagged by
     [in_wheel]. *)
  wheel_enabled : bool;
  buckets : int array;
  mutable wheel_next : int array;
  mutable in_wheel : bool array;
  mutable frontier : int; (* max flushed tick; >= tick(clock) *)
  mutable wheel_live : int; (* live (non-cancelled) wheel residents *)
  (* Lifetime statistics, published via [publish_metrics]: plain int
     stores on paths that already write the adjacent fields, so they
     cost nothing measurable. *)
  mutable n_fired : int;
  mutable n_epochs : int;
  mutable n_cancelled : int;
  mutable n_compactions : int;
  mutable max_heap_size : int;
  mutable n_wheel_inserts : int;
  mutable n_wheel_cascades : int;
}

(* A handle packs [(seq lsl slot_bits) lor slot]: an immediate int, so
   making, storing and checking one allocates nothing. 24 slot bits
   allow 16.7M simultaneously pending events, and the 38 key bits
   2.7 * 10^11 scheduled events; past either limit the engine fails
   rather than let two handles collide. *)
type timer = int

let slot_bits = 24

let slot_mask = (1 lsl slot_bits) - 1

let max_handle_seq = (1 lsl (62 - slot_bits)) - 1

(* Never pending: its key field ([-1 asr slot_bits] = -1) matches no
   slot's sequence key. *)
let no_timer = -1

let no_action () = ()

(* Distinct physical sentinel marking a slot scheduled via
   [schedule_call]. Must never be [no_action]: cancellation, compaction
   and tombstone sweeps all compare against [no_action] and a call slot
   is live until it fires. *)
let call_marker () = ()

let no_call (_ : int) = ()

let create ?(seed = 1L) ?(backend = `Wheel) () =
  {
    clock = { now = 0. };
    next_seq = 0;
    root_rng = Rng.create seed;
    live = 0;
    times = [||];
    seqs = [||];
    actions = [||];
    calls = [||];
    args = [||];
    free = [||];
    free_top = 0;
    n_slots = 0;
    heap = [||];
    size = 0;
    wheel_enabled = (backend = `Wheel);
    buckets = Array.make (wheel_levels * wheel_slots) (-1);
    wheel_next = [||];
    in_wheel = [||];
    frontier = 0;
    wheel_live = 0;
    n_fired = 0;
    n_epochs = 0;
    n_cancelled = 0;
    n_compactions = 0;
    max_heap_size = 0;
    n_wheel_inserts = 0;
    n_wheel_cascades = 0;
  }

let clock t = t.clock

let now t = t.clock.now

let rng t = t.root_rng

(* Heap order: (time, seq) lexicographic — FIFO among equal times.
   Times are clamped real numbers, never NaN. *)
let[@inline] earlier t a b =
  let ta = t.times.(a) and tb = t.times.(b) in
  if ta < tb then true else if ta > tb then false else t.seqs.(a) < t.seqs.(b)

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if earlier t t.heap.(i) t.heap.(p) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(p);
      t.heap.(p) <- tmp;
      sift_up t p
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.size then begin
    let r = l + 1 in
    let m = if r < t.size && earlier t t.heap.(r) t.heap.(l) then r else l in
    if earlier t t.heap.(m) t.heap.(i) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(m);
      t.heap.(m) <- tmp;
      sift_down t m
    end
  end

let grow_slots t =
  let cap = Array.length t.times in
  if cap > slot_mask then failwith "Engine: more than 2^24 pending events";
  let cap' = if cap = 0 then 64 else min (2 * cap) (slot_mask + 1) in
  let times' = Array.make cap' 0. and seqs' = Array.make cap' 0 in
  let actions' = Array.make cap' no_action and free' = Array.make cap' 0 in
  let calls' = Array.make cap' no_call and args' = Array.make cap' 0 in
  let wheel_next' = Array.make cap' (-1) and in_wheel' = Array.make cap' false in
  Array.blit t.times 0 times' 0 cap;
  Array.blit t.seqs 0 seqs' 0 cap;
  Array.blit t.actions 0 actions' 0 cap;
  Array.blit t.calls 0 calls' 0 cap;
  Array.blit t.args 0 args' 0 cap;
  Array.blit t.free 0 free' 0 t.free_top;
  Array.blit t.wheel_next 0 wheel_next' 0 cap;
  Array.blit t.in_wheel 0 in_wheel' 0 cap;
  t.times <- times';
  t.seqs <- seqs';
  t.actions <- actions';
  t.calls <- calls';
  t.args <- args';
  t.free <- free';
  t.wheel_next <- wheel_next';
  t.in_wheel <- in_wheel'

let alloc_slot t =
  if t.free_top > 0 then begin
    t.free_top <- t.free_top - 1;
    t.free.(t.free_top)
  end
  else begin
    if t.n_slots = Array.length t.times then grow_slots t;
    let s = t.n_slots in
    t.n_slots <- t.n_slots + 1;
    s
  end

let free_slot t s =
  t.actions.(s) <- no_action;
  t.free.(t.free_top) <- s;
  t.free_top <- t.free_top + 1

let heap_push t s =
  if t.size = Array.length t.heap then begin
    let cap' = if t.size = 0 then 64 else 2 * t.size in
    let heap' = Array.make cap' 0 in
    Array.blit t.heap 0 heap' 0 t.size;
    t.heap <- heap'
  end;
  t.heap.(t.size) <- s;
  t.size <- t.size + 1;
  if t.size > t.max_heap_size then t.max_heap_size <- t.size;
  sift_up t (t.size - 1)

(* Pop the root slot; the caller decides whether it is live. *)
let heap_pop t =
  let s = t.heap.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.heap.(0) <- t.heap.(t.size);
    sift_down t 0
  end;
  s

(* Route a pending slot into the wheel or the heap. The tick
   comparison against the frontier is what preserves order: anything
   at or before the flushed frontier must be heap-resident so the heap
   sees the complete set of candidates <= any time it fires. *)
let insert_pending t s =
  if not t.wheel_enabled then heap_push t s
  else begin
    let ft = t.times.(s) *. inv_granularity in
    if ft >= float_of_int t.frontier +. wheel_span_f then heap_push t s (* overflow level *)
    else begin
      let tick = int_of_float ft in
      let delta = tick - t.frontier in
      if delta <= 0 then heap_push t s
      else begin
        let level =
          if delta <= wheel_slots then 0
          else if delta <= wheel_slots * wheel_slots then 1
          else 2
        in
        let idx =
          (level lsl wheel_bits) lor ((tick lsr (wheel_bits * level)) land wheel_mask)
        in
        t.in_wheel.(s) <- true;
        t.wheel_next.(s) <- t.buckets.(idx);
        t.buckets.(idx) <- s;
        t.wheel_live <- t.wheel_live + 1;
        t.n_wheel_inserts <- t.n_wheel_inserts + 1
      end
    end
  end

(* Move every entry of a due level-0 bucket into the heap (dropping
   tombstones), or re-insert a cascading level>=1 bucket one level
   down. Entries keep their original (time, seq) keys, so the heap's
   extraction order is oblivious to when they were flushed. *)
let flush_level0 t idx =
  let s = ref t.buckets.(idx) in
  if !s >= 0 then begin
    t.buckets.(idx) <- -1;
    while !s >= 0 do
      let next = t.wheel_next.(!s) in
      t.in_wheel.(!s) <- false;
      if t.actions.(!s) != no_action then begin
        t.wheel_live <- t.wheel_live - 1;
        heap_push t !s
      end
      else free_slot t !s;
      s := next
    done
  end

let cascade t ~level ~phys =
  let idx = (level lsl wheel_bits) lor phys in
  let s = ref t.buckets.(idx) in
  if !s >= 0 then begin
    t.buckets.(idx) <- -1;
    t.n_wheel_cascades <- t.n_wheel_cascades + 1;
    while !s >= 0 do
      let next = t.wheel_next.(!s) in
      t.in_wheel.(!s) <- false;
      if t.actions.(!s) != no_action then begin
        t.wheel_live <- t.wheel_live - 1;
        insert_pending t !s
      end
      else free_slot t !s;
      s := next
    done
  end

(* Advance the frontier to [target], cascading higher levels at their
   period boundaries and pushing every due level-0 bucket into the
   heap. Tick-by-tick: empty buckets cost one array read, and the
   frontier only ever travels the virtual-time span of the run. *)
let advance_frontier t target =
  while t.frontier < target do
    let f = t.frontier + 1 in
    t.frontier <- f;
    if f land wheel_mask = 0 then begin
      if f land ((wheel_slots * wheel_slots) - 1) = 0 then
        cascade t ~level:2 ~phys:((f lsr (2 * wheel_bits)) land wheel_mask);
      cascade t ~level:1 ~phys:((f lsr wheel_bits) land wheel_mask)
    end;
    flush_level0 t (f land wheel_mask)
  done

(* Queue slot [s], whose time (clamped to the clock) and action are
   set, under the next sequence key, and return its handle. *)
let[@inline] enqueue t s =
  let seq = t.next_seq in
  if seq > max_handle_seq then failwith "Engine: handle sequence keys exhausted";
  t.seqs.(s) <- seq;
  t.next_seq <- seq + 1;
  insert_pending t s;
  t.live <- t.live + 1;
  (seq lsl slot_bits) lor s

let[@inline] schedule_at t ~at f =
  let at = if at < t.clock.now then t.clock.now else at in
  let s = alloc_slot t in
  t.times.(s) <- at;
  t.actions.(s) <- f;
  enqueue t s

(* Inlining [schedule_at] keeps the absolute time unboxed on its way
   to the slot table. *)
let schedule t ~after f = schedule_at t ~at:(t.clock.now +. if after < 0. then 0. else after) f

(* Allocation-free scheduling: the shared closure [f] is dispatched
   with the immediate [arg] — no per-event closure — and the fire time
   is read from the caller's float array, so it is never boxed on the
   way in (a [float] argument to a function of another module is a
   pointer to a box). The handle is an immediate int. Consumes
   [next_seq] exactly as [schedule_at] does, so interleaving the
   primitives preserves the engine's (time, seq) firing order: a run
   that swaps one for the other (with the same events) fires
   identically. *)
let schedule_call t ~times i f arg =
  let at = times.(i) in
  let now = t.clock.now in
  let s = alloc_slot t in
  t.times.(s) <- (if at < now then now else at);
  t.actions.(s) <- call_marker;
  t.calls.(s) <- f;
  t.args.(s) <- arg;
  enqueue t s

(* Reserve a contiguous block of sequence keys without scheduling
   anything. A streaming producer that replaces an eager
   schedule-everything-upfront loop grabs the exact seq block the loop
   would have consumed, then attaches each reserved key with
   [schedule_at_seq] as it goes: every event carries the same
   (time, seq) heap key as in the eager schedule, and [next_seq] ends
   up in the same place, so the run is byte-identical by
   construction. *)
let reserve_seqs t n =
  if n < 0 then invalid_arg "Engine.reserve_seqs: negative count";
  let base = t.next_seq in
  t.next_seq <- t.next_seq + n;
  base

(* Schedule with a caller-provided seq key (from [reserve_seqs])
   instead of consuming [next_seq]. Not cancellable: reserved keys are
   disjoint from every handle's key (both are drawn from the same
   monotone counter, by different calls), so slot reuse stays safe. *)
let schedule_at_seq t ~at ~seq f =
  let at = if at < t.clock.now then t.clock.now else at in
  let s = alloc_slot t in
  t.times.(s) <- at;
  t.seqs.(s) <- seq;
  t.actions.(s) <- f;
  insert_pending t s;
  t.live <- t.live + 1

(* Engine-level epoch tick: a self-rescheduling callback used by the
   steady-state controller to drive state retirement. Ticks send no
   packets and draw no randomness; each one consumes [next_seq] like
   any other scheduled event, which shifts later seq keys uniformly —
   relative firing order among all other events is unchanged. *)
let every_epoch t ~every ~until f =
  if not (every > 0.) then invalid_arg "Engine.every_epoch: non-positive period";
  let rec arm at =
    ignore
      (schedule_at t ~at (fun () ->
           t.n_epochs <- t.n_epochs + 1;
           f ();
           let at' = at +. every in
           if at' <= until then arm at'))
  in
  let first = t.clock.now +. every in
  if first <= until then arm first

let epochs_ticked t = t.n_epochs

let[@inline] is_pending t timer =
  let s = timer land slot_mask in
  s < t.n_slots && t.seqs.(s) = timer asr slot_bits && t.actions.(s) != no_action

(* SRM-style suppression cancels timers constantly, so tombstones can
   outnumber live events by orders of magnitude over a long trace.
   Rebuild the heap in place once dead entries exceed half the queue;
   the O(n) rebuild amortizes against the cancellations that caused it
   and keeps the heap (and its O(log n) operations) proportional to the
   live event count. Wheel residents are invisible to the heap, so the
   trigger counts only heap-local live entries; dead wheel entries are
   swept when their bucket flushes. *)
let compact_if_needed t =
  let heap_live = t.live - t.wheel_live in
  if t.size > 64 && 2 * (t.size - heap_live) > t.size then begin
    let j = ref 0 in
    for i = 0 to t.size - 1 do
      let s = t.heap.(i) in
      if t.actions.(s) != no_action then begin
        t.heap.(!j) <- s;
        incr j
      end
      else free_slot t s
    done;
    t.size <- !j;
    t.n_compactions <- t.n_compactions + 1;
    (* Floyd heapify: O(n) rebuild of the heap invariant. *)
    for i = (t.size / 2) - 1 downto 0 do
      sift_down t i
    done
  end

(* Cancellation leaves a tombstone; the run loop, the bucket flushes
   and the compaction pass discard dead slots. O(1) in both backends
   (a wheel resident stays chained in its bucket until flushed).
   Clearing a call slot's closure drops the engine's reference to its
   environment, as firing does. *)
let cancel t timer =
  if is_pending t timer then begin
    let s = timer land slot_mask in
    t.actions.(s) <- no_action;
    t.calls.(s) <- no_call;
    t.live <- t.live - 1;
    t.n_cancelled <- t.n_cancelled + 1;
    if t.in_wheel.(s) then t.wheel_live <- t.wheel_live - 1
    else compact_if_needed t
  end

let fire_time t timer =
  if not (is_pending t timer) then invalid_arg "Engine.fire_time: timer not pending";
  t.times.(timer land slot_mask)

let pending_events t = t.live

(* Discard leading tombstones so the horizon check sees a live event. *)
let rec drop_dead t =
  t.size > 0
  &&
  let s = t.heap.(0) in
  if t.actions.(s) == no_action then begin
    ignore (heap_pop t);
    free_slot t s;
    drop_dead t
  end
  else true

(* Establish: the heap root is the globally next live event (no
   wheel resident is due at or before it). Returns false iff nothing
   is pending anywhere. After a flush the root may have changed to an
   earlier flushed event, so loop to the fixed point — the frontier is
   monotone, so at most one extra pass per flush. *)
let rec ensure_next t =
  if drop_dead t then
    if t.wheel_live = 0 then true
    else begin
      let ft = t.times.(t.heap.(0)) *. inv_granularity in
      if ft >= float_of_int t.frontier +. wheel_span_f then begin
        (* Heap root beyond the wheel horizon: flush the whole wheel
           (rare: only when every near-term timer was cancelled). *)
        advance_frontier t (t.frontier + int_of_float wheel_span_f);
        ensure_next t
      end
      else begin
        let target = int_of_float ft in
        if target <= t.frontier then true
        else begin
          advance_frontier t target;
          ensure_next t
        end
      end
    end
  else if t.wheel_live > 0 then begin
    (* Heap empty but the wheel holds live timers: advance until a
       flush lands one in the heap. Terminates because each live
       resident is within the horizon. *)
    while t.size = 0 && t.wheel_live > 0 do
      advance_frontier t (t.frontier + 1)
    done;
    ensure_next t
  end
  else false

let step t =
  if ensure_next t then begin
    let s = heap_pop t in
    let f = t.actions.(s) in
    t.live <- t.live - 1;
    t.n_fired <- t.n_fired + 1;
    t.clock.now <- t.times.(s);
    if f == call_marker then begin
      (* Read out the call before freeing: the callee may schedule into
         the recycled slot. Clearing the column drops the engine's
         reference to the shared closure's environment. *)
      let g = t.calls.(s) and a = t.args.(s) in
      t.calls.(s) <- no_call;
      free_slot t s;
      g a
    end
    else begin
      free_slot t s;
      f ()
    end;
    true
  end
  else false

let next_time t = if ensure_next t then Some t.times.(t.heap.(0)) else None

let run ?until ?max_events t =
  let budget = ref (match max_events with None -> max_int | Some n -> n) in
  let continue () =
    !budget > 0
    && ensure_next t
    &&
    match until with None -> true | Some horizon -> t.times.(t.heap.(0)) <= horizon
  in
  while continue () && step t do
    decr budget
  done

let events_fired t = t.n_fired

let events_cancelled t = t.n_cancelled

(* End-of-run snapshot of the engine's lifetime statistics; pull-based,
   so a run without a registry attached pays nothing beyond the int
   stores above. *)
let publish_metrics t registry =
  Obs.Registry.incr ~by:t.n_fired registry "sim/events_fired";
  Obs.Registry.incr ~by:t.n_epochs registry "sim/epoch_ticks";
  Obs.Registry.incr ~by:t.n_cancelled registry "sim/events_cancelled";
  Obs.Registry.incr ~by:t.n_compactions registry "sim/heap_compactions";
  Obs.Registry.incr ~by:t.n_wheel_inserts registry "sim/wheel_inserts";
  Obs.Registry.incr ~by:t.n_wheel_cascades registry "sim/wheel_cascades";
  Obs.Registry.set_gauge registry "sim/heap_max_size" (float_of_int t.max_heap_size);
  Obs.Registry.set_gauge registry "sim/slots_high_water" (float_of_int t.n_slots);
  Obs.Registry.set_gauge registry "sim/clock_end" t.clock.now
