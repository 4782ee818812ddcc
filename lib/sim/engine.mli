(** The discrete-event simulation engine.

    An engine owns a virtual clock and a pending-event queue. Events
    are closures scheduled at absolute or relative virtual times; [run]
    executes them in time order (FIFO among equal times). Every
    scheduling primitive except {!schedule_at_seq} returns a {!timer}
    handle, an immediate int, so scheduling and cancelling allocate
    nothing beyond the event's own closure (if any). Cancellation is
    O(1) and leaves a tombstone that the run loop discards; when
    tombstones outgrow half the queue the heap is compacted in place,
    so its size stays proportional to the live event count no matter
    how aggressively timers are cancelled.

    The queue is a hierarchical timer wheel layered over an exact
    (time, seq) binary heap (DESIGN.md §12). Timers within the wheel
    horizon (256^3 ticks of 1 ms — about 4.7 hours of virtual time
    ahead of the flushed frontier) insert in O(1); due wheel buckets
    are flushed {e into the heap}, which alone decides firing order —
    so the firing sequence is byte-identical to a pure heap. Past,
    immediate and beyond-horizon timers go straight to the heap, which
    doubles as the overflow level.

    The engine also owns the experiment's root {!Rng.t} so that a
    simulation is a deterministic function of its seed. *)

type t

type timer = private int
(** A handle on a scheduled event: its slot id and the sequence key it
    was scheduled under, packed into one immediate int. Storing one in
    an [int]-like array column or a mutable field costs no allocation
    and no write barrier. Once the event fires or is cancelled its slot
    is recycled under a fresh key, so a stale handle is never mistaken
    for the slot's new occupant. The packing holds 2^24 simultaneously
    pending events and 2^38 scheduled ones; an engine that would exceed
    either raises [Failure] instead of reusing a handle. *)

val no_timer : timer
(** A handle that is never pending, for "no timer armed" fields:
    {!cancel} ignores it and {!is_pending} is false. *)

val create : ?seed:int64 -> ?backend:[ `Wheel | `Heap ] -> unit -> t
(** Fresh engine at time 0.0. Default seed is 1. [backend] selects the
    pending-event structure: [`Wheel] (the default) is the
    wheel-over-heap hybrid; [`Heap] bypasses the wheel and inserts
    every timer directly into the heap — the reference oracle the
    differential scheduler tests compare against. Both backends fire
    the same events in the same order at the same times. *)

type clock = private { mutable now : float }
(** The engine's virtual clock, in seconds. A record whose only field
    is a float is stored flat, so reading [(clock t).now] yields an
    unboxed float and the engine's per-event store into it allocates
    nothing. Per-event readers (network walks, protocol hosts, taps)
    fetch the record once with {!clock} and read [.now] directly.
    [private]: only the engine advances it. *)

val clock : t -> clock
(** The engine's clock record. It is the same record for the engine's
    whole life, so callers may cache it. *)

val now : t -> float
(** Current virtual time, in seconds. The result crosses a module
    boundary, so it is boxed: 16 bytes per call. For cold callers
    (setup, reports, shard windows); code that runs on every event
    reads {!clock} instead. *)

val rng : t -> Rng.t
(** The engine's root generator. Hosts should [Rng.split] it. *)

val schedule : t -> after:float -> (unit -> unit) -> timer
(** [schedule t ~after f] runs [f] at [now t +. after]. Negative delays
    are clamped to 0: the fire time is [now t +. max after 0.]. *)

val schedule_at : t -> at:float -> (unit -> unit) -> timer
(** [schedule_at t ~at f] runs [f] at absolute time [at]; clamped to
    [now t] if already past. *)

val schedule_call : t -> times:float array -> int -> (int -> unit) -> int -> timer
(** [schedule_call t ~times i f arg] runs [f arg] at time [times.(i)],
    clamped to the current time if already past. The caller writes the
    time into a float array cell, so it is read in place and never
    boxed, and the {e shared} closure is dispatched with the immediate
    [int] argument, so scheduling allocates nothing (no per-event
    closure, no float box; the handle is an int). It is the network's
    delivery primitive (each arrival time sits in the walk's [arrive]
    array; the network ignores the handle) and the SRM host's
    recovery-timer primitive, which cancels it like any other timer.
    Consumes the same (time, seq) key a [schedule_at] would, so mixing
    the primitives preserves firing order exactly. *)

val reserve_seqs : t -> int -> int
(** [reserve_seqs t n] reserves the next [n] sequence keys and returns
    the first. A streaming producer replacing an eager
    schedule-everything-upfront loop reserves exactly the block the
    loop would have consumed and attaches each key with
    {!schedule_at_seq} as it goes: every event then carries the same
    (time, seq) heap key as under the eager schedule and [next_seq]
    ends in the same place, so firing order is byte-identical by
    construction.
    @raise Invalid_argument on a negative count. *)

val schedule_at_seq : t -> at:float -> seq:int -> (unit -> unit) -> unit
(** [schedule_at_seq t ~at ~seq f] is [schedule_at] with a
    caller-provided sequence key (from {!reserve_seqs}) instead of
    consuming the engine's counter. Not cancellable. *)

val every_epoch : t -> every:float -> until:float -> (unit -> unit) -> unit
(** [every_epoch t ~every ~until f] runs [f] every [every] seconds of
    virtual time, starting at [now t +. every], as long as the tick
    time is [<= until]. Ticks send no packets and draw no randomness;
    each consumes one sequence key like any scheduled event, shifting
    later keys uniformly without reordering anything. Drives the
    steady-state retirement controller.
    @raise Invalid_argument unless [every > 0]. *)

val epochs_ticked : t -> int
(** Epoch ticks fired over the engine's lifetime. *)

val next_time : t -> float option
(** Fire time of the next live event, without executing it ([None] when
    nothing is pending). Used by the conservative-parallel driver to
    run an engine window-by-window. *)

val cancel : t -> timer -> unit
(** [cancel t timer] cancels a pending timer of [t]. Cancelling a
    fired or already-cancelled timer, or {!no_timer}, is a no-op. *)

val is_pending : t -> timer -> bool
(** True if the timer has neither fired nor been cancelled. *)

val fire_time : t -> timer -> float
(** The virtual time at which a pending timer fires (after clamping to
    the clock at scheduling time).
    @raise Invalid_argument if the timer is not pending: a fired or
    cancelled handle's slot may already hold another event. *)

val pending_events : t -> int
(** Number of live (non-cancelled) events still queued. O(1): the
    engine keeps a counter, incremented on schedule and decremented on
    cancel/fire. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Execute events in order until the queue is empty, the clock would
    pass [until], or [max_events] events have run. Events scheduled at
    exactly [until] are executed. *)

val step : t -> bool
(** Execute the single next live event. Returns [false] if none. *)

val events_fired : t -> int
(** Events executed over the engine's lifetime. *)

val events_cancelled : t -> int

val publish_metrics : t -> Obs.Registry.t -> unit
(** Snapshot the engine's lifetime statistics (events fired/cancelled,
    heap compactions, wheel inserts/cascades, heap and slot high-water
    marks, final clock) into the registry under the ["sim/"] prefix.
    Pull-based: call it once at end of run; the running engine
    maintains only plain int counters. *)
