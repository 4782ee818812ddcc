(** The windowed state-retirement controller.

    Owns the protocol-wide stability floor for a steady run: at every
    epoch tick it reads each member's contiguously-delivered prefix,
    lifts the floor to [min prefix - window] (monotone, never
    negative), and tells every member — and any registered extras,
    e.g. the {!Harness.Audit} auditor — to forget state at or below
    it. A packet below the floor has been delivered by {e all} members
    for at least a window's worth of stream, so no loss that still
    needs recovery state can name it; replies for it remain possible
    because data buffers answer for any seq at or below their base.

    The controller is deliberately protocol-agnostic: members are
    closures, so SRM, CESRM and LMS hosts (or anything else with
    per-packet soft state) register the same way.

    It also records the peak major heap ([Gc.quick_stat]) at each
    tick. Heap size follows the GC's pacing as well as live state, so
    the bench's leak gate reads live words instead ({!decile_growth}
    over forced-collection samples taken from an [on_retire] hook). *)

type t

type member = {
  node : int;
  delivered_prefix : unit -> int;
      (** highest [p] with packets 1..p all delivered locally *)
  retire : upto:int -> unit;
      (** drop per-packet state for seqs at or below the floor *)
}

val create : window:int -> t
(** @raise Invalid_argument if [window < 1]. *)

val add_member : t -> member -> unit

val on_retire : t -> (upto:int -> unit) -> unit
(** Register a non-member retirement hook (auditor, instrumentation).
    At a tick whose floor advanced, hooks run after every member has
    retired, newest first. *)

val tick : t -> unit
(** One epoch: advance the floor, retire if it moved, note the peak heap.
    Runs no protocol actions and draws no randomness — scheduling it
    shifts engine sequence numbers uniformly but changes no behaviour. *)

val floor : t -> int
(** The current stability floor (0 before any retirement). *)

val ticks : t -> int

val peak_heap_words : t -> int
(** Max [top_heap_words] observed at ticks (machine-dependent). *)

val decile_growth : int array -> float option
(** Mean of the last decile of the samples divided by the first
    decile's — ~1 for a quantity that has plateaued, growing with
    stream length for one that leaks. [None] under 10 samples or when
    the first decile's mean is not positive. *)

val publish_metrics : t -> Obs.Registry.t -> unit
(** Publish the deterministic numbers ([steady/ticks], [steady/floor],
    [steady/window]) — the peak heap stays behind its accessor so the
    registry remains byte-stable across machines. *)
