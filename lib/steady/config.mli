(** Configuration of steady (streaming) execution.

    Steady mode bounds a run's memory in the stream length, and the
    retirement window is its one setting: once every member has
    delivered packets [1..p] and the session exchange has stabilised
    them, state for seqs at or below [p - window] is dropped
    protocol-wide at the next epoch tick. A steady run also drops its
    per-recovery records in favour of online summaries
    ({!Stats.Recovery.drop_records}), arms its data sends lazily, and
    streams a scale row's trace where the family allows it
    ({!Mtrace.Trace.create_streaming} with a [Streamed] loss model).

    A window that never retires (one at least the packet count) runs
    the same protocol events as no steady mode at all; the determinism
    tests pin this. *)

type t = {
  window : int;
      (** retire state more than [window] packets below the
          all-members delivered prefix *)
  epoch_every : float option;
      (** Simulated seconds between retirement epochs; [None] derives
          one from the window and packet period. *)
}

val windowed : ?epoch_every:float -> int -> t
(** [windowed w] retires with window [w].
    @raise Invalid_argument on a non-positive window or period. *)

val epoch_period : t -> period:float -> float
(** The tick period to drive retirement with: the explicit
    [epoch_every] if given, else one window's worth of packet periods
    clamped to [50 periods, 60 s]. *)
