(** One data stream's delivery window at one member: which sequence
    numbers are locally available.

    Byte [i] of the window covers sequence [base + 1 + i]; everything
    at or below {!base} has been retired by the steady controller (or
    baselined by a join) and reads as delivered — retirement only ever
    covers fully-delivered prefixes. {!prefix} is the contiguous
    delivered prefix, the quantity the stability horizon is computed
    from. With no retirement ([base] stays 0) the window grows to
    [n_packets] on demand and behaves exactly like a flat bitmap.

    Shared by [Srm.Host] and [Lms.Host]. *)

type t

val create : n_packets:int -> t
(** An empty window for a stream of at most [n_packets] packets. *)

val mem : t -> seq:int -> bool
(** Whether [seq] is available: at or below {!base}, or added since.
    Callers range-check [seq] against the stream length. *)

val add : t -> seq:int -> unit
(** Mark [seq] (in [1 .. n_packets]) available, growing the window as
    needed and advancing {!prefix} over the now-contiguous run. *)

val base : t -> int
(** The floor: 0 until the first retirement or baseline. *)

val prefix : t -> int
(** Every sequence number at or below it is available. *)

val max_seq : t -> int
(** The highest sequence number known to exist (0 initially). *)

val note_max_seq : t -> int -> unit
(** Raise {!max_seq} to at least the given value. *)

val retire_below : t -> upto:int -> unit
(** Raise the floor to [upto], clamped to {!prefix}: only a
    fully-delivered prefix is ever retired, so membership answers do
    not change. *)

val baseline : t -> upto:int -> unit
(** A join: every sequence number at or below [upto] reads as
    delivered from now on (the floor rises to [upto], unclamped), and
    {!max_seq} rises to at least [upto]. *)
