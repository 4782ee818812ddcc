(** Adaptive request/reply timer adjustment, after the dynamic
    adjustment algorithm of Floyd et al.'s SRM paper (ToN '97, §VI).

    Fixed C1/C2 (and D1/D2) trade duplicate suppression against
    latency once and for all; the adaptive variant observes, per host,
    the number of duplicate requests (replies) per recovery exchange
    and the scheduling delay actually paid, and nudges the parameters:

    - too many duplicates → widen/raise the timers
      (strengthen suppression);
    - few duplicates but large delay → tighten the timers.

    Averages are exponentially weighted (gain 1/4) and the parameters
    are clamped to sane ranges. The CESRM paper itself evaluates only
    fixed parameters; this module powers the `ablation-adaptive` bench
    showing how the adaptive baseline compares. *)

type t

val create : initial:Params.t -> t
(** Start from the given C1/C2/D1/D2. *)

val c1 : t -> float

val c2 : t -> float

val d1 : t -> float

val d2 : t -> float

val note_request_cycle : t -> dups:int -> delay_in_d:float -> unit
(** One finished recovery exchange in which this host had a request
    scheduled: [dups] duplicate requests were overheard and the
    (first) request fired [delay_in_d] source-distances after
    detection. *)

val note_reply_cycle : t -> dups:int -> delay_in_d:float -> unit
(** One reply exchange this host participated in as a (potential)
    replier. *)
