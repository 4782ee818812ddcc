(** Per-host packet-send counters for the per-receiver bar charts
    (Figures 3 and 4 of the paper): what each member put on the wire,
    tallied by the network ([Net.Network.counters]) once per recovery
    or session packet that passes its enabled check. *)

type kind =
  | Rqst  (** SRM-style multicast repair request *)
  | Exp_rqst  (** unicast expedited request (CESRM, or an LMS request) *)
  | Repl  (** reply not marked expedited (SRM, CESRM fallback, LMS) *)
  | Exp_repl  (** CESRM expedited reply *)
  | Sess  (** session message (LMS: the source heartbeat) *)

type t

val create : n_nodes:int -> t

val bump : t -> node:int -> kind -> unit

val get : t -> node:int -> kind -> int

val total : t -> kind -> int

val n_nodes : t -> int

val merge : t -> t -> t
(** Fresh per-node, per-kind sums of both inputs — aggregation across
    same-topology runs (e.g. the seeds axis of a sweep).
    @raise Invalid_argument on mismatched node counts. *)

val all_kinds : kind list

val kind_name : kind -> string
