(** Per-host packet-send counters for the per-receiver bar charts
    (Figures 3 and 4 of the paper). *)

type kind =
  | Rqst  (** SRM-style multicast repair request *)
  | Exp_rqst  (** CESRM unicast expedited request *)
  | Repl  (** multicast reply (SRM or CESRM fallback) *)
  | Exp_repl  (** multicast expedited reply *)
  | Sess  (** session message *)
  | Oracle  (** fault-rule violations of the run's checker charged to the node *)

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
