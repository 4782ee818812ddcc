(** Transmission-cost accounting.

    The paper (Section 4.4, Figure 5) charges one cost unit each time a
    packet crosses one link of the multicast tree, and splits the total
    into retransmission overhead vs. control overhead, distinguishing
    unicast from multicast control. This module tallies link crossings
    and send events per packet category and cast mode. *)

type category = Data | Request | Reply | Exp_request | Exp_reply | Session

type cast = Unicast | Multicast | Subcast

type t

val create : unit -> t

val category_of : Packet.t -> category

val record_send : t -> category -> cast -> unit
(** One packet handed to the network. *)

val record_crossing : t -> category -> cast -> unit
(** One link traversal. *)

val sends : t -> category -> cast -> int

val crossings : t -> category -> cast -> int

val total_crossings : t -> category -> int
(** Across all cast modes. *)

val retransmission_overhead : t -> int
(** Link crossings of payload-carrying recovery packets
    (replies, expedited or not). *)

val control_overhead : t -> multicast:bool -> int
(** Link crossings of recovery control packets (requests and expedited
    requests); [multicast:true] counts multicast crossings,
    [multicast:false] the unicast ones. Session traffic is excluded —
    it is identical under both protocols (see DESIGN.md §4). *)

val merge : t -> t -> t
(** Element-wise sum of two cost tables — combining per-shard tallies
    into the run total. *)
