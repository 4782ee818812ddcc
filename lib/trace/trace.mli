(** A loss trace: the receiver-observable record of one IP multicast
    transmission, in the representation of Section 4.1 of the paper.

    A trace carries the multicast tree, the constant transmission
    period, and for every receiver a binary sequence over packets
    1..k where bit i set means the receiver {e lost} packet i. *)

type t

val create :
  name:string -> tree:Net.Tree.t -> period:float -> n_packets:int -> loss:Bitset.t array -> t
(** [loss] must have one bitset of length [n_packets] per receiver, in
    the order of [Net.Tree.receivers tree].
    @raise Invalid_argument on shape mismatch. *)

val create_streaming : name:string -> tree:Net.Tree.t -> period:float -> n_packets:int -> t
(** A trace with no materialized loss matrix: topology and schedule
    only, for steady-state runs where losses are produced lazily by a
    [Stream_loss.t] driving the network's drop predicate. Accessors
    needing per-receiver bits ({!lost}, {!loss_bits}, {!truncate}, …)
    raise [Invalid_argument] on such a trace. *)

val streaming : t -> bool

val name : t -> string

val tree : t -> Net.Tree.t

val period : t -> float
(** Seconds between consecutive original packets. *)

val n_packets : t -> int

val n_receivers : t -> int

val receiver_nodes : t -> int array
(** Tree node id of each receiver index. *)

val receiver_index : t -> node:int -> int
(** Inverse of {!receiver_nodes}. @raise Not_found for non-receivers. *)

val lost : t -> rcvr:int -> seq:int -> bool
(** By receiver index; [seq] is 1-based. *)

val lost_node : t -> node:int -> seq:int -> bool

val loss_bits : t -> rcvr:int -> Bitset.t
(** The receiver's raw loss bitset (do not mutate). *)

val total_losses : t -> int

val loss_pattern : t -> seq:int -> int list
(** Receiver {e indices} that lost the packet, increasing. *)

val lossy_packets : t -> int list
(** The 1-based sequence numbers lost by at least one receiver. *)

val truncate : t -> int -> t
(** Keep only the first [n] packets — used to run scaled-down
    experiments with identical loss structure. *)

val summary : t -> string
