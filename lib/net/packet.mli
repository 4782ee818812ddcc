(** Protocol data units exchanged by SRM / CESRM members.

    Node ids refer to {!Tree} nodes. [sender] is the group member that
    transmitted this PDU (not the interior router currently forwarding
    it). A data stream is named by its source member ([src]); its
    sequence numbers count that source's original data packets from 1,
    as in the paper, and hosts and CESRM caches keep state per
    source. *)

type echo = {
  echo_member : int;  (** whose timestamp we are echoing *)
  echo_ts : float;  (** the timestamp they sent *)
  echo_delay : float;  (** how long we held it before echoing *)
}
(** One entry of a session message's timestamp-echo table; the receiver
    of the echo computes its RTT to [echo_member]'s peer as
    [(now - echo_ts) - echo_delay]. *)

type payload =
  | Data of { seq : int }
      (** An original transmission ([sender] is the stream's source);
          retransmissions travel as [Reply]. *)
  | Request of {
      src : int;  (** the stream the missing packet belongs to *)
      seq : int;
      requestor : int;
      d_qs : float;  (** requestor's distance estimate to [src] *)
      round : int;  (** recovery round (0-based), for diagnostics *)
    }
  | Reply of {
      src : int;
      seq : int;
      requestor : int;  (** requestor that instigated this reply *)
      d_qs : float;
      replier : int;
      d_rq : float;  (** replier's distance estimate to the requestor *)
      expedited : bool;
      turning_point : int option;
          (** router-assist annotation; [None] without router support *)
    }
  | Exp_request of {
      src : int;
      seq : int;
      requestor : int;
      d_qs : float;
      replier : int;  (** the expeditious replier this is addressed to *)
      turning_point : int option;
    }
  | Session of {
      origin : int;
      sent_at : float;
      max_seqs : (int * int) list;
          (** per stream source, the highest sequence number seen *)
      echoes : echo list;
    }

type t = { sender : int; payload : payload }

val size_bits : t -> int
(** Payload carriers (Data / Reply) are 1 KB; control packets are 0 KB,
    as in the paper's simulation setup. *)

val seq : t -> int option
(** The data sequence number a recovery PDU concerns, if any. *)

val describe : t -> string
(** Short human-readable form, for logs and debugging. *)
