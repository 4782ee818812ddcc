(** An LMS group member.

    Loss detection mirrors SRM's (sequence gaps plus source heartbeats
    carrying the highest sequence number), but recovery is
    router-directed: a request is unicast along the tree to the
    designated replier returned by {!Routing.route}, the replier
    immediately answers with a retransmission relayed through the
    turning point and subcast below it, and the requestor retries with
    exponential back-off if nothing arrives. There is no suppression
    machinery — requests are unicast, so duplicates cannot arise.

    A replier that shares the loss re-forwards the request from its own
    position (bounded by a TTL), which is how LMS escapes a lossy
    subtree. *)

type t

val create :
  network:Net.Network.t ->
  self:int ->
  n_packets:int ->
  route:(from:int -> (int * int) option) ->
  counters:Stats.Counters.t ->
  recoveries:Stats.Recovery.t ->
  t
(** [route] reads the proto's live replier table, so refreshes take
    effect immediately. *)

val on_packet : t -> Net.Packet.t -> unit

val note_sent : t -> seq:int -> unit

val has_packet : t -> seq:int -> bool

val detected_losses : t -> int

val max_seq : t -> int
(** The highest sequence number known to exist (0 before any). *)

val delivered_prefix : t -> int
(** Contiguous delivered prefix of the stream (its
    [Srm.Window.prefix]). *)

val retire_below : t -> upto:int -> unit
(** Steady-state retirement, as in [Srm.Host.retire_below]: drop
    per-packet state at or below [upto], clamped to the delivered
    prefix. Retired packets still answer [has_packet]. *)

val self : t -> int

val publish_metrics : t -> Obs.Registry.t -> unit
(** Accumulate this member's detection and retry state into the
    group-wide ["lms/"] metrics (pull-based; call once per member). *)
