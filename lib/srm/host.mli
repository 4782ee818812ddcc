(** An SRM group member: loss detection, request scheduling with
    deterministic + probabilistic suppression and exponential back-off,
    reply scheduling with suppression and abstinence (paper Section 2).

    SRM is multi-source: any member may originate a data stream, and
    all reception, detection, and recovery state is kept per stream
    source. Every function that names a packet takes an optional
    [?src] (defaulting to 0, the conventional single-source root) — the
    paper's exposition and its whole evaluation are single-source, but
    the protocol itself is not.

    One implementation serves both protocols: CESRM installs the
    {!hooks} callbacks and drives the expedited scheme on top (see
    [Cesrm.Host]), so the suppression machinery is shared verbatim,
    and so is the lifecycle: restarting, departing or retiring an SRM
    host, or making it forget a peer, reaches the CESRM state layered
    on it through the lifecycle hooks. *)

type t

type hooks = {
  mutable on_loss_detected : src:int -> seq:int -> unit;
      (** fired once per loss, right after the SRM request is first
          scheduled *)
  mutable on_reply_observed : Net.Packet.payload -> unit;
      (** fired for every incoming reply, after SRM processing (cache
          maintenance hook) *)
  mutable on_packet_obtained : src:int -> seq:int -> expedited:bool -> unit;
      (** fired whenever the packet becomes locally available —
          [expedited] says whether an expedited reply delivered it
          (false for original data and ordinary replies); used to
          cancel expedited requests and score repliers *)
  mutable on_state_reset : unit -> unit;
      (** fired first in {!restart_recovery} and in {!depart}: the
          host's soft state is gone *)
  mutable on_peer_left : int -> unit;
      (** fired first in {!forget_peer}, with the departed peer *)
  mutable on_retired : unit -> unit;
      (** fired last in {!retire_below}, once the floor of every
          stream ({!retired_floor}) has moved *)
}
(** Every hook defaults to a no-op. *)

val create :
  ?domain:Rdomain.t ->
  network:Net.Network.t ->
  self:int ->
  params:Params.t ->
  n_packets:int ->
  period:float ->
  counters:Stats.Counters.t ->
  recoveries:Stats.Recovery.t ->
  unit ->
  t
(** The member joins the group on node [self] of the network's tree.
    [n_packets] caps each stream's length and [period] is the source's
    send period. Handlers are {e not} registered with the network —
    the owner dispatches via {!on_packet} (this lets CESRM intercept
    its own PDUs first).

    [domain] switches on hierarchical local recovery: requests and
    replies travel over {!Net.Network.scoped_cast} restricted to the
    requestor's recovery-domain chain at the request round's
    escalation level (see {!Params.domain_local_rounds}), request
    timers scale by the distance to the level's designated replier
    instead of the source, and non-designated repliers wait an extra
    {!Params.domain_dr_bias} suppression weight. Such a host derives
    its two other needs from its own inputs: it reads true tree
    distances (as {!Params.t.oracle_distances} would), because the
    session exchange never converges for designated repliers; and
    session-driven detection waits out an in-flight allowance counted
    in [period], because its request timers fire on local round-trips
    that a packet still pipelined down a deep path would outrun.
    Without [domain] every code path is byte-identical to classic SRM
    and [period] is unused. *)

val network : t -> Net.Network.t

val hooks : t -> hooks

val self : t -> int

val start : t -> session_until:float -> unit
(** Start session-message emission (with random phase). *)

val publish_metrics : t -> Obs.Registry.t -> unit
(** Accumulate this member's loss-detection and request/reply state
    into the group-wide ["srm/"] metrics (pull-based; each member adds
    its share, so call it once per member at end of run). *)

val on_packet : t -> Net.Packet.t -> unit
(** Main dispatch for Data / Request / Reply / Session. Expedited PDUs
    are ignored here (CESRM handles them). *)

val note_sent : ?src:int -> t -> seq:int -> unit
(** Source-side: mark an original packet of [src]'s stream as sent
    (and so available for retransmission). *)

val has_packet : ?src:int -> t -> seq:int -> bool

val reply_sender : t -> int option
(** While a reply is being handled — in particular during
    [on_packet_obtained] — the replier that sent it. *)

val suffered_loss : ?src:int -> t -> seq:int -> bool
(** Has this member ever detected the loss of [seq]? One bit per
    sequence number, kept past recovery and retirement (until
    {!depart}). *)

val reply_blocked : ?src:int -> t -> seq:int -> bool
(** A reply for the packet is scheduled or pending (abstinence) — the
    condition under which CESRM must not send an expedited reply. *)

val send_reply_now :
  ?src:int ->
  t ->
  seq:int ->
  requestor:int ->
  d_qs:float ->
  expedited:bool ->
  ?turning_point:int ->
  ?transmit:(Net.Packet.t -> unit) ->
  unit ->
  bool
(** Immediately send a reply if [has_packet] and not [reply_blocked];
    returns whether it was sent. Sets the reply abstinence period like
    any sent reply. [transmit] overrides the delivery primitive
    (default: multicast) — the router-assisted path substitutes a
    relayed subcast. Used by CESRM's expedited replier (with
    [expedited:true]). *)

val uniform_draw : Sim.Rng.t -> float -> float -> float
(** The draw behind the request and reply timers: {!Sim.Rng.uniform},
    computed here from {!Sim.Rng.bits53} so that, inlined into the
    timers, its bounds and result are never boxed. Bit for bit the same
    value, and the same generator state afterwards (no draw when
    [hi <= lo]). *)

val dist_to_source : ?src:int -> t -> float
(** Session estimate, falling back to 1 s before any exchange. *)

val dist_to : t -> int -> float

val max_seq_seen : ?src:int -> t -> int

val max_seqs : t -> (int * int) list
(** Per stream source, the highest sequence number seen. *)

val request_round : ?src:int -> t -> seq:int -> int option
(** Current back-off exponent of a pending request, for tests. *)

val detected_losses : t -> int
(** Across all streams. *)

val pending_requests : t -> int

val delivered_prefix : ?src:int -> t -> int
(** Contiguous delivered prefix of [src]'s stream: every sequence
    number at or below it is locally available. The steady-state
    stability horizon is the group-wide minimum of these. *)

val retired_floor : ?src:int -> t -> int
(** Highest sequence number retired so far (0 before any retirement).
    Retired packets still answer [has_packet] with [true] — retirement
    only ever covers fully-delivered prefixes, and replies carry no
    payload, so a late request for a retired packet is still served. *)

val retire_below : t -> upto:int -> unit
(** Steady-state retirement: drop per-packet soft state (delivery
    window bytes, the record of our replies) for sequence numbers at or
    below [upto], clamped per stream to its own delivered prefix, and
    every reply-table row that holds nothing (such as a passed
    abstinence horizon). Only inert state is dropped — pending reply
    timers fire as they would have, and {!suffered_loss} keeps its
    answer — so a retiring run remains byte-identical to a
    never-retiring one. Driven by [Steady.Controller]; never called in
    classic runs. *)

val restart_recovery : t -> unit
(** Model a crashed host coming back up: session distance estimates,
    scheduled replies, and reply-abstinence horizons are dropped (soft
    state is gone), while reception state and known losses survive;
    every pending request restarts from round 0 rather than inheriting
    a pre-crash back-off exponent. *)

val depart : t -> int
(** The member leaves the group: {e all} soft state is dropped —
    reception windows, detection history, pending requests and replies
    (every armed timer cancelled), session estimates. Returns the
    number of detected-but-unrecovered losses dropped, which the run's
    liveness accounting forgives. Contrast {!restart_recovery}, the
    crash path, which suspends rather than drops. *)

val join : t -> baselines:(int * int) list -> unit
(** The member (re)joins with empty soft state. [baselines] gives, per
    stream source, the highest sequence number already sent before the
    join; each stream's delivery window is baselined there (pre-join
    sequences read as delivered, the steady-mode convention) so loss
    detection never charges the joiner for packets sent before it was
    a member. *)

val forget_peer : t -> int -> unit
(** A peer left the group: drop this member's session soft state naming
    it (distance estimate, heard entry) so a later rejoin starts fresh. *)
