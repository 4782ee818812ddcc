(** Deploying an SRM-family protocol on a simulated multicast group.

    Creates one host per group member (the source on node 0 plus every
    receiver leaf), registers their network handlers, and drives the
    source's constant-rate transmission. A group is generic in its
    member type: plain SRM deploys {!Host.t} members ({!deploy}), and a
    protocol layered on SRM — CESRM — deploys its own hosts through
    {!deploy_with}, naming the SRM host inside each. Everything after
    the deploy (start, extra streams, lookups) is shared. *)

type 'h group

type t = Host.t group
(** Plain SRM. *)

val deploy_with :
  ?owned:(int -> bool) ->
  create:(self:int -> recoveries:Stats.Recovery.t -> 'h) ->
  on_packet:('h -> Net.Packet.t -> unit) ->
  srm:('h -> Host.t) ->
  network:Net.Network.t ->
  n_packets:int ->
  period:float ->
  unit ->
  'h group
(** Build one member per node with [create], in deploy order (source
    first, then [Net.Tree.receivers]), sharing the group's recovery
    log, and register [on_packet] as its handler. [srm]
    is the member's SRM host, which {!start} and the streams drive.

    [owned] (default: everyone) restricts which members get a live
    host — a PDES shard deploys only its own. Non-owned members still
    consume one engine-RNG split each in deploy order, so owned hosts
    draw identical generators on every shard; [create] must consume
    exactly one. *)

val deploy :
  ?owned:(int -> bool) ->
  ?domain:Rdomain.t ->
  network:Net.Network.t ->
  params:Params.t ->
  n_packets:int ->
  period:float ->
  unit ->
  t
(** Plain SRM through {!deploy_with}. [domain] enables hierarchical
    local recovery on every host (see {!Host.create}); passing it does
    not perturb the deploy-order RNG discipline. *)

val start : ?send_jitter:float -> ?streaming:bool -> 'h group -> warmup:float -> tail:float -> unit
(** Sessions begin immediately (randomly phased) and stop at
    [end_of_data + tail]; then the source's stream is scheduled as
    {!add_stream} [~src:0 ~start_at:warmup] with the group's length
    and period. Run the engine afterwards. *)

val add_stream :
  ?send_jitter:float ->
  ?streaming:bool ->
  'h group ->
  src:int ->
  n_packets:int ->
  period:float ->
  start_at:float ->
  unit
(** Schedule a data stream originating at member [src] (SRM is
    multi-source; recovery state is kept per stream): packet [seq]
    leaves at [start_at + (seq-1)·period] plus a uniform random
    [send_jitter] (default 0 — jitter beyond one period reorders
    packets, the case REORDER-DELAY guards against). [n_packets] is
    clamped to the deployment's per-stream cap. [streaming] (default
    false) produces sends lazily — one pending timer instead of
    [n_packets] — via {!Sim.Stream}; byte-identical to the eager
    schedule.
    @raise Invalid_argument with [streaming] when [send_jitter >
    period]: such sends may reorder, which a lazy producer cannot
    reproduce. *)

val host : 'h group -> int -> 'h
(** By node id. @raise Not_found for non-members. *)

val members : 'h group -> (int * 'h) list
(** All (owned) members, source first. *)

val srm_members : 'h group -> (int * Host.t) list
(** {!members}' SRM hosts, in the same order. *)

val counters : 'h group -> Stats.Counters.t
(** The network's send tally ([Net.Network.counters]). *)

val recoveries : 'h group -> Stats.Recovery.t

val network : 'h group -> Net.Network.t
