(** A CESRM group member (paper Section 3).

    A CESRM host {e is} an SRM host plus the caching-based expedited
    recovery scheme, wired through the SRM host's hooks
    ({!Srm.Host.hooks}):

    - every incoming reply for a loss this member suffered feeds the
      optimal requestor/replier {!Cache};
    - on detecting a loss, the member takes its cache's best-ranked
      pair with a live replier ({!Cache.choose}); if that pair names it
      as the expeditious requestor, it schedules
      an expedited request [REORDER_DELAY] in the future, cancelled if
      the packet shows up first, and otherwise {e unicast} to the
      expeditious replier;
    - a replier receiving an expedited request immediately multicasts
      an expedited reply, provided it has the packet and no reply for
      it is scheduled or pending;
    - with {!config.router_assist} on, cache tuples carry turning-point
      routers and expedited replies travel unicast-to-turning-point
      then subcast (Section 3.3), shrinking exposure.

    SRM's ordinary recovery keeps running underneath; when an expedited
    recovery fails, the loss is still repaired the SRM way.

    The SRM host's lifecycle drives the CESRM state too: a restart or
    departure of {!srm} empties the caches ({!reset_caches}), a
    [Srm.Host.forget_peer] invalidates the pairs naming the departed
    peer ({!invalidate_replier}), and [Srm.Host.retire_below] sweeps
    the expedited bookkeeping of retired packets. Callers drive the
    SRM host alone. *)

type config = {
  retention : Retention.t;
      (** cache retention scheme and size, which also rank the pair
          choice ({!Retention.default} = the paper's keep-most-recent /
          evict-least-recent with the most recent pair chosen; its
          [capacity], when unset, is 16 entries per stream) *)
  reorder_delay : float;
  router_assist : bool;
}

val default_config : config
(** Default (paper) retention (16 entries, most recent pair), zero
    reorder delay (the paper's simulation setting — no reordering
    occurs), no router assist. *)

val max_replier_failures : int
(** Retry back-off, part of the robustness extensions a host runs
    with under [Srm.Params.fault_tolerant] (off by default, and
    paper-faithful off: the paper's evaluation has no failing
    repliers): after this many (8) {e consecutive} expedited recoveries
    a replier failed to serve, the host presumes it dead — purges it
    from every cache and excludes it from the pair choice until one of
    its replies is heard again. In-flight attempts count against the
    same budget, so an outage that resolves no attempt cannot make the
    host hammer the replier. *)

type t

val create :
  ?domain:Rdomain.t ->
  network:Net.Network.t ->
  self:int ->
  params:Srm.Params.t ->
  config:config ->
  n_packets:int ->
  period:float ->
  counters:Stats.Counters.t ->
  recoveries:Stats.Recovery.t ->
  unit ->
  t
(** [n_packets], [period] and [domain] as in {!Srm.Host.create}:
    [domain] switches on hierarchical local recovery in the underlying
    SRM host and makes the expedited scheme domain-aware: the pair
    choice prefers cached pairs whose replier lives in this member's
    recovery domain (falling back to any live replier), and expedited
    replies are scoped to the requestor's domain instead of multicast
    group-wide. Without it the host is byte-identical to classic
    CESRM. *)

val srm : t -> Srm.Host.t
(** The underlying SRM machinery (for queries: [has_packet], …). *)

val cache : ?src:int -> t -> Cache.t
(** The per-source optimal requestor/replier cache (created on first
    use; Section 3.1's "collection of per-source caches"). *)

val self : t -> int

val on_packet : t -> Net.Packet.t -> unit
(** Full CESRM dispatch: handles expedited PDUs, delegates the rest to
    the SRM host. *)

val expedited_requests_sent : t -> int

val expedited_replies_sent : t -> int

val replier_dead : t -> replier:int -> bool
(** Whether retry back-off currently presumes [replier] dead. *)

val note_replier_failure : t -> replier:int -> unit
(** Charge one consecutive expedited failure to [replier]. Under
    [Srm.Params.fault_tolerant], the {!max_replier_failures}-th
    consecutive failure presumes the replier dead: it is purged from
    every cache and excluded from the pair choice until revived.
    No-op otherwise. (Called internally when an expedited recovery
    resolves the SRM way; exposed for driving the accounting directly
    in tests.) *)

val revive_replier : t -> replier:int -> unit
(** Fresh evidence [replier] is alive (any reply heard from it):
    forget its presumed death and failure streak. *)

val invalidate_replier : t -> replier:int -> unit
(** [replier] left the group: drop every cached pair naming it from
    every per-source cache (counted into {!cache_invalidations}),
    presume it dead — so an expedited timer armed before the leave
    does not fire a unicast at the ghost, and CESRM falls back to SRM
    recovery — and clear its failure streak. A rejoined replier's
    first reply revives it. Installed as the SRM host's [on_peer_left]
    hook, so every [Srm.Host.forget_peer] runs it first. *)

val cache_invalidations : t -> int
(** Cached pairs this member dropped because their replier left the
    group (accumulated into the ["cesrm/cache_invalidations"] metric,
    which is only published when non-zero). *)

val reset_caches : t -> unit
(** Model this host crashing: every cache is emptied and all expedited
    bookkeeping (outstanding recoveries, replier scores, presumed
    deaths) is dropped — CESRM state is soft state. Installed as the
    SRM host's [on_state_reset] hook, so [Srm.Host.restart_recovery]
    and [Srm.Host.depart] run it first. *)

val publish_metrics : t -> Obs.Registry.t -> unit
(** Accumulate this member's SRM metrics plus the expedited-recovery
    state (["cesrm/"] prefix: requests/replies sent, cache occupancy,
    observed per-replier success rates, and the retention accounting —
    ["cesrm/cache_evictions/<scheme>"] and ["…_hits/<scheme>"]) into
    the registry. *)
