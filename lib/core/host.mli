(** A CESRM group member (paper Section 3).

    A CESRM host {e is} an SRM host plus the caching-based expedited
    recovery scheme, wired through the SRM host's hooks:

    - every incoming reply for a loss this member suffered feeds the
      optimal requestor/replier {!Cache};
    - on detecting a loss, the member consults its {!Policy}; if the
      chosen pair names it as the expeditious requestor, it schedules
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
    recovery fails, the loss is still repaired the SRM way. *)

type config = {
  policy : Policy.t;
  retention : Retention.t;
      (** cache retention scheme and size ({!Retention.default} = the
          paper's keep-most-recent / evict-least-recent, byte-identical
          to the pre-policy cache; its [capacity], when unset, is 16
          entries per stream) *)
  reorder_delay : float;
  router_assist : bool;
  replier_failure_limit : int option;
      (** retry back-off (robustness extension, off by default): after
          this many {e consecutive} expedited recoveries a replier
          failed to serve, presume it dead — purge it from every cache
          and exclude it from policy selection until one of its replies
          is heard again. [None] = never presume death (paper-faithful:
          the paper's evaluation has no failing repliers). *)
}

val default_config : config
(** Most-recent policy, default (paper) retention (16 entries), zero
    reorder delay (the paper's simulation setting — no reordering
    occurs), no router assist, no replier failure limit. *)

type t

val create :
  ?domain:Rdomain.t ->
  network:Net.Network.t ->
  self:int ->
  params:Srm.Params.t ->
  config:config ->
  n_packets:int ->
  counters:Stats.Counters.t ->
  recoveries:Stats.Recovery.t ->
  unit ->
  t
(** [domain] switches on hierarchical local recovery in the underlying
    SRM host (see {!Srm.Host.create}) and makes the expedited scheme
    domain-aware: the policy prefers cached pairs whose replier lives
    in this member's recovery domain (falling back to any live
    replier), and expedited replies are scoped to the requestor's
    domain instead of multicast group-wide. Without it the host is
    byte-identical to classic CESRM. *)

val srm : t -> Srm.Host.t
(** The underlying SRM machinery (for queries: [has_packet], …). *)

val cache : ?src:int -> t -> Cache.t
(** The per-source optimal requestor/replier cache (created on first
    use; Section 3.1's "collection of per-source caches"). *)

val self : t -> int

val start : t -> session_until:float -> unit

val on_packet : t -> Net.Packet.t -> unit
(** Full CESRM dispatch: handles expedited PDUs, delegates the rest to
    the SRM host. *)

val expedited_requests_sent : t -> int

val expedited_replies_sent : t -> int

val domain_cache_local_hits : t -> int
(** Domain mode: expedited recoveries this member initiated whose
    cached replier shared its recovery domain. 0 in flat runs. *)

val domain_cache_remote_hits : t -> int
(** Domain mode: expedited recoveries initiated against an off-domain
    cached replier (no in-domain pair was available). 0 in flat
    runs. *)

val replier_dead : t -> replier:int -> bool
(** Whether retry back-off currently presumes [replier] dead. *)

val note_replier_failure : t -> replier:int -> unit
(** Charge one consecutive expedited failure to [replier]. With
    [replier_failure_limit = Some k], the k-th consecutive failure
    presumes the replier dead: it is purged from every cache and
    excluded from policy selection until revived. No-op without a
    limit. (Called internally when an expedited recovery resolves the
    SRM way; exposed for driving the accounting directly in tests.) *)

val revive_replier : t -> replier:int -> unit
(** Fresh evidence [replier] is alive (any reply heard from it):
    forget its presumed death and failure streak. *)

val invalidate_replier : t -> replier:int -> unit
(** [replier] left the group: drop every cached pair naming it from
    every per-source cache (counted into {!cache_invalidations}),
    presume it dead — so an expedited timer armed before the leave
    does not fire a unicast at the ghost, and CESRM falls back to SRM
    recovery — and clear its failure streak. A rejoined replier's
    first reply revives it. Called by the runner's leave wiring on
    every other member. *)

val cache_invalidations : t -> int
(** Cached pairs this member dropped because their replier left the
    group (accumulated into the ["cesrm/cache_invalidations"] metric,
    which is only published when non-zero). *)

val retire_below : t -> upto:int -> unit
(** Steady-state retirement: forward the horizon to
    {!Srm.Host.retire_below} and defensively sweep the expedited
    bookkeeping for retired (hence delivered) packets. Pending timers
    are never touched, so finite-window runs stay byte-identical to
    infinite-window ones. *)

val reset_caches : t -> unit
(** Model this host crashing: every cache is emptied and all expedited
    bookkeeping (outstanding recoveries, replier scores, presumed
    deaths) is dropped — CESRM state is soft state. Pair with
    {!Srm.Host.restart_recovery} on the underlying SRM host. *)

val publish_metrics : t -> Obs.Registry.t -> unit
(** Accumulate this member's SRM metrics plus the expedited-recovery
    state (["cesrm/"] prefix: requests/replies sent, cache occupancy,
    observed per-replier success rates, and the retention accounting —
    ["cesrm/cache_evictions/<scheme>"], ["…_expiries/<scheme>"],
    ["…_hits/<scheme>"]) into the registry. *)
