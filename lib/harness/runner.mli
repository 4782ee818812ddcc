(** Trace-driven protocol runs (paper Section 4.3).

    A run re-enacts one trace: the multicast tree is built with a fixed
    per-link delay and bandwidth, losses are injected on the links the
    {!Inference.Attribution} pipeline blames for each packet, sessions
    warm up before data flows, and one of the protocols recovers the
    losses. Recovery traffic is lossless by default; the lossy-recovery
    variant drops recovery packets per estimated link rates.

    The run's types, builder and accounting come from {!Run_types},
    included here but for the per-run [model] and [shard], whose labels
    would shadow [result]'s; this module adds the run policy. *)

include module type of struct
  include Run_types
end
with type model := Run_types.model
 and type shard := Run_types.shard

val run_model :
  ?setup:setup ->
  ?tracer:Obs.Trace.t ->
  ?registry:Obs.Registry.t ->
  ?fault_plan:Fault.Plan.t ->
  ?shards:int ->
  ?steady:Steady.Config.t ->
  ?on_retire:(upto:int -> unit) ->
  ?domains:Rdomain.spec ->
  protocol ->
  Mtrace.Trace.t ->
  loss_model ->
  result
(** Run [protocol] on [trace] under the loss model. The labelled
    arguments are the run's levers; a combination {!rejected} names
    raises [Invalid_argument] with that reason before anything runs.

    With [tracer], structured events are recorded through the hosts'
    hooks and the network tap (see {!Instrument}) — purely
    observational, the run's outcome is bit-identical. With [registry],
    end-of-run metrics from the engine, the network and every member
    host are published into it, plus ["recovery/"] latency histograms
    (RTT-normalized, split expedited vs fallback), fed online as each
    recovery lands.

    Every run is checked by one {!Audit} checker. With [fault_plan], the
    plan is compiled onto the network and engine before the run, the
    checker's fault rules check graceful degradation (violations land in
    the result and the registry under ["fault/"]), and host restarts
    drop soft state ({!Srm.Host.restart_recovery}, which resets a CESRM
    host's caches through its hook). A fault plan also switches on the
    robustness extensions, [Srm.Params.fault_tolerant]: SRM hosts re-arm
    their requests on session evidence, and CESRM hosts presume a
    replier dead after 8 consecutive failed expedited recoveries —
    without them SRM's 2^k back-off and CESRM's static pair caches make
    post-heal recovery pathologically slow, which is exactly what the
    fault rules would report. The checker's request bound follows the
    re-arm: 41 requests per loss without it, 200 with it. Faulted runs
    remain deterministic: same trace, seed and plan ⇒ identical results.

    A plan with membership events (join/leave/rejoin — see {!Fault.Plan}
    and its churn schedules) additionally drives the network's
    membership layer: a node outside the group neither receives subcasts
    nor gets its transmissions onto the wire. On a leave, the departing
    SRM/CESRM host drops {e all} soft state ({!Srm.Host.depart} — its
    pending losses are counted into [result.forgiven], not
    [unrecovered]) and every remaining member forgets the session state
    naming it ({!Srm.Host.forget_peer}). The harness drives the SRM
    hosts alone: a CESRM host's hooks empty the departing member's
    caches and make every remaining one invalidate its cached expedited
    pairs naming the departed replier
    ({!Cesrm.Host.invalidate_replier}), so recovery falls back to SRM
    instead of unicasting a ghost. On a join or rejoin, the member
    starts with empty soft state and its per-stream detection windows
    baselined at the packets already sent ({!Srm.Host.join}) — a late
    joiner is never charged for packets sent before it joined. The
    checker is fed the membership timeline and checks the churn-aware
    invariants (no delivery to departed hosts, no expedited retries
    pinned on a departed replier, membership-aware liveness). LMS runs
    reject every fault plan (see {!rejected}); LMS's crash behaviour is
    measured by {!Churn} instead.

    With [shards] at least 2, the run executes in parallel: the tree is
    partitioned into that many shards of roughly equal member weight
    ({!Net.Partition}), each simulated by a forked worker, synchronised
    conservatively with lookahead equal to the minimum cut-link delay
    ({!Sim.Pdes}, {!Parallel}). The merged result — counters,
    recoveries, cost and the checker's verdict — is byte-identical to
    the serial run's; with [registry], synchronisation counters
    additionally appear under ["pdes/"] (per-host ["srm/"] metrics stay
    in the workers and are not republished). Runs a sharded execution
    cannot reproduce exactly execute on the serial engine instead, for
    the reason {!shardable} names (front-ends print it).

    With [steady], the run executes in streaming mode
    ({!Steady.Config}): sources arm their data sends as lazy chains
    (byte-identical to the eager loop; an SRM or CESRM run whose
    [data_jitter] exceeds the send period, so that sends may reorder,
    raises [Invalid_argument] — {!Srm.Proto.add_stream}), a
    {!Steady.Controller} driven by an engine epoch tick retires
    per-packet state past the stability horizon (hosts, CESRM caches,
    the checker), and the recovery collector keeps online summaries
    only. A window that never retires runs the same protocol events as
    no [steady] at all (the determinism goldens pin this). Steady runs
    stay serial. The controller is returned in [result.retirement]
    (floor, tick count, peak heap). [on_retire] is registered on it:
    at each epoch whose floor advanced it runs after everything else
    retired (the bench samples live words there). Without [steady] it
    never runs.

    With [domains], the tree is partitioned into hierarchical local
    recovery domains ({!Rdomain}) shared by every host: requests and
    repairs are scoped to the requestor's domain chain and escalate on
    unanswered rounds, each domain's designated replier is preferred
    for replies and expedited pairs, and each host reads true tree
    distances and holds session-driven detection for an in-flight
    allowance counted in the trace's send period ({!Srm.Host.create};
    [setup.params] is left as given). SRM and CESRM only (see
    {!rejected}); runs on the serial engine (scoped casts need the
    global tree — see {!shardable}). Without [domains] every run is
    byte-identical to before the mode existed. *)

val rejected : faulted:bool -> domains:Rdomain.spec option -> protocol -> string option
(** Why no run accepts this configuration, or [None] — the
    combinations that neither obey an identity law nor run clean:
    - ["LMS with recovery domains"]: LMS routes nothing through them;
    - ["LMS under a fault plan"]: the fault rules flag LMS's by-design
      retries to stale repliers. *)

val shardable :
  tracer:Obs.Trace.t option ->
  fault_plan:Fault.Plan.t option ->
  setup:setup ->
  steady:Steady.Config.t option ->
  domains:Rdomain.spec option ->
  protocol ->
  string option
(** Why a run of this configuration executes on the serial engine
    whatever [?shards] asks, or [None] when it can shard. Every
    condition needs a global view mid-run that a shard lacks:
    - event tracing (the event stream interleaves all members);
    - recovery domains (scoped casts on the global tree);
    - lossy recovery or sessions (drop-RNG draws per walked branch,
      which shard-pruned walks would desynchronise);
    - LMS (subcasts route by global replier state);
    - a steady window (retirement reads the global delivered-prefix
      minimum);
    - link-jitter fault events (per-crossing RNG draws);
    - CESRM (deterministic-time expedited casts reach a host at the
      same instant, and a shard replaying a remote one at its barrier
      can act on them in another order than the serial engine).

    A fallback, not a rejection: a sweep passes one [--shards] value
    to every cell. *)

val inputs :
  ?seed:int64 -> ?n_packets:int -> ?steady:Steady.Config.t -> Mtrace.Meta.row ->
  Mtrace.Trace.t * loss_model
(** A row's trace, synthesized with [seed] (default: derived from the
    name) and truncated to [n_packets], and its loss model: [Streamed]
    with [steady] when the scale family supports it — O(links) setup
    whatever the packet count — else [Ground_truth] on scale rows and
    [Attributed] on Table 1 rows. *)

val fault_plan : setup:setup -> Mtrace.Trace.t -> string -> (Fault.Plan.t, string) Stdlib.result
(** A {!Fault.Plan.canned} plan (perturbation or churn) instantiated
    against the trace's tree, [setup.warmup] and data phase, or else a
    plan JSON file, loaded and validated against the tree. *)

val run_leg :
  ?setup:setup ->
  ?registry:Obs.Registry.t ->
  ?n_packets:int ->
  ?fault:string ->
  ?shards:int ->
  ?steady:Steady.Config.t ->
  ?on_retire:(upto:int -> unit) ->
  ?domains:Rdomain.spec ->
  seed:int64 ->
  protocol ->
  Mtrace.Meta.row ->
  result
(** One self-contained experiment leg: the row's {!inputs} with
    [seed], run with [setup] tuned for the trace ({!tune_for_trace})
    and reseeded to the same [seed] — so a leg is a pure function of
    [(row, protocol, setup, n_packets, seed, fault)], the unit a sweep
    shard executes. [fault] names a plan {!fault_plan} resolves;
    [on_retire] is passed to {!run_model}.

    Rows naming a {!Mtrace.Scale} scenario get harness tuning for
    group size: hosts read true tree distances instead of warming them
    up over session echoes, and only the source runs the periodic
    session tick, so no member echoes a peer
    ([Srm.Params.oracle_distances]), the probabilistic-suppression
    windows C2 and D2 widen to at least
    [3 · log2] of the group size, and deep-chain trees use a 1 ms link
    delay so the worst-case path stays within the recovery timers'
    reach.
    @raise Invalid_argument on a fault name {!fault_plan} cannot
    resolve, or a configuration {!rejected} names. *)

val tune_for_trace : ?domains:Rdomain.spec -> Mtrace.Trace.t -> setup -> setup
(** Apply the scale-scenario harness tuning described under {!run_leg}
    when the trace's name parses as a {!Mtrace.Scale} scenario;
    identity otherwise. Exposed so front-ends running a pre-built
    scale trace through {!run_model} get the same settings a
    [run_leg] of the row would. With [domains], the
    probabilistic-suppression windows widen with the domain member
    bound instead of the whole group size — the suppression population
    a scoped request actually reaches. *)

val attribution_of_trace : Mtrace.Trace.t -> Inference.Attribution.t
(** The paper's Section 4.2 pipeline: Yajnik link-rate estimation, then
    maximum-likelihood attribution of each loss. *)

(** {1 Derived figures}

    Each needs the per-loss records, so a steady run (whose
    [retirement] is present) reads as having no recoveries. *)

val normalized_recovery : result -> node:int -> filter:(Stats.Recovery.record -> bool) -> Stats.Summary.t
(** Recovery latencies of one receiver divided by that receiver's RTT
    to the source, over records passing [filter]. *)

val avg_normalized_recovery : ?filter:(Stats.Recovery.record -> bool) -> result -> float
(** Average normalized recovery, the paper's headline figure: the mean
    over receivers of each receiver's mean {!normalized_recovery}
    (default filter: every record), skipping receivers with no record;
    0 when none has one. *)

val recovery_reduction : result -> result -> float
(** [recovery_reduction srm cesrm]: CESRM's cut in
    {!avg_normalized_recovery} against SRM's, in percent,
    [100 (1 - c/s)]; 0 when SRM's is 0. *)

val expedited_success_pct : result -> float
(** Expedited replies as a percentage of expedited requests; 0 when
    the run sent none. *)
