(** Sharded execution of one run: conservative PDES over forked
    workers (DESIGN.md §13).

    The tree is partitioned into shards of roughly equal member weight
    ({!Net.Partition}); each shard simulates the {e complete} network
    but hosts only its own members, in a forked worker. Workers
    synchronise through the classic conservative barrier protocol with
    lookahead equal to the minimum cut-link delay ({!Sim.Pdes}),
    exchanging cross-shard origin casts as replayable emit records (the
    shard mode of {!Net.Network}). The coordinator merges the
    per-worker counters, recoveries, cost matrices and checker verdicts
    back into the exact artifact the serial {!Runner} produces — a
    sharded run is byte-identical to the serial run of the same
    (trace, protocol, setup, fault plan).

    Each worker builds its model with the serial runner's own builder
    in shard mode ({!Run_types.build}), so the two paths share every
    line of wiring. This module is the mechanism; policy lives in
    {!Runner}, whose {!Runner.shardable} names the conditions that keep
    a run on the serial engine — event tracing, recovery domains,
    lossy recovery/sessions, LMS, a finite or records-off steady
    window, link-jitter fault events, CESRM — so callers just pass
    [?shards] to {!Runner.run_model}. *)

val run :
  partition:Net.Partition.t ->
  delay:(int -> float) ->
  ?registry:Obs.Registry.t ->
  ?fault_plan:Fault.Plan.t ->
  setup:Run_types.setup ->
  ?steady:Steady.Config.t ->
  Run_types.protocol ->
  Mtrace.Trace.t ->
  Run_types.loss_model ->
  Run_types.result
(** [run ~partition ~delay ... protocol trace loss_model] executes the
    run sharded per [partition] ([partition.n_shards] must be at least
    2 — {!Runner} degenerates 1 to the serial path) and returns the
    merged result. [delay] must reproduce the per-link delays the
    workers draw ([Runner] replicates the heterogeneous-delay RNG
    sequence); [setup] and [protocol] must already carry the fault-plan
    robustness adjustments [Runner.run_model] applies. [steady] arms
    the sources' data sends as lazy chains on every worker —
    byte-identical either way, so it composes freely with sharding; it
    must have an infinite window and keep its records
    ({!Runner.shardable}).

    With [registry], the merged end-of-run metrics are published as in
    the serial runner — engine/network totals, ["recovery/"] histograms
    and ["fault/"] counts — plus the synchronisation counters under
    ["pdes/"] ({!Sim.Pdes.Stats.publish}). Per-host ["srm/"] metrics
    are not republished: they live in the workers.

    @raise Invalid_argument on an LMS protocol. *)
