(** Definitions shared by the serial {!Runner}, the sharded
    {!Parallel} runner and {!Churn}: {!build}, the one function that
    wires a run's model, and {!finish}, the one accounting of a
    finished run.

    {!Runner} re-exports the types with equations, so this module is an
    implementation seam, not an API: callers keep using
    [Harness.Runner.setup] and friends. It exists because [Runner]
    delegates multi-shard runs to [Parallel], whose workers build the
    same per-run model [Runner] builds serially — the types, the pure
    helpers and the builder both run through have to sit below both in
    the dependency order. *)

type protocol = Srm_protocol | Cesrm_protocol of Cesrm.Host.config | Lms_protocol

val protocol_name : protocol -> string

type setup = {
  link_delay : float;
  bandwidth_bps : float;
  params : Srm.Params.t;
  warmup : float;
  tail : float;
  lossy_recovery : bool;
  lossy_sessions : bool;
  data_jitter : float;
  heterogeneous_delays : bool;
  seed : int64;
}

val default_setup : setup

type result = {
  trace : Mtrace.Trace.t;
  protocol : protocol;
  setup : setup;
  counters : Stats.Counters.t;
  recoveries : Stats.Recovery.t;
  cost : Net.Cost.t;
  rtt_to_source : (int * float) list;
  exp_requests : int;
  exp_replies : int;
  unrecovered : int;
  detected : int;
  forgiven : int;
  audit_violations : int;
  oracle_violations : int;
  oracle : Audit.t option;
  retirement : Steady.Controller.t option;
}

type loss_model =
  | Attributed of Inference.Attribution.t
  | Ground_truth of Mtrace.Bitset.t array
  | Streamed of Mtrace.Stream_loss.t
      (** ground-truth drops from lazy per-link chains — the
          constant-memory loss model streaming (steady) runs use *)

val make_drop :
  loss_model:loss_model ->
  lossy_recovery:bool ->
  lossy_sessions:bool ->
  rates:float array ->
  rng:Sim.Rng.t ->
  link:int ->
  down:bool ->
  Net.Packet.t ->
  bool
(** The network drop predicate for a run (see {!Runner.run_model}).
    Pure per crossing unless [lossy_recovery]/[lossy_sessions] draw
    from [rng] — which is why those setups are not shardable. *)

val horizon : setup:setup -> n_packets:int -> period:float -> float
(** The simulation end time every run uses: warmup, data phase, tail,
    plus slack for recovery exchanges still in flight. *)

val source_rtts : tree:Net.Tree.t -> delay:(int -> float) -> float array
(** Per-node round-trip time to the source, bit-identical to summing
    [delay] down the tree path (the order [Net.Network.rtt] adds in). *)

val feed_recovery_hists :
  Obs.Registry.t -> tree:Net.Tree.t -> rtts:float array -> Stats.Recovery.t -> unit
(** Feed the ["recovery/"] latency histograms record by record as the
    collector gains recoveries, RTT-normalized by each receiver's entry
    of [rtts] ({!Instrument.attach_recovery_hists_online}). {!build}
    installs it in every run given a registry; the coordinator of a
    sharded run installs it on the merged collector before re-adding
    the workers' records. *)

val finish :
  ?registry:Obs.Registry.t ->
  faulted:bool ->
  setup:setup ->
  rtts:float array ->
  counters:Stats.Counters.t ->
  recoveries:Stats.Recovery.t ->
  cost:Net.Cost.t ->
  expedited:int * int ->
  detected:int ->
  forgiven:int ->
  retirement:Steady.Controller.t option ->
  Audit.t ->
  protocol ->
  Mtrace.Trace.t ->
  result
(** The one accounting of a finished run, serial ({!Runner}) or merged
    from shards ({!Parallel}), given its checker: bump the [Oracle]
    counter of the member each fault-class violation names; with
    [registry], publish ["recovery/recovered"] and, when [faulted],
    ["fault/oracle_violations"]; and build the result —
    [unrecovered = detected - recovered - forgiven], the checker's
    safety/fault split, [oracle] present iff [faulted], and
    [rtt_to_source], every receiver in [Net.Tree.receivers] order with
    its entry of [rtts] ({!source_rtts}). *)

val link_delays : setup:setup -> tree:Net.Tree.t -> Sim.Rng.t -> float array
(** Per-link propagation delays, indexed by link (child node) id: the
    uniform [setup.link_delay], or with [setup.heterogeneous_delays]
    log-uniform in [link_delay/3, 3·link_delay], drawn from the first
    split of the run's root generator [rng]. Written once for the
    network {!build} creates and for the coordinator of a sharded run,
    which partitions on the same draw from a fresh
    [Sim.Rng.create setup.seed]. *)

(** {1 The per-run model} *)

type shard = { partition : Net.Partition.t; me : int }
(** Shard mode: the model is worker [me] of [partition]. The worker
    owning the source is the primary: its network records the tap
    stream the run's checker judges. *)

type model = {
  engine : Sim.Engine.t;
  network : Net.Network.t;
  horizon : float;  (** run the engine until here ({!horizon}) *)
  audit : Audit.t;
      (** the run's one checker, its fault rules on iff a fault plan
          is run; attached to the network's tap, or detached in shard
          mode, where the primary worker feeds it the merged tap
          stream *)
  controller : Steady.Controller.t option;  (** present iff a steady window is run *)
  counters : Stats.Counters.t;
  recoveries : Stats.Recovery.t;
  detected : unit -> int;  (** losses detected across (owned) members so far *)
  member_detected : int -> int;
      (** losses one (owned) member detected so far; 0 for a node with
          no host *)
  expedited : unit -> int * int;  (** CESRM's expedited requests and replies so far *)
  forgiven : unit -> int;  (** pending losses forgiven by departures so far *)
  publish : Obs.Registry.t -> unit;  (** per-host metrics of every (owned) member *)
}

val build :
  ?shard:shard ->
  ?tracer:Obs.Trace.t ->
  ?registry:Obs.Registry.t ->
  ?fault_plan:Fault.Plan.t ->
  ?steady:Steady.Config.t ->
  ?on_retire:(upto:int -> unit) ->
  ?domain:Rdomain.t ->
  setup:setup ->
  protocol ->
  Mtrace.Trace.t ->
  loss_model ->
  model
(** Wire one run, ready for the engine to run to [horizon], in a fixed
    order that fixes the engine's random splits and event sequence
    numbers (hence every golden):
    + the engine of [setup.seed] and the {!link_delays} draw;
    + the network, the drop predicate ({!make_drop}) and the checker,
      under a plan with its fault rules on and the plan's initial
      absentees noted;
    + with [steady], the retirement controller, with [on_retire],
      which runs after every other retirement, and the checker's
      retirement registered;
    + the [tracer] tap (composing after the checker's);
    + the protocol deployment ([domain] on every SRM/CESRM host, and
      with [steady] streaming sends), its members' tracer hooks and,
      under a plan, the checker's;
    + with [steady], records off, the spans' retirement and the
      controller's members; with [registry], the online ["recovery/"]
      histograms ({!feed_recovery_hists});
    + the fault plan's events and its churn join/leave/restart hooks;
    + the protocol's start, then the steady epoch tick.

    [setup] must already carry the adjustment {!Runner.run_model}
    makes for fault plans. With [shard] — the builder's only branch —
    the network runs in shard mode, only owned members get live hosts,
    and the checker is detached; the configuration must be shardable
    (no tracer, domain or steady window, which {!Runner.run_model}
    keeps serial), and the coordinator, not the worker, takes the
    registry. *)
