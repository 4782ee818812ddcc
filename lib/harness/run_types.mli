(** A run's declaration and wiring, shared by the serial {!Runner},
    the sharded {!Parallel} runner and {!Churn}: the run's types,
    {!build}, the one function that wires a run's model, and
    {!finish}, the one accounting of a finished run. {!Runner}
    includes this module and adds the run policy; it sits below both
    runners because [Runner] delegates multi-shard runs to
    [Parallel], whose workers build the same model [Runner] builds
    serially. *)

type protocol =
  | Srm_protocol
  | Cesrm_protocol of Cesrm.Host.config
  | Lms_protocol
      (** the router-assisted baseline of Section 3.3's comparison;
          note its data jitter and adaptive-timer options are
          inapplicable *)

val protocol_key : protocol -> string
(** ["srm"], ["lms"], or ["cesrm[@retention]"] with a ["+ra"] suffix
    when router assist is on (e.g. ["cesrm+ra"], ["cesrm@lru:4"],
    ["cesrm@hotspot=inf+ra"]): the CLI's and a sweep spec's spelling,
    and the protocol segment of a sweep cell's label. The retention
    segment is omitted when it is {!Cesrm.Retention.default}, so the
    default CESRM is plain ["cesrm"]. The reorder delay is not named. *)

val protocol_name : protocol -> string
(** {!protocol_key} upper-cased, for headers and labels: ["SRM"],
    ["CESRM"], ["CESRM+RA"], ["LMS"], ["CESRM@LRU"]. *)

val protocol_of_name : string -> (protocol, string) result
(** Inverse of {!protocol_key}: [srm], [lms] or
    [cesrm[@RETENTION][+ra]]; bare ["cesrm"] means
    {!Cesrm.Host.default_config}. A [cesrm:POLICY] name is rejected
    with a message saying the policy segment was removed. *)

type setup = {
  link_delay : float;  (** seconds; paper uses 10/20/30 ms, default 20 ms *)
  bandwidth_bps : float;  (** default 1.5 Mbps *)
  params : Srm.Params.t;
  warmup : float;  (** session warm-up before data starts; default 5 s *)
  tail : float;  (** session time kept after the last packet; default 30 s *)
  lossy_recovery : bool;  (** drop recovery packets per link rates *)
  lossy_sessions : bool;
      (** drop session packets per link rates too (the paper assumes a
          lossless session exchange; this probes that assumption) *)
  data_jitter : float;
      (** max uniform per-packet send jitter, seconds; > period causes
          reordering, the case REORDER-DELAY exists for, and is
          rejected under a steady window *)
  heterogeneous_delays : bool;
      (** draw per-link delays log-uniformly in
          [link_delay/3, 3·link_delay] instead of the paper's uniform
          setting — a robustness probe for the suppression timers *)
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
  rtt_to_source : (int * float) list;  (** per receiver node, true RTT *)
  exp_requests : int;
      (** the [counters]' [Exp_rqst] total; 0 under LMS, whose
          hop-by-hop requests tally there but are no expedited recovery *)
  exp_replies : int;  (** the [counters]' [Exp_repl] total; 0 under LMS *)
  unrecovered : int;
      (** losses detected but never repaired nor forgiven (0 expected):
          [detected - recovered - forgiven] *)
  detected : int;  (** losses detected across receivers *)
  forgiven : int;
      (** losses still pending when their member left the group (churn
          plans only): the member was not present for their full
          recovery windows, so liveness accounting excludes them *)
  audit_violations : int;
      (** violations of the run's {!Audit} checker's safety rules
          (0 expected) *)
  oracle_violations : int;
      (** violations of its fault rules (0 without a fault plan, and 0
          expected with one — a fault-rule violation means the
          protocol failed to degrade gracefully) *)
  oracle : Audit.t option;
      (** the run's checker, present iff a fault plan was run *)
  retirement : Steady.Controller.t option;
      (** the windowed-retirement controller — present iff the run
          executed with a steady window (floor reached, tick count,
          peak heap); exactly the runs whose {!recoveries} keep no
          per-loss records *)
}

type loss_model =
  | Attributed of Inference.Attribution.t
      (** cut each data packet on the links maximum-likelihood
          attribution blames (the paper's Section 4.2 pipeline) *)
  | Ground_truth of Mtrace.Bitset.t array
      (** per-link Gilbert Bad-step bitsets straight from
          {!Mtrace.Generator} ([link_bad], indexed by link id; bit
          [seq - 1] drops packet [seq]) — skips inference entirely,
          receivers observe exactly the trace's losses; what the
          synthetic scale scenarios use *)
  | Streamed of Mtrace.Stream_loss.t
      (** same ground-truth semantics, chains evaluated lazily — the
          constant-memory loss model for streaming (steady) runs over
          a {!Mtrace.Trace.create_streaming} trace *)

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
  tally:Stats.Counters.t ->
  recoveries:Stats.Recovery.t ->
  cost:Net.Cost.t ->
  detected:int ->
  forgiven:int ->
  retirement:Steady.Controller.t option ->
  Audit.t ->
  protocol ->
  Mtrace.Trace.t ->
  result
(** The one accounting of a finished run, serial ({!Runner}) or merged
    from shards ({!Parallel}), given its send [tally] (the network's,
    or the shards' merged) and its checker: with [registry], publish
    ["recovery/recovered"] and, when [faulted],
    ["fault/oracle_violations"]; and build the result —
    [unrecovered = detected - recovered - forgiven], the checker's
    safety/fault split, [oracle] present iff [faulted], the expedited
    pair off the [tally] (see {!result}), and [rtt_to_source], every
    receiver in [Net.Tree.receivers] order with its entry of [rtts]
    ({!source_rtts}). *)

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
  recoveries : Stats.Recovery.t;
  detected : unit -> int;  (** losses detected across (owned) members so far *)
  member_detected : int -> int;
      (** losses one (owned) member detected so far; 0 for a node with
          no host *)
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
