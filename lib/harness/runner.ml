(* Run policy: the run's inputs, the rejected lever combinations, the
   fault-plan and domain adjustments, the shardability verdict, and the
   serial run. The types, the drop predicate, the model builder and
   the end-of-run accounting are shared with the sharded parallel
   runner (see [Run_types]): a serial run is [Run_types.build],
   [Sim.Engine.run], [Run_types.finish]; a sharded one hands the same
   inputs to [Parallel]. The equations keep [Harness.Runner.setup] et
   al. the public names. *)

type protocol = Run_types.protocol =
  | Srm_protocol
  | Cesrm_protocol of Cesrm.Host.config
  | Lms_protocol

let protocol_name = Run_types.protocol_name

type setup = Run_types.setup = {
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

let default_setup = Run_types.default_setup

type result = Run_types.result = {
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
  audit_violations : int;  (* safety-rule violations; 0 expected *)
  oracle_violations : int;  (* fault-rule violations; 0 without a fault plan *)
  oracle : Audit.t option;  (* the run's checker, present iff a fault plan was run *)
  retirement : Steady.Controller.t option;  (* present iff a steady window ran *)
}

let attribution_of_trace trace =
  Inference.Attribution.infer ~rates:(Inference.Yajnik.estimate trace) trace

type loss_model = Run_types.loss_model =
  | Attributed of Inference.Attribution.t
  | Ground_truth of Mtrace.Bitset.t array
  | Streamed of Mtrace.Stream_loss.t

(* Each condition needs a global view mid-run that a shard lacks (see
   the interface). Everything else — crashes, partitions, outage and
   duplication windows, churn, heterogeneous delays, data jitter,
   streaming sends — replays identically on every shard. CESRM comes
   last: the other reasons say more when they also apply. *)
let shardable ~tracer ~fault_plan ~setup ~steady ~domains protocol =
  let link_jitter = function Fault.Plan.Link_jitter _ -> true | _ -> false in
  match (protocol, steady, fault_plan) with
  | _ when Option.is_some tracer -> Some "event tracing"
  | _ when Option.is_some domains -> Some "recovery domains"
  | _ when setup.lossy_recovery || setup.lossy_sessions -> Some "lossy recovery/sessions"
  | Lms_protocol, _, _ -> Some "LMS"
  | _, Some _, _ -> Some "steady window"
  | _, _, Some plan when List.exists link_jitter plan.Fault.Plan.events -> Some "link-jitter faults"
  | Cesrm_protocol _, _, _ -> Some "CESRM expedited recovery"
  | _ -> None

(* The lever combinations no run accepts (see the interface): each
   falls outside both the stated identity laws and a clean verdict. *)
let rejected ~faulted ~domains protocol =
  match protocol with
  | Lms_protocol when Option.is_some domains -> Some "LMS with recovery domains"
  | Lms_protocol when faulted -> Some "LMS under a fault plan"
  | _ -> None

let run_model ?(setup = default_setup) ?tracer ?registry ?fault_plan ?(shards = 1) ?steady
    ?on_retire ?domains protocol trace loss_model =
  Option.iter invalid_arg (rejected ~faulted:(Option.is_some fault_plan) ~domains protocol);
  (* A fault plan switches on the robustness extensions
     ([Srm.Params.fault_tolerant]): session-driven request re-arm,
     which bounds post-heal recovery latency by the session period
     instead of the 2^k back-off, and CESRM's presumed replier death.
     Unfaulted runs keep the paper-faithful defaults bit-for-bit. *)
  let setup =
    match fault_plan with
    | Some _ -> { setup with params = { setup.params with Srm.Params.fault_tolerant = true } }
    | None -> setup
  in
  let tree = Mtrace.Trace.tree trace in
  (* Recovery domains: built once (pure topology, no randomness) and
     shared by every host, which derives true distances and its
     in-flight allowance from it (see [Srm.Host.create]). *)
  let domain = Option.map (fun spec -> Rdomain.of_tree ~tree spec) domains in
  (* The serial run: build, run, publish the model's own metrics, then
     the accounting a sharded run shares. *)
  let serial () =
    let m =
      Run_types.build ?tracer ?registry ?fault_plan ?steady ?on_retire ?domain ~setup protocol
        trace loss_model
    in
    Sim.Engine.run ~until:m.horizon m.engine;
    Option.iter
      (fun reg ->
        Sim.Engine.publish_metrics m.engine reg;
        Net.Network.publish_metrics m.network reg;
        m.publish reg;
        Option.iter (fun c -> Steady.Controller.publish_metrics c reg) m.controller)
      registry;
    Run_types.finish ?registry ~faulted:(Option.is_some fault_plan) ~setup
      ~rtts:(Run_types.source_rtts ~tree ~delay:(Net.Network.link_delay m.network))
      ~counters:m.counters ~recoveries:m.recoveries ~cost:(Net.Network.cost m.network)
      ~expedited:(m.expedited ()) ~detected:(m.detected ()) ~forgiven:(m.forgiven ())
      ~retirement:m.controller m.audit protocol trace
  in
  if shards <= 1 || Option.is_some (shardable ~tracer ~fault_plan ~setup ~steady ~domains protocol)
  then serial ()
  else begin
    (* Partition on the per-link delays the workers will draw. *)
    let delays = Run_types.link_delays ~setup ~tree (Sim.Rng.create setup.seed) in
    let delay l = delays.(l) in
    let partition = Net.Partition.make ~tree ~delay ~shards in
    (* only a tree without receivers partitions into a single shard *)
    if partition.Net.Partition.n_shards < 2 then serial ()
    else
      Parallel.run ~partition ~delay ?registry ?fault_plan ~setup protocol trace loss_model
  end

(* Harness tuning for the synthetic scale scenarios. Classic SRM
   settings assume a ~10–50 member group; at 10^3–10^4 members the
   session machinery is quadratic in aggregate (n messages of n
   deliveries per period, n^2 echo state) and the default-distance
   timers collapse into reply implosion. Scale runs therefore model
   the converged steady state the paper's Section 4.3 assumes
   ([oracle_distances]): true tree distances, and session ticks from
   the source only (its max-seq advertisements are what tail-loss
   detection needs, and with no receiver sending there is no echo
   table to grow). Deep chains additionally shrink
   the per-link delay so the source-to-leaf path stays within the
   recovery timers' reach. *)
let scale_setup ?domains ~family ~n_members setup =
  (* Probabilistic-suppression windows widen as log2(n): with fixed C2
     and D2 the number of same-event requests and replies that fire
     before the first one propagates grows linearly with the group —
     reply implosion, and each un-suppressed reply is an O(n)-delivery
     flood. Log-widening is the static version of what the paper's
     adaptive timers converge to in large groups; the price is
     recovery latency growing with the window. Recovery domains shrink
     the suppression population from the whole group to one domain, so
     the window narrows to log2(domain bound) — the latency win local
     recovery exists for. *)
  let suppression_pop =
    match domains with
    | None -> n_members
    | Some spec -> Rdomain.spec_members ~n_members spec
  in
  let spread =
    Float.max 1. (3. *. Float.log (float_of_int (max 2 suppression_pop)) /. Float.log 2.)
  in
  let params =
    {
      setup.params with
      Srm.Params.oracle_distances = true;
      c2 = Float.max setup.params.Srm.Params.c2 spread;
      d2 = Float.max setup.params.Srm.Params.d2 spread;
    }
  in
  let link_delay =
    match family with Mtrace.Scale.Deep_chain -> 0.001 | _ -> setup.link_delay
  in
  { setup with params; link_delay }

let tune_for_trace ?domains trace setup =
  match Mtrace.Scale.family_of_name (Mtrace.Trace.name trace) with
  | None -> setup
  | Some family ->
      let n_members = 1 + Array.length (Net.Tree.receivers (Mtrace.Trace.tree trace)) in
      scale_setup ?domains ~family ~n_members setup

(* A row's trace and loss model. A steady run over a scale row never
   materializes the event list: the trace comes from the streaming
   generator (lazy per-link loss chains, O(links) setup), so a
   million-packet run starts instantly. Legacy table rows need the full
   bits for attribution and keep the eager path regardless, as do the
   eager-only adversarial families; scale rows inject the generator's
   own Gilbert link states directly (attribution is quadratic-ish in
   receivers, and pointless with the generator's chains in hand). *)
let inputs ?seed ?n_packets ?steady row =
  match (Mtrace.Scale.family_of_name row.Mtrace.Meta.name, steady) with
  | Some f, Some _ when Mtrace.Scale.supports_streaming f ->
      let g = Mtrace.Generator.synthesize_streaming ?seed ?n_packets row in
      (g.Mtrace.Generator.s_trace, Streamed g.Mtrace.Generator.s_loss)
  | family, _ ->
      let g = Mtrace.Generator.synthesize ?seed ?n_packets row in
      let trace = g.Mtrace.Generator.trace in
      ( trace,
        if family = None then Attributed (attribution_of_trace trace)
        else Ground_truth g.Mtrace.Generator.link_bad )

let fault_plan ~setup trace name =
  let tree = Mtrace.Trace.tree trace in
  let duration = float_of_int (Mtrace.Trace.n_packets trace) *. Mtrace.Trace.period trace in
  match Fault.Plan.canned ~tree ~warmup:setup.warmup ~duration name with
  | Some plan -> Ok plan
  | None when Sys.file_exists name -> Result.bind (Fault.Plan.load name) (Fault.Plan.validate ~tree)
  | None ->
      Error
        (Printf.sprintf "%S is neither a canned plan (%s) nor a file" name
           (String.concat ", " (Fault.Plan.canned_names @ Fault.Plan.churn_names)))

let run_leg ?(setup = default_setup) ?registry ?n_packets ?fault ?shards ?steady ?on_retire
    ?domains ~seed protocol row =
  let trace, loss_model = inputs ~seed ?n_packets ?steady row in
  let setup = tune_for_trace ?domains trace setup in
  let resolve name =
    match fault_plan ~setup trace name with
    | Ok plan -> plan
    | Error msg -> invalid_arg ("Runner.run_leg: " ^ msg)
  in
  run_model ~setup:{ setup with seed } ?registry ?fault_plan:(Option.map resolve fault) ?shards
    ?steady ?on_retire ?domains protocol trace loss_model

let normalized_recovery result ~node ~filter =
  let rtt = List.assoc node result.rtt_to_source in
  Stats.Recovery.latency_summary result.recoveries
    ~normalize:(fun _ -> rtt)
    ~filter:(fun r -> r.Stats.Recovery.node = node && filter r)

(* [Stats.Summary.mean] is 0 on an empty summary, which is the "no
   receiver recovered anything" answer the figures print. *)
let avg_normalized_recovery ?(filter = fun _ -> true) result =
  let means = Stats.Summary.create () in
  List.iter
    (fun (node, _) ->
      let s = normalized_recovery result ~node ~filter in
      if Stats.Summary.count s > 0 then Stats.Summary.add means (Stats.Summary.mean s))
    result.rtt_to_source;
  Stats.Summary.mean means

let recovery_reduction srm cesrm =
  let s = avg_normalized_recovery srm and c = avg_normalized_recovery cesrm in
  if s > 0. then 100. *. (1. -. (c /. s)) else 0.

let expedited_success_pct result =
  if result.exp_requests = 0 then 0.
  else 100. *. float_of_int result.exp_replies /. float_of_int result.exp_requests
