(* What the serial runner and the sharded parallel runner share: the
   protocol/setup/result types, the pure helpers, [build], the one
   function that wires a run's model — engine, network, drop
   predicate, invariant checker, tracer tap, steady controller,
   churn hooks and the protocol deployment — and [finish], the one
   accounting of a finished run. [Runner]'s serial arm is build, run,
   finish; every [Parallel] worker is build in shard mode, then the
   barrier loop, and the coordinator finishes the merged pieces;
   [Churn] builds and runs with one crash timer added. This module
   sits below all three in the dependency order; [Runner] re-exports
   the types with equations, so everything outside the harness keeps
   saying [Harness.Runner.setup]. *)

type protocol = Srm_protocol | Cesrm_protocol of Cesrm.Host.config | Lms_protocol

let protocol_key = function
  | Srm_protocol -> "srm"
  | Lms_protocol -> "lms"
  | Cesrm_protocol { Cesrm.Host.retention; router_assist; reorder_delay = _ } ->
      (* The retention segment is omitted when default, so the default
         CESRM is plain "cesrm". The reorder delay stays unnamed: only
         the REORDER-DELAY ablations set it, and they label their own
         rows. *)
      Printf.sprintf "cesrm%s%s"
        (if Cesrm.Retention.is_default retention then ""
         else "@" ^ Cesrm.Retention.name retention)
        (if router_assist then "+ra" else "")

let protocol_name p = String.uppercase_ascii (protocol_key p)

let grammar = "srm, cesrm[@RETENTION][+ra] or lms"

let protocol_of_name s =
  let rest, router_assist =
    if String.ends_with ~suffix:"+ra" s then (String.sub s 0 (String.length s - 3), true)
    else (s, false)
  in
  let cesrm retention =
    Ok (Cesrm_protocol { Cesrm.Host.default_config with retention; router_assist })
  in
  match s with
  | "srm" -> Ok Srm_protocol
  | "lms" -> Ok Lms_protocol
  | _ when rest = "cesrm" -> cesrm Cesrm.Retention.default
  | _ when String.starts_with ~prefix:"cesrm@" rest -> (
      let r = String.sub rest 6 (String.length rest - 6) in
      match Cesrm.Retention.of_name r with
      | Some retention -> cesrm retention
      | None ->
          Error
            (Printf.sprintf "unknown CESRM cache retention %S (expected %s)" r
               Cesrm.Retention.names_doc))
  | _ when String.starts_with ~prefix:"cesrm:" s ->
      Error
        (Printf.sprintf
           "%S: the cesrm:POLICY segment was removed; the retention scheme alone ranks the \
            replier choice (expected %s)"
           s grammar)
  | _ -> Error (Printf.sprintf "unknown protocol %S (expected %s)" s grammar)

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

let default_setup =
  {
    link_delay = 0.020;
    bandwidth_bps = 1.5e6;
    params = Srm.Params.default;
    warmup = 5.0;
    tail = 30.0;
    lossy_recovery = false;
    lossy_sessions = false;
    data_jitter = 0.;
    heterogeneous_delays = false;
    seed = 42L;
  }

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
      (* losses dropped by membership departures: detected but pending
         when the member left, so liveness does not charge them *)
  audit_violations : int;  (* safety-rule violations; 0 expected *)
  oracle_violations : int;  (* fault-rule violations; 0 without a fault plan *)
  oracle : Audit.t option;  (* the run's checker, present iff a fault plan was run *)
  retirement : Steady.Controller.t option;  (* present iff a steady window ran *)
}

type loss_model =
  | Attributed of Inference.Attribution.t
  | Ground_truth of Mtrace.Bitset.t array
  | Streamed of Mtrace.Stream_loss.t

(* Loss injection: drop an original data packet on exactly the links
   the loss model names for it; optionally drop recovery packets per
   estimated link rates. Session traffic is never dropped (Section 4.3
   presumes lossless session exchange).

   [Attributed] replays the paper's Section 4.2 pipeline: each data
   packet is cut on the links maximum-likelihood attribution blames.
   [Ground_truth] skips inference and drops packet [seq] on link [l]
   iff the generator's Gilbert chain had [l] Bad at step [seq - 1] —
   the same indexing [Trace.lost] reads, so the losses receivers
   observe are exactly the trace. Attribution is quadratic-ish in
   receivers and pointless when the generator's own link states are in
   hand, which is what the synthetic scale scenarios use. *)
let make_drop ~loss_model ~lossy_recovery ~lossy_sessions ~rates ~rng =
  let data_cut =
    match loss_model with
    | Ground_truth link_bad ->
        fun ~link ~seq -> Mtrace.Bitset.get link_bad.(link) (seq - 1)
    | Streamed chains ->
        (* Same ground-truth semantics with lazily evaluated chains:
           link [l] drops packet [seq] iff its Gilbert process is Bad
           at that step. Data floods traverse each link in seq order
           (FIFO links, source sends in order), which is exactly the
           monotone access pattern [Stream_loss] requires. *)
        fun ~link ~seq -> Mtrace.Stream_loss.lost chains ~link ~seq
    | Attributed attribution ->
        (* The predicate runs once per link crossing per data packet, so
           each packet's cut set is kept as a per-seq bitset over link
           ids rather than a list to scan. [rates] is sized n_nodes in
           both runner configurations, which bounds every link id. *)
        let n_links = Array.length rates in
        let cut_sets = Hashtbl.create 1024 in
        let cuts_of seq =
          match Hashtbl.find cut_sets seq with
          | cuts -> cuts
          | exception Not_found ->
              let cuts = Mtrace.Bitset.create n_links in
              List.iter (Mtrace.Bitset.set cuts) (Inference.Attribution.cuts attribution ~seq);
              Hashtbl.replace cut_sets seq cuts;
              cuts
        in
        fun ~link ~seq -> Mtrace.Bitset.get (cuts_of seq) link
  in
  fun ~link ~down (p : Net.Packet.t) ->
    match p.payload with
    | Net.Packet.Data { seq } -> down && data_cut ~link ~seq
    | Net.Packet.Session _ -> lossy_sessions && Sim.Rng.bernoulli rng rates.(link)
    | Net.Packet.Request _ | Net.Packet.Reply _ | Net.Packet.Exp_request _ ->
        lossy_recovery && Sim.Rng.bernoulli rng rates.(link)

let horizon ~setup ~n_packets ~period =
  setup.warmup +. (float_of_int n_packets *. period) +. setup.tail +. 240.

(* Source-to-node RTTs in one top-down pass. Accumulating parent
   distance plus own link delay adds the delays in the same order
   [Net.Network.rtt network 0 node] does, so the values are
   bit-identical to per-receiver path walks — without the quadratic
   cost on deep trees. [delay] is the per-link delay (the serial
   runner passes [Net.Network.link_delay network]; the coordinator of
   a sharded run its own replica of the delay draw). *)
let source_rtts ~tree ~delay =
  let rtts = Array.make (Net.Tree.n_nodes tree) 0. in
  let rec fill v d =
    List.iter
      (fun c ->
        let dc = d +. delay c in
        rtts.(c) <- 2. *. dc;
        fill c dc)
      (Net.Tree.children tree v)
  in
  fill 0 0.;
  rtts

let receiver_rtt ~tree rtts node =
  if node <> 0 && Net.Tree.is_leaf tree node then Some rtts.(node) else None

(* The histograms are fed as recoveries land, not folded at the end:
   a steady run drops its records, so an end-of-run fold would find
   none. The adds are the fold's, in the same (insertion) order, so the
   histograms are bit-identical either way. *)
let feed_recovery_hists reg ~tree ~rtts recoveries =
  Instrument.attach_recovery_hists_online reg ~rtt_of:(receiver_rtt ~tree rtts) recoveries

(* A run's end, serial or merged from shards: liveness counts what was
   neither recovered nor forgiven. *)
let finish ?registry ~faulted ~setup ~rtts ~tally ~recoveries ~cost
    ~expedited:(exp_requests, exp_replies) ~detected ~forgiven ~retirement checker protocol
    trace =
  let oracle = if faulted then Some checker else None in
  let receivers = Net.Tree.receivers (Mtrace.Trace.tree trace) in
  Option.iter
    (fun reg ->
      Obs.Registry.incr ~by:(Stats.Recovery.count recoveries) reg "recovery/recovered";
      Option.iter
        (fun o -> Obs.Registry.incr ~by:(Audit.n_fault o) reg "fault/oracle_violations")
        oracle)
    registry;
  {
    trace;
    protocol;
    setup;
    counters = tally;
    recoveries;
    cost;
    rtt_to_source = Array.to_list (Array.map (fun node -> (node, rtts.(node))) receivers);
    exp_requests;
    exp_replies;
    unrecovered = detected - Stats.Recovery.count recoveries - forgiven;
    detected;
    forgiven;
    audit_violations = Audit.n_safety checker;
    oracle_violations = Audit.n_fault checker;
    oracle;
    retirement;
  }

(* The paper's uniform delay on every link, or per-link delays
   log-uniform in [link_delay/3, 3·link_delay]: the real MBone had
   heterogeneous latencies; the paper used a uniform delay, so this is
   a robustness probe. The draw takes the first split of the run's
   root generator, so the coordinator of a sharded run, passing a
   fresh generator of the run's seed, sees the workers' delays. *)
let link_delays ~setup ~tree rng =
  let n = Net.Tree.n_nodes tree in
  if not setup.heterogeneous_delays then Array.make n setup.link_delay
  else begin
    let rng = Sim.Rng.split rng in
    Array.init n (fun l ->
        if l = 0 then 0.
        else Sim.Rng.log_uniform rng (setup.link_delay /. 3.) (3. *. setup.link_delay))
  end

(* --- The per-run model ------------------------------------------------ *)

type shard = { partition : Net.Partition.t; me : int }

type model = {
  engine : Sim.Engine.t;
  network : Net.Network.t;
  horizon : float;
  audit : Audit.t;
  controller : Steady.Controller.t option;
  recoveries : Stats.Recovery.t;
  detected : unit -> int;
  member_detected : int -> int;
  expedited : unit -> int * int;
  forgiven : unit -> int;
  publish : Obs.Registry.t -> unit;
}

(* One protocol deployment, seen through what [build] wires to it. *)
type deployment = {
  hosts : (int * Srm.Host.t) list;
      (* each member's SRM layer, source first — what the tracer, the
         checker's fault rules and joins hook into; empty under LMS *)
  d_recoveries : Stats.Recovery.t;
  retirees : unit -> Steady.Controller.member list;
  leave : node:int -> int;
      (* apply a departure to every member; the departing host's
         pending losses, which it forgives *)
  restart : node:int -> unit;
  start : unit -> unit;
  d_detected : unit -> int;
  d_member_detected : int -> int;  (* one member's own detections; 0 for a non-member *)
  d_expedited : unit -> int * int;
  d_publish : Obs.Registry.t -> unit;
}

let retiree node ~prefix ~retire =
  { Steady.Controller.node; delivered_prefix = prefix; retire }

(* Every SRM-family deployment, seen through its SRM hosts. The
   departing host drops all soft state (forgiving its pending losses)
   and every remaining member forgets the session state naming it;
   CESRM's caches follow through the SRM hooks its hosts installed. *)
let srm_family ~setup ~streaming g ~expedited ~publish =
  let members = Srm.Proto.srm_members g in
  {
    (* After deploy: CESRM hosts have installed their own hooks, which
       the tracer and the checker chain onto rather than replace. *)
    hosts = members;
    d_recoveries = Srm.Proto.recoveries g;
    retirees =
      (fun () ->
        List.map
          (fun (node, h) ->
            retiree node
              ~prefix:(fun () -> Srm.Host.delivered_prefix h)
              ~retire:(Srm.Host.retire_below h))
          members);
    leave =
      (fun ~node ->
        List.fold_left
          (fun forgiven (n, h) ->
            if n = node then forgiven + Srm.Host.depart h
            else begin
              Srm.Host.forget_peer h node;
              forgiven
            end)
          0 members);
    restart = (fun ~node -> Option.iter Srm.Host.restart_recovery (List.assoc_opt node members));
    start =
      (fun () ->
        Srm.Proto.start ~send_jitter:setup.data_jitter ~streaming g ~warmup:setup.warmup
          ~tail:setup.tail);
    d_detected =
      (fun () -> List.fold_left (fun acc (_, h) -> acc + Srm.Host.detected_losses h) 0 members);
    d_member_detected =
      (fun node ->
        Option.fold ~none:0 ~some:Srm.Host.detected_losses (List.assoc_opt node members));
    d_expedited = expedited;
    d_publish = (fun reg -> List.iter (fun (_, h) -> publish h reg) (Srm.Proto.members g));
  }

let deploy ?owned ?domain ~network ~setup ~n_packets ~period ~streaming = function
  | Srm_protocol ->
      srm_family ~setup ~streaming
        (Srm.Proto.deploy ?owned ?domain ~network ~params:setup.params ~n_packets ~period ())
        ~expedited:(fun () -> (0, 0))
        ~publish:Srm.Host.publish_metrics
  | Cesrm_protocol config ->
      let p =
        Cesrm.Proto.deploy ~config ?owned ?domain ~network ~params:setup.params ~n_packets ~period
          ()
      in
      srm_family ~setup ~streaming p
        ~expedited:(fun () -> (Cesrm.Proto.expedited_requests p, Cesrm.Proto.expedited_replies p))
        ~publish:Cesrm.Host.publish_metrics
  | Lms_protocol ->
      (* LMS hosts carry no SRM soft state: crashes and departures only
         toggle the network layer. *)
      let p = Lms.Proto.deploy ~network ~n_packets ~period () in
      let members = Lms.Proto.members p in
      {
        hosts = [];
        d_recoveries = Lms.Proto.recoveries p;
        retirees =
          (fun () ->
            List.map
              (fun (node, h) ->
                retiree node
                  ~prefix:(fun () -> Lms.Host.delivered_prefix h)
                  ~retire:(Lms.Host.retire_below h))
              members);
        leave = (fun ~node:_ -> 0);
        restart = (fun ~node:_ -> ());
        start =
          (fun () -> Lms.Proto.start ~streaming p ~warmup:setup.warmup ~tail:setup.tail);
        d_detected = (fun () -> Lms.Proto.detected p);
        d_member_detected =
          (fun node ->
            Option.fold ~none:0 ~some:Lms.Host.detected_losses (List.assoc_opt node members));
        d_expedited = (fun () -> (0, 0));
        d_publish = (fun reg -> List.iter (fun (_, h) -> Lms.Host.publish_metrics h reg) members);
      }

(* The construction order below fixes the engine's random splits and
   event sequence numbers, hence every golden. Shard mode changes only
   what a worker must: the network's shard mode, live hosts for owned
   members only, and a detached checker, which the primary worker
   feeds the merged tap stream at finish. *)
let build ?shard ?tracer ?registry ?fault_plan ?steady ?on_retire ?domain ~setup protocol trace
    loss_model =
  let tree = Mtrace.Trace.tree trace in
  let n_packets = Mtrace.Trace.n_packets trace in
  let period = Mtrace.Trace.period trace in
  let serial = Option.is_none shard in
  let engine = Sim.Engine.create ~seed:setup.seed () in
  let network =
    Net.Network.create_heterogeneous ~engine ~tree
      ~delays:(link_delays ~setup ~tree (Sim.Engine.rng engine))
      ~bandwidth_bps:setup.bandwidth_bps ()
  in
  Option.iter
    (fun { partition; me } ->
      Net.Network.enable_shard network ~partition ~me
        ~observe:(me = partition.Net.Partition.owner.(0)))
    shard;
  let rates =
    if setup.lossy_recovery || setup.lossy_sessions then Inference.Yajnik.estimate trace
    else Array.make (Net.Tree.n_nodes tree) 0.
  in
  let drop_rng = Sim.Rng.split (Sim.Engine.rng engine) in
  Net.Network.set_drop network
    (make_drop ~loss_model ~lossy_recovery:setup.lossy_recovery
       ~lossy_sessions:setup.lossy_sessions ~rates ~rng:drop_rng);
  (* One checker per run: the safety rules on every send, and under a
     fault plan the fault rules too, its membership timeline seeded
     with the plan's initial absentees (late joiners are outside the
     group from time 0) and appended to as each join/leave timer
     fires. LMS retries legitimately repeat expedited requests, so its
     bound is loose. *)
  let audit =
    (if serial then Audit.attach else Audit.create)
      ~expect_in_order:(setup.data_jitter <= 0.)
      ~max_exp_per_loss:(match protocol with Lms_protocol -> 64 | _ -> 1)
      ~faulted:(Option.is_some fault_plan) network
  in
  Option.iter
    (fun plan ->
      List.iter
        (fun node -> Audit.note_membership audit ~node ~at:0. ~member:false)
        (Fault.Plan.initial_absentees plan))
    fault_plan;
  (* A steady window gets a retirement controller; the checker's
     per-packet tables retire with the hosts'. *)
  let controller =
    Option.map (fun cfg -> Steady.Controller.create ~window:cfg.Steady.Config.window) steady
  in
  (* Retirement hooks run newest first: the caller's, registered
     first, sees every other table already retired. *)
  Option.iter (fun c -> Option.iter (Steady.Controller.on_retire c) on_retire) controller;
  Option.iter
    (fun c -> Steady.Controller.on_retire c (fun ~upto -> Audit.retire_below audit ~upto))
    controller;
  let stride = n_packets + 1 in
  Option.iter (fun tr -> Instrument.attach_network ~trace:tr ~stride network) tracer;
  let owned = Option.map (fun _ -> Net.Network.owns network) shard in
  let d =
    deploy ?owned ?domain ~network ~setup ~n_packets ~period ~streaming:(Option.is_some steady)
      protocol
  in
  List.iter
    (fun (_, h) ->
      Option.iter (fun tr -> Instrument.attach_srm_host ~trace:tr ~stride h) tracer;
      if Option.is_some fault_plan then Audit.attach_host audit h)
    d.hosts;
  (* A steady run keeps online summaries only, and flushes finalized
     per-loss spans (the makespan figure) as the stability horizon
     advances. *)
  Option.iter
    (fun c ->
      Stats.Recovery.drop_records d.d_recoveries;
      Steady.Controller.on_retire c (fun ~upto ->
          Stats.Recovery.retire_spans d.d_recoveries ~upto);
      List.iter (Steady.Controller.add_member c) (d.retirees ()))
    controller;
  Option.iter
    (fun reg ->
      feed_recovery_hists reg ~tree
        ~rtts:(source_rtts ~tree ~delay:(Net.Network.link_delay network))
        d.d_recoveries)
    registry;
  (* Churn. Every shard compiles the full plan, so every checker carries
     the identical membership timeline, while host-level effects act
     on owned hosts only. A joiner's detection-window baseline is how
     many packets the source has put on the wire by now, computed from
     the send schedule rather than the source host's state: a pure
     function of the join time, so a shard that does not own the
     source baselines identically. With send jitter the count can be
     off by the packet straddling the join instant, which only shifts
     whether the joiner bothers recovering that one boundary packet —
     never whether liveness charges it. Losses still pending when a
     member leaves are forgiven: it was not present for their full
     recovery windows. *)
  let forgiven = ref 0 in
  let join_baselines () =
    let sent = 1 + int_of_float (Float.floor ((Sim.Engine.now engine -. setup.warmup) /. period)) in
    let sent = max 0 (min n_packets sent) in
    if sent = 0 then [] else [ (0, sent) ]
  in
  let note_membership ~node ~member =
    Audit.note_membership audit ~node ~at:(Sim.Engine.now engine) ~member
  in
  Option.iter
    (fun plan ->
      Fault.Plan.compile ~network ~on_restart:d.restart
        ~on_join:(fun ~node ->
          note_membership ~node ~member:true;
          Option.iter
            (fun h -> Srm.Host.join h ~baselines:(join_baselines ()))
            (List.assoc_opt node d.hosts))
        ~on_leave:(fun ~node ->
          note_membership ~node ~member:false;
          Audit.forget_node audit ~node;
          forgiven := !forgiven + d.leave ~node)
        plan)
    fault_plan;
  d.start ();
  (* The epoch tick drives retirement from inside the engine: no
     packets, no RNG, one reserved event seq per tick (a uniform shift
     of later seqs — same-time orderings are unchanged). *)
  let horizon = horizon ~setup ~n_packets ~period in
  (match (controller, steady) with
  | Some c, Some cfg ->
      Sim.Engine.every_epoch engine ~every:(Steady.Config.epoch_period cfg ~period) ~until:horizon
        (fun () -> Steady.Controller.tick c)
  | _ -> ());
  {
    engine;
    network;
    horizon;
    audit;
    controller;
    recoveries = d.d_recoveries;
    detected = d.d_detected;
    member_detected = d.d_member_detected;
    expedited = d.d_expedited;
    forgiven = (fun () -> !forgiven);
    publish = d.d_publish;
  }
