(* The repository benchmark: end-to-end and per-layer numbers for the
   whole simulator, over four workloads that stress different layers.

   One run measures one workload:

     dune exec ./benchmark/cesrm_bench.exe -- --workload NAME --seed N \
       --seconds S --trace 0|1 [--json OUT] [--spans OUT]

   A run first executes every leg of the workload once untraced: that
   rep warms the heap, fixes each leg's fingerprint and yields the
   simulated metrics, which are a pure function of the seed. It then
   repeats the legs until [--seconds] have passed, at least once, and
   reports host-time metrics from those reps. With [--trace 0] the reps
   run exactly what a user runs ([Harness.Runner.run_model]) and the
   run reports the end-to-end metrics; with [--trace 1] each rep times
   every layer from outside, one span per call into it, and the run
   reports the per-layer metrics. The last line of standard output is
   one JSON object {correct, attempted, failed, metrics}; [--json]
   keeps the full record (every rep, min/median/max, calibration) and
   [--spans] the spans as Chrome trace-event JSON.

   Without [--workload] every workload runs, untraced and then traced,
   each in its own child process and one process at a time; [--json]
   then collects the children's records. [--smoke] shrinks every
   workload to its smallest form and [--schema FILE] checks the names
   against BENCHMARK.json. *)

(* ---- Clocks and machine speed ---------------------------------------- *)

(* The wall clock bounds a run's length; measurements read [clock], the
   process's CPU time (user plus system). The simulator runs on one
   thread, so on an idle machine the two agree, but on a shared host
   the wall clock also counts the time other processes hold the core.
   CPU time still moves with the host: identical runs of the same code
   ran 1.5-2x slower for seconds to minutes at a time. So between the
   timed legs a run times a fixed kernel, and reports its times scaled
   by [reference_kernel_s] over the kernel's median: seconds on a
   machine of a fixed speed. *)
let now = Unix.gettimeofday

let clock = Sys.time

(* The scale's fixed point: a round figure near the kernel's median CPU
   time on a 2-vCPU Xeon container, where the median of one 30-second
   run ranged over 0.015-0.030 s. *)
let reference_kernel_s = 0.02

(* The kernel runs before a timed leg once this much CPU time has
   passed since it last ran, so it samples the machine all through a
   run at about 8% of the run's time. *)
let kernel_every = 0.25

(* The kernel depends on no library of the repo, so only the machine
   can change its time. It fills a fresh hash table with boxed floats:
   allocation, promotion and hashing, as the simulator does. It runs
   after [Gc.compact], so its collections do none of the simulator's
   work. Of the kernels tried against the simulator's legs, this one
   tracked their slow spells best: in 20- and 25-second windows of long
   runs whose leg times spread by 45% (flood-bf512) and 65%
   (paper-traces), leg time over kernel time spread by 9% and 3%;
   reads over a 16 MB array left 16-31% and 5%. *)
let kernel () =
  let t0 = clock () in
  let h = Hashtbl.create 4096 in
  let acc = ref 0. in
  for i = 0 to 100_000 do
    let k = i * 7919 land 0xffff in
    Hashtbl.replace h k (float_of_int i);
    acc := !acc +. Hashtbl.find h k
  done;
  ignore (Sys.opaque_identity !acc);
  clock () -. t0

(* ---- Workloads ---------------------------------------------------- *)

type mode = Flat | Domains | Steady

type leg = {
  row : Mtrace.Meta.row;
  protocol : Harness.Runner.protocol;
  mode : mode;
  n_packets : int;
  seed : int64;
}

let srm = Harness.Runner.Srm_protocol

let cesrm = Harness.Runner.Cesrm_protocol Cesrm.Host.default_config

(* The constant-memory configuration: retirement window of 256
   packets, an epoch every 10 simulated seconds, records off. *)
let steady_config = Steady.Config.windowed ~epoch_every:10. 256

(* Each (row, mode, protocol) runs [sims] times, with simulation seeds
   [seed * sims + j]: distinct for distinct [--seed]s, and pooled they
   average out how far chaotic recovery dynamics (suppression races,
   request storms on deep chains) swing a single simulation. *)
let legs ~sims ~rows ~protocols ~modes ~n_packets seed =
  List.concat_map
    (fun row ->
      List.concat_map
        (fun mode ->
          List.concat_map
            (fun protocol ->
              List.init sims (fun j ->
                  let seed = Int64.(add (mul seed (of_int sims)) (of_int j)) in
                  { row; protocol; mode; n_packets; seed }))
            protocols)
        modes)
    rows

(* Every trace is synthesized from this fixed seed, as bench/main.ml
   does; [--seed] sets the simulation seeds (suppression timers,
   session phases). A new trace seed redraws the topologies, which
   moves the simulated metrics by 5-13% between seeds even when pooled
   over the 14 Table-1 rows; new simulation seeds move them by a few
   percent, below the metrics' bounds. *)
let trace_seed = 42L

let scale = Mtrace.Scale.find

(* Sizes are chosen so that the reference rep plus enough timed reps
   for a steady median fit in one run of BENCHMARK.json's length, and
   so that each workload pools enough recoveries for its simulated
   metrics to move by a few percent at most between seeds. *)
let workloads : (string * (smoke:bool -> int64 -> leg list)) list =
  [
    (* The paper's own evaluation: every Table-1 row under both
       protocols, with attributed losses. Small loss-heavy groups; the
       only workload that runs loss inference, and the one with the
       most expedited requests. *)
    ( "paper-traces",
      fun ~smoke ->
        legs ~sims:1
          ~rows:(if smoke then [ Mtrace.Meta.nth 4; Mtrace.Meta.nth 1 ] else Mtrace.Meta.all)
          ~protocols:[ srm; cesrm ] ~modes:[ Flat ]
          ~n_packets:(if smoke then 300 else 5000) );
    (* A large flat group with few losses per packet: each detected
       loss costs a group-wide request/reply flood, so recovery link
       crossings per loss are the highest of any workload and almost
       every event is a packet delivery rather than per-loss work. *)
    ( "flood-bf512",
      fun ~smoke ->
        legs
          ~sims:(if smoke then 1 else 2)
          ~rows:[ scale (if smoke then "SCALE-bf-256" else "SCALE-bf-512") ]
          ~protocols:[ srm; cesrm ] ~modes:[ Flat ]
          ~n_packets:(if smoke then 200 else 300) );
    (* A deep chain, flat and with recovery domains: the flat legs are
       the per-loss timer storm (the most detections, timer inserts and
       bytes per event), the domain legs run the same code through
       scoped subcasts with a few hundred detections. A single
       flat simulation's makespan or crossings per loss swing by 10-40%
       with the seed, hence four per leg. *)
    ( "storm-dc256",
      fun ~smoke ->
        legs
          ~sims:(if smoke then 1 else 4)
          ~rows:[ scale "SCALE-dc-256" ]
          ~protocols:[ srm; cesrm ] ~modes:[ Flat; Domains ] ~n_packets:100 );
    (* The only constant-memory path: streaming trace, lazy loss
       chains, retirement epochs, online histograms. The traced pass
       times a steady leg as one [run_model] call, so a short eager leg
       of the same group gives the workload layer steps it can split.
       It adds under a tenth of the events. The streamed work is six
       legs of about one and a half retirement windows each, rather
       than one long leg: the machine speed kernel runs between legs,
       and one leg of several seconds left it sampling too few moments
       of a run. *)
    ( "steady-bf512",
      fun ~smoke seed ->
        let group ~sims n_packets modes =
          legs ~sims ~rows:[ scale "SCALE-bf-512" ] ~protocols:[ cesrm ] ~modes ~n_packets seed
        in
        group ~sims:1 (if smoke then 100 else 200) [ Flat ]
        @ group ~sims:(if smoke then 1 else 6) 400 [ Steady ] );
  ]

let leg_label leg =
  Printf.sprintf "%s/%s%s@%Ld" leg.row.Mtrace.Meta.name
    (String.lowercase_ascii (Harness.Runner.protocol_name leg.protocol))
    (match leg.mode with Flat -> "" | Domains -> "-dom" | Steady -> "-steady")
    leg.seed

(* ---- Spans -------------------------------------------------------- *)

(* A closed span: one call into a layer, timed from outside on [clock].
   [self] is its duration minus its children's; [self_alloc] likewise
   for [Gc.allocated_bytes]. *)
type span = {
  name : string;
  parent : string;
  leg_id : int;
  at : float;
  dur : float;
  self : float;
  self_alloc : float;
}

type recorder = {
  mutable closed : span list;
  mutable stack : (string * float * float) list;
      (* open spans: name, children's time, children's allocation *)
  mutable leg_id : int;
}

let recorder () = { closed = []; stack = []; leg_id = 0 }

let span rec_ name f =
  let parent = match rec_.stack with (p, _, _) :: _ -> p | [] -> "" in
  rec_.stack <- (name, 0., 0.) :: rec_.stack;
  let a0 = Gc.allocated_bytes () in
  let t0 = clock () in
  let r = f () in
  let dur = clock () -. t0 in
  let alloc = Gc.allocated_bytes () -. a0 in
  (match rec_.stack with
  | (_, child_t, child_a) :: rest ->
      rec_.closed <-
        {
          name;
          parent;
          leg_id = rec_.leg_id;
          at = t0;
          dur;
          self = dur -. child_t;
          self_alloc = alloc -. child_a;
        }
        :: rec_.closed;
      rec_.stack <-
        (match rest with (p, t, a) :: up -> (p, t +. dur, a +. alloc) :: up | [] -> [])
  | [] -> assert false);
  r

type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { span = (fun _ f -> f ()) }

(* ---- Legs --------------------------------------------------------- *)

(* Input generation: trace synthesis, plus loss attribution on Table-1
   rows (scale rows inject the generator's ground truth). *)
let inputs sp leg =
  match leg.mode with
  | Steady ->
      let g =
        sp.span "mtrace.synthesize" (fun () ->
            Mtrace.Generator.synthesize_streaming ~seed:trace_seed ~n_packets:leg.n_packets leg.row)
      in
      (g.Mtrace.Generator.s_trace, Harness.Runner.Streamed g.Mtrace.Generator.s_loss)
  | Flat | Domains -> (
      let g =
        sp.span "mtrace.synthesize" (fun () ->
            Mtrace.Generator.synthesize ~seed:trace_seed ~n_packets:leg.n_packets leg.row)
      in
      let trace = g.Mtrace.Generator.trace in
      match Mtrace.Scale.family_of_name leg.row.Mtrace.Meta.name with
      | None ->
          ( trace,
            Harness.Runner.Attributed
              (sp.span "inference.attribute" (fun () -> Harness.Runner.attribution_of_trace trace)) )
      | Some _ -> (trace, Harness.Runner.Ground_truth g.Mtrace.Generator.link_bad))

(* The setup [Runner.run_leg] gives the same row, and its levers. *)
let leg_setup leg trace =
  let domains = match leg.mode with Domains -> Some Rdomain.Auto | Flat | Steady -> None in
  let steady = match leg.mode with Steady -> Some steady_config | Flat | Domains -> None in
  let setup = Harness.Runner.tune_for_trace ?domains trace Harness.Runner.default_setup in
  ({ setup with Harness.Runner.seed = leg.seed }, domains, steady)

(* One protocol deployment, seen through what the runner's serial arm
   touches. *)
type deployed = {
  hosts : Srm.Host.t list;
  counters : Stats.Counters.t;
  recoveries : Stats.Recovery.t;
  start : warmup:float -> tail:float -> unit;
  publish : Obs.Registry.t -> unit;
  expedited : unit -> int * int;  (** requests, replies *)
}

let deploy ~network ~(setup : Harness.Runner.setup) ~n_packets ~period = function
  | Harness.Runner.Srm_protocol ->
      let p = Srm.Proto.deploy ~network ~params:setup.params ~n_packets ~period () in
      {
        hosts = List.map snd (Srm.Proto.members p);
        counters = Srm.Proto.counters p;
        recoveries = Srm.Proto.recoveries p;
        start = Srm.Proto.start ~send_jitter:setup.data_jitter ~streaming:false p;
        publish = (fun reg -> List.iter (fun (_, h) -> Srm.Host.publish_metrics h reg) (Srm.Proto.members p));
        expedited = (fun () -> (0, 0));
      }
  | Harness.Runner.Cesrm_protocol config ->
      let p = Cesrm.Proto.deploy ~config ~network ~params:setup.params ~n_packets ~period () in
      {
        hosts = List.map (fun (_, h) -> Cesrm.Host.srm h) (Cesrm.Proto.members p);
        counters = Cesrm.Proto.counters p;
        recoveries = Cesrm.Proto.recoveries p;
        start = Cesrm.Proto.start ~send_jitter:setup.data_jitter ~streaming:false p;
        publish =
          (fun reg -> List.iter (fun (_, h) -> Cesrm.Host.publish_metrics h reg) (Cesrm.Proto.members p));
        expedited = (fun () -> (Cesrm.Proto.expedited_requests p, Cesrm.Proto.expedited_replies p));
      }
  | Harness.Runner.Lms_protocol -> invalid_arg "cesrm_bench: no LMS legs"

(* [Runner.run_model]'s serial arm for a flat, eager, unfaulted run
   with homogeneous delays, rebuilt from public calls so that each
   layer step gets its own span. The steps keep the runner's order,
   which fixes the engine's random draws and event sequence numbers.
   Its result must carry [run_model]'s fingerprint; [run_one] checks
   that on every traced rep. Domain and steady legs are not rebuilt:
   their extra wiring stays the runner's alone. *)
let rebuilt_run sp ~registry ~(setup : Harness.Runner.setup) protocol trace loss_model =
  let tree = Mtrace.Trace.tree trace in
  let n_packets = Mtrace.Trace.n_packets trace in
  let period = Mtrace.Trace.period trace in
  let engine, network, audit =
    sp.span "net.build" (fun () ->
        let engine = Sim.Engine.create ~seed:setup.seed () in
        let network =
          Net.Network.create ~engine ~tree ~link_delay:setup.link_delay
            ~bandwidth_bps:setup.bandwidth_bps ()
        in
        Net.Network.set_drop network
          (Harness.Run_types.make_drop ~loss_model ~lossy_recovery:false ~lossy_sessions:false
             ~rates:(Array.make (Net.Tree.n_nodes tree) 0.)
             ~rng:(Sim.Rng.split (Sim.Engine.rng engine)));
        ( engine,
          network,
          Harness.Audit.attach ~expect_in_order:(setup.data_jitter <= 0.) ~max_exp_per_loss:1 network
        ))
  in
  let d =
    sp.span "srm.deploy" (fun () ->
        let d = deploy ~network ~setup ~n_packets ~period protocol in
        d.start ~warmup:setup.warmup ~tail:setup.tail;
        d)
  in
  sp.span "sim.run" (fun () ->
      Sim.Engine.run ~until:(Harness.Run_types.horizon ~setup ~n_packets ~period) engine);
  sp.span "stats.collect" (fun () ->
      let rtts = Harness.Run_types.source_rtts ~tree ~delay:(Net.Network.link_delay network) in
      Sim.Engine.publish_metrics engine registry;
      Net.Network.publish_metrics network registry;
      d.publish registry;
      let recovered = Stats.Recovery.count d.recoveries in
      Obs.Registry.incr ~by:recovered registry "recovery/recovered";
      Harness.Instrument.attach_recovery_hists registry
        ~rtt_of:(fun node -> if node <> 0 && Net.Tree.is_leaf tree node then Some rtts.(node) else None)
        d.recoveries;
      let detected = List.fold_left (fun acc h -> acc + Srm.Host.detected_losses h) 0 d.hosts in
      let exp_requests, exp_replies = d.expedited () in
      {
        Harness.Runner.trace;
        protocol;
        setup;
        counters = d.counters;
        recoveries = d.recoveries;
        cost = Net.Network.cost network;
        rtt_to_source = Array.to_list (Array.map (fun n -> (n, rtts.(n))) (Net.Tree.receivers tree));
        exp_requests;
        exp_replies;
        unrecovered = detected - recovered;
        detected;
        forgiven = 0;
        audit_violations = List.length (Harness.Audit.violations audit);
        oracle_violations = 0;
        oracle = None;
        retirement = None;
      })

(* The deterministic face of a leg, as bench/main.ml pins it: counters,
   link-crossing costs and the bit-exact latency summary. *)
let fingerprint (r : Harness.Runner.result) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( r.detected,
            r.unrecovered,
            r.audit_violations,
            r.oracle_violations,
            r.counters,
            Net.Cost.retransmission_overhead r.cost,
            Net.Cost.control_overhead r.cost ~multicast:true,
            Net.Cost.control_overhead r.cost ~multicast:false,
            Stats.Recovery.count r.recoveries,
            Stats.Recovery.latency_summary r.recoveries )
          [ Marshal.No_sharing ]))

(* What a leg's run leaves for the report once its result is dropped. *)
type facts = {
  fp : string;
  detected : int;
  unrecovered : int;
  audit : int;
  events : int;
  exp_requests : int;
  exp_replies : int;
  crossings : int;  (** recovery link crossings: replies plus requests, both casts *)
  makespan : float;
  counters : Stats.Counters.t;
  cost : Net.Cost.t;
  registry : Obs.Registry.t;
  peak_heap_words : int;
  patterns : int;  (** distinct loss patterns attribution inferred; 0 on scale rows *)
}

let counter reg name = Option.value ~default:0 (Obs.Registry.counter_value reg name)

let facts_of ~registry ~loss_model (r : Harness.Runner.result) =
  {
    fp = fingerprint r;
    detected = r.detected;
    unrecovered = r.unrecovered;
    audit = r.audit_violations;
    events = counter registry "sim/events_fired";
    exp_requests = r.exp_requests;
    exp_replies = r.exp_replies;
    crossings =
      Net.Cost.retransmission_overhead r.cost
      + Net.Cost.control_overhead r.cost ~multicast:true
      + Net.Cost.control_overhead r.cost ~multicast:false;
    makespan = Stats.Recovery.makespan r.recoveries;
    counters = r.counters;
    cost = r.cost;
    registry;
    peak_heap_words = Option.fold ~none:0 ~some:Steady.Controller.peak_heap_words r.retirement;
    patterns =
      (match loss_model with
      | Harness.Runner.Attributed a -> Inference.Attribution.distinct_patterns a
      | Ground_truth _ | Streamed _ -> 0);
  }

(* One untraced leg: what a user of the harness runs. [cpu] and
   [setup_s] are read on [clock], unscaled; [speed] is the factor that
   scales them to the reference machine, known once the run is over;
   [wall] is kept for the record only. *)
type timing = {
  wall : float;
  cpu : float;
  setup_s : float;
  alloc : float;  (** allocated inside [run_model] *)
  speed : float;
}

let untraced_leg leg =
  let registry = Obs.Registry.create () in
  let w0 = now () and c0 = clock () in
  let trace, loss_model = inputs untimed leg in
  let setup_s = clock () -. c0 in
  let setup, domains, steady = leg_setup leg trace in
  let a0 = Gc.allocated_bytes () in
  let r = Harness.Runner.run_model ~setup ~registry ?domains ?steady leg.protocol trace loss_model in
  let alloc = Gc.allocated_bytes () -. a0 in
  let cpu = clock () -. c0 in
  ({ wall = now () -. w0; cpu; setup_s; alloc; speed = nan }, facts_of ~registry ~loss_model r)

(* The same leg, one span per layer call: a flat leg through the
   rebuilt serial arm, whose steps nest in the [harness.run_model]
   span; a domain or steady leg through [run_model] itself, one span. *)
let traced_leg rec_ leg =
  let sp = { span = (fun name f -> span rec_ name f) } in
  let registry = Obs.Registry.create () in
  let r, loss_model =
    sp.span "leg" (fun () ->
        let trace, loss_model = inputs sp leg in
        let setup, domains, steady = leg_setup leg trace in
        ( sp.span "harness.run_model" (fun () ->
              match leg.mode with
              | Flat -> rebuilt_run sp ~registry ~setup leg.protocol trace loss_model
              | Domains | Steady ->
                  Harness.Runner.run_model ~setup ~registry ?domains ?steady leg.protocol trace
                    loss_model),
          loss_model ))
  in
  facts_of ~registry ~loss_model r

(* ---- Statistics ---------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let min_max xs = (List.fold_left Float.min infinity xs, List.fold_left Float.max neg_infinity xs)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The q-quantile of a log-bucketed histogram, interpolated linearly
   inside the bucket that holds the nearest rank: a bucket midpoint
   would move in steps of the bucket width (1/16 of an octave) between
   seeds. *)
let hist_quantile h q =
  let target = q *. float_of_int (Obs.Hist.count h) in
  let seen = ref 0 and result = ref nan in
  Obs.Hist.iter_buckets h (fun ~lo ~hi ~count ->
      if Float.is_nan !result && float_of_int (!seen + count) >= target then
        result := lo +. ((hi -. lo) *. (target -. float_of_int !seen) /. float_of_int count);
      seen := !seen + count);
  !result

(* ---- Metrics ------------------------------------------------------- *)

type metric = {
  m_name : string;
  unit_ : string;
  better : string;  (** "lower" or "higher" *)
  value : float;
  samples : float list;  (** per-rep host measurements; [] for deterministic values *)
}

(* A host measurement over a workload: each leg's median over the
   timed reps, summed over the legs, so that a slow spell of the
   machine has to cover most reps of a leg to move the value.
   [value rep i] is leg [i]'s measurement in [rep]; the samples are the
   per-rep totals. *)
let host name unit_ better ~n_legs value reps =
  let legs = List.init n_legs Fun.id in
  let sum f = List.fold_left (fun acc i -> acc +. f i) 0. legs in
  {
    m_name = name;
    unit_;
    better;
    value = sum (fun i -> median (List.map (fun rep -> value rep i) reps));
    samples = List.map (fun rep -> sum (value rep)) reps;
  }

(* A metric derived from a host one, sample by sample. *)
let derived name unit_ better f m =
  { m_name = name; unit_; better; value = f m.value; samples = List.map f m.samples }

let exact name unit_ better value = { m_name = name; unit_; better; value; samples = [] }

let sum_int f facts = List.fold_left (fun acc x -> acc + f x) 0 facts

(* End-to-end metrics: host numbers from the untraced timed reps, times
   scaled to the reference machine; simulated ones pooled over every leg
   of the reference rep. *)
let end_to_end facts ~peak_heap_mb (reps : timing array list) =
  let n_legs = List.length facts in
  let events = float_of_int (sum_int (fun f -> f.events) facts) in
  let run = host "cpu_s" "s" "lower" ~n_legs (fun rep i -> rep.(i).cpu *. rep.(i).speed) reps in
  let alloc = host "alloc" "B" "lower" ~n_legs (fun rep i -> rep.(i).alloc) reps in
  let latency =
    List.fold_left
      (fun acc f -> Obs.Hist.merge acc (Obs.Registry.hist f.registry "recovery/latency_rtt"))
      (Obs.Hist.create ()) facts
  in
  [
    run;
    host "setup_s" "s" "lower" ~n_legs (fun rep i -> rep.(i).setup_s *. rep.(i).speed) reps;
    derived "events_per_cpu_s" "1/s" "higher" (fun c -> events /. c) run;
    derived "alloc_bytes_per_event" "B" "lower" (fun a -> a /. events) alloc;
    exact "peak_heap_mb" "MB" "lower" peak_heap_mb;
    (* The mean, not the median: latency is bimodal (expedited
       recoveries near 1 RTT, timer-driven ones at several), and on the
       CESRM workloads the median sits between the modes and moves by
       up to 16% between seeds. The tail is p95, not p99: a deep
       chain's p99 is set by a handful of request storms and moves by
       9% between seeds even over 16 simulations. *)
    exact "recovery_mean_rtt" "RTT" "lower" (Obs.Hist.mean latency);
    exact "recovery_p95_rtt" "RTT" "lower" (hist_quantile latency 0.95);
    exact "makespan_max_s" "sim_s" "lower"
      (List.fold_left (fun acc f -> Float.max acc f.makespan) 0. facts);
    exact "recovery_crossings_per_loss" "crossings" "lower"
      (ratio (sum_int (fun f -> f.crossings) facts) (sum_int (fun f -> f.detected) facts));
  ]

(* The layer steps a traced rep times; each one's self time, summed
   over a rep's legs, is that layer's time. [harness.run_model]'s self
   time is the runner's own glue on a flat leg and the whole run on a
   domain or steady leg. Attribution runs on Table-1 rows only, so its
   time would read 0 on every other workload; it is reported by the
   work it does instead. *)
let layer_steps =
  [ "mtrace.synthesize"; "net.build"; "srm.deploy"; "sim.run"; "stats.collect"; "harness.run_model" ]

(* Per-layer metrics: times and allocation from the traced reps, each
   rep's spans with its legs' speed factors; counts from the reference
   rep (deterministic). *)
let per_layer facts (reps : (span list * float array) list) =
  let n_legs = List.length facts in
  (* Leg [i]'s self [field] over its [name] spans in one rep. *)
  let self name field (spans, _) i =
    List.fold_left
      (fun acc s -> if s.name = name && s.leg_id = i then acc +. field s else acc)
      0. spans
  in
  let self_s name ((_, speeds) as rep) i = speeds.(i) *. self name (fun s -> s.self) rep i in
  let c name = sum_int (fun f -> counter f.registry name) facts in
  let prefixed prefix =
    sum_int
      (fun f ->
        let n = ref 0 in
        Obs.Registry.iter f.registry (fun key v ->
            match v with
            | Obs.Registry.Counter k when String.starts_with ~prefix key -> n := !n + k
            | _ -> ());
        !n)
      facts
  in
  let largest field = List.fold_left (fun acc f -> Float.max acc (field f)) 0. facts in
  let gauge name = largest (fun f -> Option.value ~default:0. (Obs.Registry.gauge_value f.registry name)) in
  let kind k = sum_int (fun f -> Stats.Counters.total f.counters k) facts in
  let count name v = exact name "count" "lower" (float_of_int v) in
  let fired = c "sim/events_fired" and cancelled = c "sim/events_cancelled" in
  let local = c "srm/domain_local_requests" and escalations = c "srm/domain_escalations" in
  let exp_requests = sum_int (fun f -> f.exp_requests) facts in
  let exp_replies = sum_int (fun f -> f.exp_replies) facts in
  List.map
    (fun step -> host (step ^ "_s") "s" "lower" ~n_legs (self_s step) reps)
    layer_steps
  @ [
      derived "mtrace.synthesize_alloc_mb" "MB" "lower" (fun b -> b /. 1e6)
        (host "" "" "" ~n_legs (self "mtrace.synthesize" (fun s -> s.self_alloc)) reps);
      derived "sim.run_alloc_bytes_per_event" "B" "lower"
        (fun b -> b /. float_of_int (sum_int (fun f -> f.events) facts))
        (host "" "" "" ~n_legs (self "sim.run" (fun s -> s.self_alloc)) reps);
      count "inference.distinct_patterns" (sum_int (fun f -> f.patterns) facts);
      count "sim.events_fired" fired;
      count "sim.events_cancelled" cancelled;
      exact "sim.cancel_ratio" "ratio" "lower" (ratio cancelled (fired + cancelled));
      count "sim.wheel_inserts" (c "sim/wheel_inserts");
      count "sim.wheel_cascades" (c "sim/wheel_cascades");
      exact "sim.heap_max_size" "count" "lower" (gauge "sim/heap_max_size");
      count "net.packets_delivered" (c "net/packets_delivered");
    ]
  @ List.map
      (fun (name, cat) ->
        count ("net.crossings." ^ name) (sum_int (fun f -> Net.Cost.total_crossings f.cost cat) facts))
      Net.Cost.
        [
          ("data", Data);
          ("request", Request);
          ("reply", Reply);
          ("exp_request", Exp_request);
          ("exp_reply", Exp_reply);
          ("session", Session);
        ]
  @ [
      count "srm.losses_detected" (c "srm/losses_detected");
      count "srm.requests" (kind Stats.Counters.Rqst);
      count "srm.replies" (kind Stats.Counters.Repl);
      count "srm.sessions" (kind Stats.Counters.Sess);
      exact "srm.replies_per_loss" "ratio" "lower"
        (ratio
           (kind Stats.Counters.Repl + kind Stats.Counters.Exp_repl)
           (sum_int (fun f -> f.detected) facts));
      count "cesrm.exp_requests" exp_requests;
      exact "cesrm.exp_replies" "count" "higher" (float_of_int exp_replies);
      exact "cesrm.exp_success" "ratio" "higher" (ratio exp_replies exp_requests);
      exact "cesrm.cache_hits" "count" "higher" (float_of_int (prefixed "cesrm/cache_hits/"));
      count "cesrm.cache_evictions" (prefixed "cesrm/cache_evictions/");
      exact "rdomain.local_requests" "count" "higher" (float_of_int local);
      count "rdomain.escalations" escalations;
      exact "rdomain.escalation_ratio" "ratio" "lower" (ratio escalations local);
      count "steady.ticks" (c "steady/ticks");
      exact "steady.floor" "count" "higher" (gauge "steady/floor");
      exact "steady.peak_heap_mb" "MB" "lower"
        (largest (fun f -> float_of_int f.peak_heap_words) *. 8. /. 1e6);
      count "harness.audit_violations" (sum_int (fun f -> f.audit) facts);
    ]

(* ---- One workload --------------------------------------------------- *)

let nums xs = Obs.Json.Arr (List.map (fun x -> Obs.Json.Num x) xs)

let json_of_metric m =
  let open Obs.Json in
  let lo, hi = min_max m.samples in
  Obj
    ([ ("value", Num m.value); ("unit", Str m.unit_); ("better", Str m.better) ]
    @
    if m.samples = [] then []
    else
      [
        ("min", Num lo);
        ("median", Num (median m.samples));
        ("max", Num hi);
        ("samples", nums m.samples);
      ])

let chrome_trace spans =
  let open Obs.Json in
  let origin = List.fold_left (fun acc (_, s) -> Float.min acc s.at) infinity spans in
  Obj
    [
      ( "traceEvents",
        Arr
          (List.map
             (fun (rep, s) ->
               Obj
                 [
                   ("name", Str s.name);
                   ("cat", Str "layer");
                   ("ph", Str "X");
                   ("ts", Num ((s.at -. origin) *. 1e6));
                   ("dur", Num (s.dur *. 1e6));
                   ("pid", int 1);
                   ("tid", int rep);
                   ( "args",
                     Obj
                       [
                         ("leg", int s.leg_id);
                         ("parent", Str s.parent);
                         ("self_us", Num (s.self *. 1e6));
                       ] );
                 ])
             spans) );
    ]

let run_one ~name ~smoke ~seed ~seconds ~traced ~json ~spans_out =
  let legs = (List.assoc name workloads) ~smoke seed in
  let t_start = now () in
  (* The kernel samples the timed reps only: a fresh process runs slower
     while its heap grows, and the reference rep takes that. Before each
     timed leg it runs once per [kernel_every] of CPU time since it last
     ran, and at least once after the last leg; the first timed leg
     always gets a sample. Each burst between two legs is kept as its
     [clock] time and median. *)
  let calib = ref [] and bursts = ref [] and calib_at = ref neg_infinity in
  let sample_due ~at_least =
    let due =
      if !calib_at = neg_infinity then 1 else int_of_float ((clock () -. !calib_at) /. kernel_every)
    in
    let ks =
      List.init (max at_least due) (fun _ ->
          Gc.compact ();
          kernel ())
    in
    if ks <> [] then begin
      calib_at := clock ();
      calib := List.rev_append ks !calib;
      bursts := (!calib_at, median ks) :: !bursts
    end
  in
  (* Each leg's result, with the [clock] times it started and ended. *)
  let rep ~timed f =
    List.mapi
      (fun i leg ->
        if timed then sample_due ~at_least:0;
        Gc.compact ();
        let t0 = clock () in
        let r = f i leg in
        (r, (t0, clock ())))
      legs
  in
  (* The reference rep: untraced, never timed into a median. Peak heap
     is read after it, before the number of timed reps (which depends
     on the machine's speed) can move it. *)
  let reference = List.map (fun ((_, f), _) -> f) (rep ~timed:false (fun _ leg -> untraced_leg leg)) in
  let peak_heap_mb = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1e6 in
  (* Timed reps until the budget is spent, at least one: each yields
     the legs' fingerprints and its measurements. *)
  let rec timed acc last =
    if acc <> [] && now () -. t_start +. last > seconds then List.rev acc
    else begin
      let t0 = now () in
      let r =
        if traced then begin
          let rec_ = recorder () in
          let r =
            rep ~timed:true (fun i leg ->
                rec_.leg_id <- i;
                traced_leg rec_ leg)
          in
          ( List.map (fun (f, _) -> f.fp) r,
            `Spans (List.rev rec_.closed, Array.of_list (List.map snd r)) )
        end
        else begin
          let r = rep ~timed:true (fun _ leg -> untraced_leg leg) in
          (List.map (fun ((_, f), _) -> f.fp) r, `Timings (Array.of_list (List.map (fun ((t, _), w) -> (t, w)) r)))
        end
      in
      timed (r :: acc) (now () -. t0)
    end
  in
  let reps = timed [] 0. in
  sample_due ~at_least:1;
  let calib = List.rev !calib and bursts = List.rev !bursts in
  (* A leg's speed factor: the reference kernel time over the mean of
     the bursts just before and just after it, so a slow spell that
     starts or ends mid-run scales only the legs it touched. *)
  let speed (t0, t1) =
    let before = List.fold_left (fun acc (at, k) -> if at <= t0 then k else acc) nan bursts in
    let after = List.find_map (fun (at, k) -> if at >= t1 then Some k else None) bursts in
    reference_kernel_s /. ((before +. Option.get after) /. 2.)
  in
  (* A leg fails when it leaves a loss unrecovered, trips the auditor,
     or any rep (traced or not) diverges from the reference. *)
  let leg_ok i f =
    f.unrecovered = 0 && f.audit = 0 && List.for_all (fun (fps, _) -> List.nth fps i = f.fp) reps
  in
  let oks = List.mapi leg_ok reference in
  let attempted = sum_int (fun f -> f.detected) reference in
  let failed =
    List.fold_left2 (fun acc ok f -> if ok then acc else acc + f.detected) 0 oks reference
  in
  let correct = failed = 0 && attempted > 0 in
  let span_reps =
    List.filter_map (function _, `Spans (s, ws) -> Some (s, Array.map speed ws) | _ -> None) reps
  in
  let timing_reps =
    List.filter_map
      (function _, `Timings t -> Some (Array.map (fun (t, w) -> { t with speed = speed w }) t) | _ -> None)
      reps
  in
  let speeds =
    List.concat_map (fun (_, s) -> Array.to_list s) span_reps
    @ List.concat_map (fun t -> Array.to_list (Array.map (fun t -> t.speed) t)) timing_reps
  in
  let metrics =
    if traced then per_layer reference span_reps else end_to_end reference ~peak_heap_mb timing_reps
  in
  List.iter (fun m -> Printf.printf "%-34s %16.6g %s\n" m.m_name m.value m.unit_) metrics;
  let open Obs.Json in
  let spans = List.concat (List.mapi (fun r (ss, _) -> List.map (fun s -> (r, s)) ss) span_reps) in
  Option.iter (fun file -> save (chrome_trace spans) ~file) spans_out;
  Option.iter
    (fun file ->
      let calib_lo, calib_hi = min_max calib in
      (* How much of each leg span its layer steps cover, at worst. *)
      let coverage =
        List.fold_left
          (fun acc (_, s) -> if s.name = "leg" then Float.min acc (1. -. (s.self /. s.dur)) else acc)
          1. spans
      in
      let leg_s =
        List.map
          (fun (ss, speeds) ->
            List.fold_left (fun acc s -> if s.name = "leg" then acc +. (s.dur *. speeds.(s.leg_id)) else acc) 0. ss)
          span_reps
      in
      save ~pretty:true
        (Obj
           ([
              ( "meta",
                Obj
                  [
                    ("workload", Str name);
                    ("seed", Str (Int64.to_string seed));
                    ("seconds", Num seconds);
                    ("trace", Bool traced);
                    ("smoke", Bool smoke);
                    ("nproc", int (Domain.recommended_domain_count ()));
                    ("argv", Str (String.concat " " (Array.to_list Sys.argv)));
                  ] );
              ("correct", Bool correct);
              ("attempted", int attempted);
              ("failed", int failed);
              ("timed_reps", int (List.length reps));
              ( "machine.kernel_s",
                Obj
                  [
                    ("min", Num calib_lo);
                    ("median", Num (median calib));
                    ("max", Num calib_hi);
                    ("samples", nums calib);
                  ] );
              ( "machine.speed",
                let lo, hi = min_max speeds in
                Obj [ ("min", Num lo); ("median", Num (median speeds)); ("max", Num hi) ] );
              ( "legs",
                Arr
                  (List.mapi
                     (fun i ((leg, f), ok) ->
                       Obj
                         ([
                            ("leg", Str (leg_label leg));
                            ("detected", int f.detected);
                            ("unrecovered", int f.unrecovered);
                            ("audit_violations", int f.audit);
                            ("events", int f.events);
                            ("makespan_s", Num f.makespan);
                            ("exp_requests", int f.exp_requests);
                            ("exp_replies", int f.exp_replies);
                            ("fingerprint", Str f.fp);
                            ("ok", Bool ok);
                          ]
                         @
                         if traced then []
                         else
                           [
                             ("cpu_samples", nums (List.map (fun rep -> rep.(i).cpu) timing_reps));
                             ("speed_samples", nums (List.map (fun rep -> rep.(i).speed) timing_reps));
                             ("wall_samples", nums (List.map (fun rep -> rep.(i).wall) timing_reps));
                           ]))
                     (List.combine (List.combine legs reference) oks)) );
              ("metrics", Obj (List.map (fun m -> (m.m_name, json_of_metric m)) metrics));
            ]
           @
           if traced then
             [
               ("leg_s", Obj [ ("median", Num (median leg_s)); ("samples", nums leg_s) ]);
               ("span_coverage_min", Num coverage);
             ]
           else []))
        ~file)
    json;
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", int (max 1 attempted));
            ("failed", int failed);
            ( "metrics",
              Obj (List.map (fun m -> (m.m_name, Obj [ ("value", Num m.value); ("unit", Str m.unit_) ])) metrics)
            );
          ]));
  if not correct then exit 1

(* ---- A whole set ---------------------------------------------------- *)

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then Obs.Json.Null else Obs.Json.Str line
  with Unix.Unix_error _ -> Obs.Json.Null

let str key o = match Obs.Json.member key o with Some (Obs.Json.Str s) -> s | _ -> ""

let fields = function Some (Obs.Json.Obj kv) -> kv | _ -> []

let elements = function Some (Obs.Json.Arr l) -> l | _ -> []

(* Differences between the names BENCHMARK.json declares and the ones
   a set's records carry, as messages; [] when they agree. *)
let schema_errors ~schema docs =
  match Obs.Json.parse_file schema with
  | Error msg -> [ schema ^ ": " ^ msg ]
  | Ok decl ->
      let declared key =
        List.sort compare
          (List.map
             (fun o -> (str "name" o, str "unit" o, str "better" o))
             (elements (Obs.Json.member key decl)))
      in
      let workload_names = List.map (str "name") (elements (Obs.Json.member "workloads" decl)) in
      (if List.sort compare workload_names = List.sort compare (List.map fst workloads) then []
       else [ "workload names differ from BENCHMARK.json" ])
      @ List.filter_map
          (fun (name, traced, doc) ->
            let carried =
              List.sort compare
                (List.map
                   (fun (m, o) -> (m, str "unit" o, str "better" o))
                   (fields (Obs.Json.member "metrics" doc)))
            in
            let key = if traced then "per_layer" else "end_to_end" in
            if carried = declared key then None
            else Some (Printf.sprintf "%s: metrics differ from BENCHMARK.json %s" name key))
          docs

let run_set ~smoke ~seed ~seconds ~json ~schema =
  let exe = Sys.executable_name in
  let runs = List.concat_map (fun (name, _) -> [ (name, false); (name, true) ]) workloads in
  let results =
    List.map
      (fun (name, traced) ->
        let part =
          Option.map
            (fun out -> Printf.sprintf "%s.%s.%s.part" out name (if traced then "traced" else "untraced"))
            json
        in
        let args =
          [ exe; "--workload"; name; "--seed"; Int64.to_string seed; "--seconds"; Printf.sprintf "%g" seconds ]
          @ [ "--trace"; (if traced then "1" else "0") ]
          @ (if smoke then [ "--smoke" ] else [])
          @ match part with Some p -> [ "--json"; p ] | None -> []
        in
        flush_all ();
        let pid = Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr in
        let ok = snd (Unix.waitpid [] pid) = Unix.WEXITED 0 in
        let doc =
          Option.bind part (fun p ->
              let doc = Obs.Json.parse_file p in
              if Sys.file_exists p then Sys.remove p;
              Result.to_option doc)
        in
        (name, traced, ok, doc))
      runs
  in
  let failures =
    List.filter_map
      (fun (name, traced, ok, _) ->
        if ok then None else Some (Printf.sprintf "%s (trace %b): run failed" name traced))
      results
  in
  let docs = List.filter_map (fun (name, traced, _, doc) -> Option.map (fun d -> (name, traced, d)) doc) results in
  let failures = failures @ match schema with Some schema -> schema_errors ~schema docs | None -> [] in
  let open Obs.Json in
  Option.iter
    (fun file ->
      let value doc path =
        Option.bind (List.fold_left (fun acc k -> Option.bind acc (member k)) (Some doc) path) to_float
      in
      let record name =
        let find traced =
          List.find_map (fun (n, t, d) -> if n = name && t = traced then Some d else None) docs
        in
        let untraced = find false and traced = find true in
        (* Tracing overhead: the traced reps' leg time against the
           untraced reps' CPU time, same seed. *)
        let overhead =
          match
            ( Option.bind traced (fun d -> value d [ "leg_s"; "median" ]),
              Option.bind untraced (fun d -> value d [ "metrics"; "cpu_s"; "value" ]) )
          with
          | Some t, Some u -> Num ((t /. u) -. 1.)
          | _ -> Null
        in
        Obj
          [
            ("untraced", Option.value ~default:Null untraced);
            ("traced", Option.value ~default:Null traced);
            ("tracing_overhead", overhead);
          ]
      in
      save ~pretty:true
        (Obj
           [
             ( "meta",
               Obj
                 [
                   ("commit", git_commit ());
                   ("seed", Str (Int64.to_string seed));
                   ("seconds", Num seconds);
                   ("smoke", Bool smoke);
                   ("nproc", int (Domain.recommended_domain_count ()));
                   ("argv", Str (String.concat " " (Array.to_list Sys.argv)));
                 ] );
             ("workloads", Obj (List.map (fun (name, _) -> (name, record name)) workloads));
           ])
        ~file)
    json;
  List.iter prerr_endline failures;
  if failures <> [] then exit 1

(* ---- Command line --------------------------------------------------- *)

let usage =
  "usage: cesrm_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--json OUT] \
   [--spans OUT] [--smoke] [--schema BENCHMARK.json]"

let () =
  let workload = ref None and seed = ref 42L and seconds = ref 25. and traced = ref false in
  let json = ref None and spans_out = ref None and smoke = ref false and schema = ref None in
  let fail msg =
    prerr_endline (msg ^ "\n" ^ usage);
    exit 2
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        if not (List.mem_assoc w workloads) then
          fail
            (Printf.sprintf "unknown workload %S (expected one of %s)" w
               (String.concat ", " (List.map fst workloads)));
        workload := Some w;
        go rest
    | "--seed" :: n :: rest ->
        (match Int64.of_string_opt n with Some s -> seed := s | None -> fail ("bad --seed " ^ n));
        go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some x when x >= 0. -> seconds := x
        | _ -> fail ("bad --seconds " ^ s));
        go rest
    | "--trace" :: t :: rest ->
        (match t with "0" -> traced := false | "1" -> traced := true | _ -> fail ("bad --trace " ^ t));
        go rest
    | "--json" :: file :: rest ->
        json := Some file;
        go rest
    | "--spans" :: file :: rest ->
        spans_out := Some file;
        go rest
    | "--smoke" :: rest ->
        smoke := true;
        go rest
    | "--schema" :: file :: rest ->
        schema := Some file;
        go rest
    | arg :: _ -> fail ("unknown argument: " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with
  | Some name ->
      run_one ~name ~smoke:!smoke ~seed:!seed ~seconds:!seconds ~traced:!traced ~json:!json
        ~spans_out:!spans_out
  | None ->
      if !schema <> None && !json = None then fail "--schema needs --json";
      run_set ~smoke:!smoke ~seed:!seed ~seconds:!seconds ~json:!json ~schema:!schema
