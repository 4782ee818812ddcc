type phase = {
  mean_latency : float;
  p99_latency : float;
  max_latency : float;
}

type outcome = {
  label : string;
  crashed : int;
  before : phase;
  after : phase;
  unrecovered_alive : int;
}

let phase_of records =
  let s = Stats.Summary.create () in
  List.iter (fun r -> Stats.Summary.add s (Stats.Recovery.latency r)) records;
  if Stats.Summary.count s = 0 then { mean_latency = 0.; p99_latency = 0.; max_latency = 0. }
  else
    {
      mean_latency = Stats.Summary.mean s;
      p99_latency = Stats.Summary.percentile s 0.99;
      max_latency = Stats.Summary.max s;
    }

(* The member each protocol leans on hardest. For LMS: the designated
   replier with the most receivers routing to it. For SRM/CESRM: the
   receiver that sent the most retransmissions in a crash-free run.
   Ties go to the first in receiver order. *)
let busiest_replier protocol trace loss =
  let tree = Mtrace.Trace.tree trace in
  let receivers = Net.Tree.receivers tree in
  let busiest score =
    let pick (best, top) node = if score node > top then (node, score node) else (best, top) in
    fst (Array.fold_left pick (receivers.(0), -1) receivers)
  in
  match protocol with
  | Runner.Lms_protocol ->
      let repliers = Lms.Routing.designate tree ~alive:(fun _ -> true) in
      let routed = Array.make (Net.Tree.n_nodes tree) 0 in
      Array.iter
        (fun r ->
          match Lms.Routing.route tree ~repliers ~from:r with
          | Some (_, replier) when replier <> 0 -> routed.(replier) <- routed.(replier) + 1
          | _ -> ())
        receivers;
      busiest (fun node -> routed.(node))
  | _ ->
      let counters = (Runner.run_model protocol trace loss).Runner.counters in
      busiest (fun node ->
          Stats.Counters.get counters ~node Stats.Counters.Repl
          + Stats.Counters.get counters ~node Stats.Counters.Exp_repl)

(* The run wired as every other run is, plus one timer that crashes
   the busiest replier mid-transmission. *)
let crash_run ~crash_at protocol trace loss =
  let crashed = busiest_replier protocol trace loss in
  let m = Run_types.build ~setup:Runner.default_setup protocol trace loss in
  ignore
    (Sim.Engine.schedule_at m.engine ~at:crash_at (fun () ->
         Net.Network.set_enabled m.network crashed false));
  Sim.Engine.run ~until:m.horizon m.engine;
  let alive =
    List.filter (fun r -> r.Stats.Recovery.node <> crashed) (Stats.Recovery.records m.recoveries)
  in
  let before, after = List.partition (fun r -> r.Stats.Recovery.detected_at < crash_at) alive in
  {
    label = Runner.protocol_name protocol;
    crashed;
    before = phase_of before;
    after = phase_of after;
    unrecovered_alive = m.detected () - m.member_detected crashed - List.length alive;
  }

let outcomes ?n_packets row =
  let trace, loss = Runner.inputs ?n_packets row in
  let half = float_of_int (Mtrace.Trace.n_packets trace) *. Mtrace.Trace.period trace /. 2. in
  let crash_at = Runner.default_setup.warmup +. half in
  let cesrm = Runner.Cesrm_protocol Cesrm.Host.default_config in
  let run protocol = crash_run ~crash_at protocol trace loss in
  (crash_at, List.map run [ Srm_protocol; cesrm; Lms_protocol ])

let header =
  [ "protocol"; "crashed"; "mean before"; "mean after"; "p99 after"; "max after"; "unrecovered" ]

let report ?n_packets row =
  let crash_at, outcomes = outcomes ?n_packets row in
  let rows =
    List.map
      (fun o ->
        [
          o.label;
          string_of_int o.crashed;
          Printf.sprintf "%.3f" o.before.mean_latency;
          Printf.sprintf "%.3f" o.after.mean_latency;
          Printf.sprintf "%.2f" o.after.p99_latency;
          Printf.sprintf "%.2f" o.after.max_latency;
          string_of_int o.unrecovered_alive;
        ])
      outcomes
  in
  Printf.sprintf
    "Extension — membership churn on %s: the member each protocol leans on hardest crashes\n\
     mid-transmission (t = %.0f s). LMS's router replier state is stale until its 10 s\n\
     refresh, stalling its subtree; CESRM falls back on SRM and re-learns a live pair\n\
     (paper Sections 3.3 and 5). Latencies in seconds, surviving receivers only.\n"
    row.Mtrace.Meta.name crash_at
  ^ Stats.Table.render ~header ~rows
