type phase = {
  recoveries : int;
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

let empty_phase = { recoveries = 0; mean_latency = 0.; p99_latency = 0.; max_latency = 0. }

let phase_of records =
  match records with
  | [] -> empty_phase
  | _ ->
      let s = Stats.Summary.create () in
      List.iter (fun r -> Stats.Summary.add s (Stats.Recovery.latency r)) records;
      {
        recoveries = Stats.Summary.count s;
        mean_latency = Stats.Summary.mean s;
        p99_latency = Stats.Summary.percentile s 0.99;
        max_latency = Stats.Summary.max s;
      }

let split_phases ~crash_at ~crashed recoveries =
  let alive = List.filter (fun r -> r.Stats.Recovery.node <> crashed) recoveries in
  let before, after =
    List.partition (fun r -> r.Stats.Recovery.detected_at < crash_at) alive
  in
  (phase_of before, phase_of after)

let make_network trace attribution =
  let tree = Mtrace.Trace.tree trace in
  let engine = Sim.Engine.create ~seed:4242L () in
  let network = Net.Network.create ~engine ~tree () in
  let cut_memo = Hashtbl.create 512 in
  Net.Network.set_drop network (fun ~link ~down (p : Net.Packet.t) ->
      match p.payload with
      | Net.Packet.Data { seq } ->
          let cuts =
            match Hashtbl.find_opt cut_memo seq with
            | Some c -> c
            | None ->
                let c = Inference.Attribution.cuts attribution ~seq in
                Hashtbl.replace cut_memo seq c;
                c
          in
          down && List.mem link cuts
      | _ -> false);
  (engine, network)

let warmup = 5.0

let tail = 30.0

(* The member each protocol leans on hardest. For LMS: the designated
   replier with the most receivers routing to it. For SRM/CESRM: the
   receiver that sent the most retransmissions in a crash-free dry
   run. *)
let busiest_lms_replier tree =
  let repliers = Lms.Routing.designate tree ~alive:(fun _ -> true) in
  let score = Hashtbl.create 8 in
  Array.iter
    (fun r ->
      match Lms.Routing.route tree ~repliers ~from:r with
      | Some (_, replier) when replier <> 0 ->
          Hashtbl.replace score replier (1 + Option.value ~default:0 (Hashtbl.find_opt score replier))
      | _ -> ())
    (Net.Tree.receivers tree);
  Hashtbl.fold
    (fun node count (best_node, best_count) ->
      if count > best_count then (node, count) else (best_node, best_count))
    score
    ((Net.Tree.receivers tree).(0), 0)
  |> fst

let busiest_srm_replier ~deploy trace attribution =
  let engine, network = make_network trace attribution in
  let proto = deploy ~network in
  Srm.Proto.start proto ~warmup ~tail;
  Sim.Engine.run ~until:1e6 engine;
  let counters = Srm.Proto.counters proto in
  Array.fold_left
    (fun (best, best_count) node ->
      let c =
        Stats.Counters.get counters ~node Stats.Counters.Repl
        + Stats.Counters.get counters ~node Stats.Counters.Exp_repl
      in
      if c > best_count then (node, c) else (best, best_count))
    ((Net.Tree.receivers (Mtrace.Trace.tree trace)).(0), -1)
    (Net.Tree.receivers (Mtrace.Trace.tree trace))
  |> fst

let crash_time trace = warmup +. (float_of_int (Mtrace.Trace.n_packets trace) *. Mtrace.Trace.period trace /. 2.)

let finish ~label ~crashed ~crash_at ~recoveries ~alive_detected engine =
  Sim.Engine.run ~until:1e6 engine;
  let records = Stats.Recovery.records recoveries in
  let before, after = split_phases ~crash_at ~crashed records in
  let recovered_alive =
    List.length (List.filter (fun r -> r.Stats.Recovery.node <> crashed) records)
  in
  { label; crashed; before; after; unrecovered_alive = alive_detected () - recovered_alive }

let schedule_crash engine network node ~at =
  ignore (Sim.Engine.schedule_at engine ~at (fun () -> Net.Network.set_enabled network node false))

(* SRM and CESRM: a dry run picks the busiest replier, a second run
   crashes it. *)
let run_srm_family ~label ~deploy ~crash_at trace attribution =
  let crashed = busiest_srm_replier ~deploy trace attribution in
  let engine, network = make_network trace attribution in
  let proto = deploy ~network in
  Srm.Proto.start proto ~warmup ~tail;
  schedule_crash engine network crashed ~at:crash_at;
  let alive_detected () =
    List.fold_left
      (fun acc (node, h) -> if node <> crashed then acc + Srm.Host.detected_losses h else acc)
      0 (Srm.Proto.srm_members proto)
  in
  finish ~label ~crashed ~crash_at ~recoveries:(Srm.Proto.recoveries proto) ~alive_detected engine

let run_lms ~crash_at trace attribution =
  let crashed = busiest_lms_replier (Mtrace.Trace.tree trace) in
  let engine, network = make_network trace attribution in
  let proto =
    Lms.Proto.deploy ~network ~n_packets:(Mtrace.Trace.n_packets trace)
      ~period:(Mtrace.Trace.period trace) ()
  in
  Lms.Proto.start proto ~warmup ~tail;
  schedule_crash engine network crashed ~at:crash_at;
  let alive_detected () =
    List.fold_left
      (fun acc (node, h) -> if node <> crashed then acc + Lms.Host.detected_losses h else acc)
      0 (Lms.Proto.members proto)
  in
  finish ~label:"LMS" ~crashed ~crash_at ~recoveries:(Lms.Proto.recoveries proto) ~alive_detected
    engine

let report ?n_packets row =
  let gen = Mtrace.Generator.synthesize ?n_packets row in
  let trace = gen.Mtrace.Generator.trace in
  let attribution = Runner.attribution_of_trace trace in
  let crash_at = crash_time trace in
  let params = Srm.Params.default in
  let n_packets = Mtrace.Trace.n_packets trace and period = Mtrace.Trace.period trace in
  let outcomes =
    [
      run_srm_family ~label:"SRM" ~crash_at trace attribution ~deploy:(fun ~network ->
          Srm.Proto.deploy ~network ~params ~n_packets ~period ());
      run_srm_family ~label:"CESRM" ~crash_at trace attribution ~deploy:(fun ~network ->
          Cesrm.Proto.deploy ~network ~params ~n_packets ~period ());
      run_lms ~crash_at trace attribution;
    ]
  in
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
  ^ Stats.Table.render
      ~header:
        [
          "protocol";
          "crashed";
          "mean before";
          "mean after";
          "p99 after";
          "max after";
          "unrecovered";
        ]
      ~rows
