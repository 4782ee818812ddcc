let hist_names =
  [ "latency_s"; "latency_rtt"; "latency_rtt_expedited"; "latency_rtt_fallback" ]

type t = { row : Obs.Json.t; hists : (string * Obs.Hist.t) list }

let run ?shards (spec : Spec.t) (cell : Spec.cell) =
  let open Obs.Json in
  let setup =
    {
      Harness.Runner.default_setup with
      link_delay = spec.Spec.link_delay_ms /. 1000.;
      lossy_recovery = spec.Spec.lossy_recovery;
    }
  in
  let registry = Obs.Registry.create () in
  let fault = match cell.Spec.fault with Some f when f <> "none" -> Some f | _ -> None in
  let res =
    Harness.Runner.run_leg ~setup ~registry ?n_packets:spec.Spec.n_packets ?fault ?shards
      ?domains:spec.Spec.domains ~seed:cell.Spec.seed
      cell.Spec.protocol
      (Mtrace.Scale.find cell.Spec.trace)
  in
  let counters =
    Obj
      (List.map
         (fun kind ->
           (Stats.Counters.kind_name kind, int (Stats.Counters.total res.counters kind)))
         Stats.Counters.all_kinds)
  in
  let cost =
    Obj
      [
        ("retransmission", int (Net.Cost.retransmission_overhead res.cost));
        ("control_mc", int (Net.Cost.control_overhead res.cost ~multicast:true));
        ("control_uc", int (Net.Cost.control_overhead res.cost ~multicast:false));
      ]
  in
  (* The per-receiver recovery table: one row per receiver, normalized
     to that receiver's RTT to the source, as in the paper's figures. *)
  let receivers =
    Arr
      (List.map
         (fun (node, rtt) ->
           let s = Harness.Runner.normalized_recovery res ~node ~filter:(fun _ -> true) in
           let expedited =
             List.length
               (List.filter
                  (fun r -> r.Stats.Recovery.expedited)
                  (Stats.Recovery.for_node res.recoveries node))
           in
           Obj
             [
               ("node", int node);
               ("rtt_ms", Num (1000. *. rtt));
               ("recoveries", int (Stats.Summary.count s));
               ("expedited", int expedited);
               ( "mean_rtt",
                 if Stats.Summary.count s = 0 then Null else Num (Stats.Summary.mean s) );
             ])
         res.rtt_to_source)
  in
  let hists =
    List.map (fun name -> (name, Obs.Registry.hist registry ("recovery/" ^ name))) hist_names
  in
  let row =
    Obj
      [
        ("name", Str (Spec.cell_label cell));
        ("index", int cell.Spec.index);
        ("trace", Str cell.Spec.trace);
        ("protocol", Str (Harness.Runner.protocol_key cell.Spec.protocol));
        ("seed_index", int cell.Spec.seed_index);
        ("seed", Str (Int64.to_string cell.Spec.seed));
        ("fault", (match cell.Spec.fault with None -> Null | Some f -> Str f));
        ("detected", int res.detected);
        ("recovered", int (Stats.Recovery.count res.recoveries));
        ("unrecovered", int res.unrecovered);
        ("audit_violations", int res.audit_violations);
        ("oracle_violations", int res.oracle_violations);
        ( "oracle",
          match res.oracle with
          | Some o when res.oracle_violations > 0 -> Harness.Audit.to_json o
          | _ -> Null );
        ("exp_requests", int res.exp_requests);
        ("exp_replies", int res.exp_replies);
        ( "makespan",
          let mk = Stats.Recovery.makespan_summary res.recoveries in
          if Stats.Summary.count mk = 0 then Null
          else
            Obj
              [
                ("losses", int (Stats.Summary.count mk));
                ("mean", Num (Stats.Summary.mean mk));
                ("p99", Num (Stats.Summary.percentile mk 0.99));
                ("max", Num (Stats.Summary.max mk));
              ] );
        ("counters", counters);
        ("cost", cost);
        ("receivers", receivers);
      ]
  in
  { row; hists }
