type pair = {
  row : Mtrace.Meta.row;
  trace : Mtrace.Trace.t;
  attribution : Inference.Attribution.t;
  srm : Runner.result;
  cesrm : Runner.result;
}

let run_pair ?n_packets row =
  let trace, loss = Runner.inputs ?n_packets row in
  let attribution =
    match loss with
    | Runner.Attributed a -> a
    | _ -> invalid_arg ("Figures.run_pair: not a Table 1 row: " ^ row.Mtrace.Meta.name)
  in
  let srm = Runner.run_model Runner.Srm_protocol trace loss in
  let cesrm = Runner.run_model (Runner.Cesrm_protocol Cesrm.Host.default_config) trace loss in
  { row; trace; attribution; srm; cesrm }

(* -- Table 1 -------------------------------------------------------- *)

let table1 pairs =
  let rows =
    List.map
      (fun p ->
        let t = p.trace in
        [
          string_of_int p.row.Mtrace.Meta.index;
          p.row.name;
          Printf.sprintf "%d/%d" p.row.n_receivers (Mtrace.Trace.n_receivers t);
          Printf.sprintf "%d/%d" p.row.tree_depth (Net.Tree.height (Mtrace.Trace.tree t));
          string_of_int p.row.period_ms;
          Printf.sprintf "%d/%d" p.row.n_packets (Mtrace.Trace.n_packets t);
          Printf.sprintf "%d/%d"
            (int_of_float
               (float_of_int p.row.n_losses
               *. float_of_int (Mtrace.Trace.n_packets t)
               /. float_of_int p.row.n_packets))
            (Mtrace.Trace.total_losses t);
        ])
      pairs
  in
  "Table 1 — trace characteristics (published/synthetic; loss target scaled to packet count)\n"
  ^ Stats.Table.render
      ~header:[ "#"; "trace"; "rcvrs"; "depth"; "period(ms)"; "packets"; "losses" ]
      ~rows

(* -- Section 4.2 accuracy ------------------------------------------- *)

let attribution_accuracy pairs =
  let rows =
    List.map
      (fun p ->
        let a95, a98 = Inference.Attribution.posterior_quantile_stats p.attribution in
        [
          p.row.Mtrace.Meta.name;
          string_of_int (Inference.Attribution.distinct_patterns p.attribution);
          Printf.sprintf "%.1f%%" (100. *. a95);
          Printf.sprintf "%.1f%%" (100. *. a98);
        ])
      pairs
  in
  "Loss-attribution accuracy (Section 4.2: paper reports >90% of combinations above 95%)\n"
  ^ Stats.Table.render ~header:[ "trace"; "patterns"; "post>0.95"; "post>0.98" ] ~rows

(* -- Figure 1 ------------------------------------------------------- *)

type receiver_series = { node : int; srm_value : float; cesrm_value : float }

let figure1_data pair =
  List.map
    (fun (node, _) ->
      let f res =
        Stats.Summary.mean (Runner.normalized_recovery res ~node ~filter:(fun _ -> true))
      in
      { node; srm_value = f pair.srm; cesrm_value = f pair.cesrm })
    pair.srm.rtt_to_source

let figure1 pair =
  let data = figure1_data pair in
  Printf.sprintf "Figure 1 — %s: per-receiver average normalized recovery time (RTTs)\n"
    pair.row.Mtrace.Meta.name
  ^ Stats.Table.bar_chart
      ~title:""
      ~labels:(List.map (fun d -> Printf.sprintf "rcvr %d" d.node) data)
      ~series:
        [
          ("SRM", List.map (fun d -> d.srm_value) data);
          ("CESRM", List.map (fun d -> d.cesrm_value) data);
        ]
      ()

(* -- Figure 2 ------------------------------------------------------- *)

let figure2_data pair =
  List.filter_map
    (fun (node, _) ->
      let f expedited =
        Runner.normalized_recovery pair.cesrm ~node
          ~filter:(fun r -> r.Stats.Recovery.expedited = expedited)
      in
      let exp = f true and nonexp = f false in
      if Stats.Summary.count exp = 0 || Stats.Summary.count nonexp = 0 then None
      else Some (node, Stats.Summary.mean nonexp -. Stats.Summary.mean exp))
    pair.cesrm.rtt_to_source

let figure2 pair =
  let data = figure2_data pair in
  Printf.sprintf
    "Figure 2 — %s: difference in avg normalized recovery time, non-expedited minus expedited (RTTs)\n"
    pair.row.Mtrace.Meta.name
  ^ Stats.Table.bar_chart ~title:""
      ~labels:(List.map (fun (node, _) -> Printf.sprintf "rcvr %d" node) data)
      ~series:[ ("diff", List.map snd data) ]
      ()

(* -- Figures 3 and 4 ------------------------------------------------ *)

type request_counts = {
  rq_node : int;
  srm_rqst : int;
  cesrm_rqst : int;
  cesrm_exp_rqst : int;
}

let members_of pair = 0 :: List.map fst pair.srm.rtt_to_source

let figure3_data pair =
  List.map
    (fun node ->
      {
        rq_node = node;
        srm_rqst = Stats.Counters.get pair.srm.counters ~node Stats.Counters.Rqst;
        cesrm_rqst = Stats.Counters.get pair.cesrm.counters ~node Stats.Counters.Rqst;
        cesrm_exp_rqst = Stats.Counters.get pair.cesrm.counters ~node Stats.Counters.Exp_rqst;
      })
    (members_of pair)

let figure3 pair =
  let data = figure3_data pair in
  let rows =
    List.map
      (fun d ->
        [
          string_of_int d.rq_node;
          string_of_int d.srm_rqst;
          string_of_int d.cesrm_rqst;
          string_of_int d.cesrm_exp_rqst;
        ])
      data
  in
  Printf.sprintf "Figure 3 — %s: request packets sent per member (member 0 is the source)\n"
    pair.row.Mtrace.Meta.name
  ^ Stats.Table.render
      ~header:[ "member"; "SRM(mc)"; "CESRM(mc)"; "CESRM-EXP(uc)" ]
      ~rows

type reply_counts = { rp_node : int; srm_repl : int; cesrm_repl : int; cesrm_exp_repl : int }

let figure4_data pair =
  List.map
    (fun node ->
      {
        rp_node = node;
        srm_repl = Stats.Counters.get pair.srm.counters ~node Stats.Counters.Repl;
        cesrm_repl = Stats.Counters.get pair.cesrm.counters ~node Stats.Counters.Repl;
        cesrm_exp_repl = Stats.Counters.get pair.cesrm.counters ~node Stats.Counters.Exp_repl;
      })
    (members_of pair)

let figure4 pair =
  let data = figure4_data pair in
  let rows =
    List.map
      (fun d ->
        [
          string_of_int d.rp_node;
          string_of_int d.srm_repl;
          string_of_int d.cesrm_repl;
          string_of_int d.cesrm_exp_repl;
        ])
      data
  in
  Printf.sprintf "Figure 4 — %s: reply packets sent per member (member 0 is the source)\n"
    pair.row.Mtrace.Meta.name
  ^ Stats.Table.render
      ~header:[ "member"; "SRM(mc)"; "CESRM(mc)"; "CESRM-EXP(mc)" ]
      ~rows

(* -- Figure 5 ------------------------------------------------------- *)

let figure5a_data pairs =
  List.map (fun p -> (p.row.Mtrace.Meta.name, Runner.expedited_success_pct p.cesrm)) pairs

let figure5a pairs =
  let data = figure5a_data pairs in
  "Figure 5 (left) — successful expedited recoveries, % (paper: >70% on all traces)\n"
  ^ Stats.Table.bar_chart ~title:"" ~unit_label:"%"
      ~labels:(List.map fst data)
      ~series:[ ("success", List.map snd data) ]
      ()

type overhead = {
  trace_name : string;
  retrans_pct : float;
  control_mc_pct : float;
  control_uc_pct : float;
}

let pct num den = if den = 0 then 0. else 100. *. float_of_int num /. float_of_int den

let figure5b_data pairs =
  List.map
    (fun p ->
      let srm_retx = Net.Cost.retransmission_overhead p.srm.cost in
      let srm_ctrl =
        Net.Cost.control_overhead p.srm.cost ~multicast:true
        + Net.Cost.control_overhead p.srm.cost ~multicast:false
      in
      {
        trace_name = p.row.Mtrace.Meta.name;
        retrans_pct = pct (Net.Cost.retransmission_overhead p.cesrm.cost) srm_retx;
        control_mc_pct = pct (Net.Cost.control_overhead p.cesrm.cost ~multicast:true) srm_ctrl;
        control_uc_pct = pct (Net.Cost.control_overhead p.cesrm.cost ~multicast:false) srm_ctrl;
      })
    pairs

let figure5b pairs =
  let data = figure5b_data pairs in
  let rows =
    List.map
      (fun d ->
        [
          d.trace_name;
          Printf.sprintf "%.1f%%" d.retrans_pct;
          Printf.sprintf "%.1f%%" d.control_mc_pct;
          Printf.sprintf "%.1f%%" d.control_uc_pct;
          Printf.sprintf "%.1f%%" (d.control_mc_pct +. d.control_uc_pct);
        ])
      data
  in
  "Figure 5 (right) — CESRM transmission overhead as % of SRM's (paper: retx <80%, control <52%)\n"
  ^ Stats.Table.render
      ~header:[ "trace"; "retransmissions"; "mc control"; "uc control"; "control total" ]
      ~rows

(* -- headline summary ----------------------------------------------- *)

let summary pairs =
  let rows =
    List.map
      (fun p ->
        let s = Runner.avg_normalized_recovery p.srm
        and c = Runner.avg_normalized_recovery p.cesrm in
        let retx =
          pct
            (Net.Cost.retransmission_overhead p.cesrm.cost)
            (Net.Cost.retransmission_overhead p.srm.cost)
        in
        let succ = Runner.expedited_success_pct p.cesrm in
        [
          p.row.Mtrace.Meta.name;
          Printf.sprintf "%.2f" s;
          Printf.sprintf "%.2f" c;
          Printf.sprintf "%.0f%%" (Runner.recovery_reduction p.srm p.cesrm);
          Printf.sprintf "%.0f%%" retx;
          Printf.sprintf "%.0f%%" succ;
          string_of_int p.srm.unrecovered;
          string_of_int p.cesrm.unrecovered;
        ])
      pairs
  in
  "Headline comparison (paper: recovery time reduced ~50%, retransmissions 30-80% of SRM's)\n"
  ^ Stats.Table.render
      ~header:
        [
          "trace";
          "SRM rec(RTT)";
          "CESRM rec(RTT)";
          "reduction";
          "retx vs SRM";
          "exp success";
          "unrec SRM";
          "unrec CESRM";
        ]
      ~rows
