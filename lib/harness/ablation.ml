let run_config ?setup ~config trace loss =
  Runner.run_model ?setup (Runner.Cesrm_protocol config) trace loss

let retentions ?(n_packets = 4000) rows =
  let rows_out =
    List.concat_map
      (fun row ->
        let trace, loss = Runner.inputs ~n_packets row in
        List.map
          (fun name ->
            let retention = Option.get (Cesrm.Retention.of_name name) in
            let res = run_config ~config:{ Cesrm.Host.default_config with retention } trace loss in
            [
              row.Mtrace.Meta.name;
              name;
              Printf.sprintf "%.2f" (Runner.avg_normalized_recovery res);
              Printf.sprintf "%.0f%%" (Runner.expedited_success_pct res);
              string_of_int res.exp_requests;
              string_of_int res.unrecovered;
            ])
          [ "recent:1"; "recent"; "lru"; "hotspot"; "hotspot=inf" ])
      rows
  in
  "Ablation — replier-cache retention, which ranks the expeditious pair (paper: the most\n\
   recent pair, Section 3.2; hotspot=inf is its most frequent pair)\n"
  ^ Stats.Table.render
      ~header:[ "trace"; "retention"; "avg rec (RTT)"; "exp success"; "erqst"; "unrecovered" ]
      ~rows:rows_out

let cache_sizes ?(n_packets = 4000) ?(sizes = [ 1; 2; 4; 8; 16; 32 ]) row =
  let trace, loss = Runner.inputs ~n_packets row in
  let rows_out =
    List.map
      (fun k ->
        let retention = { Cesrm.Retention.default with capacity = Some k } in
        let res = run_config ~config:{ Cesrm.Host.default_config with retention } trace loss in
        [
          string_of_int k;
          Printf.sprintf "%.2f" (Runner.avg_normalized_recovery res);
          Printf.sprintf "%.0f%%" (Runner.expedited_success_pct res);
          string_of_int res.exp_requests;
        ])
      sizes
  in
  Printf.sprintf
    "Ablation — cache capacity on %s (the default recent scheme uses one entry; capacity\n\
     only matters to the lru and hotspot rankings)\n"
    row.Mtrace.Meta.name
  ^ Stats.Table.render ~header:[ "capacity"; "avg rec (RTT)"; "exp success"; "erqst" ] ~rows:rows_out

let reorder_delays ?(n_packets = 4000) ?(delays = [ 0.; 0.01; 0.04; 0.1 ]) row =
  let trace, loss = Runner.inputs ~n_packets row in
  let rows_out =
    List.map
      (fun reorder_delay ->
        let config = { Cesrm.Host.default_config with reorder_delay } in
        let res = run_config ~config trace loss in
        let exp =
          Stats.Recovery.latency_summary res.recoveries ~filter:(fun r -> r.Stats.Recovery.expedited)
        in
        [
          Printf.sprintf "%.0f ms" (1000. *. reorder_delay);
          Printf.sprintf "%.2f" (Runner.avg_normalized_recovery res);
          Printf.sprintf "%.3f s" (Stats.Summary.mean exp);
          Printf.sprintf "%.0f%%" (Runner.expedited_success_pct res);
        ])
      delays
  in
  Printf.sprintf
    "Ablation — REORDER-DELAY on %s (Eq. 2: expedited latency = REORDER-DELAY + RTT;\n\
     the paper uses 0 since its traces carry no reordering)\n"
    row.Mtrace.Meta.name
  ^ Stats.Table.render
      ~header:[ "reorder-delay"; "avg rec (RTT)"; "expedited mean"; "exp success" ]
      ~rows:rows_out

let link_delays ?(n_packets = 4000) ?(delays = [ 0.010; 0.020; 0.030 ]) row =
  let trace, loss = Runner.inputs ~n_packets row in
  let rows_out =
    List.map
      (fun link_delay ->
        let setup = { Runner.default_setup with link_delay } in
        let srm = Runner.run_model ~setup Runner.Srm_protocol trace loss in
        let cesrm = run_config ~setup ~config:Cesrm.Host.default_config trace loss in
        [
          Printf.sprintf "%.0f ms" (1000. *. link_delay);
          Printf.sprintf "%.2f" (Runner.avg_normalized_recovery srm);
          Printf.sprintf "%.2f" (Runner.avg_normalized_recovery cesrm);
          Printf.sprintf "%.0f%%" (Runner.recovery_reduction srm cesrm);
        ])
      delays
  in
  Printf.sprintf
    "Ablation — link delay on %s (paper Section 4.3: results with 10/20/30 ms were very similar)\n"
    row.Mtrace.Meta.name
  ^ Stats.Table.render
      ~header:[ "link delay"; "SRM rec (RTT)"; "CESRM rec (RTT)"; "reduction" ]
      ~rows:rows_out

type setting = Lossy_recovery | Lossy_sessions | Heterogeneous_delays

let toggle ?(n_packets = 4000) setting rows =
  let set, column, (off, on), title =
    match setting with
    | Lossy_recovery ->
        ( (fun lossy_recovery -> { Runner.default_setup with lossy_recovery }),
          "recovery",
          ("lossless", "lossy"),
          "Ablation — lossy recovery (recovery packets dropped per estimated link rates; paper\n\
           Section 4.3 reports slightly larger latencies and similar improvements)\n" )
    | Lossy_sessions ->
        ( (fun lossy_sessions -> { Runner.default_setup with lossy_sessions }),
          "sessions",
          ("lossless", "lossy"),
          "Ablation — lossy session exchange (the paper assumes sessions are lossless; dropping\n\
           them per link rates slows distance estimation slightly but changes nothing else)\n" )
    | Heterogeneous_delays ->
        ( (fun heterogeneous_delays -> { Runner.default_setup with heterogeneous_delays }),
          "delays",
          ("uniform 20ms", "log-uniform"),
          "Ablation — heterogeneous link delays (the paper uses one uniform delay; drawing\n\
           per-link delays log-uniformly in [6.7, 60] ms leaves the comparison intact)\n" )
  in
  let rows_out =
    List.concat_map
      (fun row ->
        let trace, loss = Runner.inputs ~n_packets row in
        List.map
          (fun value ->
            let setup = set value in
            let srm = Runner.run_model ~setup Runner.Srm_protocol trace loss in
            let cesrm = run_config ~setup ~config:Cesrm.Host.default_config trace loss in
            [
              row.Mtrace.Meta.name;
              (if value then on else off);
              Printf.sprintf "%.2f" (Runner.avg_normalized_recovery srm);
              Printf.sprintf "%.2f" (Runner.avg_normalized_recovery cesrm);
              Printf.sprintf "%.0f%%" (Runner.recovery_reduction srm cesrm);
              string_of_int (srm.unrecovered + cesrm.unrecovered);
            ])
          [ false; true ])
      rows
  in
  title
  ^ Stats.Table.render
      ~header:[ "trace"; column; "SRM rec"; "CESRM rec"; "reduction"; "unrecovered" ]
      ~rows:rows_out

let router_assist ?(n_packets = 4000) rows =
  let rows_out =
    List.map
      (fun row ->
        let trace, loss = Runner.inputs ~n_packets row in
        let plain = run_config ~config:Cesrm.Host.default_config trace loss in
        let assisted =
          run_config
            ~config:{ Cesrm.Host.default_config with router_assist = true }
            trace loss
        in
        let crossings_per_reply (res : Runner.result) =
          let replies =
            Net.Cost.sends res.cost Net.Cost.Exp_reply Net.Cost.Multicast
            + Net.Cost.sends res.cost Net.Cost.Exp_reply Net.Cost.Subcast
          in
          if replies = 0 then 0.
          else
            float_of_int (Net.Cost.total_crossings res.cost Net.Cost.Exp_reply)
            /. float_of_int replies
        in
        [
          row.Mtrace.Meta.name;
          Printf.sprintf "%.1f" (crossings_per_reply plain);
          Printf.sprintf "%.1f" (crossings_per_reply assisted);
          Printf.sprintf "%.2f" (Runner.avg_normalized_recovery plain);
          Printf.sprintf "%.2f" (Runner.avg_normalized_recovery assisted);
          Printf.sprintf "%.0f%%" (Runner.expedited_success_pct assisted);
        ])
      rows
  in
  "Extension — router-assisted local recovery (Section 3.3): turning-point subcast shrinks\n\
   the links crossed per expedited retransmission without hurting recovery\n"
  ^ Stats.Table.render
      ~header:
        [
          "trace";
          "xings/erepl (mc)";
          "xings/erepl (RA)";
          "rec (RTT) mc";
          "rec (RTT) RA";
          "RA success";
        ]
      ~rows:rows_out

let reordering ?(n_packets = 4000) row =
  let trace, loss = Runner.inputs ~n_packets row in
  let jitter = 2.5 *. Mtrace.Trace.period trace in
  let rows_out =
    List.concat_map
      (fun data_jitter ->
        List.filter_map
          (fun reorder_delay ->
            if data_jitter = 0. && reorder_delay > 0. then None
            else begin
              let setup = { Runner.default_setup with data_jitter } in
              let config = { Cesrm.Host.default_config with reorder_delay } in
              let res = run_config ~setup ~config trace loss in
              (* Spurious expedited requests show up as excess requests
                 relative to truly lossy packets. *)
              Some
                [
                  Printf.sprintf "%.0f ms" (1000. *. data_jitter);
                  Printf.sprintf "%.0f ms" (1000. *. reorder_delay);
                  string_of_int res.exp_requests;
                  string_of_int (List.length (Mtrace.Trace.lossy_packets trace));
                  Printf.sprintf "%.2f" (Runner.avg_normalized_recovery res);
                  string_of_int res.unrecovered;
                ]
            end)
          [ 0.; jitter *. 2. ])
      [ 0.; jitter ]
  in
  Printf.sprintf
    "Ablation — packet reordering on %s (send jitter %.0f ms vs period %.0f ms): without\n\
     REORDER-DELAY, reordering-induced transient gaps fire spurious expedited requests\n"
    row.Mtrace.Meta.name (1000. *. jitter)
    (1000. *. Mtrace.Trace.period trace)
  ^ Stats.Table.render
      ~header:
        [ "jitter"; "reorder-delay"; "erqst"; "lossy packets"; "avg rec (RTT)"; "unrecovered" ]
      ~rows:rows_out

let adaptive_timers ?(n_packets = 4000) rows =
  let rows_out =
    List.concat_map
      (fun row ->
        let trace, loss = Runner.inputs ~n_packets row in
        let lossy = List.length (Mtrace.Trace.lossy_packets trace) in
        List.map
          (fun adaptive ->
            let setup =
              { Runner.default_setup with params = { Srm.Params.default with adaptive } }
            in
            let res = Runner.run_model ~setup Runner.Srm_protocol trace loss in
            let replies = Stats.Counters.total res.counters Stats.Counters.Repl in
            [
              row.Mtrace.Meta.name;
              (if adaptive then "adaptive" else "fixed");
              Printf.sprintf "%.2f" (Runner.avg_normalized_recovery res);
              string_of_int (Stats.Counters.total res.counters Stats.Counters.Rqst);
              string_of_int replies;
              Printf.sprintf "%.2f" (float_of_int replies /. float_of_int (max 1 lossy));
              string_of_int res.unrecovered;
            ])
          [ false; true ])
      rows
  in
  "Extension — adaptive SRM timers (Floyd et al. §VI): per-host C/D adjustment trades\n\
   duplicate suppression against latency dynamically\n"
  ^ Stats.Table.render
      ~header:
        [ "trace"; "timers"; "avg rec (RTT)"; "rqst"; "repl"; "repl/event"; "unrecovered" ]
      ~rows:rows_out

let scaling ?(n_packets = 3000) ?(sizes = [ 8; 12; 16; 24; 32 ]) () =
  let rows_out =
    List.map
      (fun n_receivers ->
        (* A synthetic Table-1-like row: depth grows slowly with group
           size, loss volume keeps a 5% per-receiver rate. *)
        let depth = max 3 (min 8 (2 + (n_receivers / 6))) in
        let row =
          {
            Mtrace.Meta.index = 0;
            name = Printf.sprintf "scale-%d" n_receivers;
            n_receivers;
            tree_depth = depth;
            period_ms = 80;
            duration_s = n_packets * 80 / 1000;
            n_packets;
            n_losses = int_of_float (0.05 *. float_of_int (n_packets * n_receivers));
          }
        in
        let trace, loss = Runner.inputs ~n_packets row in
        let events = List.length (Mtrace.Trace.lossy_packets trace) in
        let srm = Runner.run_model Runner.Srm_protocol trace loss in
        let cesrm = run_config ~config:Cesrm.Host.default_config trace loss in
        let per_event crossings = float_of_int crossings /. float_of_int (max 1 events) in
        [
          string_of_int n_receivers;
          string_of_int depth;
          Printf.sprintf "%.2f" (Runner.avg_normalized_recovery srm);
          Printf.sprintf "%.2f" (Runner.avg_normalized_recovery cesrm);
          Printf.sprintf "%.0f" (per_event (Net.Cost.retransmission_overhead srm.cost));
          Printf.sprintf "%.0f" (per_event (Net.Cost.retransmission_overhead cesrm.cost));
          Printf.sprintf "%.0f%%"
            (100.
            *. float_of_int (Net.Cost.retransmission_overhead cesrm.cost)
            /. float_of_int (max 1 (Net.Cost.retransmission_overhead srm.cost)));
          string_of_int (srm.unrecovered + cesrm.unrecovered);
        ])
      sizes
  in
  "Extension — group-size scaling: CESRM's latency and retransmission advantage holds as\n\
   the group grows (SRM's reply implosion worsens with more potential repliers)\n"
  ^ Stats.Table.render
      ~header:
        [
          "receivers";
          "depth";
          "SRM rec (RTT)";
          "CESRM rec (RTT)";
          "SRM retx/event";
          "CESRM retx/event";
          "retx ratio";
          "unrecovered";
        ]
      ~rows:rows_out
