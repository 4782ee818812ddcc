(* Integration tests for the experiment harness: the runner, the
   figure extraction, the Section 3.4 analysis, and ablation smoke. *)

let check = Alcotest.check

let small_pair =
  lazy (Harness.Figures.run_pair ~n_packets:1200 (Mtrace.Meta.nth 4))

let test_protocol_names () =
  check Alcotest.string "srm" "SRM" (Harness.Runner.protocol_name Harness.Runner.Srm_protocol);
  check Alcotest.string "cesrm" "CESRM"
    (Harness.Runner.protocol_name (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config));
  check Alcotest.string "cesrm+ra" "CESRM+RA"
    (Harness.Runner.protocol_name
       (Harness.Runner.Cesrm_protocol { Cesrm.Host.default_config with router_assist = true }));
  (* A non-default retention is named, so runs of two retention
     schemes can be told apart; the reorder delay is not. *)
  check Alcotest.string "cesrm@lru" "CESRM@LRU"
    (Harness.Runner.protocol_name
       (Harness.Runner.Cesrm_protocol
          { Cesrm.Host.default_config with retention = Option.get (Cesrm.Retention.of_name "lru") }));
  check Alcotest.string "cesrm@hotspot=inf:4+ra" "CESRM@HOTSPOT=INF:4+RA"
    (Harness.Runner.protocol_name
       (Harness.Runner.Cesrm_protocol
          {
            Cesrm.Host.default_config with
            retention = Option.get (Cesrm.Retention.of_name "hotspot=inf:4");
            router_assist = true;
          }));
  check Alcotest.string "reorder delay unnamed" "CESRM"
    (Harness.Runner.protocol_name
       (Harness.Runner.Cesrm_protocol { Cesrm.Host.default_config with reorder_delay = 0.05 }))

let test_pair_completeness () =
  let p = Lazy.force small_pair in
  check Alcotest.int "srm unrecovered" 0 p.srm.unrecovered;
  check Alcotest.int "cesrm unrecovered" 0 p.cesrm.unrecovered;
  check Alcotest.int "srm audit clean" 0 p.srm.audit_violations;
  check Alcotest.int "cesrm audit clean" 0 p.cesrm.audit_violations;
  check Alcotest.bool "losses were injected" true (p.srm.detected > 50);
  (* Both protocols face the same injected losses, but detection counts
     can differ marginally (expedited recovery can pre-empt a gap). *)
  let diff = abs (p.srm.detected - p.cesrm.detected) in
  check Alcotest.bool "similar detection counts" true
    (float_of_int diff /. float_of_int p.srm.detected < 0.05)

let test_figure1_shape () =
  let p = Lazy.force small_pair in
  let data = Harness.Figures.figure1_data p in
  check Alcotest.int "one row per receiver" (Mtrace.Trace.n_receivers p.trace)
    (List.length data);
  List.iter
    (fun (d : Harness.Figures.receiver_series) ->
      if d.srm_value > 0. then
        check Alcotest.bool "values plausible (< 8 RTT)" true
          (d.srm_value < 8. && d.cesrm_value < 8.))
    data;
  (* CESRM wins on average. *)
  let avg f = List.fold_left (fun acc d -> acc +. f d) 0. data /. float_of_int (List.length data) in
  check Alcotest.bool "cesrm lower on average" true
    (avg (fun (d : Harness.Figures.receiver_series) -> d.cesrm_value)
    < avg (fun d -> d.srm_value))

let test_figure2_range () =
  let p = Lazy.force small_pair in
  List.iter
    (fun (_, diff) ->
      check Alcotest.bool "difference within plausible band" true (diff > -1. && diff < 4.))
    (Harness.Figures.figure2_data p)

let test_figure3_matches_counters () =
  let p = Lazy.force small_pair in
  List.iter
    (fun (d : Harness.Figures.request_counts) ->
      check Alcotest.int "srm rqst"
        (Stats.Counters.get p.srm.counters ~node:d.rq_node Stats.Counters.Rqst)
        d.srm_rqst;
      check Alcotest.int "cesrm erqst"
        (Stats.Counters.get p.cesrm.counters ~node:d.rq_node Stats.Counters.Exp_rqst)
        d.cesrm_exp_rqst)
    (Harness.Figures.figure3_data p);
  (* The source never requests. *)
  let src = List.find (fun (d : Harness.Figures.request_counts) -> d.rq_node = 0)
      (Harness.Figures.figure3_data p) in
  check Alcotest.int "source sends no requests" 0 (src.srm_rqst + src.cesrm_rqst + src.cesrm_exp_rqst)

let test_figure4_totals () =
  let p = Lazy.force small_pair in
  let data = Harness.Figures.figure4_data p in
  let total f = List.fold_left (fun acc d -> acc + f d) 0 data in
  check Alcotest.int "erepl total matches result" p.cesrm.exp_replies
    (total (fun (d : Harness.Figures.reply_counts) -> d.cesrm_exp_repl));
  check Alcotest.bool "cesrm replies below srm" true
    (total (fun (d : Harness.Figures.reply_counts) -> d.cesrm_repl + d.cesrm_exp_repl)
    <= total (fun d -> d.srm_repl))

let test_figure5 () =
  let p = Lazy.force small_pair in
  let a = Harness.Figures.figure5a_data [ p ] in
  check Alcotest.int "one trace" 1 (List.length a);
  let _, pct = List.hd a in
  check Alcotest.bool "success percentage in range" true (pct >= 0. && pct <= 100.);
  let b = Harness.Figures.figure5b_data [ p ] in
  let o = List.hd b in
  check Alcotest.bool "retrans pct positive" true (o.retrans_pct > 0.);
  check Alcotest.bool "unicast control cheaper than multicast" true
    (o.control_uc_pct < o.control_mc_pct)

let test_renderers_smoke () =
  let p = Lazy.force small_pair in
  List.iter
    (fun s -> check Alcotest.bool "non-empty rendering" true (String.length s > 40))
    [
      Harness.Figures.table1 [ p ];
      Harness.Figures.attribution_accuracy [ p ];
      Harness.Figures.figure1 p;
      Harness.Figures.figure2 p;
      Harness.Figures.figure3 p;
      Harness.Figures.figure4 p;
      Harness.Figures.figure5a [ p ];
      Harness.Figures.figure5b [ p ];
      Harness.Figures.summary [ p ];
      Harness.Analysis.report [ p ];
    ]

let test_analysis_bounds () =
  check (Alcotest.float 1e-9) "Eq.(1) with defaults = 6.5 d" 6.5
    (Harness.Analysis.eq1_bound Srm.Params.default);
  check (Alcotest.float 1e-9) "predicted gap 2.25 RTT" 2.25
    (Harness.Analysis.predicted_gap_rtt Srm.Params.default);
  check (Alcotest.float 1e-9) "Eq.(2)" 0.25
    (Harness.Analysis.eq2_bound ~reorder_delay:0.05 ~rtt:0.2)

let test_lossy_recovery_still_completes () =
  let gen = Mtrace.Generator.synthesize ~n_packets:1200 (Mtrace.Meta.nth 4) in
  let att = Harness.Runner.attribution_of_trace gen.trace in
  let setup = { Harness.Runner.default_setup with lossy_recovery = true } in
  let srm = Harness.Runner.run_model ~setup Harness.Runner.Srm_protocol gen.trace (Harness.Runner.Attributed att) in
  let cesrm =
    Harness.Runner.run_model ~setup (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config)
      gen.trace (Harness.Runner.Attributed att)
  in
  check Alcotest.int "srm complete under lossy recovery" 0 srm.unrecovered;
  check Alcotest.int "cesrm complete under lossy recovery" 0 cesrm.unrecovered

let test_link_delay_invariance () =
  (* Normalized recovery latency should barely move across 10/20/30 ms
     (the paper's robustness observation). *)
  let gen = Mtrace.Generator.synthesize ~n_packets:1200 (Mtrace.Meta.nth 4) in
  let att = Harness.Runner.attribution_of_trace gen.trace in
  let avg_at link_delay =
    let setup = { Harness.Runner.default_setup with link_delay } in
    let res = Harness.Runner.run_model ~setup Harness.Runner.Srm_protocol gen.trace (Harness.Runner.Attributed att) in
    let s = Stats.Summary.create () in
    List.iter
      (fun (node, _) ->
        let n = Harness.Runner.normalized_recovery res ~node ~filter:(fun _ -> true) in
        if Stats.Summary.count n > 0 then Stats.Summary.add s (Stats.Summary.mean n))
      res.rtt_to_source;
    Stats.Summary.mean s
  in
  let a = avg_at 0.010 and b = avg_at 0.020 and c = avg_at 0.030 in
  check Alcotest.bool "10 vs 20 ms within 25%" true (Float.abs (a -. b) /. b < 0.25);
  check Alcotest.bool "30 vs 20 ms within 25%" true (Float.abs (c -. b) /. b < 0.25)

let test_deterministic_runs () =
  let gen = Mtrace.Generator.synthesize ~n_packets:800 (Mtrace.Meta.nth 4) in
  let att = Harness.Runner.attribution_of_trace gen.trace in
  let run () = Harness.Runner.run_model Harness.Runner.Srm_protocol gen.trace (Harness.Runner.Attributed att) in
  let a = run () and b = run () in
  check Alcotest.int "same recovery count" (Stats.Recovery.count a.recoveries)
    (Stats.Recovery.count b.recoveries);
  let mean res = Stats.Summary.mean (Stats.Recovery.latency_summary res.Harness.Runner.recoveries) in
  check (Alcotest.float 1e-12) "same mean latency" (mean a) (mean b)

(* Law: each send is counted once, at the wire. A tap fires for exactly
   the casts that pass the network's enabled check, so per member and
   kind the run's tally must equal what the tap saw: a crashed or
   absent member's timers count nothing, and an LMS repair, which
   leaves as a plain reply, counts as one. A result's expedited pair is
   the tally's (LMS's hop-by-hop requests are no expedited recovery, so
   it reads 0), and a sharded SRM run reads the serial run's. Every
   canned plan runs on a 7-receiver trace. *)
let kind_of_category = function
  | Net.Cost.Data -> None
  | Net.Cost.Request -> Some Stats.Counters.Rqst
  | Net.Cost.Exp_request -> Some Stats.Counters.Exp_rqst
  | Net.Cost.Reply -> Some Stats.Counters.Repl
  | Net.Cost.Exp_reply -> Some Stats.Counters.Exp_repl
  | Net.Cost.Session -> Some Stats.Counters.Sess

let test_sends_counted_at_the_wire () =
  let setup = Harness.Runner.default_setup in
  let trace, loss = Harness.Runner.inputs ~n_packets:600 (Mtrace.Meta.find "WRN951214") in
  let n = Net.Tree.n_nodes (Mtrace.Trace.tree trace) in
  let srm_family = [ Harness.Runner.Srm_protocol; Harness.Runner.Cesrm_protocol Cesrm.Host.default_config ] in
  let runs =
    (None, Harness.Runner.Lms_protocol)
    :: List.concat_map
         (fun fault -> List.map (fun p -> (fault, p)) srm_family)
         (None :: List.map Option.some (Fault.Plan.canned_names @ Fault.Plan.churn_names))
  in
  List.iter
    (fun (fault, protocol) ->
      let label =
        Harness.Runner.protocol_name protocol ^ "/" ^ Option.value fault ~default:"none"
      in
      let fault_plan =
        Option.map (fun f -> Result.get_ok (Harness.Runner.fault_plan ~setup trace f)) fault
      in
      let m = Harness.Run_types.build ?fault_plan ~setup protocol trace loss in
      let seen = Stats.Counters.create ~n_nodes:n in
      Net.Network.add_tap m.network (fun ~from packet ->
          Option.iter
            (Stats.Counters.bump seen ~node:from)
            (kind_of_category (Net.Cost.category_of packet)));
      Sim.Engine.run ~until:m.horizon m.engine;
      let tally = Net.Network.counters m.network in
      for node = 0 to n - 1 do
        List.iter
          (fun kind ->
            check Alcotest.int
              (Printf.sprintf "%s node %d %s" label node (Stats.Counters.kind_name kind))
              (Stats.Counters.get seen ~node kind) (Stats.Counters.get tally ~node kind))
          Stats.Counters.all_kinds
      done;
      let tree = Mtrace.Trace.tree trace in
      let r =
        Harness.Run_types.finish ~faulted:(Option.is_some fault_plan) ~setup
          ~rtts:(Harness.Run_types.source_rtts ~tree ~delay:(Net.Network.link_delay m.network))
          ~tally ~recoveries:m.recoveries ~cost:(Net.Network.cost m.network)
          ~detected:(m.detected ()) ~forgiven:(m.forgiven ()) ~retirement:m.controller m.audit
          protocol trace
      in
      let total = Stats.Counters.total tally in
      let expected =
        if protocol = Harness.Runner.Lms_protocol then begin
          check Alcotest.bool (label ^ " tallies Exp_rqst") true (total Stats.Counters.Exp_rqst > 0);
          (0, 0)
        end
        else (total Stats.Counters.Exp_rqst, total Stats.Counters.Exp_repl)
      in
      check Alcotest.(pair int int) (label ^ " expedited pair") expected
        (r.exp_requests, r.exp_replies))
    runs;
  let pair (r : Harness.Runner.result) = (r.exp_requests, r.exp_replies) in
  let srm ?shards () = Harness.Runner.run_model ?shards Harness.Runner.Srm_protocol trace loss in
  check Alcotest.(pair int int) "2-shard SRM expedited pair" (pair (srm ())) (pair (srm ~shards:2 ()))

let test_data_jitter_reordering () =
  (* With jitter beyond one period and no reorder delay, CESRM fires
     spurious expedited requests for in-flight packets; a reorder delay
     of twice the jitter suppresses them. *)
  let gen = Mtrace.Generator.synthesize ~n_packets:1200 (Mtrace.Meta.nth 4) in
  let att = Harness.Runner.attribution_of_trace gen.trace in
  let jitter = 2.5 *. Mtrace.Trace.period gen.trace in
  let run reorder_delay =
    let setup = { Harness.Runner.default_setup with data_jitter = jitter } in
    Harness.Runner.run_model ~setup
      (Harness.Runner.Cesrm_protocol { Cesrm.Host.default_config with reorder_delay })
      gen.trace (Harness.Runner.Attributed att)
  in
  let eager = run 0. and guarded = run (2. *. jitter) in
  check Alcotest.int "still complete (eager)" 0 eager.unrecovered;
  check Alcotest.int "still complete (guarded)" 0 guarded.unrecovered;
  check Alcotest.bool "reorder delay suppresses spurious expedited requests" true
    (guarded.exp_requests < eager.exp_requests)

let test_lossy_sessions_unchanged () =
  let gen = Mtrace.Generator.synthesize ~n_packets:1200 (Mtrace.Meta.nth 4) in
  let att = Harness.Runner.attribution_of_trace gen.trace in
  let setup = { Harness.Runner.default_setup with lossy_sessions = true } in
  let res = Harness.Runner.run_model ~setup Harness.Runner.Srm_protocol gen.trace (Harness.Runner.Attributed att) in
  check Alcotest.int "lossy sessions: still complete" 0 res.unrecovered

(* --- protocol audit ------------------------------------------------- *)

let audited_run ?expect_in_order ?max_exp_per_loss ~deploy () =
  let gen = Mtrace.Generator.synthesize ~n_packets:1000 (Mtrace.Meta.nth 4) in
  let att = Harness.Runner.attribution_of_trace gen.trace in
  let tree = Mtrace.Trace.tree gen.trace in
  let engine = Sim.Engine.create ~seed:123L () in
  let network = Net.Network.create ~engine ~tree () in
  Net.Network.set_drop network (fun ~link ~down (p : Net.Packet.t) ->
      match p.payload with
      | Net.Packet.Data { seq } -> down && List.mem link (Inference.Attribution.cuts att ~seq)
      | _ -> false);
  let audit = Harness.Audit.attach ?expect_in_order ?max_exp_per_loss network in
  deploy ~network ~trace:gen.trace;
  Sim.Engine.run ~until:1e6 engine;
  audit

let test_audit_srm_clean () =
  let audit =
    audited_run
      ~deploy:(fun ~network ~trace ->
        let proto =
          Srm.Proto.deploy ~network ~params:Srm.Params.default
            ~n_packets:(Mtrace.Trace.n_packets trace) ~period:(Mtrace.Trace.period trace) ()
        in
        Srm.Proto.start proto ~warmup:5.0 ~tail:30.0)
      ()
  in
  Harness.Audit.check audit;
  check Alcotest.bool "audited many packets" true (Harness.Audit.packets_seen audit > 1000)

let test_audit_cesrm_clean () =
  let audit =
    audited_run ~max_exp_per_loss:1
      ~deploy:(fun ~network ~trace ->
        let proto =
          Cesrm.Proto.deploy ~network ~params:Srm.Params.default
            ~n_packets:(Mtrace.Trace.n_packets trace) ~period:(Mtrace.Trace.period trace) ()
        in
        Cesrm.Proto.start proto ~warmup:5.0 ~tail:30.0)
      ()
  in
  Harness.Audit.check audit

let test_audit_lms_clean () =
  let audit =
    audited_run ~max_exp_per_loss:64
      ~deploy:(fun ~network ~trace ->
        let proto =
          Lms.Proto.deploy ~network ~n_packets:(Mtrace.Trace.n_packets trace)
            ~period:(Mtrace.Trace.period trace) ()
        in
        Lms.Proto.start proto ~warmup:5.0 ~tail:30.0)
      ()
  in
  Harness.Audit.check audit

let test_audit_flags_bogus_reply () =
  let tree = Net.Tree.star 3 in
  let engine = Sim.Engine.create () in
  let network = Net.Network.create ~engine ~tree () in
  let audit = Harness.Audit.attach network in
  (* a retransmission for a packet nobody requested, before it was sent *)
  ignore
    (Sim.Engine.schedule engine ~after:1.0 (fun () ->
         Net.Network.multicast network ~from:1
           {
             Net.Packet.sender = 1;
             payload =
               Net.Packet.Reply
                 {
                   src = 0;
                   seq = 5;
                   requestor = 2;
                   d_qs = 0.1;
                   replier = 1;
                   d_rq = 0.1;
                   expedited = false;
                   turning_point = None;
                 };
           }));
  Sim.Engine.run engine;
  let rules = List.map (fun v -> v.Harness.Audit.rule) (Harness.Audit.violations audit) in
  check Alcotest.bool "bogus reply flagged" true
    (List.mem "reply-has-cause" rules && List.mem "replier-plausible" rules)

(* Packets injected on a 3-star after packet 1's original send, 10 ms
   apart: the rules the checker flags. *)
let injected_rules ?max_exp_per_loss sends =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create ~engine ~tree:(Net.Tree.star 3) () in
  let audit = Harness.Audit.attach ?max_exp_per_loss network in
  List.iteri
    (fun i (from, payload) ->
      ignore
        (Sim.Engine.schedule engine ~after:(0.01 *. float_of_int i) (fun () ->
             Net.Network.multicast network ~from { Net.Packet.sender = from; payload })))
    ((0, Net.Packet.Data { seq = 1 }) :: sends);
  Sim.Engine.run engine;
  List.map (fun v -> v.Harness.Audit.rule) (Harness.Audit.violations audit)

let request seq = (1, Net.Packet.Request { src = 0; seq; requestor = 1; d_qs = 0.1; round = 0 })

let exp_request seq =
  ( 1,
    Net.Packet.Exp_request
      { src = 0; seq; requestor = 1; d_qs = 0.1; replier = 2; turning_point = None } )

(* Hosts that do not re-arm send at most SRM's round cap plus the first
   request for one loss: 41. Each request past it is flagged. *)
let test_audit_request_rounds_bound () =
  let rules n = injected_rules (List.init n (fun _ -> request 1)) in
  check Alcotest.(list string) "41 requests for one loss pass" [] (rules 41);
  check Alcotest.(list string) "the 42nd is flagged" [ "request-rounds-bounded" ] (rules 42);
  check Alcotest.(list string) "and every one after it"
    [ "request-rounds-bounded"; "request-rounds-bounded" ]
    (rules 43)

let test_audit_flags_requests_without_subject () =
  check Alcotest.(list string) "a request names an unsent packet"
    [ "request-subject-exists"; "request-subject-exists" ]
    (injected_rules [ request 2; exp_request 3 ])

let test_audit_expedited_singleton () =
  check Alcotest.(list string) "one expedited request per loss" []
    (injected_rules [ exp_request 1 ]);
  check Alcotest.(list string) "a second is flagged at the end" [ "expedited-singleton" ]
    (injected_rules [ exp_request 1; exp_request 1 ]);
  check Alcotest.(list string) "unless the bound is raised" []
    (injected_rules ~max_exp_per_loss:2 [ exp_request 1; exp_request 1 ])

(* [Gc.allocated_bytes] is exact only right after a minor collection:
   on OCaml 5.1 it counts an eighth of the young generation's
   allocation until the next collection corrects it. *)
let allocated f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  f ();
  Gc.minor ();
  Gc.allocated_bytes () -. before

(* The checker's tap stores the send time in a flat float cell rather
   than passing it boxed, so a checked send that adds no table entry
   allocates nothing: 1000 session multicasts on a 3-star allocate the
   same with the checker attached as without it. *)
let test_audit_session_send_alloc () =
  let sessions ~checked =
    let tree = Net.Tree.star 3 in
    let engine = Sim.Engine.create () in
    let network = Net.Network.create ~engine ~tree () in
    Array.iter (fun v -> Net.Network.on_receive network v ignore) (Net.Tree.receivers tree);
    if checked then ignore (Harness.Audit.attach network);
    let session =
      {
        Net.Packet.sender = 1;
        payload = Net.Packet.Session { origin = 1; sent_at = 0.; max_seqs = []; echoes = [] };
      }
    in
    fun () ->
      for _ = 1 to 1000 do
        Net.Network.multicast network ~from:1 session
      done;
      Sim.Engine.run engine
  in
  let checked = sessions ~checked:true and unchecked = sessions ~checked:false in
  checked ();
  unchecked ();
  let extra = allocated checked -. allocated unchecked in
  if extra > 0. then
    Alcotest.failf "the checker allocated %.0f B more over 1000 session sends" extra

let test_audit_jitter_needs_out_of_order () =
  let gen = Mtrace.Generator.synthesize ~n_packets:600 (Mtrace.Meta.nth 4) in
  let att = Harness.Runner.attribution_of_trace gen.trace in
  let tree = Mtrace.Trace.tree gen.trace in
  let engine = Sim.Engine.create ~seed:5L () in
  let network = Net.Network.create ~engine ~tree () in
  ignore att;
  let audit = Harness.Audit.attach ~expect_in_order:true network in
  let proto =
    Srm.Proto.deploy ~network ~params:Srm.Params.default
      ~n_packets:(Mtrace.Trace.n_packets gen.trace) ~period:(Mtrace.Trace.period gen.trace) ()
  in
  Srm.Proto.start ~send_jitter:(3. *. Mtrace.Trace.period gen.trace) proto ~warmup:5.0 ~tail:10.0;
  Sim.Engine.run ~until:1e6 engine;
  check Alcotest.bool "reordering is visible to the strict auditor" true
    (List.exists
       (fun v -> v.Harness.Audit.rule = "data-well-formed")
       (Harness.Audit.violations audit))

(* --- protocol fuzz ---------------------------------------------------- *)

let fuzz_tree_gen =
  QCheck.Gen.(
    int_range 3 14 >>= fun n ->
    let rec fill i acc =
      if i >= n then return (Array.of_list (List.rev acc))
      else int_range 0 (i - 1) >>= fun p -> fill (i + 1) (p :: acc)
    in
    fill 1 [ -1 ])

let fuzz_case_gen =
  QCheck.Gen.(
    pair fuzz_tree_gen (list_size (int_range 0 25) (pair (int_range 1 30) (int_range 0 1000))))

let fuzz_arbitrary =
  QCheck.make
    ~print:(fun (parents, drops) ->
      Printf.sprintf "parents=[%s] drops=[%s]"
        (String.concat ";" (List.map string_of_int (Array.to_list parents)))
        (String.concat ";" (List.map (fun (s, l) -> Printf.sprintf "(%d,%d)" s l) drops)))
    fuzz_case_gen

let run_fuzz_case ~cesrm (parents, raw_drops) =
  let tree = Net.Tree.of_parents parents in
  if Net.Tree.n_receivers tree = 0 then true
  else begin
    let n = Net.Tree.n_nodes tree in
    (* Map raw drop link indices onto real links; drop nothing for the
       degenerate 1-node tree. *)
    let drops = List.map (fun (seq, l) -> (seq, 1 + (l mod (n - 1)))) raw_drops in
    let engine = Sim.Engine.create ~seed:2024L () in
    let network = Net.Network.create ~engine ~tree () in
    Net.Network.set_drop network (fun ~link ~down (p : Net.Packet.t) ->
        match p.payload with
        | Net.Packet.Data { seq } -> down && List.mem (seq, link) drops
        | _ -> false);
    let audit = Harness.Audit.attach network in
    let detected, recovered =
      if cesrm then begin
        let proto =
          Cesrm.Proto.deploy ~network ~params:Srm.Params.default ~n_packets:30 ~period:0.05 ()
        in
        Cesrm.Proto.start proto ~warmup:5.0 ~tail:20.0;
        Sim.Engine.run ~until:1e6 engine;
        ( List.fold_left
            (fun acc (_, h) -> acc + Srm.Host.detected_losses (Cesrm.Host.srm h))
            0 (Cesrm.Proto.members proto),
          Stats.Recovery.count (Cesrm.Proto.recoveries proto) )
      end
      else begin
        let proto =
          Srm.Proto.deploy ~network ~params:Srm.Params.default ~n_packets:30 ~period:0.05 ()
        in
        Srm.Proto.start proto ~warmup:5.0 ~tail:20.0;
        Sim.Engine.run ~until:1e6 engine;
        ( List.fold_left (fun acc (_, h) -> acc + Srm.Host.detected_losses h) 0
            (Srm.Proto.members proto),
          Stats.Recovery.count (Srm.Proto.recoveries proto) )
      end
    in
    detected = recovered && Harness.Audit.violations audit = []
  end

let prop_fuzz_srm =
  QCheck.Test.make ~name:"fuzz: SRM recovers everything cleanly on random cases" ~count:40
    fuzz_arbitrary (run_fuzz_case ~cesrm:false)

let prop_fuzz_cesrm =
  QCheck.Test.make ~name:"fuzz: CESRM recovers everything cleanly on random cases" ~count:40
    fuzz_arbitrary (run_fuzz_case ~cesrm:true)

let test_ablation_smoke () =
  let s = Harness.Ablation.cache_sizes ~n_packets:800 ~sizes:[ 1; 4 ] (Mtrace.Meta.nth 4) in
  check Alcotest.bool "cache table non-empty" true (String.length s > 40);
  let s = Harness.Ablation.link_delays ~n_packets:800 ~delays:[ 0.02 ] (Mtrace.Meta.nth 4) in
  check Alcotest.bool "delay table non-empty" true (String.length s > 40)

let () =
  Alcotest.run "harness"
    [
      ( "runner",
        [
          Alcotest.test_case "protocol names" `Quick test_protocol_names;
          Alcotest.test_case "completeness" `Quick test_pair_completeness;
          Alcotest.test_case "lossy recovery completes" `Quick test_lossy_recovery_still_completes;
          Alcotest.test_case "data jitter / reordering" `Quick test_data_jitter_reordering;
          Alcotest.test_case "lossy sessions" `Quick test_lossy_sessions_unchanged;
          Alcotest.test_case "link-delay invariance" `Quick test_link_delay_invariance;
          Alcotest.test_case "deterministic" `Quick test_deterministic_runs;
          Alcotest.test_case "each send counted once, at the wire" `Quick
            test_sends_counted_at_the_wire;
        ] );
      ( "figures",
        [
          Alcotest.test_case "figure 1 shape" `Quick test_figure1_shape;
          Alcotest.test_case "figure 2 range" `Quick test_figure2_range;
          Alcotest.test_case "figure 3 counters" `Quick test_figure3_matches_counters;
          Alcotest.test_case "figure 4 totals" `Quick test_figure4_totals;
          Alcotest.test_case "figure 5" `Quick test_figure5;
          Alcotest.test_case "renderers" `Quick test_renderers_smoke;
        ] );
      ( "analysis",
        [ Alcotest.test_case "closed-form bounds" `Quick test_analysis_bounds ] );
      ( "audit",
        [
          Alcotest.test_case "srm clean" `Quick test_audit_srm_clean;
          Alcotest.test_case "cesrm clean" `Quick test_audit_cesrm_clean;
          Alcotest.test_case "lms clean" `Quick test_audit_lms_clean;
          Alcotest.test_case "flags bogus reply" `Quick test_audit_flags_bogus_reply;
          Alcotest.test_case "jitter visible" `Quick test_audit_jitter_needs_out_of_order;
          Alcotest.test_case "request rounds bounded" `Quick test_audit_request_rounds_bound;
          Alcotest.test_case "request subject exists" `Quick
            test_audit_flags_requests_without_subject;
          Alcotest.test_case "expedited singleton" `Quick test_audit_expedited_singleton;
          Alcotest.test_case "a checked session send allocates nothing" `Quick
            test_audit_session_send_alloc;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_fuzz_srm;
          QCheck_alcotest.to_alcotest prop_fuzz_cesrm;
        ] );
      ("ablation", [ Alcotest.test_case "smoke" `Quick test_ablation_smoke ]);
    ]
