(* Tests for the SRM baseline: parameters, session distance estimation,
   loss detection, request/reply scheduling, suppression, back-off, and
   end-to-end recovery. *)

let check = Alcotest.check

let params = Srm.Params.default

(* 0 - 1 - 3 (rcvr)
       \ 4 (rcvr)
     2 - 5 (rcvr)  *)
let sample_tree () = Net.Tree.of_parents [| -1; 0; 0; 1; 1; 2 |]

(* Deploy SRM over [tree], dropping data packet [seq] on link [l] for
   every (seq, l) in [drops]; returns the finished deployment. *)
let run_srm ?(tree = sample_tree ()) ?(drops = []) ?(drop_requests = 0) ~n_packets () =
  let engine = Sim.Engine.create ~seed:99L () in
  let network = Net.Network.create ~engine ~tree ~link_delay:0.02 () in
  let dropped_requests = ref drop_requests in
  Net.Network.set_drop network (fun ~link ~down (p : Net.Packet.t) ->
      match p.payload with
      | Net.Packet.Data { seq } -> down && List.mem (seq, link) drops
      | Net.Packet.Request _ ->
          if !dropped_requests > 0 then begin
            decr dropped_requests;
            true
          end
          else false
      | _ -> false);
  let proto = Srm.Proto.deploy ~network ~params ~n_packets ~period:0.05 () in
  Srm.Proto.start proto ~warmup:5.0 ~tail:15.0;
  Sim.Engine.run ~until:120.0 engine;
  proto

let test_params () =
  check Alcotest.bool "default valid" true (Result.is_ok (Srm.Params.validate params));
  check Alcotest.bool "negative weight rejected" true
    (Result.is_error (Srm.Params.validate { params with c1 = -1. }));
  check Alcotest.bool "zero session period rejected" true
    (Result.is_error (Srm.Params.validate { params with session_period = 0. }));
  check Alcotest.bool "bad round cap rejected" true
    (Result.is_error (Srm.Params.validate { params with max_rounds = 0 }))

let test_session_distances_converge () =
  let proto = run_srm ~n_packets:1 () in
  let network = Srm.Proto.network proto in
  List.iter
    (fun (node, host) ->
      List.iter
        (fun (peer, _) ->
          if peer <> node then begin
            let est = Srm.Host.dist_to host peer in
            let true_d = Net.Network.dist network node peer in
            if Float.abs (est -. true_d) > 1e-6 then
              Alcotest.failf "distance %d->%d: est %.4f true %.4f" node peer est true_d
          end)
        (Srm.Proto.members proto))
    (Srm.Proto.members proto)

let test_single_loss_recovery () =
  let proto = run_srm ~drops:[ (5, 3) ] ~n_packets:10 () in
  let recs = Stats.Recovery.records (Srm.Proto.recoveries proto) in
  check Alcotest.int "one recovery" 1 (List.length recs);
  let r = List.hd recs in
  check Alcotest.int "receiver 3" 3 r.node;
  check Alcotest.int "seq 5" 5 r.seq;
  check Alcotest.bool "not expedited (plain SRM)" false r.expedited;
  (* d_hs = 0.04; worst case: request at (C1+C2)·d, one way 0.04, reply
     timer (D1+D2)·d_rq with d_rq <= 0.08, one way back, plus
     serialization. *)
  let lat = Stats.Recovery.latency r in
  check Alcotest.bool "latency positive" true (lat > 0.04);
  check Alcotest.bool "latency bounded" true (lat < 0.6);
  check Alcotest.int "exactly one request" 1
    (Stats.Counters.total (Srm.Proto.counters proto) Stats.Counters.Rqst)

let test_shared_loss_suppression () =
  (* Drop packet 5 on link 1: receivers 3 and 4 both lose it. Requests
     should be suppressed to far fewer than one per receiver, and both
     must recover. *)
  let proto = run_srm ~drops:[ (5, 1) ] ~n_packets:10 () in
  let recs = Stats.Recovery.records (Srm.Proto.recoveries proto) in
  check Alcotest.int "both recover" 2 (List.length recs);
  (* Two sharers can each fire round 0 before hearing the other, and a
     round-1 timer can race the reply; suppression still keeps the
     count well below max_rounds per sharer. *)
  let requests = Stats.Counters.total (Srm.Proto.counters proto) Stats.Counters.Rqst in
  check Alcotest.bool "suppression bounds requests" true (requests >= 1 && requests <= 4)

let test_source_replies_when_all_lose () =
  (* Drop packet 5 on links 1 and 2: every receiver loses it; only the
     source can retransmit. *)
  let proto = run_srm ~drops:[ (5, 1); (5, 2) ] ~n_packets:10 () in
  let recs = Stats.Recovery.records (Srm.Proto.recoveries proto) in
  check Alcotest.int "all three recover" 3 (List.length recs);
  let source_replies =
    Stats.Counters.get (Srm.Proto.counters proto) ~node:0 Stats.Counters.Repl
  in
  check Alcotest.bool "source retransmitted" true (source_replies >= 1)

let test_request_backoff_on_dropped_request () =
  (* Eat the first few request transmissions: the requestor must back
     off and the recovery must complete in a later round. *)
  let proto = run_srm ~drops:[ (5, 3) ] ~drop_requests:6 ~n_packets:10 () in
  let recs = Stats.Recovery.records (Srm.Proto.recoveries proto) in
  check Alcotest.int "recovered eventually" 1 (List.length recs);
  let r = List.hd recs in
  check Alcotest.bool "took more than one round" true (r.rounds >= 2)

let test_tail_loss_detected_via_session () =
  (* Drop the final packet for receiver 3: no later data packet reveals
     the gap, so only session max-seq announcements can. *)
  let proto = run_srm ~drops:[ (10, 3) ] ~n_packets:10 () in
  let recs = Stats.Recovery.records (Srm.Proto.recoveries proto) in
  check Alcotest.int "tail loss recovered" 1 (List.length recs);
  check Alcotest.int "it was the last packet" 10 (List.hd recs).seq

let test_burst_loss_recovery () =
  let drops = List.init 5 (fun i -> (i + 3, 3)) in
  let proto = run_srm ~drops ~n_packets:12 () in
  let recs = Stats.Recovery.records (Srm.Proto.recoveries proto) in
  check Alcotest.int "all five recovered" 5 (List.length recs);
  check Alcotest.(list int) "the right packets" [ 3; 4; 5; 6; 7 ]
    (List.sort compare (List.map (fun (r : Stats.Recovery.record) -> r.seq) recs))

(* --- white-box host behaviour ---------------------------------------- *)

let make_host ?(self = 3) () =
  let tree = sample_tree () in
  let engine = Sim.Engine.create ~seed:5L () in
  let network = Net.Network.create ~engine ~tree ~link_delay:0.02 () in
  let counters = Stats.Counters.create ~n_nodes:(Net.Tree.n_nodes tree) in
  let recoveries = Stats.Recovery.create () in
  let host = Srm.Host.create ~network ~self ~params ~n_packets:100 ~counters ~recoveries () in
  (engine, network, host)

let test_host_gap_detection () =
  let _, _, host = make_host () in
  Srm.Host.on_packet host { Net.Packet.sender = 0; payload = Net.Packet.Data { seq = 3 } };
  check Alcotest.int "gaps detected" 2 (Srm.Host.detected_losses host);
  check Alcotest.int "requests pending" 2 (Srm.Host.pending_requests host);
  check Alcotest.bool "has 3" true (Srm.Host.has_packet host ~seq:3);
  check Alcotest.bool "missing 1" false (Srm.Host.has_packet host ~seq:1);
  check Alcotest.bool "suffered 1" true (Srm.Host.suffered_loss host ~seq:1);
  check Alcotest.int "max seq" 3 (Srm.Host.max_seq_seen host);
  (* Duplicate data is idempotent. *)
  Srm.Host.on_packet host { Net.Packet.sender = 0; payload = Net.Packet.Data { seq = 3 } };
  check Alcotest.int "no double detection" 2 (Srm.Host.detected_losses host)

let test_host_overheard_request_backs_off () =
  let _, _, host = make_host () in
  Srm.Host.on_packet host { Net.Packet.sender = 0; payload = Net.Packet.Data { seq = 2 } };
  check Alcotest.(option int) "initial round 0" (Some 0) (Srm.Host.request_round host ~seq:1);
  Srm.Host.on_packet host
    { Net.Packet.sender = 4; payload = Net.Packet.Request { src = 0; seq = 1; requestor = 4; d_qs = 0.04; round = 0 } };
  check Alcotest.(option int) "backed off to round 1" (Some 1)
    (Srm.Host.request_round host ~seq:1);
  (* Within the back-off abstinence period a second request is ignored. *)
  Srm.Host.on_packet host
    { Net.Packet.sender = 5; payload = Net.Packet.Request { src = 0; seq = 1; requestor = 5; d_qs = 0.04; round = 0 } };
  check Alcotest.(option int) "abstinence holds" (Some 1) (Srm.Host.request_round host ~seq:1)

let test_host_request_triggers_detection () =
  (* A request for a packet we never saw reveals both the packet's
     existence and our loss; we join at round 1 (suppressed). *)
  let _, _, host = make_host () in
  Srm.Host.on_packet host
    { Net.Packet.sender = 4; payload = Net.Packet.Request { src = 0; seq = 7; requestor = 4; d_qs = 0.04; round = 0 } };
  check Alcotest.int "all 7 losses detected" 7 (Srm.Host.detected_losses host);
  check Alcotest.(option int) "the requested one joined backed-off" (Some 1)
    (Srm.Host.request_round host ~seq:7)

let test_host_reply_recovers_and_cancels () =
  let _, _, host = make_host () in
  Srm.Host.on_packet host { Net.Packet.sender = 0; payload = Net.Packet.Data { seq = 2 } };
  Srm.Host.on_packet host
    {
      Net.Packet.sender = 4;
      payload =
        Net.Packet.Reply
          {
            src = 0;
            seq = 1;
            requestor = 4;
            d_qs = 0.04;
            replier = 5;
            d_rq = 0.08;
            expedited = false;
            turning_point = None;
          };
    };
  check Alcotest.bool "recovered" true (Srm.Host.has_packet host ~seq:1);
  check Alcotest.int "request cancelled" 0 (Srm.Host.pending_requests host)

let test_host_send_reply_now_abstinence () =
  let _, _, host = make_host () in
  Srm.Host.note_sent host ~seq:1;
  let sent = Srm.Host.send_reply_now host ~seq:1 ~requestor:4 ~d_qs:0.04 ~expedited:true () in
  check Alcotest.bool "first reply sent" true sent;
  let again = Srm.Host.send_reply_now host ~seq:1 ~requestor:4 ~d_qs:0.04 ~expedited:true () in
  check Alcotest.bool "second blocked by abstinence" false again;
  check Alcotest.bool "blocked query agrees" true (Srm.Host.reply_blocked host ~seq:1);
  let missing = Srm.Host.send_reply_now host ~seq:9 ~requestor:4 ~d_qs:0.04 ~expedited:true () in
  check Alcotest.bool "cannot reply without the packet" false missing

let test_host_hooks_fire () =
  let _, _, host = make_host () in
  let detected = ref [] and obtained = ref [] in
  let hooks = Srm.Host.hooks host in
  hooks.on_loss_detected <- (fun ~src:_ ~seq -> detected := seq :: !detected);
  hooks.on_packet_obtained <- (fun ~src:_ ~seq ~expedited:_ -> obtained := seq :: !obtained);
  Srm.Host.on_packet host { Net.Packet.sender = 0; payload = Net.Packet.Data { seq = 3 } };
  check Alcotest.(list int) "losses hooked" [ 1; 2 ] (List.sort compare !detected);
  check Alcotest.(list int) "data hooked" [ 3 ] !obtained

(* --- churn-safe host state (depart / join / forget_peer) -------------- *)

let test_host_depart_forgives_pending () =
  let _, _, host = make_host () in
  Srm.Host.on_packet host { Net.Packet.sender = 0; payload = Net.Packet.Data { seq = 3 } };
  check Alcotest.int "two losses pending" 2 (Srm.Host.pending_requests host);
  check Alcotest.int "depart forgives exactly the pending losses" 2 (Srm.Host.depart host);
  check Alcotest.int "no requests left armed" 0 (Srm.Host.pending_requests host);
  check Alcotest.int "the cumulative detection stat survives" 2
    (Srm.Host.detected_losses host);
  check Alcotest.int "a second depart has nothing to forgive" 0 (Srm.Host.depart host)

let test_host_join_baselines_detection () =
  let _, _, host = make_host () in
  (* the runner baselines a joiner at the packets already sent: they
     count as delivered, never as losses *)
  Srm.Host.join host ~baselines:[ (0, 5) ];
  check Alcotest.bool "baselined packets count as delivered" true
    (Srm.Host.has_packet host ~seq:5);
  Srm.Host.on_packet host { Net.Packet.sender = 0; payload = Net.Packet.Data { seq = 7 } };
  check Alcotest.int "only the post-join gap is detected" 1 (Srm.Host.detected_losses host);
  check Alcotest.int "one pending request (seq 6)" 1 (Srm.Host.pending_requests host);
  check Alcotest.bool "seq 6 is the suffered loss" true (Srm.Host.suffered_loss host ~seq:6);
  (* re-baselining lower never regresses the window (idempotent max) *)
  Srm.Host.join host ~baselines:[ (0, 3) ];
  check Alcotest.bool "baseline is monotone" true (Srm.Host.has_packet host ~seq:5)

let test_host_forget_peer_drops_estimate () =
  let proto = run_srm ~n_packets:1 () in
  let host = Srm.Proto.host proto 3 in
  let network = Srm.Proto.network proto in
  check (Alcotest.float 1e-6) "estimate converged before the leave"
    (Net.Network.dist network 3 5) (Srm.Host.dist_to host 5);
  Srm.Host.forget_peer host 5;
  check (Alcotest.float 1e-9) "forgotten peer falls back to the 1 s default" 1.0
    (Srm.Host.dist_to host 5);
  check (Alcotest.float 1e-6) "other peers keep their estimates"
    (Net.Network.dist network 3 4) (Srm.Host.dist_to host 4)

let test_host_departed_ignores_parked_evidence () =
  (* Session-triggered detection defers through an anonymous grace
     timer; one parked before a departure fires on the wiped host and
     must not charge it for the whole advertised prefix. *)
  let session_advert =
    {
      Net.Packet.sender = 4;
      payload =
        Net.Packet.Session { origin = 4; sent_at = 0.; max_seqs = [ (0, 12) ]; echoes = [] };
    }
  in
  (* Positive control: on a member the deferred timer detects the
     advertised prefix. *)
  let engine, _, host = make_host () in
  Srm.Host.on_packet host session_advert;
  Sim.Engine.run engine;
  check Alcotest.int "a member detects the advertised prefix" 12
    (Srm.Host.detected_losses host);
  (* The same parked timer finds a departed host and detects nothing. *)
  let engine, _, host = make_host () in
  Srm.Host.on_packet host session_advert;
  ignore (Srm.Host.depart host);
  Sim.Engine.run engine;
  check Alcotest.int "a departed host detects nothing" 0 (Srm.Host.detected_losses host);
  check Alcotest.int "and arms no requests" 0 (Srm.Host.pending_requests host)

let test_adaptive_controller () =
  let check = Alcotest.check in
  let a = Srm.Adaptive.create ~initial:Srm.Params.default in
  check (Alcotest.float 1e-9) "starts at C1" 2. (Srm.Adaptive.c1 a);
  check (Alcotest.float 1e-9) "starts at C2" 2. (Srm.Adaptive.c2 a);
  (* Sustained duplicates push both parameters up. *)
  for _ = 1 to 20 do
    Srm.Adaptive.note_request_cycle a ~dups:3 ~delay_in_d:1.0
  done;
  check Alcotest.bool "C1 grew" true (Srm.Adaptive.c1 a > 2.);
  check Alcotest.bool "C2 grew" true (Srm.Adaptive.c2 a > 2.);
  (* No duplicates and high delay pull them back down. *)
  for _ = 1 to 60 do
    Srm.Adaptive.note_request_cycle a ~dups:0 ~delay_in_d:3.0
  done;
  check Alcotest.bool "C2 shrank below its peak" true (Srm.Adaptive.c2 a < 8.);
  check Alcotest.bool "C1 bounded below" true (Srm.Adaptive.c1 a >= 0.5);
  (* Clamps hold under pathological pressure. *)
  for _ = 1 to 500 do
    Srm.Adaptive.note_reply_cycle a ~dups:10 ~delay_in_d:0.1
  done;
  check Alcotest.bool "D1 clamped" true (Srm.Adaptive.d1 a <= 6.);
  check Alcotest.bool "D2 clamped" true (Srm.Adaptive.d2 a <= 8.)

let test_adaptive_run_completes () =
  let gen = Mtrace.Generator.synthesize ~n_packets:1200 (Mtrace.Meta.nth 4) in
  let att = Harness.Runner.attribution_of_trace gen.trace in
  let setup =
    { Harness.Runner.default_setup with params = { Srm.Params.default with adaptive = true } }
  in
  let res = Harness.Runner.run_model ~setup Harness.Runner.Srm_protocol gen.trace (Harness.Runner.Attributed att) in
  Alcotest.check Alcotest.int "adaptive SRM recovers everything" 0 res.unrecovered

let test_multi_source_recovery () =
  (* A second stream originating at receiver 5; receiver 3 loses
     packets from both streams and recovers both, with per-stream
     state kept apart. *)
  let engine = Sim.Engine.create ~seed:99L () in
  let network = Net.Network.create ~engine ~tree:(sample_tree ()) ~link_delay:0.02 () in
  Net.Network.set_drop network (fun ~link ~down (p : Net.Packet.t) ->
      match (p.payload, p.sender) with
      | Net.Packet.Data { seq }, 0 -> down && link = 3 && seq = 5
      | Net.Packet.Data { seq }, 5 -> down && link = 3 && seq = 8
      | _ -> false);
  let proto = Srm.Proto.deploy ~network ~params ~n_packets:15 ~period:0.05 () in
  Srm.Proto.start proto ~warmup:5.0 ~tail:15.0;
  Srm.Proto.add_stream proto ~src:5 ~n_packets:15 ~period:0.05 ~start_at:5.2;
  Sim.Engine.run ~until:120.0 engine;
  let recs = Stats.Recovery.records (Srm.Proto.recoveries proto) in
  let find src = List.find (fun (r : Stats.Recovery.record) -> r.src = src) recs in
  check Alcotest.int "two recoveries" 2 (List.length recs);
  check Alcotest.int "stream 0's loss" 5 (find 0).seq;
  check Alcotest.int "stream 5's loss" 8 (find 5).seq;
  let host3 = Srm.Proto.host proto 3 in
  check Alcotest.bool "per-stream reception state" true
    (Srm.Host.has_packet ~src:0 host3 ~seq:5 && Srm.Host.has_packet ~src:5 host3 ~seq:8);
  check Alcotest.int "stream 5 max seq" 15 (Srm.Host.max_seq_seen ~src:5 host3)

let test_full_trace_completeness () =
  (* Integration: a generated trace has every detected loss repaired. *)
  let gen = Mtrace.Generator.synthesize ~n_packets:1500 (Mtrace.Meta.nth 4) in
  let att = Harness.Runner.attribution_of_trace gen.trace in
  let res = Harness.Runner.run_model Harness.Runner.Srm_protocol gen.trace (Harness.Runner.Attributed att) in
  check Alcotest.int "no unrecovered losses" 0 res.unrecovered;
  check Alcotest.bool "plenty recovered" true (Stats.Recovery.count res.recoveries > 100)

let () =
  Alcotest.run "srm"
    [
      ("params", [ Alcotest.test_case "validation" `Quick test_params ]);
      ( "session",
        [ Alcotest.test_case "distances converge" `Quick test_session_distances_converge ] );
      ( "recovery",
        [
          Alcotest.test_case "single loss" `Quick test_single_loss_recovery;
          Alcotest.test_case "shared loss suppression" `Quick test_shared_loss_suppression;
          Alcotest.test_case "source replies" `Quick test_source_replies_when_all_lose;
          Alcotest.test_case "request back-off" `Quick test_request_backoff_on_dropped_request;
          Alcotest.test_case "tail loss via session" `Quick test_tail_loss_detected_via_session;
          Alcotest.test_case "burst loss" `Quick test_burst_loss_recovery;
        ] );
      ( "host",
        [
          Alcotest.test_case "gap detection" `Quick test_host_gap_detection;
          Alcotest.test_case "overheard request backs off" `Quick
            test_host_overheard_request_backs_off;
          Alcotest.test_case "request triggers detection" `Quick
            test_host_request_triggers_detection;
          Alcotest.test_case "reply recovers and cancels" `Quick
            test_host_reply_recovers_and_cancels;
          Alcotest.test_case "reply-now abstinence" `Quick test_host_send_reply_now_abstinence;
          Alcotest.test_case "hooks fire" `Quick test_host_hooks_fire;
        ] );
      ( "churn",
        [
          Alcotest.test_case "depart forgives pending losses" `Quick
            test_host_depart_forgives_pending;
          Alcotest.test_case "join baselines detection" `Quick
            test_host_join_baselines_detection;
          Alcotest.test_case "forget_peer drops the estimate" `Quick
            test_host_forget_peer_drops_estimate;
          Alcotest.test_case "departed host ignores parked evidence" `Quick
            test_host_departed_ignores_parked_evidence;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "controller" `Quick test_adaptive_controller;
          Alcotest.test_case "adaptive run completes" `Quick test_adaptive_run_completes;
        ] );
      ( "integration",
        [
          Alcotest.test_case "trace completeness" `Quick test_full_trace_completeness;
          Alcotest.test_case "multi-source recovery" `Quick test_multi_source_recovery;
        ] );
    ]
