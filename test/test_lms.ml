(* Tests for the LMS baseline: replier designation, request routing,
   recovery behaviour, and staleness under churn. *)

let check = Alcotest.check

(* 0 - 1 - 3 (rcvr)
       \ 4 (rcvr)
     2 - 5 (rcvr)  *)
let sample_tree () = Net.Tree.of_parents [| -1; 0; 0; 1; 1; 2 |]

(* --- Routing ----------------------------------------------------------- *)

let test_designate () =
  let tree = sample_tree () in
  let repliers = Lms.Routing.designate tree ~alive:(fun _ -> true) in
  check Alcotest.int "router 1 gets nearest child receiver" 3 repliers.(1);
  check Alcotest.int "router 2 gets its receiver" 5 repliers.(2);
  check Alcotest.int "root gets some receiver" 3 repliers.(0);
  check Alcotest.int "leaves have none" (-1) repliers.(3)

let test_designate_respects_liveness () =
  let tree = sample_tree () in
  let repliers = Lms.Routing.designate tree ~alive:(fun r -> r <> 3) in
  check Alcotest.int "router 1 skips the dead receiver" 4 repliers.(1);
  let none_alive = Lms.Routing.designate tree ~alive:(fun r -> r = 5) in
  check Alcotest.int "router 1 has nobody" (-1) none_alive.(1);
  check Alcotest.int "router 2 unaffected" 5 none_alive.(2)

let test_route_basic () =
  let tree = sample_tree () in
  let repliers = Lms.Routing.designate tree ~alive:(fun _ -> true) in
  (* Receiver 4 walks up to router 1 whose replier (3) is outside 4's
     branch. *)
  check
    Alcotest.(option (pair int int))
    "4 turns at router 1 toward 3"
    (Some (1, 3))
    (Lms.Routing.route tree ~repliers ~from:4);
  (* Receiver 3 IS router 1's replier, so its requests pass through to
     the root: replier(0) = 3 is in 3's own branch... so the walk ends
     at the source. *)
  check
    Alcotest.(option (pair int int))
    "3 escalates to the source"
    (Some (0, 0))
    (Lms.Routing.route tree ~repliers ~from:3);
  (* Receiver 5: router 2's replier is 5 itself; at the root the
     replier (3) is in another branch. *)
  check
    Alcotest.(option (pair int int))
    "5 turns at the root toward 3"
    (Some (0, 3))
    (Lms.Routing.route tree ~repliers ~from:5);
  check Alcotest.bool "the source routes nowhere" true
    (Lms.Routing.route tree ~repliers ~from:0 = None)

let test_route_with_stale_state () =
  let tree = sample_tree () in
  let repliers = Lms.Routing.designate tree ~alive:(fun _ -> true) in
  (* Stale state still names 3 even if 3 is dead — routing follows the
     table, not liveness; that is the point of the churn experiment. *)
  check
    Alcotest.(option (pair int int))
    "stale table still routes to 3"
    (Some (1, 3))
    (Lms.Routing.route tree ~repliers ~from:4)

(* --- Protocol ------------------------------------------------------------ *)

let run_lms ?(tree = sample_tree ()) ?(drops = []) ?(crash = None) ~n_packets () =
  let engine = Sim.Engine.create ~seed:31L () in
  let network = Net.Network.create ~engine ~tree ~link_delay:0.02 () in
  Net.Network.set_drop network (fun ~link ~down (p : Net.Packet.t) ->
      match p.payload with
      | Net.Packet.Data { seq } -> down && List.mem (seq, link) drops
      | _ -> false);
  let proto = Lms.Proto.deploy ~network ~n_packets ~period:0.05 ~refresh_period:5.0 () in
  Lms.Proto.start proto ~warmup:2.0 ~tail:20.0;
  (match crash with
  | Some (node, at) ->
      ignore
        (Sim.Engine.schedule_at engine ~at (fun () -> Net.Network.set_enabled network node false))
  | None -> ());
  Sim.Engine.run ~until:400.0 engine;
  proto

let test_lms_single_loss () =
  let proto = run_lms ~drops:[ (5, 4) ] ~n_packets:10 () in
  let recs = Stats.Recovery.records (Lms.Proto.recoveries proto) in
  check Alcotest.int "recovered" 1 (List.length recs);
  let r = List.hd recs in
  check Alcotest.int "receiver 4" 4 r.node;
  (* Request goes 4 -> 1 -> 3 (replier), reply subcast from router 1:
     roughly two hops there, three hops back — far below SRM's
     suppression delays. *)
  check Alcotest.bool "router-directed recovery is fast" true
    (Stats.Recovery.latency r < 0.15);
  check Alcotest.int "one unicast request" 1
    (Stats.Counters.total (Lms.Proto.counters proto) Stats.Counters.Exp_rqst);
  check Alcotest.int "one subcast reply" 1
    (Stats.Counters.total (Lms.Proto.counters proto) Stats.Counters.Exp_repl)

let test_lms_shared_loss_forwarding () =
  (* Drop on link 1: receivers 3 and 4 both lose the packet; router 1's
     replier (3) shares the loss, so 4's request is re-forwarded out of
     the lossy subtree and both still recover. *)
  let proto = run_lms ~drops:[ (5, 1) ] ~n_packets:10 () in
  let recs = Stats.Recovery.records (Lms.Proto.recoveries proto) in
  check Alcotest.int "both recover" 2 (List.length recs)

let test_lms_all_lose () =
  let proto = run_lms ~drops:[ (5, 1); (5, 2) ] ~n_packets:10 () in
  check Alcotest.int "source repairs everyone" 3
    (Stats.Recovery.count (Lms.Proto.recoveries proto))

let test_lms_tail_loss () =
  let proto = run_lms ~drops:[ (10, 3) ] ~n_packets:10 () in
  check Alcotest.int "heartbeat reveals the tail loss" 1
    (Stats.Recovery.count (Lms.Proto.recoveries proto))

let test_lms_trace_completeness () =
  let gen = Mtrace.Generator.synthesize ~n_packets:1200 (Mtrace.Meta.nth 4) in
  let att = Inference.Attribution.infer ~rates:(Inference.Yajnik.estimate gen.trace) gen.trace in
  let tree = Mtrace.Trace.tree gen.trace in
  let engine = Sim.Engine.create ~seed:31L () in
  let network = Net.Network.create ~engine ~tree () in
  Net.Network.set_drop network (fun ~link ~down (p : Net.Packet.t) ->
      match p.payload with
      | Net.Packet.Data { seq } -> down && List.mem link (Inference.Attribution.cuts att ~seq)
      | _ -> false);
  let proto =
    Lms.Proto.deploy ~network ~n_packets:(Mtrace.Trace.n_packets gen.trace)
      ~period:(Mtrace.Trace.period gen.trace) ()
  in
  Lms.Proto.start proto ~warmup:5.0 ~tail:30.0;
  Sim.Engine.run ~until:1e6 engine;
  check Alcotest.int "all losses recovered" (Lms.Proto.detected proto)
    (Stats.Recovery.count (Lms.Proto.recoveries proto))

let test_lms_replier_crash_stalls_until_refresh () =
  (* Receiver 4 loses packets before and after its designated replier
     (3) crashes. The loss after the crash stalls until either the
     retry escalation or the 5 s refresh re-designates. *)
  let crash_at = 2.0 +. 0.3 in
  let proto =
    run_lms
      ~drops:[ (3, 4); (9, 4) ] (* seq 3 ~ t=2.1 (before); seq 9 ~ t=2.4+ (after) *)
      ~crash:(Some (3, crash_at)) ~n_packets:10 ()
  in
  let recs = Stats.Recovery.records (Lms.Proto.recoveries proto) in
  let find seq = List.find (fun (r : Stats.Recovery.record) -> r.seq = seq) recs in
  let before = find 3 and after = find 9 in
  check Alcotest.bool "pre-crash recovery is fast" true (Stats.Recovery.latency before < 0.15);
  check Alcotest.bool "post-crash recovery stalls" true (Stats.Recovery.latency after > 0.3);
  check Alcotest.int "nothing is lost forever" 2 (List.length recs)

(* The claim the bench's churn table exists for (paper Sections 3.3
   and 5): once the busiest replier crashes, LMS's recovery stalls
   until its router state is refreshed, while CESRM falls back on SRM
   and re-learns a live pair — and no surviving receiver is left with
   a loss it never recovered. *)
let test_churn_lms_stalls_cesrm_recovers () =
  let _, outcomes = Harness.Churn.outcomes ~n_packets:200 (Mtrace.Meta.nth 7) in
  let worst_after label =
    (List.find (fun (o : Harness.Churn.outcome) -> o.label = label) outcomes).after.max_latency
  in
  check Alcotest.bool "LMS's worst post-crash recovery is at least 5x CESRM's" true
    (worst_after "LMS" >= 5. *. worst_after "CESRM");
  List.iter
    (fun (o : Harness.Churn.outcome) ->
      check Alcotest.int (o.label ^ ": surviving receivers recover every loss") 0
        o.unrecovered_alive)
    outcomes

let () =
  Alcotest.run "lms"
    [
      ( "routing",
        [
          Alcotest.test_case "designate" `Quick test_designate;
          Alcotest.test_case "designate liveness" `Quick test_designate_respects_liveness;
          Alcotest.test_case "route basic" `Quick test_route_basic;
          Alcotest.test_case "route with stale state" `Quick test_route_with_stale_state;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "single loss" `Quick test_lms_single_loss;
          Alcotest.test_case "shared loss forwarding" `Quick test_lms_shared_loss_forwarding;
          Alcotest.test_case "all lose" `Quick test_lms_all_lose;
          Alcotest.test_case "tail loss" `Quick test_lms_tail_loss;
          Alcotest.test_case "trace completeness" `Quick test_lms_trace_completeness;
        ] );
      ( "churn",
        [
          Alcotest.test_case "replier crash stalls" `Quick
            test_lms_replier_crash_stalls_until_refresh;
          Alcotest.test_case "crash: LMS stalls, CESRM recovers" `Quick
            test_churn_lms_stalls_cesrm_recovers;
        ] );
    ]
