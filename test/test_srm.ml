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
    (Result.is_error (Srm.Params.validate { params with session_period = 0. }))

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

let make_host ?(self = 3) ?(n_packets = 100) () =
  let tree = sample_tree () in
  let engine = Sim.Engine.create ~seed:5L () in
  let network = Net.Network.create ~engine ~tree ~link_delay:0.02 () in
  let counters = Stats.Counters.create ~n_nodes:(Net.Tree.n_nodes tree) in
  let recoveries = Stats.Recovery.create () in
  let host =
    Srm.Host.create ~network ~self ~params ~n_packets ~period:0.05 ~counters ~recoveries ()
  in
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

(* --- the delivery window against a reference model -------------------- *)

(* Random add / retire / baseline / max-seq sequences over one stream;
   after every step the window must agree with a bool array plus an
   explicit floor. [Extend k] adds the [k] seqs above the current
   prefix in descending order, so runs close gaps and walk the prefix
   far; streams past 4096 packets exercise window growth. *)
type window_op =
  | Add of int
  | Extend of int
  | Retire of int
  | Baseline of int
  | Note of int

let show_window_op = function
  | Add s -> Printf.sprintf "add %d" s
  | Extend k -> Printf.sprintf "extend %d" k
  | Retire u -> Printf.sprintf "retire %d" u
  | Baseline u -> Printf.sprintf "baseline %d" u
  | Note m -> Printf.sprintf "note %d" m

let window_case (n, ops) =
  let w = Srm.Window.create ~n_packets:n in
  let have = Array.make (n + 1) false and floor = ref 0 and max_seq = ref 0 in
  let mem s = s <= !floor || have.(s) in
  let prefix () =
    let p = ref 0 in
    while !p < n && mem (!p + 1) do
      incr p
    done;
    !p
  in
  List.iteri
    (fun step op ->
      (match op with
      | Add s ->
          Srm.Window.add w ~seq:s;
          have.(s) <- true
      | Extend k ->
          let p = prefix () in
          for s = min n (p + k) downto p + 1 do
            Srm.Window.add w ~seq:s;
            have.(s) <- true
          done
      | Retire u ->
          Srm.Window.retire_below w ~upto:u;
          floor := max !floor (min u (prefix ()))
      | Baseline u ->
          Srm.Window.baseline w ~upto:u;
          floor := max !floor u;
          max_seq := max !max_seq u
      | Note m ->
          Srm.Window.note_max_seq w m;
          max_seq := max !max_seq m);
      let fail what got want =
        QCheck.Test.fail_reportf "step %d (%s): %s = %d, model %d" step (show_window_op op) what
          got want
      in
      if Srm.Window.base w <> !floor then fail "base" (Srm.Window.base w) !floor;
      if Srm.Window.prefix w <> prefix () then fail "prefix" (Srm.Window.prefix w) (prefix ());
      if Srm.Window.max_seq w <> !max_seq then fail "max_seq" (Srm.Window.max_seq w) !max_seq;
      for s = 1 to n do
        if Srm.Window.mem w ~seq:s <> mem s then
          fail (Printf.sprintf "mem %d" s) (Bool.to_int (Srm.Window.mem w ~seq:s))
            (Bool.to_int (mem s))
      done)
    ops;
  true

let window_model =
  let gen =
    QCheck.Gen.(
      oneof [ int_range 1 80; int_range 4000 9000 ] >>= fun n ->
      let seq = int_range 1 n in
      let op =
        frequency
          [
            (4, map (fun s -> Add s) seq);
            (3, map (fun k -> Extend k) (oneof [ int_range 1 8; int_range 1 5000 ]));
            (2, map (fun u -> Retire u) seq);
            (1, map (fun u -> Baseline u) seq);
            (1, map (fun m -> Note m) seq);
          ]
      in
      map (fun ops -> (n, ops)) (list_size (int_range 1 40) op))
  in
  let print (n, ops) =
    Printf.sprintf "n=%d: %s" n (String.concat "; " (List.map show_window_op ops))
  in
  QCheck.Test.make ~count:200 ~name:"window agrees with a bool-array model"
    (QCheck.make ~print gen) window_case

(* --- the reply table against a Hashtbl model ------------------------- *)

type reply_row = {
  timer : Sim.Engine.timer;
  requestor : int;
  round : int;
  d_qs : float;
  delay_norm : float;
  abstain : float;
  replied : float;
}

let blank_row =
  {
    timer = Sim.Engine.no_timer;
    requestor = 0;
    round = 0;
    d_qs = 0.;
    delay_norm = 0.;
    abstain = Float.nan;
    replied = Float.nan;
  }

type reply_op =
  | R_add of int
  | R_update of int * int (* key, seed of the column values *)
  | R_remove of int
  | R_filter of int * int (* drop keys with [key mod m = j]; restamp the rest *)
  | R_reset
  | R_iter

let show_reply_op = function
  | R_add k -> Printf.sprintf "add %d" k
  | R_update (k, v) -> Printf.sprintf "update %d <- %d" k v
  | R_remove k -> Printf.sprintf "remove %d" k
  | R_filter (m, j) -> Printf.sprintf "filter mod %d <> %d" m j
  | R_reset -> "reset"
  | R_iter -> "iter"

(* Ninety-six fixed keys spread like hashed ones. Consecutive packed
   keys land almost without collisions under the table's Fibonacci
   hash, so a range like 0..95 would rarely build a long probe chain or
   one that wraps past the last slot; random keys do both often. *)
let reply_keys =
  let rng = Random.State.make [| 2026 |] in
  Array.init 96 (fun _ -> Random.State.bits rng lor (Random.State.bits rng lsl 30))

(* Real handles (the column's type admits no others), scheduled once. *)
let reply_handles =
  let e = Sim.Engine.create () in
  Array.init 7 (fun i -> Sim.Engine.schedule e ~after:(float_of_int i) ignore)

let row_of_seed v =
  {
    timer = (if v mod 4 = 0 then Sim.Engine.no_timer else reply_handles.(v mod 7));
    requestor = v;
    round = 3 * v;
    d_qs = float_of_int v /. 2.;
    delay_norm = float_of_int v /. 3.;
    abstain = (if v mod 3 = 0 then Float.nan else float_of_int v);
    replied = (if v mod 5 = 0 then Float.nan else float_of_int (-v));
  }

let read_row (l : Srm.Reply_table.t) r =
  {
    timer = l.timer.(r);
    requestor = l.requestor.(r);
    round = l.round.(r);
    d_qs = l.d_qs.(r);
    delay_norm = l.delay_norm.(r);
    abstain = l.abstain.(r);
    replied = l.replied.(r);
  }

let write_row (l : Srm.Reply_table.t) r row =
  l.timer.(r) <- row.timer;
  l.requestor.(r) <- row.requestor;
  l.round.(r) <- row.round;
  l.d_qs.(r) <- row.d_qs;
  l.delay_norm.(r) <- row.delay_norm;
  l.abstain.(r) <- row.abstain;
  l.replied.(r) <- row.replied

let same_row a b =
  a.timer = b.timer && a.requestor = b.requestor && a.round = b.round
  && Float.equal a.d_qs b.d_qs
  && Float.equal a.delay_norm b.delay_norm
  && Float.equal a.abstain b.abstain
  && Float.equal a.replied b.replied

(* The model's disposable rows are the ones with an odd [round]: the
   table may drop them whenever it inserts, and must keep every other
   row. *)
let disposable_row row = row.round land 1 = 1

let reply_table_case ops =
  let l = Srm.Reply_table.create ~disposable:(fun l r -> l.round.(r) land 1 = 1) 4
  and model = Hashtbl.create 16 in
  List.iteri
    (fun step op ->
      let fail fmt =
        Printf.ksprintf
          (fun msg -> QCheck.Test.fail_reportf "step %d (%s): %s" step (show_reply_op op) msg)
          fmt
      in
      (match op with
      | R_add k ->
          let r = Srm.Reply_table.add l k in
          if not (Hashtbl.mem model k) then begin
            if not (same_row (read_row l r) blank_row) then fail "new row is not blank";
            Hashtbl.replace model k blank_row
          end
      | R_update (k, v) ->
          let r = Srm.Reply_table.find l k in
          if r >= 0 then begin
            write_row l r (row_of_seed v);
            Hashtbl.replace model k (row_of_seed v)
          end
      | R_remove k ->
          Srm.Reply_table.remove l k;
          Hashtbl.remove model k
      | R_filter (m, j) ->
          let offered = Hashtbl.create 16 in
          Srm.Reply_table.filter l (fun r ->
              let k = l.keys.(r) in
              if Hashtbl.mem offered k then fail "key %d offered twice" k;
              Hashtbl.replace offered k ();
              if k mod m = j then false
              else begin
                l.abstain.(r) <- float_of_int (k * 10);
                true
              end);
          if Hashtbl.length offered <> Hashtbl.length model then
            fail "offered %d rows of %d" (Hashtbl.length offered) (Hashtbl.length model);
          Hashtbl.filter_map_inplace
            (fun k row ->
              if k mod m = j then None else Some { row with abstain = float_of_int (k * 10) })
            model
      | R_reset ->
          Srm.Reply_table.reset l;
          Hashtbl.reset model
      | R_iter ->
          let seen = ref [] in
          Srm.Reply_table.iter l (fun r -> seen := l.keys.(r) :: !seen);
          let want = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) model []) in
          if List.sort compare !seen <> want then fail "iter visits the wrong keys");
      Array.iter
        (fun k ->
          let r = Srm.Reply_table.find l k in
          match Hashtbl.find_opt model k with
          | None -> if r >= 0 then fail "key %d found at row %d but absent" k r
          | Some row ->
              if r < 0 then
                if disposable_row row then Hashtbl.remove model k else fail "key %d lost" k
              else if l.keys.(r) <> k then fail "key %d found at a row holding %d" k l.keys.(r)
              else if not (same_row (read_row l r) row) then fail "key %d: columns differ" k)
        reply_keys;
      if l.count <> Hashtbl.length model then
        fail "count %d, model %d" l.count (Hashtbl.length model))
    ops;
  true

let reply_table_model =
  let gen =
    QCheck.Gen.(
      let key = map (fun i -> reply_keys.(i)) (int_range 0 (Array.length reply_keys - 1)) in
      let op =
        frequency
          [
            (8, map (fun k -> R_add k) key);
            (4, map2 (fun k v -> R_update (k, v)) key (int_range 0 1000));
            (4, map (fun k -> R_remove k) key);
            (1, map2 (fun m j -> R_filter (m, j mod m)) (int_range 2 5) (int_range 0 4));
            (1, return R_iter);
            (1, frequency [ (1, return R_reset); (9, return R_iter) ]);
          ]
      in
      list_size (int_range 1 300) op)
  in
  let print ops = String.concat "; " (List.map show_reply_op ops) in
  QCheck.Test.make ~count:300 ~name:"reply table agrees with a Hashtbl model"
    (QCheck.make ~print gen) reply_table_case

(* [Gc.allocated_bytes] is exact only right after a minor collection:
   on OCaml 5.1 it counts an eighth of the young generation's
   allocation until the next collection corrects it. *)
let allocated f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  f ();
  Gc.minor ();
  Gc.allocated_bytes () -. before

(* In-order data with no loss pending changes only the reception
   window: the stream lookups allocate no [Some], so the one box left
   is the arrival time stored into the stream's mixed record. *)
let test_host_in_order_data_alloc () =
  let n = 2000 in
  let _, _, host = make_host ~n_packets:(n + 1) () in
  let data =
    Array.init (n + 1) (fun i ->
        { Net.Packet.sender = 0; payload = Net.Packet.Data { seq = i + 1 } })
  in
  Srm.Host.on_packet host data.(0);
  let deliver () =
    for i = 1 to n do
      Srm.Host.on_packet host data.(i)
    done
  in
  let per_call = (allocated deliver -. allocated ignore) /. float_of_int n in
  check Alcotest.int "no loss detected" 0 (Srm.Host.detected_losses host);
  if per_call > 16. then
    Alcotest.failf "on_packet allocated %.1f B per in-order data packet" per_call

(* A host holding packets 1..n of stream 0, for the recovery-path
   guards below. *)
let host_with_packets n =
  let engine, _, host = make_host ~n_packets:n () in
  for seq = 1 to n do
    Srm.Host.note_sent host ~seq
  done;
  (engine, host)

let request_for seq =
  {
    Net.Packet.sender = 4;
    payload = Net.Packet.Request { src = 0; seq; requestor = 4; d_qs = 0.04; round = 0 };
  }

let reply_for seq =
  {
    Net.Packet.sender = 5;
    payload =
      Net.Packet.Reply
        {
          src = 0;
          seq;
          requestor = 4;
          d_qs = 0.04;
          replier = 5;
          d_rq = 0.08;
          expedited = false;
          turning_point = None;
        };
  }

(* Move the clock to [at] by running an empty event there: every
   cancelled timer's tombstone is swept on the way, so its slot is
   free again. *)
let advance engine ~at =
  ignore (Sim.Engine.schedule_at engine ~at ignore);
  Sim.Engine.run engine

(* The suppression exchange at a replier: a request arms the reply
   timer, and another member's reply cancels it and opens the reply
   abstinence. A warm pass sizes the host's tables and the engine's
   slots; the measured pass repeats it over the same keys once every
   abstinence horizon has passed, so each request schedules again. At
   most one reply is ever pending. *)
let test_host_suppressed_reply_alloc () =
  let n = 2000 in
  let engine, host = host_with_packets n in
  let requests = Array.init n (fun i -> request_for (i + 1))
  and replies = Array.init n (fun i -> reply_for (i + 1)) in
  let exchange () =
    for i = 0 to n - 1 do
      Srm.Host.on_packet host requests.(i);
      Srm.Host.on_packet host replies.(i)
    done
  in
  exchange ();
  advance engine ~at:100.;
  let cancelled = Sim.Engine.events_cancelled engine in
  let per_pair = (allocated exchange -. allocated ignore) /. float_of_int n in
  check Alcotest.int "every request armed a reply the reply cancelled" n
    (Sim.Engine.events_cancelled engine - cancelled);
  check Alcotest.int "nothing left pending" 0 (Sim.Engine.pending_events engine);
  if per_pair > 0. then
    Alcotest.failf "a suppressed request/reply pair allocated %.1f B" per_pair

(* A reply for a packet we hold and have no reply scheduled for only
   refreshes the abstinence horizon. *)
let test_host_repeated_reply_alloc () =
  let n = 2000 in
  let _, host = host_with_packets n in
  let replies = Array.init n (fun i -> reply_for (i + 1)) in
  let hear () =
    for i = 0 to n - 1 do
      Srm.Host.on_packet host replies.(i)
    done
  in
  hear ();
  let per_reply = (allocated hear -. allocated ignore) /. float_of_int n in
  check Alcotest.bool "abstinence open" true (Srm.Host.reply_blocked host ~seq:n);
  if per_reply > 0. then Alcotest.failf "a repeated reply allocated %.1f B" per_reply

(* In-order data with no loss pending changes only the reception
   window and the stream's arrival anchor, both stored in place. *)
let test_host_in_order_data_no_alloc () =
  let n = 2000 in
  let _, _, host = make_host ~n_packets:(n + 1) () in
  let data =
    Array.init (n + 1) (fun i ->
        { Net.Packet.sender = 0; payload = Net.Packet.Data { seq = i + 1 } })
  in
  Srm.Host.on_packet host data.(0);
  let deliver () =
    for i = 1 to n do
      Srm.Host.on_packet host data.(i)
    done
  in
  let per_call = (allocated deliver -. allocated ignore) /. float_of_int n in
  check Alcotest.int "no loss detected" 0 (Srm.Host.detected_losses host);
  if per_call > 0. then
    Alcotest.failf "on_packet allocated %.1f B per in-order data packet" per_call

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
          Alcotest.test_case "in-order data allocates at most one float" `Quick
            test_host_in_order_data_alloc;
          Alcotest.test_case "a request answered by a suppressing reply allocates nothing" `Quick
            test_host_suppressed_reply_alloc;
          Alcotest.test_case "a repeated reply allocates nothing" `Quick
            test_host_repeated_reply_alloc;
          Alcotest.test_case "in-order data allocates nothing" `Quick
            test_host_in_order_data_no_alloc;
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
      ("window", [ QCheck_alcotest.to_alcotest window_model ]);
      ("reply table", [ QCheck_alcotest.to_alcotest reply_table_model ]);
    ]
