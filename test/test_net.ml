(* Tests for the network substrate: tree topology, packets, cost
   accounting, and delivery semantics. *)

let check = Alcotest.check

let qcheck = QCheck_alcotest.to_alcotest

(* --- Tree ------------------------------------------------------------ *)

(* 0 - 1 - 3 (rcvr)
       \ 4 (rcvr)
     2 - 5 (rcvr)  *)
let sample_tree () = Net.Tree.of_parents [| -1; 0; 0; 1; 1; 2 |]

let test_tree_basic () =
  let t = sample_tree () in
  check Alcotest.int "n_nodes" 6 (Net.Tree.n_nodes t);
  check Alcotest.int "root" 0 (Net.Tree.root t);
  check Alcotest.int "parent 3" 1 (Net.Tree.parent t 3);
  check Alcotest.(list int) "children 1" [ 3; 4 ] (Net.Tree.children t 1);
  check Alcotest.int "depth 5" 2 (Net.Tree.depth t 5);
  check Alcotest.int "height" 2 (Net.Tree.height t);
  check Alcotest.(array int) "receivers" [| 3; 4; 5 |] (Net.Tree.receivers t);
  check Alcotest.int "n_receivers" 3 (Net.Tree.n_receivers t);
  check Alcotest.bool "3 is leaf" true (Net.Tree.is_leaf t 3);
  check Alcotest.bool "1 is not leaf" false (Net.Tree.is_leaf t 1)

let test_tree_validation () =
  let expect_invalid name parents =
    match Net.Tree.of_parents parents with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s should be rejected" name
  in
  expect_invalid "empty" [||];
  expect_invalid "root not 0" [| 1; -1 |];
  expect_invalid "self parent" [| -1; 1 |];
  expect_invalid "out of range" [| -1; 9 |]

let test_tree_lca_hops () =
  let t = sample_tree () in
  check Alcotest.int "lca(3,4)" 1 (Net.Tree.lca t 3 4);
  check Alcotest.int "lca(3,5)" 0 (Net.Tree.lca t 3 5);
  check Alcotest.int "lca(3,3)" 3 (Net.Tree.lca t 3 3);
  check Alcotest.int "lca(1,3)" 1 (Net.Tree.lca t 1 3);
  check Alcotest.int "hops(3,4)" 2 (Net.Tree.hops t 3 4);
  check Alcotest.int "hops(3,5)" 4 (Net.Tree.hops t 3 5);
  check Alcotest.int "hops(0,0)" 0 (Net.Tree.hops t 0 0)

let test_tree_path () =
  let t = sample_tree () in
  check Alcotest.(list int) "path 3->5" [ 3; 1; 0; 2; 5 ] (Net.Tree.path t 3 5);
  check Alcotest.(list int) "path 0->3" [ 0; 1; 3 ] (Net.Tree.path t 0 3);
  check Alcotest.(list int) "path to self" [ 3 ] (Net.Tree.path t 3 3);
  check Alcotest.(list int) "links 3->5 (4 links)" [ 3; 1; 2; 5 ]
    (Net.Tree.on_path_links t 3 5)

let test_tree_ancestry_subtrees () =
  let t = sample_tree () in
  check Alcotest.bool "1 anc of 3" true (Net.Tree.is_ancestor t 1 3);
  check Alcotest.bool "2 not anc of 3" false (Net.Tree.is_ancestor t 2 3);
  check Alcotest.bool "self ancestor" true (Net.Tree.is_ancestor t 3 3);
  check Alcotest.(list int) "subtree rcvrs of 1" [ 3; 4 ] (Net.Tree.subtree_receivers t 1);
  check Alcotest.(list int) "subtree rcvrs of 0" [ 3; 4; 5 ] (Net.Tree.subtree_receivers t 0)

let test_tree_dist () =
  let t = sample_tree () in
  let delay _ = 0.02 in
  check (Alcotest.float 1e-9) "dist 3->5" 0.08 (Net.Tree.dist t ~delay 3 5);
  let m = Net.Tree.distance_matrix t ~delay in
  check (Alcotest.float 1e-9) "matrix symmetric" m.(3).(5) m.(5).(3);
  check (Alcotest.float 1e-9) "diag zero" 0. m.(2).(2)

let test_tree_constructors () =
  let line = Net.Tree.line 4 in
  check Alcotest.int "line height" 3 (Net.Tree.height line);
  check Alcotest.(array int) "line single receiver" [| 3 |] (Net.Tree.receivers line);
  let star = Net.Tree.star 5 in
  check Alcotest.int "star receivers" 5 (Net.Tree.n_receivers star);
  check Alcotest.int "star height" 1 (Net.Tree.height star);
  let bal = Net.Tree.balanced ~fanout:3 ~depth:2 in
  check Alcotest.int "balanced nodes" 13 (Net.Tree.n_nodes bal);
  check Alcotest.int "balanced receivers" 9 (Net.Tree.n_receivers bal)

let random_parents_gen =
  QCheck.Gen.(
    int_range 2 40 >>= fun n ->
    let rec fill i acc =
      if i >= n then return (Array.of_list (List.rev acc))
      else int_range 0 (i - 1) >>= fun p -> fill (i + 1) (p :: acc)
    in
    fill 1 [ -1 ])

let arbitrary_tree =
  QCheck.make
    ~print:(fun p -> String.concat "," (List.map string_of_int (Array.to_list p)))
    random_parents_gen

let prop_tree_lca_is_common_ancestor =
  QCheck.Test.make ~name:"tree: lca is a common ancestor" ~count:200 arbitrary_tree
    (fun parents ->
      let t = Net.Tree.of_parents parents in
      let n = Net.Tree.n_nodes t in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let a = Net.Tree.lca t u v in
          if not (Net.Tree.is_ancestor t a u && Net.Tree.is_ancestor t a v) then ok := false
        done
      done;
      !ok)

let prop_tree_hops_path_consistent =
  QCheck.Test.make ~name:"tree: |path| = hops + 1 and |links| = hops" ~count:200 arbitrary_tree
    (fun parents ->
      let t = Net.Tree.of_parents parents in
      let n = Net.Tree.n_nodes t in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let h = Net.Tree.hops t u v in
          if List.length (Net.Tree.path t u v) <> h + 1 then ok := false;
          if List.length (Net.Tree.on_path_links t u v) <> h then ok := false
        done
      done;
      !ok)

let prop_tree_receivers_are_leaves =
  QCheck.Test.make ~name:"tree: receivers are exactly the non-root leaves" ~count:200
    arbitrary_tree (fun parents ->
      let t = Net.Tree.of_parents parents in
      let n = Net.Tree.n_nodes t in
      let leaves =
        List.filter (fun v -> v <> 0 && Net.Tree.is_leaf t v) (List.init n Fun.id)
      in
      Array.to_list (Net.Tree.receivers t) = leaves)

(* --- Packet ----------------------------------------------------------- *)

let mk payload = { Net.Packet.sender = 1; payload }

let test_packet_sizes () =
  check Alcotest.int "data is 1KB" 8192 (Net.Packet.size_bits (mk (Net.Packet.Data { seq = 1 })));
  check Alcotest.int "reply is 1KB" 8192
    (Net.Packet.size_bits
       (mk
          (Net.Packet.Reply
             {
               src = 0;
               seq = 1;
               requestor = 2;
               d_qs = 0.1;
               replier = 3;
               d_rq = 0.1;
               expedited = false;
               turning_point = None;
             })));
  check Alcotest.int "request is free" 0
    (Net.Packet.size_bits
       (mk (Net.Packet.Request { src = 0; seq = 1; requestor = 2; d_qs = 0.1; round = 0 })));
  check Alcotest.int "session is free" 0
    (Net.Packet.size_bits
       (mk (Net.Packet.Session { origin = 1; sent_at = 0.; max_seqs = []; echoes = [] })))

let test_packet_seq () =
  check Alcotest.(option int) "data seq" (Some 9)
    (Net.Packet.seq (mk (Net.Packet.Data { seq = 9 })));
  check Alcotest.(option int) "session no seq" None
    (Net.Packet.seq
       (mk (Net.Packet.Session { origin = 1; sent_at = 0.; max_seqs = [ (0, 3) ]; echoes = [] })))

let test_packet_describe () =
  let d = Net.Packet.describe (mk (Net.Packet.Data { seq = 5 })) in
  check Alcotest.bool "describe non-empty" true (String.length d > 0)

(* --- Cost ------------------------------------------------------------- *)

let test_cost_accounting () =
  let c = Net.Cost.create () in
  Net.Cost.record_crossing c Net.Cost.Request Net.Cost.Multicast;
  Net.Cost.record_crossing c Net.Cost.Request Net.Cost.Multicast;
  Net.Cost.record_crossing c Net.Cost.Exp_request Net.Cost.Unicast;
  Net.Cost.record_crossing c Net.Cost.Reply Net.Cost.Multicast;
  Net.Cost.record_crossing c Net.Cost.Exp_reply Net.Cost.Subcast;
  check Alcotest.int "crossings" 2 (Net.Cost.crossings c Net.Cost.Request Net.Cost.Multicast);
  check Alcotest.int "retx overhead counts replies" 2 (Net.Cost.retransmission_overhead c);
  check Alcotest.int "mc control" 2 (Net.Cost.control_overhead c ~multicast:true);
  check Alcotest.int "uc control" 1 (Net.Cost.control_overhead c ~multicast:false)

let test_cost_category_of () =
  check Alcotest.bool "expedited reply category" true
    (Net.Cost.category_of
       (mk
          (Net.Packet.Reply
             {
               src = 0;
               seq = 1;
               requestor = 2;
               d_qs = 0.1;
               replier = 3;
               d_rq = 0.1;
               expedited = true;
               turning_point = None;
             }))
    = Net.Cost.Exp_reply)

(* --- Network ----------------------------------------------------------- *)

let make_network ?(tree = sample_tree ()) () =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create ~engine ~tree ~link_delay:0.02 () in
  (engine, network)

let session_packet =
  mk (Net.Packet.Session { origin = 1; sent_at = 0.; max_seqs = []; echoes = [] })

let test_network_multicast_times () =
  let engine, network = make_network () in
  let arrivals = Hashtbl.create 8 in
  List.iter
    (fun v ->
      Net.Network.on_receive network v (fun _ ->
          Hashtbl.replace arrivals v (Sim.Engine.now engine)))
    [ 0; 3; 4; 5 ];
  ignore
    (Sim.Engine.schedule engine ~after:1.0 (fun () ->
         Net.Network.multicast network ~from:3 session_packet));
  Sim.Engine.run engine;
  check Alcotest.bool "sender does not hear itself" false (Hashtbl.mem arrivals 3);
  check (Alcotest.float 1e-9) "to root: 2 hops" 1.04 (Hashtbl.find arrivals 0);
  check (Alcotest.float 1e-9) "to sibling: 2 hops" 1.04 (Hashtbl.find arrivals 4);
  check (Alcotest.float 1e-9) "across: 4 hops" 1.08 (Hashtbl.find arrivals 5)

let test_network_payload_serialization () =
  let engine, network = make_network () in
  let arrival = ref 0. in
  Net.Network.on_receive network 3 (fun _ -> arrival := Sim.Engine.now engine);
  ignore
    (Sim.Engine.schedule engine ~after:0.0 (fun () ->
         Net.Network.multicast network ~from:0 (mk (Net.Packet.Data { seq = 1 }))));
  Sim.Engine.run engine;
  let expected = 2. *. (0.02 +. (8192. /. 1.5e6)) in
  check (Alcotest.float 1e-9) "data pays serialization per hop" expected !arrival

let test_network_data_fifo () =
  let engine, network = make_network ~tree:(Net.Tree.line 2) () in
  let arrivals = ref [] in
  Net.Network.on_receive network 1 (fun p ->
      arrivals := (Net.Packet.seq p, Sim.Engine.now engine) :: !arrivals);
  ignore
    (Sim.Engine.schedule engine ~after:0.0 (fun () ->
         Net.Network.multicast network ~from:0 (mk (Net.Packet.Data { seq = 1 }));
         Net.Network.multicast network ~from:0 (mk (Net.Packet.Data { seq = 2 }))));
  Sim.Engine.run engine;
  let tx = 8192. /. 1.5e6 in
  check
    Alcotest.(list (pair (option int) (float 1e-9)))
    "FIFO with queueing"
    [ (Some 1, tx +. 0.02); (Some 2, (2. *. tx) +. 0.02) ]
    (List.rev !arrivals)

let test_network_drop_prunes_subtree () =
  let engine, network = make_network () in
  let got = ref [] in
  List.iter (fun v -> Net.Network.on_receive network v (fun _ -> got := v :: !got)) [ 3; 4; 5 ];
  Net.Network.set_drop network (fun ~link ~down _ -> down && link = 1);
  ignore
    (Sim.Engine.schedule engine ~after:0.0 (fun () ->
         Net.Network.multicast network ~from:0 (mk (Net.Packet.Data { seq = 1 }))));
  Sim.Engine.run engine;
  check Alcotest.(list int) "only node 5 receives" [ 5 ] (List.sort compare !got)

let test_network_drop_direction () =
  let engine, network = make_network () in
  let got = ref [] in
  List.iter
    (fun v -> Net.Network.on_receive network v (fun _ -> got := v :: !got))
    [ 0; 4; 5 ];
  Net.Network.set_drop network (fun ~link ~down _ -> down && link = 1);
  ignore
    (Sim.Engine.schedule engine ~after:0.0 (fun () ->
         Net.Network.multicast network ~from:3 session_packet));
  Sim.Engine.run engine;
  (* From node 3 the flood climbs link 3 (up), then link 4 down to node
     4 and links 2, 5 down to node 5 — link 1 is only crossed upward,
     so the down-only drop never triggers. *)
  check Alcotest.(list int) "upward traffic unaffected" [ 0; 4; 5 ] (List.sort compare !got)

let test_network_unicast () =
  let engine, network = make_network () in
  let got = ref [] in
  List.iter
    (fun v -> Net.Network.on_receive network v (fun _ -> got := v :: !got))
    [ 0; 3; 4; 5 ];
  ignore
    (Sim.Engine.schedule engine ~after:0.0 (fun () ->
         Net.Network.unicast network ~from:3 ~dst:5 session_packet));
  Sim.Engine.run engine;
  check Alcotest.(list int) "only destination delivered" [ 5 ] !got;
  check Alcotest.int "uc crossings = 4 hops" 4
    (Net.Cost.crossings (Net.Network.cost network) Net.Cost.Session Net.Cost.Unicast)

let test_network_subcast () =
  let engine, network = make_network () in
  let got = ref [] in
  List.iter
    (fun v -> Net.Network.on_receive network v (fun _ -> got := v :: !got))
    [ 0; 3; 4; 5 ];
  ignore
    (Sim.Engine.schedule engine ~after:0.0 (fun () ->
         Net.Network.subcast network ~from:1 ~root:1 session_packet));
  Sim.Engine.run engine;
  check Alcotest.(list int) "subtree of 1 only" [ 3; 4 ] (List.sort compare !got)

let test_network_subcast_from_outside () =
  let engine, network = make_network () in
  let got = ref [] in
  List.iter
    (fun v -> Net.Network.on_receive network v (fun _ -> got := v :: !got))
    [ 0; 3; 4; 5 ];
  ignore
    (Sim.Engine.schedule engine ~after:0.0 (fun () ->
         Net.Network.subcast network ~from:5 ~root:1 session_packet));
  Sim.Engine.run engine;
  check Alcotest.(list int) "delivered under the turning point" [ 3; 4 ]
    (List.sort compare !got);
  let cost = Net.Network.cost network in
  check Alcotest.int "uphill unicast crossings (5->1 is 3 hops)" 3
    (Net.Cost.crossings cost Net.Cost.Session Net.Cost.Unicast);
  check Alcotest.int "downhill subcast crossings" 2
    (Net.Cost.crossings cost Net.Cost.Session Net.Cost.Subcast)

(* Domain runs are serial: a scoped subcast has no emit to replay, so
   shard mode refuses it, while an unscoped one is sent. *)
let test_network_scoped_subcast_in_shard_mode () =
  let engine, network = make_network () in
  let tree = Net.Network.tree network in
  let partition = Net.Partition.make ~tree ~delay:(fun _ -> 0.020) ~shards:2 in
  Net.Network.enable_shard network ~partition ~me:0 ~observe:false;
  Alcotest.check_raises "scoped"
    (Invalid_argument "Network.subcast: a scoped subcast is not available in shard mode")
    (fun () -> Net.Network.subcast network ~from:5 ~root:1 ~scope:(fun _ -> true) session_packet);
  Net.Network.subcast network ~from:5 ~root:1 session_packet;
  Sim.Engine.run engine;
  check Alcotest.int "the unscoped subcast is buffered for replay" 1
    (List.length (Net.Network.take_emits network))

let test_network_multicast_crossings () =
  let engine, network = make_network () in
  ignore
    (Sim.Engine.schedule engine ~after:0.0 (fun () ->
         Net.Network.multicast network ~from:0 session_packet));
  Sim.Engine.run engine;
  check Alcotest.int "multicast crosses every link once" 5
    (Net.Cost.crossings (Net.Network.cost network) Net.Cost.Session Net.Cost.Multicast)

let test_network_dist_rtt () =
  let _, network = make_network () in
  check (Alcotest.float 1e-9) "dist" 0.08 (Net.Network.dist network 3 5);
  check (Alcotest.float 1e-9) "rtt" 0.16 (Net.Network.rtt network 3 5);
  check (Alcotest.float 1e-9) "link delay" 0.02 (Net.Network.link_delay network 3)

let test_network_heterogeneous () =
  let tree = Net.Tree.line 3 in
  let engine = Sim.Engine.create () in
  let delays = [| 0.; 0.010; 0.030 |] in
  let network = Net.Network.create_heterogeneous ~engine ~tree ~delays () in
  check (Alcotest.float 1e-9) "summed delays" 0.04 (Net.Network.dist network 0 2)

(* --- Perturbation layer (fault injection) ----------------------------- *)

let test_perturb_mid_flight_down () =
  (* A packet already computed/queued when the outage opens must still
     be swallowed: windows match the link *crossing* time, not the send
     time. Sent at 1.0, the flood reaches link 3 at 1.02 — inside the
     [1.01, 2.0) outage — so node 3 alone misses it. *)
  let engine, network = make_network () in
  let got = ref [] in
  List.iter
    (fun v -> Net.Network.on_receive network v (fun _ -> got := v :: !got))
    [ 0; 3; 4; 5 ];
  Net.Network.add_link_down network ~link:3 ~from_:1.01 ~until:2.0;
  check Alcotest.bool "perturbed" true (Net.Network.perturbed network);
  check Alcotest.bool "down inside window" true (Net.Network.link_is_down network ~link:3 ~at:1.5);
  check Alcotest.bool "up before window" false (Net.Network.link_is_down network ~link:3 ~at:1.0);
  ignore
    (Sim.Engine.schedule_at engine ~at:1.0 (fun () ->
         Net.Network.multicast network ~from:0 session_packet));
  Sim.Engine.run engine;
  check Alcotest.(list int) "node 3 alone misses" [ 4; 5 ] (List.sort compare !got);
  (* After the window closes the link carries traffic again. *)
  got := [];
  ignore
    (Sim.Engine.schedule_at engine ~at:2.5 (fun () ->
         Net.Network.multicast network ~from:0 session_packet));
  Sim.Engine.run engine;
  check Alcotest.(list int) "healed" [ 3; 4; 5 ] (List.sort compare !got)

let test_perturb_window_boundaries () =
  (* [from, until): a crossing starting exactly at `from` is dropped,
     one starting exactly at `until` goes through. *)
  let engine, network = make_network ~tree:(Net.Tree.line 2) () in
  let arrivals = ref [] in
  Net.Network.on_receive network 1 (fun _ -> arrivals := Sim.Engine.now engine :: !arrivals);
  Net.Network.add_link_down network ~link:1 ~from_:1.0 ~until:2.0;
  List.iter
    (fun at ->
      ignore
        (Sim.Engine.schedule_at engine ~at (fun () ->
             Net.Network.multicast network ~from:0 session_packet)))
    [ 0.5; 1.0; 1.999; 2.0 ];
  Sim.Engine.run engine;
  check
    Alcotest.(list (float 1e-9))
    "only the crossings outside [from, until) arrive" [ 0.52; 2.02 ] (List.rev !arrivals)

let test_perturb_invalid_windows () =
  let _, network = make_network () in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s should be rejected" name
  in
  expect_invalid "negative from" (fun () ->
      Net.Network.add_link_down network ~link:1 ~from_:(-1.) ~until:2.);
  expect_invalid "empty window" (fun () ->
      Net.Network.add_link_down network ~link:1 ~from_:2. ~until:2.);
  expect_invalid "link 0" (fun () -> Net.Network.add_link_down network ~link:0 ~from_:0. ~until:1.);
  expect_invalid "link out of range" (fun () ->
      Net.Network.add_link_down network ~link:99 ~from_:0. ~until:1.);
  expect_invalid "non-positive jitter" (fun () ->
      Net.Network.add_link_jitter network ~link:1 ~from_:0. ~until:1. ~max_jitter:0.)

let test_perturb_crash_in_flight () =
  (* A receiver that crashes while a packet is in flight (here: before
     its first packet ever arrives) must not process it on arrival —
     deliver() re-checks the enabled flag at fire time. *)
  let engine, network = make_network () in
  let got = ref 0 in
  Net.Network.on_receive network 3 (fun _ -> incr got);
  ignore
    (Sim.Engine.schedule_at engine ~at:0.0 (fun () ->
         Net.Network.multicast network ~from:0 session_packet));
  (* packet arrives at node 3 at t = 0.04; the crash at 0.01 beats it *)
  ignore (Sim.Engine.schedule_at engine ~at:0.01 (fun () -> Net.Network.set_enabled network 3 false));
  ignore (Sim.Engine.schedule_at engine ~at:1.0 (fun () -> Net.Network.set_enabled network 3 true));
  ignore
    (Sim.Engine.schedule_at engine ~at:1.5 (fun () ->
         Net.Network.multicast network ~from:0 session_packet));
  Sim.Engine.run engine;
  check Alcotest.int "only the post-restart packet lands" 1 !got;
  check Alcotest.bool "re-enabled" true (Net.Network.is_enabled network 3)

let test_perturb_jitter () =
  let run () =
    let engine = Sim.Engine.create ~seed:99L () in
    let network = Net.Network.create ~engine ~tree:(Net.Tree.line 2) ~link_delay:0.02 () in
    let arrival = ref Float.nan in
    Net.Network.on_receive network 1 (fun _ -> arrival := Sim.Engine.now engine);
    Net.Network.add_link_jitter network ~link:1 ~from_:0. ~until:10. ~max_jitter:0.05;
    ignore
      (Sim.Engine.schedule_at engine ~at:1.0 (fun () ->
           Net.Network.multicast network ~from:0 session_packet));
    Sim.Engine.run engine;
    !arrival
  in
  let a = run () in
  check Alcotest.bool "delayed at least the link delay" true (a >= 1.02);
  check Alcotest.bool "bounded by max_jitter" true (a <= 1.02 +. 0.05 +. 1e-9);
  (* jitter draws come from a split of the engine RNG: same seed, same
     jitter — faulted runs stay pure functions of (seed, plan) *)
  check (Alcotest.float 1e-12) "deterministic under the seed" a (run ())

let test_perturb_dup () =
  let engine, network = make_network ~tree:(Net.Tree.line 2) () in
  let arrivals = ref [] in
  Net.Network.on_receive network 1 (fun _ -> arrivals := Sim.Engine.now engine :: !arrivals);
  Net.Network.add_link_dup network ~link:1 ~from_:0. ~until:2.;
  List.iter
    (fun at ->
      ignore
        (Sim.Engine.schedule_at engine ~at (fun () ->
             Net.Network.multicast network ~from:0 session_packet)))
    [ 1.0; 3.0 ];
  Sim.Engine.run engine;
  (* in-window crossing delivers twice (copy one link delay later);
     out-of-window crossing delivers once *)
  check
    Alcotest.(list (float 1e-9))
    "duplicate one delay later, then clean" [ 1.02; 1.04; 3.02 ] (List.rev !arrivals)

(* --- Membership layer (dynamic join/leave/rejoin) --------------------- *)

let test_membership_defaults () =
  let _, network = make_network () in
  check
    Alcotest.(option (pair int int))
    "no membership layer until first use" None (Net.Network.churn_counts network);
  check Alcotest.bool "every node is a member by default" true (Net.Network.is_member network 3)

let test_membership_gates_delivery () =
  let engine, network = make_network () in
  let got = ref [] in
  List.iter (fun v -> Net.Network.on_receive network v (fun _ -> got := v :: !got)) [ 3; 4; 5 ];
  ignore
    (Sim.Engine.schedule_at engine ~at:0.5 (fun () -> Net.Network.set_member network 3 false));
  ignore
    (Sim.Engine.schedule_at engine ~at:1.0 (fun () ->
         Net.Network.multicast network ~from:0 session_packet));
  (* a departed member's own transmissions never reach the wire *)
  ignore
    (Sim.Engine.schedule_at engine ~at:1.5 (fun () ->
         Net.Network.multicast network ~from:3 session_packet));
  ignore
    (Sim.Engine.schedule_at engine ~at:2.0 (fun () -> Net.Network.set_member network 3 true));
  ignore
    (Sim.Engine.schedule_at engine ~at:2.5 (fun () ->
         Net.Network.multicast network ~from:0 session_packet));
  Sim.Engine.run engine;
  check
    Alcotest.(list int)
    "non-member misses the first cast, sends nothing, hears the post-rejoin cast"
    [ 3; 4; 4; 5; 5 ] (List.sort compare !got);
  check
    Alcotest.(option (pair int int))
    "layer installed: one join, one leave" (Some (1, 1)) (Net.Network.churn_counts network)

let test_membership_counts_effective_transitions () =
  let _, network = make_network () in
  Net.Network.set_member network 3 false;
  Net.Network.set_member network 3 false;
  let counts () = Option.get (Net.Network.churn_counts network) in
  check Alcotest.int "redundant leave uncounted" 1 (snd (counts ()));
  Net.Network.set_member network 3 true;
  Net.Network.set_member network 3 true;
  check Alcotest.int "redundant join uncounted" 1 (fst (counts ()));
  (* a late joiner's initial exclusion is a starting condition, not a
     churn event: the membership flips but the counters stay put *)
  Net.Network.set_member ~count:false network 4 false;
  check Alcotest.bool "uncounted exclusion flips membership" false
    (Net.Network.is_member network 4);
  check Alcotest.int "but no leave is charged" 1 (snd (counts ()))

let test_membership_crash_is_not_departure () =
  let _, network = make_network () in
  Net.Network.set_member network 3 false;
  check Alcotest.bool "departed member is disabled too" false (Net.Network.is_enabled network 3);
  Net.Network.set_enabled network 4 false;
  check Alcotest.bool "a crashed host is still a member" true (Net.Network.is_member network 4);
  Net.Network.set_enabled network 4 true;
  check Alcotest.bool "and stays one after restart" true (Net.Network.is_member network 4)

(* --- Routes: every cast replays the recursive neighbour walk ---------- *)

(* A random tree; per-link delays from a small set, so equal arrival
   times (which the engine fires in schedule order) are common; a
   random set of directed crossings to drop; a scope cut for scoped
   casts; and a 1 KB reply or a size-0 request. *)
type walk_case = {
  parents : int array;
  units : int array; (* per-link delay in ms; slot 0 unused *)
  drops : (int * bool) list; (* (link, down) crossings the loss predicate drops *)
  cuts : int list; (* scoped casts exclude these nodes' subtrees *)
  payload : bool;
}

let arbitrary_walk_case =
  let gen =
    QCheck.Gen.(
      random_parents_gen >>= fun parents ->
      let n = Array.length parents in
      array_repeat n (int_range 1 3) >>= fun units ->
      list_size (int_range 0 (n / 3)) (pair (int_range 1 (n - 1)) bool) >>= fun drops ->
      list_size (int_range 0 (n / 4)) (int_range 0 (n - 1)) >>= fun cuts ->
      bool >>= fun payload -> return { parents; units; drops; cuts; payload })
  in
  let ints l = String.concat "," (List.map string_of_int l) in
  QCheck.make gen ~print:(fun c ->
      Printf.sprintf "parents %s; ms %s; drops %s; cuts %s; payload %b"
        (ints (Array.to_list c.parents))
        (ints (Array.to_list c.units))
        (String.concat ","
           (List.map
              (fun (l, down) -> Printf.sprintf "%d%s" l (if down then "v" else "^"))
              c.drops))
        (ints c.cuts) c.payload)

type cast =
  | Multicast of int
  | Subcast of int * int * bool (* from, root, scoped *)
  | Unicast of int * int

let show_cast = function
  | Multicast o -> Printf.sprintf "multicast from %d" o
  | Subcast (f, r, scoped) -> Printf.sprintf "%ssubcast %d to %d" (if scoped then "scoped " else "") f r
  | Unicast (s, d) -> Printf.sprintf "unicast %d to %d" s d

(* The reference every cast must replay, built on [Tree] lists alone:
   a recursive neighbour walk (parent first, then children in
   [Tree.children] order), with unicast legs along [Tree.path]. No cast
   delivers to its sender. Returns the crossings attempted, as the
   loss predicate sees them, and the deliveries in walk order. *)
let reference tree ~delay ~tx ~dropped ~scope cast at =
  let crossings = ref [] and deliveries = ref [] in
  let cross ~from ~to_ at =
    let down = Net.Tree.parent tree to_ = from in
    let link = if down then to_ else from in
    crossings := (link, down) :: !crossings;
    if dropped (link, down) then None
    else Some (if tx = 0. then at +. delay link else at +. tx +. delay link)
  in
  let deliver v at = deliveries := (v, at) :: !deliveries in
  let rec walk ~keep ~quiet ~prev v at =
    if keep v then
      match cross ~from:prev ~to_:v at with
      | None -> ()
      | Some at ->
          if v <> quiet then deliver v at;
          List.iter
            (fun nb -> if nb <> prev then walk ~keep ~quiet ~prev:v nb at)
            (Net.Tree.neighbors tree v)
  in
  let walk_from ?(keep = fun _ -> true) ?(quiet = -1) v nbs at =
    List.iter (fun nb -> walk ~keep ~quiet ~prev:v nb at) nbs
  in
  let rec path at = function
    | x :: (y :: _ as rest) -> Option.bind (cross ~from:x ~to_:y at) (fun at -> path at rest)
    | _ -> Some at
  in
  let leg src dst = path at (Net.Tree.path tree src dst) in
  (match cast with
  | Multicast o -> walk_from o (Net.Tree.neighbors tree o) at
  | Subcast (from, root, scoped) ->
      let keep = if scoped then scope else fun _ -> true in
      Option.iter
        (fun at ->
          if from <> root && keep root then deliver root at;
          walk_from ~keep ~quiet:from root (Net.Tree.children tree root) at)
        (leg from root)
  | Unicast (src, dst) -> if src <> dst then Option.iter (deliver dst) (leg src dst));
  (List.rev !crossings, List.rev !deliveries)

let walk_packet c =
  mk
    (if c.payload then
       Net.Packet.Reply
         {
           src = 0;
           seq = 1;
           requestor = 1;
           d_qs = 0.;
           replier = 1;
           d_rq = 0.;
           expedited = false;
           turning_point = None;
         }
     else Net.Packet.Request { src = 0; seq = 1; requestor = 1; d_qs = 0.; round = 0 })

let walk_network c =
  let tree = Net.Tree.of_parents c.parents in
  let delays = Array.mapi (fun l u -> if l = 0 then 0. else 0.001 *. float_of_int u) c.units in
  let engine = Sim.Engine.create () in
  let network =
    Net.Network.create_heterogeneous ~engine ~tree ~delays ~bandwidth_bps:1.5e6 ()
  in
  (tree, delays, engine, network)

let walk_tx c = float_of_int (Net.Packet.size_bits (walk_packet c)) /. 1.5e6

let in_scope c tree v = not (List.exists (fun a -> Net.Tree.is_ancestor tree a v) c.cuts)

let fired_order deliveries =
  List.map
    (fun (v, at) -> Printf.sprintf "%d@%.17g" v at)
    (List.stable_sort (fun (_, a) (_, b) -> Float.compare a b) deliveries)

(* A checker for [c]: it runs each cast on one serial network (the
   engine drained in between) and compares the crossings the loss
   predicate saw, and the deliveries in firing order with their
   arrival times, against the reference. *)
let cast_checker c =
  let tree, delays, engine, network = walk_network c in
  let packet = walk_packet c and scope = in_scope c tree in
  let seen = ref [] and got = ref [] in
  Net.Network.set_drop network (fun ~link ~down _ ->
      seen := (link, down) :: !seen;
      List.mem (link, down) c.drops);
  for v = 0 to Net.Tree.n_nodes tree - 1 do
    Net.Network.on_receive network v (fun _ -> got := (v, Sim.Engine.now engine) :: !got)
  done;
  fun cast ->
    seen := [];
    got := [];
    let at = Sim.Engine.now engine in
    (match cast with
    | Multicast o -> Net.Network.multicast network ~from:o packet
    | Subcast (from, root, true) -> Net.Network.subcast network ~from ~root ~scope packet
    | Subcast (from, root, false) -> Net.Network.subcast network ~from ~root packet
    | Unicast (src, dst) -> Net.Network.unicast network ~from:src ~dst packet);
    Sim.Engine.run engine;
    let crossings, deliveries =
      reference tree
        ~delay:(fun l -> delays.(l))
        ~tx:(walk_tx c)
        ~dropped:(fun x -> List.mem x c.drops)
        ~scope cast at
    in
    if List.rev !seen <> crossings then Alcotest.failf "%s: crossings differ" (show_cast cast);
    let got = List.rev_map (fun (v, at) -> Printf.sprintf "%d@%.17g" v at) !got in
    if got <> fired_order deliveries then
      Alcotest.failf "%s: deliveries differ: got %s, expected %s" (show_cast cast)
        (String.concat " " got)
        (String.concat " " (fired_order deliveries))

(* Shard 0 of a two-way partition prunes its multicast walks to the
   branches holding its nodes, yet each owned node must get exactly the
   reference delivery, and [delivery_rank] must report the node's index
   in the unpruned, drop-free reference walk. *)
let check_shard_multicasts c =
  let tree, delays, engine, network = walk_network c in
  let n = Net.Tree.n_nodes tree in
  let partition = Net.Partition.make ~tree ~delay:(fun l -> delays.(l)) ~shards:2 in
  Net.Network.enable_shard network ~partition ~me:0 ~observe:true;
  Net.Network.set_drop network (fun ~link ~down _ -> List.mem (link, down) c.drops);
  let got = ref [] in
  for v = 0 to n - 1 do
    if Net.Network.owns network v then
      Net.Network.on_receive network v (fun _ ->
          match Net.Network.delivery_rank network with
          | Some (_, _, _, rank) -> got := (v, Sim.Engine.now engine, rank) :: !got
          | None -> Alcotest.failf "no delivery rank at %d" v)
  done;
  for origin = 0 to n - 1 do
    got := [];
    let at = Sim.Engine.now engine in
    Net.Network.multicast network ~from:origin (walk_packet c);
    Sim.Engine.run engine;
    let reference ~dropped =
      snd
        (reference tree
           ~delay:(fun l -> delays.(l))
           ~tx:(walk_tx c) ~dropped ~scope:(fun _ -> true) (Multicast origin) at)
    in
    let owned = List.filter (fun (v, _) -> Net.Network.owns network v) in
    let got = List.rev !got in
    if
      List.map (fun (v, at, _) -> Printf.sprintf "%d@%.17g" v at) got
      <> fired_order (owned (reference ~dropped:(fun x -> List.mem x c.drops)))
    then Alcotest.failf "shard multicast from %d: deliveries differ" origin;
    let walk = List.map fst (reference ~dropped:(fun _ -> false)) in
    List.iter
      (fun (v, _, rank) ->
        match List.find_index (( = ) v) walk with
        | Some i when i = rank -> ()
        | _ -> Alcotest.failf "multicast from %d: rank %d at node %d" origin rank v)
      got
  done

(* Shard 0 of a two-way partition sends each cast, and shard 1
   replays its emit ([take_emits] -> [apply_emit]): each shard's owned
   deliveries, with their arrival times, must be the reference's, drops
   included, and the two shards' merged crossing tallies a serial
   network's. The three networks share one engine, so the replay runs
   at the send time. *)
let replay_checker c =
  let tree, delays, engine, serial = walk_network c in
  let partition = Net.Partition.make ~tree ~delay:(fun l -> delays.(l)) ~shards:2 in
  let drop ~link ~down _ = List.mem (link, down) c.drops in
  Net.Network.set_drop serial drop;
  let got = Array.make 2 [] in
  let shards =
    Array.init 2 (fun me ->
        let network =
          Net.Network.create_heterogeneous ~engine ~tree ~delays ~bandwidth_bps:1.5e6 ()
        in
        Net.Network.enable_shard network ~partition ~me ~observe:false;
        Net.Network.set_drop network drop;
        for v = 0 to Net.Tree.n_nodes tree - 1 do
          if Net.Network.owns network v then
            Net.Network.on_receive network v (fun _ ->
                got.(me) <- (v, Sim.Engine.now engine) :: got.(me))
        done;
        network)
  in
  let packet = walk_packet c in
  let send network = function
    | Multicast o -> Net.Network.multicast network ~from:o packet
    | Unicast (src, dst) -> Net.Network.unicast network ~from:src ~dst packet
    | Subcast (from, root, _) -> Net.Network.subcast network ~from ~root packet
  in
  fun cast ->
    Array.fill got 0 2 [];
    let at = Sim.Engine.now engine in
    send shards.(0) cast;
    send serial cast;
    List.iter (Net.Network.apply_emit shards.(1)) (Net.Network.take_emits shards.(0));
    Sim.Engine.run engine;
    let _, deliveries =
      reference tree
        ~delay:(fun l -> delays.(l))
        ~tx:(walk_tx c)
        ~dropped:(fun x -> List.mem x c.drops)
        ~scope:(fun _ -> true) cast at
    in
    Array.iteri
      (fun me network ->
        let got = List.rev_map (fun (v, at) -> Printf.sprintf "%d@%.17g" v at) got.(me) in
        let owned = List.filter (fun (v, _) -> Net.Network.owns network v) deliveries in
        if got <> fired_order owned then
          Alcotest.failf "%s: shard %d replay deliveries differ" (show_cast cast) me)
      shards;
    let merged = Net.Cost.merge (Net.Network.cost shards.(0)) (Net.Network.cost shards.(1)) in
    let cat = Net.Cost.category_of packet in
    List.iter
      (fun mode ->
        if
          Net.Cost.crossings merged cat mode
          <> Net.Cost.crossings (Net.Network.cost serial) cat mode
        then Alcotest.failf "%s: replay crossings differ" (show_cast cast))
      [ Net.Cost.Multicast; Net.Cost.Unicast; Net.Cost.Subcast ]

let prop_routes_flood_order =
  QCheck.Test.make ~name:"routes: flood orders replay the neighbor walk" ~count:60
    arbitrary_walk_case (fun c ->
      let check = cast_checker c and replay = replay_checker c in
      for origin = 0 to Array.length c.parents - 1 do
        check (Multicast origin);
        replay (Multicast origin)
      done;
      check_shard_multicasts c;
      true)

let prop_routes_down_order =
  QCheck.Test.make ~name:"routes: down orders cover exactly the subtree" ~count:60
    arbitrary_walk_case (fun c ->
      let tree = Net.Tree.of_parents c.parents in
      let routes = Net.Routes.create tree in
      let check = cast_checker c and replay = replay_checker c in
      let n = Net.Tree.n_nodes tree in
      for root = 0 to n - 1 do
        if Net.Routes.subtree_size routes root <> List.length (Net.Tree.subtree_nodes tree root)
        then Alcotest.failf "subtree_size of %d" root;
        (* from = root: a plain subcast of root's subtree *)
        for from = 0 to n - 1 do
          check (Subcast (from, root, false));
          check (Subcast (from, root, true));
          replay (Subcast (from, root, false))
        done
      done;
      true)

let prop_routes_path =
  QCheck.Test.make ~name:"routes: paths agree with Tree.path/on_path_links" ~count:60
    arbitrary_walk_case (fun c ->
      let tree, delays, _, network = walk_network c in
      let check = cast_checker c and replay = replay_checker c in
      let n = Net.Tree.n_nodes tree in
      let delay l = delays.(l) in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          (* the reference's unicast leg is Tree.on_path_links *)
          let crossings, _ =
            reference tree ~delay ~tx:0. ~dropped:(fun _ -> false) ~scope:(fun _ -> true)
              (Unicast (src, dst)) 0.
          in
          if List.map fst crossings <> Net.Tree.on_path_links tree src dst then
            Alcotest.failf "reference links %d->%d" src dst;
          check (Unicast (src, dst));
          replay (Unicast (src, dst));
          let d = Net.Network.dist network src dst and d' = Net.Tree.dist tree ~delay src dst in
          if Int64.bits_of_float d <> Int64.bits_of_float d' then
            Alcotest.failf "dist %d->%d: %.17g, Tree.dist %.17g" src dst d d'
        done
      done;
      true)

let prop_routes_neighbors =
  QCheck.Test.make ~name:"routes: neighbors/children mirror the tree lists" ~count:100
    arbitrary_tree (fun parents ->
      let tree = Net.Tree.of_parents parents in
      let routes = Net.Routes.create tree in
      let ok = ref true in
      for v = 0 to Net.Tree.n_nodes tree - 1 do
        if Array.to_list (Net.Routes.neighbors routes v) <> Net.Tree.neighbors tree v then
          ok := false;
        if Array.to_list (Net.Routes.children routes v) <> Net.Tree.children tree v then
          ok := false
      done;
      !ok)

let prop_subtree_nodes_preorder =
  QCheck.Test.make ~name:"tree: subtree_nodes is the ancestor-filtered preorder" ~count:100
    arbitrary_tree (fun parents ->
      let tree = Net.Tree.of_parents parents in
      let n = Net.Tree.n_nodes tree in
      let ok = ref true in
      for v = 0 to n - 1 do
        let nodes = Net.Tree.subtree_nodes tree v in
        let members = List.filter (fun x -> Net.Tree.is_ancestor tree v x) (List.init n Fun.id) in
        if List.sort compare nodes <> members then ok := false;
        (* DFS preorder: every node appears after its parent (the root
           of the subtree first). *)
        (match nodes with hd :: _ when hd = v -> () | _ -> ok := false);
        List.iteri
          (fun i x ->
            if x <> v then begin
              let seen = List.filteri (fun j _ -> j < i) nodes in
              if not (List.mem (Net.Tree.parent tree x) seen) then ok := false
            end)
          nodes
      done;
      !ok)

(* --- Allocation: casts and distances build nothing per origin or hop -- *)

(* [Gc.allocated_bytes] is exact only right after a minor collection:
   on OCaml 5.1 it counts an eighth of the young generation's
   allocation until the next collection corrects it. *)
let allocated f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  f ();
  Gc.minor ();
  Gc.allocated_bytes () -. before

(* Walks replay static arrays, so where a flood starts cannot change
   what it allocates: 512 receivers each multicasting once allocate
   exactly what one receiver multicasting 512 times does. *)
let test_alloc_multicast_origins () =
  let tree = Net.Tree.balanced ~fanout:8 ~depth:3 in
  let engine, network = make_network ~tree () in
  let receivers = Net.Tree.receivers tree in
  check Alcotest.int "512 members" 512 (Array.length receivers);
  Array.iter (fun v -> Net.Network.on_receive network v ignore) receivers;
  let casts origin () =
    Array.iteri
      (fun i _ ->
        Net.Network.multicast network ~from:(origin i) session_packet;
        Sim.Engine.run engine)
      receivers
  in
  let distinct i = receivers.(i) and same _ = receivers.(0) in
  casts distinct ();
  casts same ();
  let from_distinct = allocated (casts distinct) and from_one = allocated (casts same) in
  check (Alcotest.float 0.) "bytes from 512 origins = from one" from_one from_distinct

(* [Network.dist] sums the path in place: a 999-link distance allocates
   no more than a one-link one. *)
let test_alloc_dist () =
  let tree = Net.Tree.line 1000 in
  let _, network = make_network ~tree () in
  let across hops () = ignore (Sys.opaque_identity (Net.Network.dist network 0 hops)) in
  across 999 ();
  let far = allocated (across 999) and near = allocated (across 1) in
  if far > near then
    Alcotest.failf "dist over 999 links allocated %.0f B, over one link %.0f B" far near

(* A unicast walks its path in place: across 999 links it allocates
   exactly what it does across one. *)
let test_alloc_unicast () =
  let tree = Net.Tree.line 1000 in
  let engine, network = make_network ~tree () in
  List.iter (fun v -> Net.Network.on_receive network v ignore) [ 1; 999 ];
  let across dst () =
    Net.Network.unicast network ~from:0 ~dst session_packet;
    Sim.Engine.run engine
  in
  across 999 ();
  across 1 ();
  let far = allocated (across 999) and near = allocated (across 1) in
  check (Alcotest.float 0.) "bytes across 999 links = across one" near far

(* A subcast climbs to its root and floods the root's preorder range:
   from a leaf to 512 receivers it allocates exactly what it does to
   8. *)
let test_alloc_subcast () =
  let cast depth =
    let tree = Net.Tree.balanced ~fanout:8 ~depth in
    let engine, network = make_network ~tree () in
    let receivers = Net.Tree.receivers tree in
    Array.iter (fun v -> Net.Network.on_receive network v ignore) receivers;
    fun () ->
      Net.Network.subcast network ~from:receivers.(0) ~root:0 session_packet;
      Sim.Engine.run engine
  in
  let wide = cast 3 and narrow = cast 1 in
  wide ();
  narrow ();
  let many = allocated wide and few = allocated narrow in
  check (Alcotest.float 0.) "bytes for 512 receivers = for 8" few many

(* Deliveries take their times from the walk's arrival array, and the
   engine clock is a flat float record: one multicast to 512 receivers,
   drained, allocates exactly what one to 8 receivers does. *)
let test_alloc_deliveries () =
  let cast depth =
    let tree = Net.Tree.balanced ~fanout:8 ~depth in
    let engine, network = make_network ~tree () in
    Array.iter (fun v -> Net.Network.on_receive network v ignore) (Net.Tree.receivers tree);
    fun () ->
      Net.Network.multicast network ~from:0 session_packet;
      Sim.Engine.run engine
  in
  let wide = cast 3 and narrow = cast 1 in
  wide ();
  narrow ();
  let many = allocated wide and few = allocated narrow in
  check (Alcotest.float 0.) "bytes for 512 receivers = for 8" few many

let () =
  Alcotest.run "net"
    [
      ( "tree",
        [
          Alcotest.test_case "basic" `Quick test_tree_basic;
          Alcotest.test_case "validation" `Quick test_tree_validation;
          Alcotest.test_case "lca/hops" `Quick test_tree_lca_hops;
          Alcotest.test_case "paths" `Quick test_tree_path;
          Alcotest.test_case "ancestry/subtrees" `Quick test_tree_ancestry_subtrees;
          Alcotest.test_case "distances" `Quick test_tree_dist;
          Alcotest.test_case "constructors" `Quick test_tree_constructors;
          qcheck prop_tree_lca_is_common_ancestor;
          qcheck prop_tree_hops_path_consistent;
          qcheck prop_tree_receivers_are_leaves;
        ] );
      ( "packet",
        [
          Alcotest.test_case "sizes" `Quick test_packet_sizes;
          Alcotest.test_case "seq" `Quick test_packet_seq;
          Alcotest.test_case "describe" `Quick test_packet_describe;
        ] );
      ( "cost",
        [
          Alcotest.test_case "accounting" `Quick test_cost_accounting;
          Alcotest.test_case "category of" `Quick test_cost_category_of;
        ] );
      ( "network",
        [
          Alcotest.test_case "multicast times" `Quick test_network_multicast_times;
          Alcotest.test_case "payload serialization" `Quick test_network_payload_serialization;
          Alcotest.test_case "data FIFO" `Quick test_network_data_fifo;
          Alcotest.test_case "drop prunes subtree" `Quick test_network_drop_prunes_subtree;
          Alcotest.test_case "drop direction" `Quick test_network_drop_direction;
          Alcotest.test_case "unicast" `Quick test_network_unicast;
          Alcotest.test_case "subcast" `Quick test_network_subcast;
          Alcotest.test_case "relayed subcast" `Quick test_network_subcast_from_outside;
          Alcotest.test_case "scoped subcast refused in shard mode" `Quick
            test_network_scoped_subcast_in_shard_mode;
          Alcotest.test_case "multicast crossings" `Quick test_network_multicast_crossings;
          Alcotest.test_case "dist/rtt" `Quick test_network_dist_rtt;
          Alcotest.test_case "heterogeneous delays" `Quick test_network_heterogeneous;
        ] );
      ( "perturb",
        [
          Alcotest.test_case "mid-flight link down" `Quick test_perturb_mid_flight_down;
          Alcotest.test_case "window boundaries" `Quick test_perturb_window_boundaries;
          Alcotest.test_case "invalid windows" `Quick test_perturb_invalid_windows;
          Alcotest.test_case "crash in flight" `Quick test_perturb_crash_in_flight;
          Alcotest.test_case "jitter bounded and deterministic" `Quick test_perturb_jitter;
          Alcotest.test_case "duplication" `Quick test_perturb_dup;
        ] );
      ( "membership",
        [
          Alcotest.test_case "defaults" `Quick test_membership_defaults;
          Alcotest.test_case "gates delivery both ways" `Quick test_membership_gates_delivery;
          Alcotest.test_case "counts effective transitions" `Quick
            test_membership_counts_effective_transitions;
          Alcotest.test_case "crash is not departure" `Quick
            test_membership_crash_is_not_departure;
        ] );
      ( "routes",
        [
          qcheck prop_routes_flood_order;
          qcheck prop_routes_down_order;
          qcheck prop_routes_path;
          qcheck prop_routes_neighbors;
          qcheck prop_subtree_nodes_preorder;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "multicast origins allocate alike" `Quick
            test_alloc_multicast_origins;
          Alcotest.test_case "dist allocates nothing per hop" `Quick test_alloc_dist;
          Alcotest.test_case "deliveries allocate nothing per receiver" `Quick
            test_alloc_deliveries;
          Alcotest.test_case "unicast allocates nothing per hop" `Quick test_alloc_unicast;
          Alcotest.test_case "subcast allocates nothing per receiver" `Quick test_alloc_subcast;
        ] );
    ]
