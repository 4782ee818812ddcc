(* Conservative-PDES tests: qcheck properties of the tree partitioner
   and the sharded-vs-serial differential battery.

   The battery is sharding's acceptance gate: for every scale family
   x protocol x fault plan x shard count, the sharded run must
   reproduce the serial artifact bit for bit — counters, recovery
   records (float-exact), cost matrices, RTTs, audit and oracle
   verdicts — and the serial run must detect losses, so that every
   cell compares real recovery traffic. On divergence the battery
   shrinks the run (fewer packets) to the smallest failing instance
   and names the first differing component, so a conservative-sync bug
   reports as, say, "counters differ at 10 packets", not as a wall of
   bytes. *)

let check = Alcotest.check

let qcheck = QCheck_alcotest.to_alcotest

(* --- Partitioner properties ------------------------------------------ *)

(* Random scale-family trees: the shapes sharded runs actually face. *)
let gen_tree =
  QCheck.Gen.(
    let* seed = int_range 1 10_000 in
    let* n_receivers = int_range 8 300 in
    let rng = Sim.Rng.create (Int64.of_int seed) in
    let* family = int_range 0 2 in
    return
      (match family with
      | 0 -> Mtrace.Topology_gen.bounded_fanout ~rng ~n_receivers ~fanout:4
      | 1 -> Mtrace.Topology_gen.star_of_stars ~rng ~n_receivers ~clusters:8
      | _ -> Mtrace.Topology_gen.deep_chain ~rng ~n_receivers))

let gen_case =
  QCheck.make
    ~print:(fun (tree, shards) ->
      Printf.sprintf "tree(n=%d, height=%d) shards=%d" (Net.Tree.n_nodes tree)
        (Net.Tree.height tree) shards)
    QCheck.Gen.(
      let* tree = gen_tree in
      let* shards = int_range 1 8 in
      return (tree, shards))

let delay_of_link l = 0.005 +. (0.001 *. float_of_int (l mod 7))

let prop_complete_ownership =
  QCheck.Test.make ~name:"every node owned exactly once" ~count:100 gen_case
    (fun (tree, shards) ->
      let p = Net.Partition.make ~tree ~delay:delay_of_link ~shards in
      let n = Net.Tree.n_nodes tree in
      Array.length p.Net.Partition.owner = n
      && Array.for_all (fun s -> s >= 0 && s < p.Net.Partition.n_shards) p.Net.Partition.owner
      && p.Net.Partition.n_shards >= 1
      && p.Net.Partition.n_shards <= shards
      (* the per-shard counts tile the node set *)
      && List.init p.Net.Partition.n_shards (fun me -> Net.Partition.n_owned p ~me)
         |> List.fold_left ( + ) 0 = n)

let prop_cut_and_lookahead =
  QCheck.Test.make ~name:"cut links exact; lookahead = min cut delay" ~count:100 gen_case
    (fun (tree, shards) ->
      let p = Net.Partition.make ~tree ~delay:delay_of_link ~shards in
      let owner = p.Net.Partition.owner in
      let is_cut l = l <> 0 && owner.(l) <> owner.(Net.Tree.parent tree l) in
      let all_links = List.init (Net.Tree.n_nodes tree - 1) (fun i -> i + 1) in
      let expected_cut = List.filter is_cut all_links in
      List.sort compare p.Net.Partition.cut_links = List.sort compare expected_cut
      && (match expected_cut with
         | [] -> p.Net.Partition.lookahead = infinity
         | _ ->
             p.Net.Partition.lookahead
             = List.fold_left (fun a l -> Float.min a (delay_of_link l)) infinity expected_cut)
      (* the conservative premise: no cut link is faster than the
         lookahead the barrier protocol trusts *)
      && List.for_all (fun l -> delay_of_link l >= p.Net.Partition.lookahead) expected_cut)

let prop_single_shard_is_serial =
  QCheck.Test.make ~name:"k=1 degenerates to the serial run" ~count:50
    (QCheck.make ~print:(fun t -> Printf.sprintf "tree(n=%d)" (Net.Tree.n_nodes t)) gen_tree)
    (fun tree ->
      let p = Net.Partition.make ~tree ~delay:delay_of_link ~shards:1 in
      p.Net.Partition.n_shards = 1
      && p.Net.Partition.cut_links = []
      && p.Net.Partition.lookahead = infinity
      && Array.for_all (fun s -> s = 0) p.Net.Partition.owner)

let prop_owned_below =
  QCheck.Test.make ~name:"owned_below consistent at root and leaves" ~count:50 gen_case
    (fun (tree, shards) ->
      let p = Net.Partition.make ~tree ~delay:delay_of_link ~shards in
      List.init p.Net.Partition.n_shards (fun me -> me)
      |> List.for_all (fun me ->
             let below = Net.Partition.owned_below p ~tree ~me in
             below.(0) = Net.Partition.n_owned p ~me
             && Array.for_all
                  (fun v -> below.(v) = if p.Net.Partition.owner.(v) = me then 1 else 0)
                  (Net.Tree.receivers tree)))

(* --- Sharded-vs-serial differential battery -------------------------- *)

(* Everything observable about a run, marshalled for bit-exactness:
   float-identical recovery records and RTTs, full per-node counter and
   cost matrices, audit/oracle verdicts. *)
let fingerprint (r : Harness.Runner.result) =
  Marshal.to_string
    ( r.Harness.Runner.counters,
      Stats.Recovery.records r.recoveries,
      r.cost,
      r.rtt_to_source,
      r.exp_requests,
      r.exp_replies,
      r.unrecovered,
      r.detected,
      r.audit_violations,
      r.oracle_violations,
      Option.map Harness.Audit.violations r.oracle )
    []

(* On mismatch, name the first component that differs. *)
let first_difference (a : Harness.Runner.result) (b : Harness.Runner.result) =
  let eq f = Marshal.to_string (f a) [] = Marshal.to_string (f b) [] in
  if not (eq (fun r -> r.Harness.Runner.counters)) then "counters"
  else if not (eq (fun r -> Stats.Recovery.records r.Harness.Runner.recoveries)) then
    "recovery records"
  else if not (eq (fun r -> r.Harness.Runner.cost)) then "cost matrix"
  else if not (eq (fun r -> r.Harness.Runner.rtt_to_source)) then "rtts"
  else if not (eq (fun r -> (r.Harness.Runner.detected, r.Harness.Runner.unrecovered))) then
    "detected/unrecovered"
  else if not (eq (fun r -> (r.Harness.Runner.exp_requests, r.Harness.Runner.exp_replies)))
  then "expedited counts"
  else if not (eq (fun r -> r.Harness.Runner.audit_violations)) then "audit verdict"
  else if
    not (eq (fun r -> (r.Harness.Runner.oracle_violations, Option.map Harness.Audit.violations r.Harness.Runner.oracle)))
  then "oracle verdict"
  else "nothing (fingerprints agree at this size)"

let run_once ~row ~protocol ~fault ~n_packets ~seed ~shards =
  Harness.Runner.run_leg ~n_packets ?fault ~shards ~seed protocol row

(* A cell whose serial run detects no loss compares two runs without
   recovery traffic: it would pass whatever sharding did to repairs. *)
let check_detects label (serial : Harness.Runner.result) =
  if serial.Harness.Runner.detected = 0 then
    Alcotest.fail (label ^ ": the serial run detected no loss, so the cell tests no recovery")

let protocol_label = function
  | Harness.Runner.Srm_protocol -> "srm"
  | Harness.Runner.Cesrm_protocol _ -> "cesrm"
  | Harness.Runner.Lms_protocol -> "lms"

(* Shrink a divergence to the smallest packet count that still shows
   it, then report the first differing component there. *)
let diagnose ~row ~protocol ~fault ~n_packets ~seed ~shards =
  let diverges n =
    let serial = run_once ~row ~protocol ~fault ~n_packets:n ~seed ~shards:1 in
    let sharded = run_once ~row ~protocol ~fault ~n_packets:n ~seed ~shards in
    if fingerprint serial = fingerprint sharded then None
    else Some (first_difference serial sharded)
  in
  let rec shrink n best =
    if n < 1 then best
    else match diverges n with Some what -> shrink (n / 2) (Some (n, what)) | None -> best
  in
  match shrink n_packets None with
  | None -> assert false
  | Some (n, what) ->
      Printf.sprintf "%s/%s%s shards=%d: sharded run diverges from serial at %d packets: %s"
        row.Mtrace.Meta.name (protocol_label protocol)
        (match fault with None -> "" | Some f -> "+" ^ f)
        shards n what

let check_identical ~label ~row ~protocol ~fault ~n_packets ~seed ~shards () =
  let serial = run_once ~row ~protocol ~fault ~n_packets ~seed ~shards:1 in
  let sharded = run_once ~row ~protocol ~fault ~n_packets ~seed ~shards in
  check Alcotest.int "serial audit clean" 0 serial.Harness.Runner.audit_violations;
  check_detects label serial;
  if fingerprint serial <> fingerprint sharded then
    Alcotest.fail (diagnose ~row ~protocol ~fault ~n_packets ~seed ~shards)

let battery =
  (* (row, packets, seed): every unfaulted cell detects losses and
     CESRM sends expedited requests in each. At seed 42 the
     128-receiver rows detect 0-3 losses and send none. *)
  let rows =
    [
      ("SCALE-bf-128", 100, 1L);
      ("SCALE-ss-128", 100, 1L);
      ("SCALE-dc-48", 40, 42L);
      ("SCALE-bf-256", 100, 42L);
      ("SCALE-ss-256", 100, 42L);
    ]
  in
  let protocols =
    [
      Harness.Runner.Srm_protocol;
      Harness.Runner.Cesrm_protocol Cesrm.Host.default_config;
    ]
  in
  (* Each fault plan with the shard counts it runs at on a row: no plan
     and crash-replier everywhere, the other shardable canned plans —
     the partition, flap, duplication and churn hooks — on bf-256 at
     k = 2. *)
  let faults =
    let everywhere _ = [ 2; 4 ] and on_bf256 name = if name = "SCALE-bf-256" then [ 2 ] else [] in
    [ (None, everywhere); (Some "crash-replier", everywhere) ]
    @ List.map
        (fun plan -> (Some plan, on_bf256))
        [ "partition-heal"; "link-flap"; "dup-burst"; "churn-late"; "churn-flash"; "churn-steady" ]
  in
  List.concat_map
    (fun (name, n_packets, seed) ->
      let row = Mtrace.Scale.find name in
      List.concat_map
        (fun protocol ->
          List.concat_map
            (fun (fault, shard_counts) ->
              List.map
                (fun shards ->
                  let label =
                    Printf.sprintf "%s %s%s k=%d" name (protocol_label protocol)
                      (match fault with None -> "" | Some f -> "+" ^ f)
                      shards
                  in
                  Alcotest.test_case label `Quick
                    (check_identical ~label ~row ~protocol ~fault ~n_packets ~seed ~shards))
                (shard_counts name))
            faults)
        protocols)
    rows

(* Heterogeneous per-link delays exercise the replicated RNG draws and
   a non-uniform lookahead; data jitter exercises the replicated
   per-packet send-time draws. *)
let battery_setups =
  let row = Mtrace.Scale.find "SCALE-bf-256" in
  List.map
    (fun (label, setup) ->
      Alcotest.test_case label `Quick (fun () ->
          let run shards =
            Harness.Runner.run_leg ~setup ~n_packets:100 ~shards ~seed:42L
              Harness.Runner.Srm_protocol row
          in
          let serial = run 1 and sharded = run 3 in
          check_detects label serial;
          if fingerprint serial <> fingerprint sharded then
            Alcotest.fail (label ^ ": sharded diverges from serial")))
    [
      ( "heterogeneous delays k=3",
        { Harness.Runner.default_setup with heterogeneous_delays = true } );
      ("data jitter k=3", { Harness.Runner.default_setup with data_jitter = 0.004 });
    ]

(* Infeasible configurations must fall back to serial, not diverge or
   fail: the result is the serial result, whatever the shard count. *)
let test_infeasible_fallback () =
  let row = Mtrace.Scale.find "SCALE-bf-128" in
  let setup = { Harness.Runner.default_setup with lossy_recovery = true } in
  let serial =
    Harness.Runner.run_leg ~setup ~n_packets:20 ~shards:1 ~seed:42L
      Harness.Runner.Srm_protocol row
  in
  let claimed =
    Harness.Runner.run_leg ~setup ~n_packets:20 ~shards:4 ~seed:42L
      Harness.Runner.Srm_protocol row
  in
  check Alcotest.string "lossy recovery falls back to serial" (fingerprint serial)
    (fingerprint claimed);
  (* jitter-reorder injects per-crossing RNG draws: shardable must say
     no and the run still completes serially *)
  let faulted =
    Harness.Runner.run_leg ~n_packets:20 ~fault:"jitter-reorder" ~shards:4 ~seed:42L
      Harness.Runner.Srm_protocol row
  in
  let faulted_serial =
    Harness.Runner.run_leg ~n_packets:20 ~fault:"jitter-reorder" ~shards:1 ~seed:42L
      Harness.Runner.Srm_protocol row
  in
  check Alcotest.string "link jitter falls back to serial" (fingerprint faulted_serial)
    (fingerprint faulted);
  (* Two replies reach node 78 of this leg at the same instant; a
     sharded replay acted on them in the other order and diverged. *)
  let same_instant shards =
    Harness.Runner.run_leg ~n_packets:112 ~shards ~seed:174277L
      (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config)
      (Mtrace.Scale.find "SCALE-ss-96")
  in
  check Alcotest.string "CESRM falls back to serial" (fingerprint (same_instant 1))
    (fingerprint (same_instant 2));
  (* every fallback names its reason, which run and compare print *)
  let reason ?tracer ?steady ?domains ?(setup = Harness.Runner.default_setup) protocol =
    Harness.Runner.shardable ~tracer ~fault_plan:None ~setup ~steady ~domains protocol
  in
  let cesrm = Harness.Runner.Cesrm_protocol Cesrm.Host.default_config in
  let srm = Harness.Runner.Srm_protocol in
  List.iter
    (fun (expected, got) -> check Alcotest.(option string) "serial reason" expected got)
    [
      (None, reason srm);
      (None, reason ~steady:Steady.Config.infinite srm);
      (Some "CESRM expedited recovery", reason cesrm);
      (Some "CESRM expedited recovery", reason ~steady:Steady.Config.infinite cesrm);
      (Some "event tracing", reason ~tracer:(Obs.Trace.create ()) cesrm);
      (Some "recovery domains", reason ~domains:Rdomain.Auto cesrm);
      (Some "lossy recovery/sessions", reason ~setup Harness.Runner.Srm_protocol);
      (Some "LMS", reason Harness.Runner.Lms_protocol);
      (Some "finite steady window", reason ~steady:(Steady.Config.windowed 32) cesrm);
      ( Some "records-off steady mode",
        reason ~steady:{ Steady.Config.infinite with retain_records = false } cesrm );
    ]

let () =
  Alcotest.run "pdes"
    [
      ( "partition",
        [
          qcheck prop_complete_ownership;
          qcheck prop_cut_and_lookahead;
          qcheck prop_single_shard_is_serial;
          qcheck prop_owned_below;
        ] );
      ("differential", battery);
      ("setups", battery_setups);
      ("fallback", [ Alcotest.test_case "infeasible setups" `Quick test_infeasible_fallback ]);
    ]
