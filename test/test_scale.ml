(* Scale-workload tests: topology family shapes, scenario-name
   resolution, pinned determinism goldens for a 1024-receiver group,
   and sweep serial/parallel byte-identity at that size.

   The golden fingerprints pin the scale harness end to end — tree
   generation, Gilbert calibration, ground-truth loss injection, the
   scale tuning (oracle distances, source-only sessions, widened
   suppression windows) and both protocols on top of the timer-wheel
   engine. Any representation change that claims to be behavior-
   preserving must reproduce them byte for byte. *)

let check = Alcotest.check

(* --- Topology families ---------------------------------------------- *)

let rng () = Sim.Rng.create 42L

let test_bounded_fanout_shape () =
  let tree = Mtrace.Topology_gen.bounded_fanout ~rng:(rng ()) ~n_receivers:500 ~fanout:4 in
  check Alcotest.int "receiver count" 500 (Net.Tree.n_receivers tree);
  Array.iter
    (fun r -> check Alcotest.bool "receivers are leaves" true (Net.Tree.is_leaf tree r))
    (Net.Tree.receivers tree);
  (* Total degree stays bounded: at most [fanout] router children plus
     the round-robin share of receivers. *)
  let max_children = ref 0 in
  for v = 0 to Net.Tree.n_nodes tree - 1 do
    if not (Net.Tree.is_leaf tree v) then
      max_children := max !max_children (List.length (Net.Tree.children tree v))
  done;
  check Alcotest.bool "fanout bounded" true (!max_children <= 2 * 4 + 1);
  (* Logarithmic depth in expectation; generously bounded here. *)
  check Alcotest.bool "depth is shallow" true (Net.Tree.height tree <= 40)

let test_star_of_stars_shape () =
  let tree = Mtrace.Topology_gen.star_of_stars ~rng:(rng ()) ~n_receivers:300 ~clusters:17 in
  check Alcotest.int "receiver count" 300 (Net.Tree.n_receivers tree);
  check Alcotest.int "depth 2" 2 (Net.Tree.height tree);
  check Alcotest.int "hub count" 17 (List.length (Net.Tree.children tree 0));
  Array.iter
    (fun r -> check Alcotest.int "every receiver at depth 2" 2 (Net.Tree.depth tree r))
    (Net.Tree.receivers tree)

let test_deep_chain_shape () =
  let n = 200 in
  let tree = Mtrace.Topology_gen.deep_chain ~rng:(rng ()) ~n_receivers:n in
  check Alcotest.int "receiver count" n (Net.Tree.n_receivers tree);
  check Alcotest.int "depth n+1" (n + 1) (Net.Tree.height tree);
  check Alcotest.int "one node per level plus leaf" (2 * n + 1) (Net.Tree.n_nodes tree)

(* --- Scenario-name resolution ---------------------------------------- *)

let test_scale_parse () =
  (match Mtrace.Scale.parse "SCALE-bf-1024" with
  | Some row ->
      check Alcotest.int "receivers" 1024 row.Mtrace.Meta.n_receivers;
      check Alcotest.string "name round-trips" "SCALE-bf-1024" row.Mtrace.Meta.name;
      check Alcotest.bool "index disjoint from published rows" true
        (row.Mtrace.Meta.index >= 100)
  | None -> Alcotest.fail "SCALE-bf-1024 must parse");
  List.iter
    (fun bad -> check Alcotest.bool bad true (Mtrace.Scale.parse bad = None))
    [ "SCALE-bf-4"; "SCALE-bf-200000"; "SCALE-xx-256"; "SCALE-bf"; "WRN951214"; "" ]

let test_scale_find_fallback () =
  (* find resolves scale names and falls through to the published
     catalog for everything else. *)
  check Alcotest.int "scale name" 512 (Mtrace.Scale.find "SCALE-ss-512").Mtrace.Meta.n_receivers;
  check Alcotest.string "published name" "WRN951214" (Mtrace.Scale.find "WRN951214").Mtrace.Meta.name;
  Alcotest.check_raises "unknown name" Not_found (fun () ->
      ignore (Mtrace.Scale.find "NO-SUCH-TRACE"))

let test_scale_catalog () =
  check Alcotest.int "5 families x 4 sizes" 20 (List.length Mtrace.Scale.catalog);
  List.iter
    (fun row ->
      check Alcotest.bool "catalog rows parse back" true
        (Mtrace.Scale.parse row.Mtrace.Meta.name = Some row))
    Mtrace.Scale.catalog

let test_loss_budget_frozen () =
  let losses name = (Mtrace.Scale.find name).Mtrace.Meta.n_losses in
  check Alcotest.bool "budget grows below the cap" true
    (losses "SCALE-bf-256" < losses "SCALE-bf-512");
  check Alcotest.int "budget frozen past 512 receivers" (losses "SCALE-bf-512")
    (losses "SCALE-bf-10000")

(* --- Pinned 1024-receiver goldens ------------------------------------ *)

let fingerprint (r : Harness.Runner.result) =
  let total k = Stats.Counters.total r.counters k in
  Printf.sprintf
    "rqst=%d exp_rqst=%d repl=%d exp_repl=%d sess=%d detected=%d unrecovered=%d \
     recoveries=%d lat_sum=%.17g"
    (total Stats.Counters.Rqst) (total Stats.Counters.Exp_rqst) (total Stats.Counters.Repl)
    (total Stats.Counters.Exp_repl) (total Stats.Counters.Sess) r.detected r.unrecovered
    (Stats.Recovery.count r.recoveries)
    (Stats.Summary.total (Stats.Recovery.latency_summary r.recoveries))

let scale_row = Mtrace.Scale.find "SCALE-bf-1024"

let run_scale protocol = Harness.Runner.run_leg ~n_packets:40 ~seed:42L protocol scale_row

let check_scale_fingerprint name expected protocol () =
  let res = run_scale protocol in
  check Alcotest.int (name ^ " audit clean") 0 res.Harness.Runner.audit_violations;
  check Alcotest.string name expected (fingerprint res)

(* --- Pinned recovery-domain goldens (dc-1024) ------------------------ *)

(* The deep-chain scenario is where domains earn their keep: the domain
   goldens pin the clustering, the designated-replier election, the
   scoped request/repair subcasts and the in-flight detection allowance
   end to end. The flat golden on the same row guards the other
   direction: with [domains] absent the run must not feel the domain
   machinery at all. *)

let dc_row = Mtrace.Scale.find "SCALE-dc-1024"

let run_dc ?shards ?steady ?domains protocol =
  Harness.Runner.run_leg ?shards ?steady ?domains ~n_packets:40 ~seed:42L protocol dc_row

let domain_fingerprint (r : Harness.Runner.result) =
  let m = Stats.Recovery.makespan_summary r.recoveries in
  Printf.sprintf "%s mkspan_mean=%.17g mkspan_max=%.17g" (fingerprint r)
    (Stats.Summary.mean m) (Stats.Summary.max m)

let check_domain_fingerprint name expected protocol () =
  let res = run_dc ~domains:Rdomain.Auto protocol in
  check Alcotest.int (name ^ " audit clean") 0 res.Harness.Runner.audit_violations;
  check Alcotest.string name expected (domain_fingerprint res)

let check_flat_dc_fingerprint name expected protocol () =
  let res = run_dc protocol in
  check Alcotest.int (name ^ " audit clean") 0 res.Harness.Runner.audit_violations;
  check Alcotest.string name expected (fingerprint res)

let test_domains_compose_shards () =
  (* Domain runs force the serial path; asking for shards must change
     nothing, not crash or diverge. *)
  let serial = domain_fingerprint (run_dc ~domains:Rdomain.Auto Harness.Runner.Srm_protocol) in
  let sharded =
    domain_fingerprint (run_dc ~shards:2 ~domains:Rdomain.Auto Harness.Runner.Srm_protocol)
  in
  check Alcotest.string "domains + shards falls back to the serial result" serial sharded

let test_domains_compose_steady () =
  (* A window that never retires runs what no steady mode runs, with
     domains on. It is checked through [run_model] on the one eager
     trace: a steady [run_leg] would stream the row's trace, and the
     deep chain's streamed calibration differs from the eager one. *)
  let trace, loss_model = Harness.Runner.inputs ~seed:42L ~n_packets:40 dc_row in
  let setup =
    Harness.Runner.tune_for_trace ~domains:Rdomain.Auto trace Harness.Runner.default_setup
  in
  let run ?steady () =
    domain_fingerprint
      (Harness.Runner.run_model ~setup:{ setup with seed = 42L } ?steady ~domains:Rdomain.Auto
         Harness.Runner.Srm_protocol trace loss_model)
  in
  check Alcotest.string "domains + never-retiring steady window invisible" (run ())
    (run ~steady:(Steady.Config.windowed 40) ());
  (* A finite retirement window runs over the streaming trace, so the
     invisibility reference is the never-retiring window on the same
     stream (as in the steady battery) — here with domains on, and on
     bounded fanout: the deep-chain rows' streaming calibration
     undershoots the loss budget (see ROADMAP), which would make this
     check vacuous on SCALE-dc-1024. *)
  let bf ~window =
    domain_fingerprint
      (Harness.Runner.run_leg ~n_packets:40 ~seed:42L ~steady:(Steady.Config.windowed window)
         ~domains:Rdomain.Auto Harness.Runner.Srm_protocol scale_row)
  in
  let finite = bf ~window:16 and reference = bf ~window:40 in
  check Alcotest.string "domains + finite steady window invisible" reference finite

(* A host created with a domain map derives what domain mode needs
   from its own inputs — true tree distances, and an in-flight
   allowance counted in the send period its deployment hands it — so a
   group deployed straight through [Proto.deploy ~domain], with the
   paper's default params untouched, must run exactly as
   [run_model ~domains] runs it. Only the link delay is the deep-chain
   tuning's 1 ms; every member sends sessions, so a host that ignored
   its domain map would schedule on session estimates, and without
   the allowance it detects thousands of losses still in flight where
   the domain run detects 8. *)
let test_direct_domain_deploy protocol () =
  let setup = { Harness.Runner.default_setup with link_delay = 0.001 } in
  let trace, loss_model =
    Harness.Runner.inputs ~seed:42L ~n_packets:200 (Mtrace.Scale.find "SCALE-dc-64")
  in
  let reference =
    Harness.Runner.run_model ~setup ~domains:Rdomain.Auto protocol trace loss_model
  in
  let tree = Mtrace.Trace.tree trace in
  let n_packets = Mtrace.Trace.n_packets trace and period = Mtrace.Trace.period trace in
  let engine = Sim.Engine.create ~seed:setup.seed () in
  let network =
    Net.Network.create ~engine ~tree ~link_delay:setup.link_delay
      ~bandwidth_bps:setup.bandwidth_bps ()
  in
  Net.Network.set_drop network
    (Harness.Run_types.make_drop ~loss_model ~lossy_recovery:false ~lossy_sessions:false
       ~rates:(Array.make (Net.Tree.n_nodes tree) 0.)
       ~rng:(Sim.Rng.split (Sim.Engine.rng engine)));
  let audit = Harness.Audit.attach ~max_exp_per_loss:1 network in
  let domain = Rdomain.of_tree ~tree Rdomain.Auto in
  let params = setup.params and warmup = setup.warmup and tail = setup.tail in
  let hosts, counters, recoveries =
    match protocol with
    | Harness.Runner.Cesrm_protocol config ->
        let g = Cesrm.Proto.deploy ~config ~domain ~network ~params ~n_packets ~period () in
        Cesrm.Proto.start g ~warmup ~tail;
        (Srm.Proto.srm_members g, Cesrm.Proto.counters g, Cesrm.Proto.recoveries g)
    | _ ->
        let g = Srm.Proto.deploy ~domain ~network ~params ~n_packets ~period () in
        Srm.Proto.start g ~warmup ~tail;
        (Srm.Proto.srm_members g, Srm.Proto.counters g, Srm.Proto.recoveries g)
  in
  Sim.Engine.run ~until:(Harness.Run_types.horizon ~setup ~n_packets ~period) engine;
  let detected = List.fold_left (fun n (_, h) -> n + Srm.Host.detected_losses h) 0 hosts in
  check Alcotest.int "audit clean" 0 (List.length (Harness.Audit.violations audit));
  check Alcotest.int "detections" reference.Harness.Runner.detected detected;
  check Alcotest.string "fingerprint" (domain_fingerprint reference)
    (domain_fingerprint
       {
         reference with
         counters;
         recoveries;
         detected;
         unrecovered = detected - Stats.Recovery.count recoveries;
       })

(* --- Adversarial cache-thrash goldens (rh/ps at 1024) ----------------- *)

(* Full 200-packet runs: the adversarial families' dynamics are
   windowed (hot-link rotation, phase shifts every 25 packets), so a
   truncated run would never leave the first phase and the retention
   schemes would be indistinguishable. The grid pins every scheme on
   both families: on phase-shift the schemes separate (the win the
   battery exists to show); on rotating-hot they are identical — the
   rotation outruns every retention scheme's reuse window, which the
   shared fingerprint documents as strongly as a difference would. *)

let retention_of name = Option.get (Cesrm.Retention.of_name name)

(* CESRM with the named retention scheme. *)
let cesrm_at name =
  Harness.Runner.Cesrm_protocol { Cesrm.Host.default_config with retention = retention_of name }

let run_adv ?shards ?steady trace protocol =
  Harness.Runner.run_leg ?shards ?steady ~seed:42L protocol (Mtrace.Scale.find trace)

let check_adv_fingerprint name expected trace policy () =
  let protocol =
    match policy with None -> Harness.Runner.Srm_protocol | Some p -> cesrm_at p
  in
  let res = run_adv trace protocol in
  check Alcotest.int (name ^ " audit clean") 0 res.Harness.Runner.audit_violations;
  check Alcotest.string name expected (fingerprint res)

let expedited_success (r : Harness.Runner.result) =
  let total k = Stats.Counters.total r.Harness.Runner.counters k in
  float_of_int (total Stats.Counters.Exp_repl)
  /. float_of_int (max 1 (total Stats.Counters.Exp_rqst))

let test_multi_entry_beats_one_entry () =
  (* The acceptance criterion: on the phase-shifting scenario a
     multi-entry retention scheme beats the paper's 1-entry
     most-recent cache on expedited success rate. *)
  let run p = run_adv "SCALE-ps-1024" (cesrm_at p) in
  let baseline = expedited_success (run "recent:1") in
  let hotspot = expedited_success (run "hotspot") in
  let lru = expedited_success (run "lru") in
  check Alcotest.bool
    (Printf.sprintf "hotspot %.3f beats recent:1 %.3f" hotspot baseline)
    true (hotspot > baseline);
  check Alcotest.bool (Printf.sprintf "lru %.3f beats recent:1 %.3f" lru baseline) true
    (lru > baseline)

let test_default_policy_invisible () =
  (* Naming the default retention explicitly must be byte-identical to
     the default config — on the golden dc-1024 row and on an
     adversarial row. *)
  let cesrm = Harness.Runner.Cesrm_protocol Cesrm.Host.default_config in
  let pairs =
    [
      ("dc-1024", fingerprint (run_dc cesrm), fingerprint (run_dc (cesrm_at "recent")));
      ( "ps-1024",
        fingerprint (run_adv "SCALE-ps-1024" cesrm),
        fingerprint (run_adv "SCALE-ps-1024" (cesrm_at "recent")) );
    ]
  in
  List.iter (fun (name, plain, explicit) -> check Alcotest.string name plain explicit) pairs

let test_adversarial_compose () =
  (* Shards and a steady window that never retires must not feel the
     adversarial trace path: both compose to the serial eager result.
     Adversarial families are eager-only, so a steady leg runs the very
     trace a plain leg does. *)
  let protocol = cesrm_at "hotspot" in
  let serial = fingerprint (run_adv "SCALE-ps-1024" protocol) in
  let sharded = fingerprint (run_adv ~shards:2 "SCALE-ps-1024" protocol) in
  check Alcotest.string "ps-1024 serial = 2 shards" serial sharded;
  let steady =
    fingerprint (run_adv ~steady:(Steady.Config.windowed 200) "SCALE-ps-1024" protocol)
  in
  check Alcotest.string "ps-1024 serial = never-retiring steady" serial steady

let test_adversarial_not_streamable () =
  Alcotest.check_raises "rh refuses the streaming generator"
    (Invalid_argument
       "Generator.synthesize_streaming: SCALE-rh-1024 is an adversarial cache-thrash \
        family (eager-only)")
    (fun () -> ignore (Mtrace.Generator.synthesize_streaming (Mtrace.Scale.find "SCALE-rh-1024")))

(* --- Streamed loss-budget calibration (the dc undershoot fix) --------- *)

let streamed_realized row =
  let g = Mtrace.Generator.synthesize_streaming row in
  let tree = Mtrace.Trace.tree g.Mtrace.Generator.s_trace in
  let n_packets = Mtrace.Trace.n_packets g.Mtrace.Generator.s_trace in
  let rec path_lost ~node ~seq =
    node <> 0
    && (Mtrace.Stream_loss.lost g.Mtrace.Generator.s_loss ~link:node ~seq
       || path_lost ~node:(Net.Tree.parent tree node) ~seq)
  in
  let count = ref 0 in
  for seq = 1 to n_packets do
    Array.iter (fun r -> if path_lost ~node:r ~seq then incr count) (Net.Tree.receivers tree)
  done;
  !count

let test_streamed_budget_calibrated () =
  (* The regression this pins: synthesize_streaming used to skip the
     realized-count correction, so streamed deep-chain legs dropped
     essentially nothing (dc-1024 realized ~6% of its budget). The
     sampled bisection must land every streamed family within 20% of
     the frozen budget. *)
  List.iter
    (fun name ->
      let row = Mtrace.Scale.find name in
      let realized = float_of_int (streamed_realized row) in
      let target = float_of_int row.Mtrace.Meta.n_losses in
      let err = Float.abs (realized -. target) /. target in
      check Alcotest.bool
        (Printf.sprintf "%s streamed %.0f within 20%% of %.0f" name realized target)
        true (err <= 0.20))
    [ "SCALE-dc-1024"; "SCALE-bf-1024"; "SCALE-ss-1024" ]

(* --- Sweep byte-identity at 1024 receivers --------------------------- *)

let scale_spec =
  {
    Exp.Spec.name = "scale";
    traces = [ "SCALE-bf-1024" ];
    protocols =
      [
        Exp.Spec.Srm;
        Exp.Spec.Cesrm { retention = Cesrm.Retention.default; router_assist = false };
      ];
    base_seed = 7L;
    n_seeds = 1;
    n_packets = Some 40;
    link_delay_ms = 20.;
    lossy_recovery = false;
    faults = [];
    domains = None;
  }

let test_sweep_identity_at_scale () =
  let serial = Obs.Json.to_string (Exp.Sweep.run ~jobs:1 scale_spec) in
  (match Obs.Json.parse serial with
  | Error msg -> Alcotest.fail msg
  | Ok artifact -> (
      match Option.bind (Obs.Json.member "totals" artifact) (Obs.Json.member "unrecovered") with
      | Some (Obs.Json.Num 0.) -> ()
      | _ -> Alcotest.fail "expected totals/unrecovered = 0"));
  if Exp.Pool.available then begin
    let parallel = Obs.Json.to_string (Exp.Sweep.run ~jobs:2 scale_spec) in
    check Alcotest.string "serial and parallel artifacts byte-identical at 1024" serial
      parallel
  end

(* --- Pinned churn goldens (churn-steady on bf-1024) ------------------- *)

(* The churn goldens pin the dynamic-membership layer end to end at
   scale: the canned churn-steady schedule compiled onto bf-1024, the
   departure forgiveness accounting, the late-join baselining and the
   churn-aware oracle — one `%.17g` string per protocol. *)

let churn_fingerprint (r : Harness.Runner.result) =
  Printf.sprintf "%s forgiven=%d oracle=%d" (fingerprint r) r.forgiven r.oracle_violations

let run_churn ?shards protocol =
  Harness.Runner.run_leg ?shards ~fault:"churn-steady" ~n_packets:40 ~seed:42L protocol
    scale_row

let check_churn_fingerprint name expected protocol () =
  let res = run_churn protocol in
  check Alcotest.int (name ^ " oracle clean") 0 res.Harness.Runner.oracle_violations;
  check Alcotest.int (name ^ " full-window members whole") 0 res.unrecovered;
  check Alcotest.string name expected (churn_fingerprint res)

let test_churn_compose_shards () =
  (* Churn must not force the serial path: every shard compiles the
     full plan against the same tree, so the sharded run has to
     reproduce the serial bytes exactly. *)
  List.iter
    (fun protocol ->
      let serial = churn_fingerprint (run_churn protocol) in
      let sharded = churn_fingerprint (run_churn ~shards:2 protocol) in
      check Alcotest.string
        (Harness.Runner.protocol_name protocol ^ " churn-steady serial = 2 shards")
        serial sharded)
    [ Harness.Runner.Srm_protocol; Harness.Runner.Cesrm_protocol Cesrm.Host.default_config ]

let () =
  Alcotest.run "scale"
    [
      ( "topology",
        [
          Alcotest.test_case "bounded-fanout shape" `Quick test_bounded_fanout_shape;
          Alcotest.test_case "star-of-stars shape" `Quick test_star_of_stars_shape;
          Alcotest.test_case "deep-chain shape" `Quick test_deep_chain_shape;
        ] );
      ( "names",
        [
          Alcotest.test_case "parse" `Quick test_scale_parse;
          Alcotest.test_case "find fallback" `Quick test_scale_find_fallback;
          Alcotest.test_case "catalog" `Quick test_scale_catalog;
          Alcotest.test_case "loss budget frozen" `Quick test_loss_budget_frozen;
        ] );
      ( "golden",
        [
          Alcotest.test_case "srm 1024" `Quick
            (check_scale_fingerprint "srm-1024"
               "rqst=24 exp_rqst=0 repl=185 exp_repl=0 sess=36 detected=55 unrecovered=0 \
                recoveries=55 lat_sum=101.60805433283687"
               Harness.Runner.Srm_protocol);
          Alcotest.test_case "cesrm 1024" `Quick
            (check_scale_fingerprint "cesrm-1024"
               "rqst=19 exp_rqst=5 repl=131 exp_repl=5 sess=36 detected=55 unrecovered=0 \
                recoveries=55 lat_sum=76.494019482290355"
               (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config));
        ] );
      ( "domains",
        [
          Alcotest.test_case "srm dc-1024 --domains" `Quick
            (check_domain_fingerprint "srm-dc-1024-domains"
               "rqst=54 exp_rqst=0 repl=886 exp_repl=0 sess=36 detected=60 unrecovered=0 \
                recoveries=60 lat_sum=17.789055673337792 \
                mkspan_mean=0.36902220689927623 mkspan_max=0.91896156319211286"
               Harness.Runner.Srm_protocol);
          Alcotest.test_case "cesrm dc-1024 --domains" `Quick
            (check_domain_fingerprint "cesrm-dc-1024-domains"
               "rqst=38 exp_rqst=24 repl=514 exp_repl=24 sess=36 detected=60 unrecovered=0 \
                recoveries=60 lat_sum=14.93880226758265 \
                mkspan_mean=0.30488632480596745 mkspan_max=0.91896156319211286"
               (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config));
          Alcotest.test_case "srm dc-1024 domains off" `Quick
            (check_flat_dc_fingerprint "srm-dc-1024-flat"
               "rqst=72 exp_rqst=0 repl=637 exp_repl=0 sess=36 detected=36307 unrecovered=0 \
                recoveries=36307 lat_sum=83803.329944973302"
               Harness.Runner.Srm_protocol);
          Alcotest.test_case "compose with shards" `Quick test_domains_compose_shards;
          Alcotest.test_case "compose with steady window" `Quick test_domains_compose_steady;
          Alcotest.test_case "srm deployed with a domain map" `Quick
            (test_direct_domain_deploy Harness.Runner.Srm_protocol);
          Alcotest.test_case "cesrm deployed with a domain map" `Quick
            (test_direct_domain_deploy (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config));
        ] );
      ( "adversarial",
        (let rh = "SCALE-rh-1024" and ps = "SCALE-ps-1024" in
         let rh_shared =
           (* One fingerprint for SRM and every retention scheme: the
              rotation outruns any cache's reuse window (no expedited
              requests at all), so the schemes cannot separate. *)
           "rqst=12 exp_rqst=0 repl=24 exp_repl=0 sess=43 detected=240 unrecovered=0 \
            recoveries=240 lat_sum=182.21221976189329"
         in
         List.map
           (fun (label, trace, policy, expected) ->
             Alcotest.test_case label `Quick (check_adv_fingerprint label expected trace policy))
           [
             ("rh-1024 srm", rh, None, rh_shared);
             ("rh-1024 cesrm@recent:1", rh, Some "recent:1", rh_shared);
             ("rh-1024 cesrm@recent", rh, Some "recent", rh_shared);
             ("rh-1024 cesrm@lru", rh, Some "lru", rh_shared);
             ("rh-1024 cesrm@hotspot", rh, Some "hotspot", rh_shared);
             ("rh-1024 cesrm@hotspot=inf", rh, Some "hotspot=inf", rh_shared);
             ( "ps-1024 srm", ps, None,
               "rqst=98 exp_rqst=0 repl=955 exp_repl=0 sess=43 detected=307 unrecovered=0 \
                recoveries=307 lat_sum=407.07739872758106" );
             ( "ps-1024 cesrm@recent:1", ps, Some "recent:1",
               "rqst=79 exp_rqst=40 repl=739 exp_repl=20 sess=43 detected=307 unrecovered=0 \
                recoveries=307 lat_sum=311.95910650124631" );
             ( "ps-1024 cesrm@recent", ps, Some "recent",
               "rqst=79 exp_rqst=40 repl=739 exp_repl=20 sess=43 detected=307 unrecovered=0 \
                recoveries=307 lat_sum=311.95910650124631" );
             ( "ps-1024 cesrm@lru", ps, Some "lru",
               "rqst=67 exp_rqst=57 repl=505 exp_repl=36 sess=43 detected=307 unrecovered=0 \
                recoveries=307 lat_sum=284.16249844561906" );
             ( "ps-1024 cesrm@hotspot", ps, Some "hotspot",
               "rqst=69 exp_rqst=48 repl=652 exp_repl=31 sess=43 detected=307 unrecovered=0 \
                recoveries=307 lat_sum=288.40262821668074" );
             ( "ps-1024 cesrm@hotspot=inf", ps, Some "hotspot=inf",
               "rqst=89 exp_rqst=10 repl=841 exp_repl=8 sess=43 detected=307 unrecovered=0 \
                recoveries=307 lat_sum=353.98520225427973" );
           ])
        @ [
            Alcotest.test_case "multi-entry beats recent:1 on ps" `Quick
              test_multi_entry_beats_one_entry;
            Alcotest.test_case "default policy invisible" `Quick test_default_policy_invisible;
            Alcotest.test_case "compose with shards and steady" `Quick
              test_adversarial_compose;
            Alcotest.test_case "eager-only" `Quick test_adversarial_not_streamable;
          ] );
      ( "streaming",
        [
          Alcotest.test_case "loss budget calibrated" `Quick test_streamed_budget_calibrated;
        ] );
      ( "sweep",
        [ Alcotest.test_case "serial = parallel (bytes)" `Quick test_sweep_identity_at_scale ]
      );
      ( "churn",
        [
          Alcotest.test_case "srm churn-steady 1024" `Quick
            (check_churn_fingerprint "srm-churn-1024"
               "rqst=26 exp_rqst=0 repl=136 exp_repl=0 sess=36 detected=55 unrecovered=0 \
                recoveries=55 lat_sum=99.728880368300437 forgiven=0 oracle=0"
               Harness.Runner.Srm_protocol);
          Alcotest.test_case "cesrm churn-steady 1024" `Quick
            (check_churn_fingerprint "cesrm-churn-1024"
               "rqst=21 exp_rqst=5 repl=122 exp_repl=5 sess=36 detected=55 unrecovered=0 \
                recoveries=55 lat_sum=72.352493748669531 forgiven=0 oracle=0"
               (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config));
          Alcotest.test_case "compose with shards" `Quick test_churn_compose_shards;
        ] );
    ]
