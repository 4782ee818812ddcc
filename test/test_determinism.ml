(* Bit-identical determinism pins for the simulator.

   The expected strings below were captured from the pre-route-cache,
   pre-slot-heap implementation (the straightforward recursive tree
   walks and the timer-record event heap). The static route arrays, the
   allocation-free event core and the packed per-loss keys are pure
   representation changes: same seeds must yield byte-identical
   counters and recovery latencies. The latency sum is compared as a
   %.17g string, so even a one-ULP float divergence (e.g. a changed
   accumulation order) fails the test. *)

let fingerprint (r : Harness.Runner.result) =
  let total k = Stats.Counters.total r.counters k in
  Printf.sprintf
    "rqst=%d exp_rqst=%d repl=%d exp_repl=%d sess=%d detected=%d unrecovered=%d \
     recoveries=%d exp_requests=%d exp_replies=%d lat_sum=%.17g"
    (total Stats.Counters.Rqst) (total Stats.Counters.Exp_rqst) (total Stats.Counters.Repl)
    (total Stats.Counters.Exp_repl) (total Stats.Counters.Sess) r.detected r.unrecovered
    (Stats.Recovery.count r.recoveries) r.exp_requests r.exp_replies
    (Stats.Summary.total (Stats.Recovery.latency_summary r.recoveries))

(* One mid-size trace (15 receivers), n_packets = 400, default seed. *)
let case = lazy (
  let gen = Mtrace.Generator.synthesize ~n_packets:400 (Mtrace.Meta.nth 4) in
  let att = Harness.Runner.attribution_of_trace gen.trace in
  (gen.trace, att))

let run ?setup ?steady protocol =
  let trace, att = Lazy.force case in
  Harness.Runner.run_model ?setup ?steady protocol trace (Harness.Runner.Attributed att)

let lossy = { Harness.Runner.default_setup with lossy_recovery = true; lossy_sessions = true }

let hetero = { Harness.Runner.default_setup with heterogeneous_delays = true }

(* A window as long as the trace: the stability floor never leaves 0,
   so nothing ever retires. *)
let never_retires = Steady.Config.windowed 400

let check_fingerprint name expected result () =
  Alcotest.(check string) name expected (fingerprint result)

(* Faulted runs are pure functions of (row, seed, plan) too: the same
   canned plan on the same synthesized trace must fingerprint
   identically — across repeat runs and against the pinned strings. *)
let run_faulted fault protocol =
  Harness.Runner.run_leg ~n_packets:400 ~fault ~seed:42L protocol (Mtrace.Meta.nth 4)

let check_faulted name expected fault protocol () =
  let res = run_faulted fault protocol in
  Alcotest.(check int) (name ^ " oracle clean") 0 res.oracle_violations;
  Alcotest.(check string) name expected (fingerprint res);
  Alcotest.(check string) (name ^ " replay") expected (fingerprint (run_faulted fault protocol))

let () =
  Alcotest.run "determinism"
    [
      ( "golden",
        [
          Alcotest.test_case "srm" `Quick
            (fun () ->
              check_fingerprint "srm"
                "rqst=67 exp_rqst=0 repl=388 exp_repl=0 sess=603 detected=88 unrecovered=0 \
                 recoveries=88 exp_requests=0 exp_replies=0 lat_sum=31.387034181635496"
                (run Harness.Runner.Srm_protocol) ());
          Alcotest.test_case "cesrm" `Quick
            (fun () ->
              check_fingerprint "cesrm"
                "rqst=17 exp_rqst=53 repl=80 exp_repl=47 sess=603 detected=88 unrecovered=0 \
                 recoveries=88 exp_requests=53 exp_replies=47 lat_sum=16.652011164792821"
                (run (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config)) ());
          Alcotest.test_case "cesrm router-assist" `Quick
            (fun () ->
              check_fingerprint "cesrm-ra"
                "rqst=17 exp_rqst=53 repl=80 exp_repl=47 sess=603 detected=88 unrecovered=0 \
                 recoveries=88 exp_requests=53 exp_replies=47 lat_sum=16.652011164792821"
                (run
                   (Harness.Runner.Cesrm_protocol
                      { Cesrm.Host.default_config with router_assist = true }))
                ());
          Alcotest.test_case "lms" `Quick
            (fun () ->
              check_fingerprint "lms"
                "rqst=0 exp_rqst=128 repl=0 exp_repl=88 sess=67 detected=88 unrecovered=0 \
                 recoveries=88 exp_requests=0 exp_replies=0 lat_sum=10.886180051596984"
                (run Harness.Runner.Lms_protocol) ());
          Alcotest.test_case "srm lossy recovery" `Quick
            (fun () ->
              check_fingerprint "srm-lossy"
                "rqst=73 exp_rqst=0 repl=385 exp_repl=0 sess=603 detected=88 unrecovered=0 \
                 recoveries=88 exp_requests=0 exp_replies=0 lat_sum=34.491788322981492"
                (run ~setup:lossy Harness.Runner.Srm_protocol) ());
          Alcotest.test_case "cesrm lossy recovery" `Quick
            (fun () ->
              check_fingerprint "cesrm-lossy"
                "rqst=24 exp_rqst=53 repl=101 exp_repl=45 sess=603 detected=88 unrecovered=0 \
                 recoveries=88 exp_requests=53 exp_replies=45 lat_sum=18.643002723450188"
                (run ~setup:lossy (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config))
                ());
          Alcotest.test_case "srm heterogeneous delays" `Quick
            (fun () ->
              check_fingerprint "srm-hetero"
                "rqst=64 exp_rqst=0 repl=166 exp_repl=0 sess=603 detected=88 unrecovered=0 \
                 recoveries=88 exp_requests=0 exp_replies=0 lat_sum=33.230838444138875"
                (run ~setup:hetero Harness.Runner.Srm_protocol) ());
        ] );
      (* A steady window that never retires must run what the plain
         engine runs on the same trace: streaming (chain-armed) data
         sends replace the eager send loop but reserve the very same
         engine sequence numbers, epoch ticks act on nothing, and the
         online latency total replaces the dropped records. Same
         pinned strings as the golden section above. *)
      ( "steady-infinite golden",
        [
          Alcotest.test_case "srm" `Quick
            (fun () ->
              check_fingerprint "srm-steady"
                "rqst=67 exp_rqst=0 repl=388 exp_repl=0 sess=603 detected=88 unrecovered=0 \
                 recoveries=88 exp_requests=0 exp_replies=0 lat_sum=31.387034181635496"
                (run ~steady:never_retires Harness.Runner.Srm_protocol) ());
          Alcotest.test_case "cesrm" `Quick
            (fun () ->
              check_fingerprint "cesrm-steady"
                "rqst=17 exp_rqst=53 repl=80 exp_repl=47 sess=603 detected=88 unrecovered=0 \
                 recoveries=88 exp_requests=53 exp_replies=47 lat_sum=16.652011164792821"
                (run ~steady:never_retires
                   (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config))
                ());
          Alcotest.test_case "lms" `Quick
            (fun () ->
              check_fingerprint "lms-steady"
                "rqst=0 exp_rqst=128 repl=0 exp_repl=88 sess=67 detected=88 unrecovered=0 \
                 recoveries=88 exp_requests=0 exp_replies=0 lat_sum=10.886180051596984"
                (run ~steady:never_retires Harness.Runner.Lms_protocol) ());
          Alcotest.test_case "srm lossy recovery" `Quick
            (fun () ->
              check_fingerprint "srm-lossy-steady"
                "rqst=73 exp_rqst=0 repl=385 exp_repl=0 sess=603 detected=88 unrecovered=0 \
                 recoveries=88 exp_requests=0 exp_replies=0 lat_sum=34.491788322981492"
                (run ~setup:lossy ~steady:never_retires Harness.Runner.Srm_protocol)
                ());
          Alcotest.test_case "srm heterogeneous delays" `Quick
            (fun () ->
              check_fingerprint "srm-hetero-steady"
                "rqst=64 exp_rqst=0 repl=166 exp_repl=0 sess=603 detected=88 unrecovered=0 \
                 recoveries=88 exp_requests=0 exp_replies=0 lat_sum=33.230838444138875"
                (run ~setup:hetero ~steady:never_retires Harness.Runner.Srm_protocol)
                ());
        ] );
      ( "faulted golden",
        [
          Alcotest.test_case "srm partition-heal" `Quick
            (check_faulted "srm-partition"
               "rqst=322 exp_rqst=0 repl=886 exp_repl=0 sess=603 detected=1059 unrecovered=0 \
                recoveries=1059 exp_requests=0 exp_replies=0 lat_sum=329.25729603690792"
               "partition-heal" Harness.Runner.Srm_protocol);
          Alcotest.test_case "cesrm partition-heal" `Quick
            (check_faulted "cesrm-partition"
               "rqst=189 exp_rqst=149 repl=323 exp_repl=118 sess=603 detected=1059 \
                unrecovered=0 recoveries=1059 exp_requests=149 exp_replies=118 \
                lat_sum=277.72710768259549"
               "partition-heal" (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config));
          Alcotest.test_case "srm crash-replier" `Quick
            (check_faulted "srm-crash"
               "rqst=370 exp_rqst=0 repl=1509 exp_repl=0 sess=603 detected=438 unrecovered=0 \
                recoveries=438 exp_requests=0 exp_replies=0 lat_sum=227.88344189037659"
               "crash-replier" Harness.Runner.Srm_protocol);
        ] );
    ]
