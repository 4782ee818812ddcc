(* lib/steady: streaming execution with windowed state retirement.

   Four layers, bottom up:
   - the engine primitives streaming sends ride on (seq reservation,
     epoch ticks);
   - the lazy per-link loss chains against the eager Gilbert matrix
     (bit-equality, monotone-query contract);
   - the Config / Controller math;
   - a qcheck differential battery: a retirement window must be
     invisible — same fingerprint as a never-retiring run of the same
     streaming trace, zero unrecovered losses, clean audit and
     oracle — across random windows, epoch cadences, protocols and
     fault plans. *)

(* --- engine primitives --------------------------------------------- *)

(* Reserving a seq block and chain-arming must fire in exactly the
   order the eager schedule-everything loop would, including among
   same-time events interleaved with ordinary scheduling. *)
let test_reserve_seqs () =
  let eager = ref [] and streamed = ref [] in
  let record log tag () = log := tag :: !log in
  (* Eager: schedule all sends up front, then an interleaved timer. *)
  let e1 = Sim.Engine.create () in
  for i = 1 to 5 do
    ignore (Sim.Engine.schedule_at e1 ~at:(float_of_int i) (record eager i))
  done;
  ignore (Sim.Engine.schedule_at e1 ~at:3. (record eager 100));
  Sim.Engine.run e1;
  (* Streaming: reserve the block the loop would have consumed, then
     arm each send from the previous one's body. *)
  let e2 = Sim.Engine.create () in
  let first = Sim.Engine.reserve_seqs e2 5 in
  let rec arm i =
    Sim.Engine.schedule_at_seq e2 ~at:(float_of_int i) ~seq:(first + i - 1) (fun () ->
        record streamed i ();
        if i < 5 then arm (i + 1))
  in
  arm 1;
  ignore (Sim.Engine.schedule_at e2 ~at:3. (record streamed 100));
  Sim.Engine.run e2;
  Alcotest.(check (list int)) "firing order identical" (List.rev !eager) (List.rev !streamed)

let test_every_epoch () =
  let e = Sim.Engine.create () in
  let ticks = ref 0 in
  Sim.Engine.every_epoch e ~every:1.0 ~until:10.5 (fun () -> incr ticks);
  ignore (Sim.Engine.schedule_at e ~at:20. (fun () -> ()));
  Sim.Engine.run e;
  Alcotest.(check int) "10 ticks in 10.5s" 10 !ticks;
  Alcotest.(check int) "epochs_ticked" 10 (Sim.Engine.epochs_ticked e);
  Alcotest.check_raises "every must be positive"
    (Invalid_argument "Engine.every_epoch: non-positive period") (fun () ->
      Sim.Engine.every_epoch e ~every:0. ~until:1. (fun () -> ()))

(* An epoch tick consumes a sequence key but runs no protocol action:
   interleaving ticks among same-time events must not reorder them. *)
let test_epoch_tick_neutral () =
  let run_with_ticks with_ticks =
    let e = Sim.Engine.create () in
    let log = ref [] in
    if with_ticks then Sim.Engine.every_epoch e ~every:0.5 ~until:6. (fun () -> ());
    for i = 1 to 5 do
      ignore (Sim.Engine.schedule_at e ~at:(float_of_int i) (fun () -> log := i :: !log))
    done;
    Sim.Engine.run e;
    List.rev !log
  in
  Alcotest.(check (list int)) "ticks reorder nothing" (run_with_ticks false) (run_with_ticks true)

(* --- streaming loss chains ----------------------------------------- *)

let chain_fixture () =
  let tree = Mtrace.Topology_gen.bounded_fanout ~rng:(Sim.Rng.create 7L) ~n_receivers:30 ~fanout:4 in
  let n = Net.Tree.n_nodes tree in
  let mk f = Array.init n (fun l -> if l = 0 then 0. else f l) in
  let rates = mk (fun l -> 0.002 +. (0.05 *. float_of_int (l mod 5))) in
  let bursts = mk (fun l -> 1.2 +. (0.4 *. float_of_int (l mod 4))) in
  let bursts = Array.map (fun b -> Float.max 1. b) bursts in
  (tree, rates, bursts)

(* The chains must replicate [Gilbert.run] over a split-per-link rng
   bit for bit, independently of how queries interleave across links. *)
let test_stream_loss_matches_gilbert () =
  let n_packets = 600 in
  let tree, rates, bursts = chain_fixture () in
  let n = Net.Tree.n_nodes tree in
  let eager =
    let rng = Sim.Rng.create 99L in
    let bits = Array.make n (Mtrace.Bitset.create 0) in
    for l = 1 to n - 1 do
      let model = Mtrace.Gilbert.of_marginal ~loss_rate:rates.(l) ~mean_burst:bursts.(l) in
      bits.(l) <- Mtrace.Gilbert.run model (Sim.Rng.split rng) n_packets
    done;
    bits
  in
  let chains =
    Mtrace.Stream_loss.create ~tree ~rates ~bursts ~rng:(Sim.Rng.create 99L) ~n_packets ()
  in
  (* Walk packets in the outer loop (the flood order): every link is
     queried for seq s before any link sees s+1 — monotone per link,
     maximally interleaved across links. *)
  let mismatches = ref 0 in
  for seq = 1 to n_packets do
    for l = 1 to n - 1 do
      let expect = Mtrace.Bitset.get eager.(l) (seq - 1) in
      if Mtrace.Stream_loss.lost chains ~link:l ~seq <> expect then incr mismatches
    done
  done;
  Alcotest.(check int) "bit-identical to Gilbert.run" 0 !mismatches

let test_stream_loss_lookback () =
  let n_packets = 400 in
  let tree, rates, bursts = chain_fixture () in
  let chains =
    Mtrace.Stream_loss.create ~lookback:16 ~tree ~rates ~bursts ~rng:(Sim.Rng.create 5L)
      ~n_packets ()
  in
  (* Advance link 1 far ahead, then re-ask inside the ring: answers
     must be stable. *)
  let at_100 = Mtrace.Stream_loss.lost chains ~link:1 ~seq:100 in
  Alcotest.(check bool) "re-ask within lookback is stable" at_100
    (Mtrace.Stream_loss.lost chains ~link:1 ~seq:100);
  Alcotest.(check bool) "slightly older stays available"
    (Mtrace.Stream_loss.lost chains ~link:1 ~seq:95)
    (Mtrace.Stream_loss.lost chains ~link:1 ~seq:95);
  (* Older than the ring: a programming error, loudly. *)
  Alcotest.check_raises "older than lookback raises"
    (Invalid_argument "Stream_loss.lost: seq older than the lookback window") (fun () ->
      ignore (Mtrace.Stream_loss.lost chains ~link:1 ~seq:50));
  Alcotest.check_raises "seq 0 out of range"
    (Invalid_argument "Stream_loss.lost: seq out of range") (fun () ->
      ignore (Mtrace.Stream_loss.lost chains ~link:1 ~seq:0));
  Alcotest.check_raises "root is not a link" (Invalid_argument "Stream_loss.lost: bad link id")
    (fun () -> ignore (Mtrace.Stream_loss.lost chains ~link:0 ~seq:1))

(* The streaming generator shares the eager generator's plan draws
   (same seed ⇒ same tree) and produces chains that answer the whole
   stream; two streaming syntheses of the same (row, seed) must agree
   bit for bit. *)
let test_synthesize_streaming_chains () =
  let row = Mtrace.Scale.find "SCALE-bf-32" in
  let g = Mtrace.Generator.synthesize_streaming ~seed:11L ~n_packets:300 row in
  let g' = Mtrace.Generator.synthesize_streaming ~seed:11L ~n_packets:300 row in
  let eager = Mtrace.Generator.synthesize ~seed:11L ~n_packets:300 row in
  let chains = g.Mtrace.Generator.s_loss in
  let tree = Mtrace.Trace.tree g.Mtrace.Generator.s_trace in
  let n = Net.Tree.n_nodes tree in
  Alcotest.(check int) "same tree as the eager generator" n
    (Net.Tree.n_nodes (Mtrace.Trace.tree eager.Mtrace.Generator.trace));
  Alcotest.(check int) "n_packets carried" 300 (Mtrace.Stream_loss.n_packets chains);
  Alcotest.(check bool) "trace is streaming" true
    (Mtrace.Trace.streaming g.Mtrace.Generator.s_trace);
  (* Chains answer the whole stream monotonically without error, are
     deterministic across syntheses, and produce losses. *)
  let losses = ref 0 and mismatches = ref 0 in
  for seq = 1 to 300 do
    for l = 1 to n - 1 do
      let a = Mtrace.Stream_loss.lost chains ~link:l ~seq in
      if a <> Mtrace.Stream_loss.lost g'.Mtrace.Generator.s_loss ~link:l ~seq then
        incr mismatches;
      if a then incr losses
    done
  done;
  Alcotest.(check int) "replay is bit-identical" 0 !mismatches;
  Alcotest.(check bool) "chains produce losses" true (!losses > 0)

(* --- Config / Controller ------------------------------------------- *)

let test_config () =
  Alcotest.check_raises "window >= 1"
    (Invalid_argument "Steady.Config.windowed: window must be >= 1") (fun () ->
      ignore (Steady.Config.windowed 0));
  Alcotest.check_raises "epoch_every > 0"
    (Invalid_argument "Steady.Config.windowed: epoch_every must be positive") (fun () ->
      ignore (Steady.Config.windowed ~epoch_every:0. 64));
  (* Epoch period: explicit wins; else derived from the window,
     clamped to [50 periods, 60 s]. *)
  let p = 0.01 in
  Alcotest.(check (float 1e-9)) "explicit wins" 2.5
    (Steady.Config.epoch_period (Steady.Config.windowed ~epoch_every:2.5 100) ~period:p);
  Alcotest.(check (float 1e-9)) "small window clamps up to 50 periods" (50. *. p)
    (Steady.Config.epoch_period (Steady.Config.windowed 10) ~period:p);
  Alcotest.(check (float 1e-9)) "mid window: window periods" (100. *. p)
    (Steady.Config.epoch_period (Steady.Config.windowed 100) ~period:p);
  Alcotest.(check (float 1e-9)) "huge window clamps to 60 s" 60.
    (Steady.Config.epoch_period (Steady.Config.windowed 1_000_000) ~period:p)

let test_controller () =
  Alcotest.check_raises "window >= 1"
    (Invalid_argument "Steady.Controller.create: window must be >= 1") (fun () ->
      ignore (Steady.Controller.create ~window:0));
  let c = Steady.Controller.create ~window:100 in
  let prefixes = [| 0; 0; 0 |] in
  let retired = Array.make 3 0 in
  let extra = ref 0 in
  Array.iteri
    (fun i _ ->
      Steady.Controller.add_member c
        {
          Steady.Controller.node = i;
          delivered_prefix = (fun () -> prefixes.(i));
          retire = (fun ~upto -> retired.(i) <- upto);
        })
    prefixes;
  Steady.Controller.on_retire c (fun ~upto -> extra := upto);
  (* Below the window: floor stays 0, nobody retires. *)
  prefixes.(0) <- 90;
  prefixes.(1) <- 95;
  prefixes.(2) <- 80;
  Steady.Controller.tick c;
  Alcotest.(check int) "floor clamped at 0" 0 (Steady.Controller.floor c);
  Alcotest.(check int) "no retirement" 0 retired.(0);
  (* The slowest member gates the floor. *)
  prefixes.(0) <- 500;
  prefixes.(1) <- 400;
  prefixes.(2) <- 260;
  Steady.Controller.tick c;
  Alcotest.(check int) "floor = min prefix - window" 160 (Steady.Controller.floor c);
  Alcotest.(check (list int)) "every member retired to the floor" [ 160; 160; 160 ]
    (Array.to_list retired);
  Alcotest.(check int) "extras run too" 160 !extra;
  (* Monotone: a (hypothetically) regressing prefix never lowers it. *)
  prefixes.(2) <- 200;
  Steady.Controller.tick c;
  Alcotest.(check int) "floor is monotone" 160 (Steady.Controller.floor c);
  Alcotest.(check int) "three ticks" 3 (Steady.Controller.ticks c)

(* --- differential battery ------------------------------------------ *)

(* Fingerprint from what a steady run keeps: counters, the count and
   the online mean (records are dropped). *)
let fingerprint (r : Harness.Runner.result) =
  let total k = Stats.Counters.total r.counters k in
  let summary = Stats.Recovery.latency_summary r.recoveries in
  Printf.sprintf
    "rqst=%d exp_rqst=%d repl=%d exp_repl=%d sess=%d detected=%d unrecovered=%d recoveries=%d \
     exp_requests=%d exp_replies=%d audit=%d oracle=%d lat_mean=%.17g lat_n=%d"
    (total Stats.Counters.Rqst) (total Stats.Counters.Exp_rqst) (total Stats.Counters.Repl)
    (total Stats.Counters.Exp_repl) (total Stats.Counters.Sess) r.detected r.unrecovered
    (Stats.Recovery.count r.recoveries) r.exp_requests r.exp_replies r.audit_violations
    r.oracle_violations
    (Stats.Summary.mean summary)
    (Stats.Summary.count summary)

let row_bf32 = Mtrace.Scale.find "SCALE-bf-32"

let steady_leg ~seed ~window ~epoch_every ~fault protocol =
  let steady = Steady.Config.windowed ?epoch_every window in
  Harness.Runner.run_leg ~n_packets:400 ?fault ~seed ~steady protocol row_bf32

(* One random cell: a window vs the never-retiring reference
   (window = n_packets) over the same streaming trace. Retirement must
   be invisible: identical fingerprint, nothing unrecovered, auditor
   and oracle clean. *)
let battery_case (seed, window, epoch_choice, proto_choice, fault_choice) =
  let protocol =
    if proto_choice then Harness.Runner.Srm_protocol
    else Harness.Runner.Cesrm_protocol Cesrm.Host.default_config
  in
  let fault =
    match fault_choice with
    | 0 -> None
    | 1 -> Some "partition-heal"
    | 2 -> Some "crash-replier"
    | _ -> Some "link-flap"
  in
  let epoch_every = match epoch_choice with 0 -> None | n -> Some (0.25 *. float_of_int n) in
  let seed = Int64.of_int seed in
  let finite = steady_leg ~seed ~window ~epoch_every ~fault protocol in
  let infinite = steady_leg ~seed ~window:400 ~epoch_every:None ~fault protocol in
  let ok_identity = fingerprint finite = fingerprint infinite in
  let ok_clean =
    finite.Harness.Runner.unrecovered = 0
    && finite.audit_violations = 0
    && finite.oracle_violations = 0
  in
  if not ok_identity then
    QCheck.Test.fail_reportf "window %d diverges from infinite:@.%s@.vs@.%s" window
      (fingerprint finite) (fingerprint infinite);
  if not ok_clean then
    QCheck.Test.fail_reportf "window %d: unrecovered=%d audit=%d oracle=%d" window
      finite.Harness.Runner.unrecovered finite.audit_violations finite.oracle_violations;
  true

let battery =
  let gen =
    QCheck.Gen.(tup5 (int_range 1 1000) (int_range 1 400) (int_range 0 8) bool (int_range 0 3))
  in
  QCheck.Test.make ~count:12 ~name:"finite window invisible vs infinite"
    (QCheck.make gen) battery_case

(* --- retirement is real -------------------------------------------- *)

(* A small window on a long-enough stream must actually advance the
   floor and retire host state — guarding against a vacuous battery
   where retirement never fires. *)
let test_retirement_happens () =
  let r =
    steady_leg ~seed:42L ~window:32 ~epoch_every:None ~fault:None
      (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config)
  in
  let c = Option.get r.Harness.Runner.retirement in
  Alcotest.(check bool) "floor advanced" true (Steady.Controller.floor c > 0);
  Alcotest.(check bool) "ticked" true (Steady.Controller.ticks c > 0);
  Alcotest.(check int) "nothing unrecovered" 0 r.unrecovered;
  Alcotest.(check bool) "records dropped" true (Stats.Recovery.records r.recoveries = []);
  Alcotest.(check bool) "recovery count survives records-off" true
    (Stats.Recovery.count r.recoveries > 0)

(* Records-off makespan percentiles read retired spans from the
   sketch at the retained samples' rank: on SCALE-bf-128 at 200
   packets, seed 7, a 16-packet window used to report the max (2.407 s
   SRM, 2.427 s CESRM) as p99 against 1.852 s and 1.593 s without
   retirement. *)
let test_records_off_makespan_p99 () =
  let row = Mtrace.Scale.find "SCALE-bf-128" in
  List.iter
    (fun protocol ->
      let p99 window =
        let steady = Steady.Config.windowed window in
        let r = Harness.Runner.run_leg ~n_packets:200 ~seed:7L ~steady protocol row in
        Stats.Summary.percentile (Stats.Recovery.makespan_summary r.recoveries) 0.99
      in
      let retiring = p99 16 and never = p99 200 in
      Alcotest.(check bool)
        (Printf.sprintf "%s p99 %.3f s within the bucket bound of %.3f s"
           (Harness.Runner.protocol_name protocol)
           retiring never)
        true
        (Float.abs (retiring -. never) <= never /. 16.))
    [ Harness.Runner.Srm_protocol; Harness.Runner.Cesrm_protocol Cesrm.Host.default_config ]

(* --- the checker's fault rules retire too ------------------------- *)

(* A faulted windowed run: the checker keeps per-packet counts only
   above the retirement floor, and judges the run exactly as the
   never-retiring run does. *)
let test_oracle_retires () =
  List.iter
    (fun protocol ->
      let leg window =
        steady_leg ~seed:42L ~window ~epoch_every:None ~fault:(Some "link-flap") protocol
      in
      let finite = leg 32 and never = leg 400 in
      let oracle (r : Harness.Runner.result) = Option.get r.oracle in
      let floor = Steady.Controller.floor (Option.get finite.Harness.Runner.retirement) in
      let name = Harness.Runner.protocol_name protocol in
      Alcotest.(check bool) (name ^ ": floor advanced") true (floor > 0);
      Alcotest.(check int)
        (name ^ ": nothing held at or below the floor")
        0
        (Harness.Audit.entries_at_or_below (oracle finite) ~upto:floor);
      Alcotest.(check bool)
        (name ^ ": the never-retiring oracle holds them")
        true
        (Harness.Audit.entries_at_or_below (oracle never) ~upto:floor > 0);
      let verdict r = Format.asprintf "%a" Harness.Audit.pp (oracle r) in
      Alcotest.(check string) (name ^ ": same verdict") (verdict never) (verdict finite))
    [ Harness.Runner.Srm_protocol; Harness.Runner.Cesrm_protocol Cesrm.Host.default_config ]

let () =
  Alcotest.run "steady"
    [
      ( "engine",
        [
          Alcotest.test_case "reserve_seqs + schedule_at_seq" `Quick test_reserve_seqs;
          Alcotest.test_case "every_epoch" `Quick test_every_epoch;
          Alcotest.test_case "epoch ticks reorder nothing" `Quick test_epoch_tick_neutral;
        ] );
      ( "stream-loss",
        [
          Alcotest.test_case "bit-identical to Gilbert.run" `Quick
            test_stream_loss_matches_gilbert;
          Alcotest.test_case "lookback ring" `Quick test_stream_loss_lookback;
          Alcotest.test_case "streaming generator" `Quick test_synthesize_streaming_chains;
        ] );
      ( "config-controller",
        [
          Alcotest.test_case "config" `Quick test_config;
          Alcotest.test_case "controller" `Quick test_controller;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest battery;
          Alcotest.test_case "retirement happens" `Quick test_retirement_happens;
          Alcotest.test_case "records-off makespan p99" `Quick test_records_off_makespan_p99;
        ] );
      ( "oracle",
        [ Alcotest.test_case "oracle retires with the window" `Quick test_oracle_retires ] );
    ]
