(* The fault-injection subsystem: plan DSL round-trips and validation,
   canned plans leaving the invariant checker's fault rules clean for
   both protocols, mutation self-tests proving the fault rules reject a
   broken protocol, retry back-off / cache expiry for presumed-dead repliers,
   and a model-based battery: random bounded fault plans must preserve
   liveness, and a failing plan must minimize to its one bad event. *)

let check = Alcotest.check

let qcheck = QCheck_alcotest.to_alcotest

(* 0 - 1 - 3 (rcvr)
       \ 4 (rcvr)
     2 - 5 (rcvr)  *)
let sample_tree () = Net.Tree.of_parents [| -1; 0; 0; 1; 1; 2 |]

(* --- Plan DSL --------------------------------------------------------- *)

let kitchen_sink =
  Fault.Plan.make ~name:"kitchen-sink"
    [
      Fault.Plan.Link_down { link = 3; from_ = 5.5; until = 6.0 };
      Fault.Plan.Link_jitter { link = 1; from_ = 5.0; until = 7.0; max_jitter = 0.03 };
      Fault.Plan.Link_dup { link = 5; from_ = 5.2; until = 5.4 };
      Fault.Plan.Crash { node = 4; at = 5.6; restart_at = Some 6.2 };
      Fault.Plan.Link_down { link = 2; from_ = 6.0; until = 6.5 };
    ]

let plan_string p = Obs.Json.to_string (Fault.Plan.to_json p)

let test_plan_json_roundtrip () =
  match Fault.Plan.of_json (Fault.Plan.to_json kitchen_sink) with
  | Error msg -> Alcotest.fail msg
  | Ok plan' ->
      check Alcotest.string "json round-trip" (plan_string kitchen_sink) (plan_string plan');
      check Alcotest.string "name survives" "kitchen-sink" plan'.Fault.Plan.name;
      check Alcotest.int "all five events" 5 (Fault.Plan.n_events plan');
      (* a crash without restart round-trips its null *)
      let down = Fault.Plan.make [ Fault.Plan.Crash { node = 3; at = 1.0; restart_at = None } ] in
      match Fault.Plan.of_json (Fault.Plan.to_json down) with
      | Ok down' -> check Alcotest.string "restart_at = null" (plan_string down) (plan_string down')
      | Error msg -> Alcotest.fail msg

let test_plan_save_load () =
  let file = Filename.temp_file "cesrm-fault" ".json" in
  Fault.Plan.save kitchen_sink ~file;
  let loaded = Fault.Plan.load file in
  Sys.remove file;
  match loaded with
  | Error msg -> Alcotest.fail msg
  | Ok plan' -> check Alcotest.string "file round-trip" (plan_string kitchen_sink) (plan_string plan')

let test_plan_validation () =
  let tree = sample_tree () in
  let expect_invalid name events =
    match Fault.Plan.validate ~tree (Fault.Plan.make events) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s should be rejected" name
  in
  (match Fault.Plan.validate ~tree kitchen_sink with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "kitchen sink should validate: %s" msg);
  expect_invalid "link 0" [ Fault.Plan.Link_down { link = 0; from_ = 1.; until = 2. } ];
  expect_invalid "link out of range" [ Fault.Plan.Link_down { link = 9; from_ = 1.; until = 2. } ];
  expect_invalid "negative from" [ Fault.Plan.Link_down { link = 1; from_ = -1.; until = 2. } ];
  expect_invalid "empty window" [ Fault.Plan.Link_down { link = 1; from_ = 2.; until = 2. } ];
  expect_invalid "non-positive jitter"
    [ Fault.Plan.Link_jitter { link = 1; from_ = 1.; until = 2.; max_jitter = 0. } ];
  expect_invalid "crash of a router" [ Fault.Plan.Crash { node = 1; at = 1.; restart_at = None } ];
  expect_invalid "crash of the source" [ Fault.Plan.Crash { node = 0; at = 1.; restart_at = None } ];
  expect_invalid "restart before crash"
    [ Fault.Plan.Crash { node = 3; at = 2.; restart_at = Some 1. } ]

let test_plan_compile_rejects_invalid () =
  let tree = sample_tree () in
  let engine = Sim.Engine.create ~seed:1L () in
  let network = Net.Network.create ~engine ~tree ~link_delay:0.02 () in
  let bad = Fault.Plan.make [ Fault.Plan.Link_down { link = 42; from_ = 1.; until = 2. } ] in
  match Fault.Plan.compile ~network bad with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "compile should reject an invalid plan"

let test_canned_plans () =
  let tree = sample_tree () in
  check Alcotest.int "five canned plans" 5 (List.length Fault.Plan.canned_names);
  List.iter
    (fun name ->
      match Fault.Plan.canned ~tree ~warmup:5. ~duration:10. name with
      | None -> Alcotest.failf "canned %s missing" name
      | Some plan -> (
          check Alcotest.string "canned plan is named" name plan.Fault.Plan.name;
          check Alcotest.bool "canned plan has events" true (Fault.Plan.n_events plan > 0);
          match Fault.Plan.validate ~tree plan with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "canned %s invalid: %s" name msg))
    Fault.Plan.canned_names;
  check Alcotest.bool "unknown canned name" true
    (Fault.Plan.canned ~tree ~warmup:5. ~duration:10. "nosuch" = None)

(* --- Canned plans leave the oracle clean (both protocols) ------------- *)

let test_canned_clean_oracle () =
  let row = Mtrace.Meta.nth 4 in
  List.iter
    (fun fault ->
      List.iter
        (fun proto ->
          let res = Harness.Runner.run_leg ~n_packets:600 ~fault ~seed:11L proto row in
          let label = fault ^ "/" ^ Harness.Runner.protocol_name proto in
          check Alcotest.bool "oracle attached" true (res.oracle <> None);
          check Alcotest.int (label ^ " oracle clean") 0 res.oracle_violations;
          check Alcotest.int (label ^ " everything recovered") 0 res.unrecovered)
        [ Harness.Runner.Srm_protocol; Harness.Runner.Cesrm_protocol Cesrm.Host.default_config ])
    Fault.Plan.canned_names

let test_unknown_fault_name () =
  match Harness.Runner.run_leg ~n_packets:50 ~fault:"nosuch" ~seed:1L Harness.Runner.Srm_protocol
          (Mtrace.Meta.nth 4)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown canned fault name should raise"

(* --- Mutation self-tests: the fault rules must reject a broken protocol *)

(* The fault-class violations of a checker: the verdict the tests below
   judge (packets injected past the tap break safety rules too). *)
let fault_violations checker =
  List.filter Harness.Audit.is_fault (Harness.Audit.violations checker)

let clean checker = fault_violations checker = []

let has_invariant checker rule =
  List.exists (fun v -> v.Harness.Audit.rule = rule) (Harness.Audit.violations checker)

(* Broken protocols, built from outside the host: each breaks a
   different fault rule. *)
type mutation =
  | Suppress_replies (* every reply is dropped on the wire *)
  | Double_deliver (* the checker hears every obtained packet twice *)

(* Deploy plain SRM on the sample tree, dropping data packet [seq] on
   link [l] for each (seq, l) in [drops], with [mutation] applied to
   every member, and return the checker, its fault rules on. *)
let run_mutated ?mutation ?(drops = [ (5, 3) ]) () =
  let engine = Sim.Engine.create ~seed:7L () in
  let network = Net.Network.create ~engine ~tree:(sample_tree ()) ~link_delay:0.02 () in
  Net.Network.set_drop network (fun ~link ~down (p : Net.Packet.t) ->
      match p.payload with
      | Net.Packet.Data { seq } -> down && List.mem (seq, link) drops
      | Net.Packet.Reply _ -> mutation = Some Suppress_replies
      | _ -> false);
  let oracle = Harness.Audit.attach ~faulted:true network in
  let proto = Srm.Proto.deploy ~network ~params:Srm.Params.default ~n_packets:10 ~period:0.05 () in
  List.iter
    (fun (_, h) ->
      Harness.Audit.attach_host oracle h;
      if mutation = Some Double_deliver then begin
        let hooks = Srm.Host.hooks h in
        let obtained = hooks.Srm.Host.on_packet_obtained in
        hooks.Srm.Host.on_packet_obtained <-
          (fun ~src ~seq ~expedited ->
            obtained ~src ~seq ~expedited;
            obtained ~src ~seq ~expedited)
      end)
    (Srm.Proto.members proto);
  Srm.Proto.start proto ~warmup:5.0 ~tail:15.0;
  Sim.Engine.run ~until:120.0 engine;
  oracle

let test_oracle_baseline_clean () =
  let oracle = run_mutated () in
  check Alcotest.bool "unmutated run is clean" true (clean oracle);
  check Alcotest.int "no violations" 0 (List.length (Harness.Audit.violations oracle))

let test_oracle_rejects_suppressed_replies () =
  (* No member ever puts a reply on the wire, so the dropped packet is
     never repaired: the liveness invariant must fire for the loser. *)
  let oracle = run_mutated ~mutation:Suppress_replies () in
  check Alcotest.bool "not clean" false (clean oracle);
  check Alcotest.bool "liveness violated" true (has_invariant oracle "liveness");
  check Alcotest.bool "the loser is charged" true
    (List.exists (fun v -> v.Harness.Audit.node = 3) (fault_violations oracle))

let test_oracle_rejects_double_delivery () =
  let oracle = run_mutated ~mutation:Double_deliver () in
  check Alcotest.bool "not clean" false (clean oracle);
  check Alcotest.bool "duplicate delivery caught" true
    (has_invariant oracle "duplicate-delivery")

let test_oracle_json_and_pp () =
  let oracle = run_mutated ~mutation:Suppress_replies () in
  (match Harness.Audit.to_json oracle with
  | Obs.Json.Obj fields -> (
      (match List.assoc_opt "count" fields with
      | Some (Obs.Json.Num n) ->
          check Alcotest.int "count field" (Harness.Audit.n_fault oracle) (int_of_float n)
      | _ -> Alcotest.fail "no count field");
      match List.assoc_opt "violations" fields with
      | Some (Obs.Json.Arr vs) ->
          check Alcotest.int "one row per violation" (Harness.Audit.n_fault oracle)
            (List.length vs)
      | _ -> Alcotest.fail "no violations array")
  | _ -> Alcotest.fail "oracle json is not an object");
  let rendered = Format.asprintf "%a" Harness.Audit.pp oracle in
  check Alcotest.bool "pp names the invariant" true
    (let sub = "liveness" in
     let n = String.length sub and m = String.length rendered in
     let rec go i = i + n <= m && (String.sub rendered i n = sub || go (i + 1)) in
     go 0)

(* The expedited-retry bound targets a *silent* replier: driving raw
   packets past the checker's tap, an unanswered hammer must trip it,
   while any reply heard from the replier must reset the streak (a
   live replier may legitimately draw many expedited requests it
   cannot answer — post-heal it can lack the very packets asked for). *)
let drive_oracle sends =
  let engine = Sim.Engine.create ~seed:1L () in
  let network = Net.Network.create ~engine ~tree:(sample_tree ()) ~link_delay:0.02 () in
  let oracle = Harness.Audit.attach ~faulted:true network in
  List.iteri
    (fun i payload ->
      ignore
        (Sim.Engine.schedule engine ~after:(0.1 *. float_of_int (i + 1)) (fun () ->
             Net.Network.unicast network ~from:3 ~dst:5 { Net.Packet.sender = 3; payload })))
    sends;
  Sim.Engine.run engine;
  oracle

let exp_req seq =
  Net.Packet.Exp_request
    { src = 0; seq; requestor = 3; d_qs = 0.1; replier = 5; turning_point = None }

let plain_reply seq =
  Net.Packet.Reply
    {
      src = 0;
      seq;
      requestor = 4;
      d_qs = 0.1;
      replier = 5;
      d_rq = 0.05;
      expedited = false;
      turning_point = None;
    }

let test_oracle_retry_bound_silent_replier () =
  let oracle = drive_oracle (List.init 13 exp_req) in
  check Alcotest.bool "silent replier hammered past the bound" true
    (has_invariant oracle "expedited-retry")

let test_oracle_retry_reset_on_reply () =
  let oracle =
    drive_oracle (List.init 12 exp_req @ [ plain_reply 100 ] @ List.init 12 (fun i -> exp_req (12 + i)))
  in
  check Alcotest.bool "any reply from the replier resets the streak" true (clean oracle)

(* Requests and replies injected on a 3-star for packet 1, after its
   original send, 10 ms apart: the rules the checker flags. *)
let injected_rules ~faulted sends =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create ~engine ~tree:(Net.Tree.star 3) () in
  let checker = Harness.Audit.attach ~faulted network in
  List.iteri
    (fun i (from, payload) ->
      ignore
        (Sim.Engine.schedule engine ~after:(0.01 *. float_of_int i) (fun () ->
             Net.Network.multicast network ~from { Net.Packet.sender = from; payload })))
    ((0, Net.Packet.Data { seq = 1 }) :: sends);
  Sim.Engine.run engine;
  List.map (fun v -> v.Harness.Audit.rule) (Harness.Audit.violations checker)

let request = (1, Net.Packet.Request { src = 0; seq = 1; requestor = 1; d_qs = 0.1; round = 0 })

(* Fault runs re-arm their requests, so the per-loss request bound is
   request-suppression's 200, in place of the 41 rounds hosts that do
   not re-arm stop at; a reply storm past 16 is reply-suppression. *)
let test_oracle_request_and_reply_bounds () =
  let rules n = injected_rules ~faulted:true (List.init n (fun _ -> request)) in
  check Alcotest.(list string) "200 requests for one loss pass" [] (rules 200);
  check Alcotest.(list string) "the 201st is flagged" [ "request-suppression" ] (rules 201);
  check Alcotest.(list string) "once per loss" [ "request-suppression" ] (rules 210);
  let reply =
    ( 2,
      Net.Packet.Reply
        {
          src = 0;
          seq = 1;
          requestor = 1;
          d_qs = 0.1;
          replier = 2;
          d_rq = 0.1;
          expedited = false;
          turning_point = None;
        } )
  in
  let replies n = injected_rules ~faulted:true (request :: List.init n (fun _ -> reply)) in
  check Alcotest.(list string) "16 replies for one loss pass" [] (replies 16);
  check Alcotest.(list string) "the 17th is flagged" [ "reply-suppression" ] (replies 17)

(* --- Retry back-off: presumed-dead repliers and cache expiry ---------- *)

let cache_entry ~seq ~replier =
  { Cesrm.Cache.seq; requestor = 3; d_qs = 0.1; replier; d_rq = 0.05; turning_point = None }

let test_cache_expire_replier () =
  let c = Cesrm.Cache.create ~capacity:8 () in
  ignore (Cesrm.Cache.note_reply c (cache_entry ~seq:1 ~replier:2));
  ignore (Cesrm.Cache.note_reply c (cache_entry ~seq:2 ~replier:4));
  ignore (Cesrm.Cache.note_reply c (cache_entry ~seq:3 ~replier:2));
  Cesrm.Cache.expire_replier c ~replier:2;
  check Alcotest.int "only the other replier's entry left" 1 (Cesrm.Cache.size c);
  check Alcotest.(option int) "survivor" (Some 4)
    (Option.map
       (fun (e : Cesrm.Cache.entry) -> e.replier)
       (match Cesrm.Cache.choose ~live:(fun _ -> true) c with
       | e -> Some e
       | exception Not_found -> None))

(* Under every scheme the choice skips excluded (presumed-dead)
   repliers, prefers a replier in the requestor's domain over a
   better-ranked one outside it, and finds nothing when every replier
   is excluded. *)
let test_policy_exclude () =
  List.iter
    (fun name ->
      let retention = Option.get (Cesrm.Retention.of_name name) in
      let c = Cesrm.Cache.create ~retention:retention.Cesrm.Retention.scheme ~capacity:8 () in
      ignore (Cesrm.Cache.note_reply ~now:1. c (cache_entry ~seq:1 ~replier:2));
      ignore (Cesrm.Cache.note_reply ~now:2. c (cache_entry ~seq:2 ~replier:3));
      ignore (Cesrm.Cache.note_reply ~now:3. c (cache_entry ~seq:3 ~replier:4));
      let chosen ?local live =
        match Cesrm.Cache.choose ~now:3. ?local ~live c with
        | e -> Some e.Cesrm.Cache.replier
        | exception Not_found -> None
      in
      let alive (_ : int) = true in
      (* every scheme ranks the last digest (seq 3, replier 4) first *)
      check Alcotest.(option int) (name ^ " best-ranked") (Some 4) (chosen alive);
      check Alcotest.(option int) (name ^ " avoids the excluded replier") (Some 3)
        (chosen (fun r -> r <> 4));
      check Alcotest.(option int) (name ^ " prefers the in-domain replier") (Some 2)
        (chosen ~local:(fun r -> r = 2) alive);
      check Alcotest.(option int) (name ^ " skips a dead in-domain replier") (Some 4)
        (chosen ~local:(fun r -> r = 2) (fun r -> r <> 2));
      check Alcotest.(option int) (name ^ ": all excluded -> no pair") None
        (chosen (fun _ -> false)))
    [ "recent"; "lru"; "hotspot"; "hotspot=inf" ]

(* Under the fault-tolerance extension a host presumes a replier dead
   at its 8th consecutive failure; without it, never. *)
let test_replier_failure_limit () =
  let host ~fault_tolerant =
    let engine = Sim.Engine.create ~seed:1L () in
    let network = Net.Network.create ~engine ~tree:(sample_tree ()) ~link_delay:0.02 () in
    let params = { Srm.Params.default with fault_tolerant } in
    let proto = Cesrm.Proto.deploy ~network ~params ~n_packets:5 ~period:0.05 () in
    let h = Cesrm.Proto.host proto 3 in
    ignore (Cesrm.Cache.note_reply (Cesrm.Host.cache h) (cache_entry ~seq:1 ~replier:5));
    h
  in
  let fail h n =
    for _ = 1 to n do
      Cesrm.Host.note_replier_failure h ~replier:5
    done
  in
  check Alcotest.int "the limit" 8 Cesrm.Host.max_replier_failures;
  let h = host ~fault_tolerant:true in
  check Alcotest.bool "alive before any failure" false (Cesrm.Host.replier_dead h ~replier:5);
  fail h 7;
  check Alcotest.bool "seven failures are under the limit" false
    (Cesrm.Host.replier_dead h ~replier:5);
  fail h 1;
  check Alcotest.bool "limit reached: presumed dead" true (Cesrm.Host.replier_dead h ~replier:5);
  check Alcotest.int "its cache entries expired" 0 (Cesrm.Cache.size (Cesrm.Host.cache h));
  Cesrm.Host.revive_replier h ~replier:5;
  check Alcotest.bool "a heard reply revives it" false (Cesrm.Host.replier_dead h ~replier:5);
  let paper = host ~fault_tolerant:false in
  fail paper 20;
  check Alcotest.bool "without the extension: never presumed dead" false
    (Cesrm.Host.replier_dead paper ~replier:5);
  check Alcotest.int "and its pair stays cached" 1 (Cesrm.Cache.size (Cesrm.Host.cache paper))

(* --- Model-based battery: random bounded plans preserve liveness ------ *)

(* Run [plan] over a small synthetic group (30 packets, 50 ms period,
   data phase 5.0..6.5 s, session until ~21.5 s) and report whether the
   oracle stayed clean. The robustness extensions are on, as under
   [Harness.Runner.run_model ?fault_plan]. *)
let run_plan ?(protocol = `Srm) plan =
  let tree = sample_tree () in
  let engine = Sim.Engine.create ~seed:5L () in
  let network = Net.Network.create ~engine ~tree ~link_delay:0.02 () in
  let params = { Srm.Params.default with fault_tolerant = true } in
  let oracle = Harness.Audit.attach ~faulted:true network in
  (match protocol with
  | `Srm ->
      let proto = Srm.Proto.deploy ~network ~params ~n_packets:30 ~period:0.05 () in
      let on_restart ~node =
        Option.iter Srm.Host.restart_recovery (List.assoc_opt node (Srm.Proto.members proto))
      in
      Fault.Plan.compile ~network ~on_restart plan;
      List.iter (fun (_, h) -> Harness.Audit.attach_host oracle h) (Srm.Proto.members proto);
      Srm.Proto.start proto ~warmup:5.0 ~tail:15.0
  | `Cesrm ->
      let proto = Cesrm.Proto.deploy ~network ~params ~n_packets:30 ~period:0.05 () in
      let on_restart ~node =
        Option.iter
          (fun h -> Srm.Host.restart_recovery (Cesrm.Host.srm h))
          (List.assoc_opt node (Cesrm.Proto.members proto))
      in
      Fault.Plan.compile ~network ~on_restart plan;
      List.iter
        (fun (_, h) -> Harness.Audit.attach_host oracle (Cesrm.Host.srm h))
        (Cesrm.Proto.members proto);
      Cesrm.Proto.start proto ~warmup:5.0 ~tail:15.0);
  Sim.Engine.run ~until:120.0 engine;
  clean oracle

(* Bounded events on the sample tree: every window lies inside
   [5.0, 8.6), well before the session ends (~21.5 s), and every crash
   restarts — no fault may isolate anyone past the end of the run. *)
let gen_event =
  QCheck.Gen.(
    int_range 0 4 >>= fun kind ->
    int_range 1 5 >>= fun link ->
    int_range 0 25 >>= fun a ->
    int_range 1 10 >>= fun len ->
    let from_ = 5.0 +. (0.1 *. float_of_int a) in
    let until = from_ +. (0.1 *. float_of_int len) in
    match kind with
    | 1 -> return (Fault.Plan.Link_jitter { link; from_; until; max_jitter = 0.03 })
    | 2 -> return (Fault.Plan.Link_dup { link; from_; until })
    | 3 ->
        (* the no-restart crash probes the oracle's liveness exemption
           for members still down at the end of the run *)
        let node = [| 3; 4; 5 |].(link mod 3) in
        let restart_at = if len > 2 then Some until else None in
        return (Fault.Plan.Crash { node; at = from_; restart_at })
    | _ -> return (Fault.Plan.Link_down { link; from_; until }))

let print_events events = Obs.Json.to_string (Fault.Plan.to_json (Fault.Plan.make events))

let arbitrary_plan =
  QCheck.make ~print:print_events
    ~shrink:QCheck.Shrink.(list ?shrink:None)
    QCheck.Gen.(list_size (int_range 0 4) gen_event)

(* --- Battery at scale: a generated 512-receiver topology -------------- *)

(* The same model-based property on a synthetic scale group: random
   bounded fault plans against the full harness path (ground-truth
   Gilbert losses, scale tuning — oracle distances, source-only
   sessions, widened suppression windows) must leave the invariant
   oracle clean. The trace is synthesized once; link and crash-node
   draws come from its actual tree, so plans stay meaningful at this
   size (crashes always hit members, never routers). *)
let scale_case =
  lazy
    (let row = Mtrace.Scale.find "SCALE-bf-512" in
     let gen = Mtrace.Generator.synthesize ~n_packets:30 row in
     (gen.Mtrace.Generator.trace, gen.Mtrace.Generator.link_bad))

let run_plan_scale ~protocol plan =
  let trace, link_bad = Lazy.force scale_case in
  let setup = Harness.Runner.tune_for_trace trace Harness.Runner.default_setup in
  let res =
    Harness.Runner.run_model ~setup ~fault_plan:plan protocol trace
      (Harness.Runner.Ground_truth link_bad)
  in
  res.Harness.Runner.oracle_violations = 0

let gen_event_scale =
  let trace, _ = Lazy.force scale_case in
  let tree = Mtrace.Trace.tree trace in
  let receivers = Net.Tree.receivers tree in
  let n_links = Net.Tree.n_nodes tree - 1 in
  QCheck.Gen.(
    int_range 0 4 >>= fun kind ->
    int_range 1 n_links >>= fun link ->
    int_range 0 25 >>= fun a ->
    int_range 1 10 >>= fun len ->
    let from_ = 5.0 +. (0.1 *. float_of_int a) in
    let until = from_ +. (0.1 *. float_of_int len) in
    match kind with
    | 1 -> return (Fault.Plan.Link_jitter { link; from_; until; max_jitter = 0.03 })
    | 2 -> return (Fault.Plan.Link_dup { link; from_; until })
    | 3 ->
        let node = receivers.(link mod Array.length receivers) in
        let restart_at = if len > 2 then Some until else None in
        return (Fault.Plan.Crash { node; at = from_; restart_at })
    | _ -> return (Fault.Plan.Link_down { link; from_; until }))

let arbitrary_scale_plan =
  QCheck.make ~print:print_events
    ~shrink:QCheck.Shrink.(list ?shrink:None)
    QCheck.Gen.(list_size (int_range 0 4) gen_event_scale)

let prop_scale_plans_oracle_clean_srm =
  QCheck.Test.make ~name:"fault: bounded plans on 512-receiver scale group, SRM" ~count:8
    arbitrary_scale_plan (fun events ->
      run_plan_scale ~protocol:Harness.Runner.Srm_protocol (Fault.Plan.make events))

let prop_scale_plans_oracle_clean_cesrm =
  QCheck.Test.make ~name:"fault: bounded plans on 512-receiver scale group, CESRM" ~count:5
    arbitrary_scale_plan (fun events ->
      run_plan_scale
        ~protocol:(Harness.Runner.Cesrm_protocol Cesrm.Host.default_config)
        (Fault.Plan.make events))

let prop_bounded_plans_liveness_srm =
  QCheck.Test.make ~name:"fault: bounded random plans keep SRM live and clean" ~count:30
    arbitrary_plan (fun events -> run_plan ~protocol:`Srm (Fault.Plan.make events))

let prop_bounded_plans_liveness_cesrm =
  QCheck.Test.make ~name:"fault: bounded random plans keep CESRM live and clean" ~count:15
    arbitrary_plan (fun events -> run_plan ~protocol:`Cesrm (Fault.Plan.make events))

(* A failing plan must shrink to a minimal one: greedy single-event
   removal to fixpoint, the same minimization QCheck's list shrinker
   performs, applied deterministically.

   Note a leaf cut off forever never even *detects* its losses (no
   later packet arrives to reveal the gap), so one unbounded outage
   alone cannot violate liveness. The genuinely minimal failing plan
   here is a pair: a short outage that creates detected losses, plus an
   unbounded outage that swallows every repair — neither fails alone. *)
(* Regression: the sweep cell UCB960424/cesrm/s0/partition-heal at this
   derived seed. Post-heal, a cached replier is alive (its ordinary
   replies keep it cached and keep reviving it) but lacks the packets
   it is asked for, so it draws expedited requests past the retry
   bound without an expedited reply — which is graceful degradation,
   not hammering a dead replier, and the oracle must accept it. *)
let test_post_heal_alive_replier () =
  let res =
    Harness.Runner.run_leg ~n_packets:300 ~fault:"partition-heal" ~seed:5139283748462763858L
      (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config)
      (Mtrace.Meta.find "UCB960424")
  in
  check Alcotest.int "oracle clean" 0 res.Harness.Runner.oracle_violations;
  check Alcotest.int "all recovered" 0 res.Harness.Runner.unrecovered

let test_minimal_failing_plan () =
  let fails events = not (run_plan ~protocol:`Srm (Fault.Plan.make events)) in
  (* drops data seqs 1..5 on node 3's uplink; seq 6 arrives and reveals
     the gap at ~5.3 s *)
  let detect = Fault.Plan.Link_down { link = 3; from_ = 5.0; until = 5.25 } in
  (* from 5.35 s on, nothing crosses that link again: the detected
     losses can never be repaired, yet node 3 stays up *)
  let starve = Fault.Plan.Link_down { link = 3; from_ = 5.35; until = 1e9 } in
  let initial =
    [
      Fault.Plan.Link_jitter { link = 1; from_ = 5.0; until = 6.0; max_jitter = 0.03 };
      detect;
      Fault.Plan.Link_dup { link = 5; from_ = 5.2; until = 5.6 };
      starve;
      Fault.Plan.Link_down { link = 5; from_ = 5.4; until = 5.8 };
    ]
  in
  check Alcotest.bool "detected-then-starved losses violate liveness" true (fails initial);
  check Alcotest.bool "neither bad event fails alone" false
    (fails [ detect ] || fails [ starve ]);
  let rec minimize events =
    let without i = List.filteri (fun j _ -> j <> i) events in
    let rec try_drop i =
      if i >= List.length events then None
      else if fails (without i) then Some (without i)
      else try_drop (i + 1)
    in
    match try_drop 0 with Some smaller -> minimize smaller | None -> events
  in
  match minimize initial with
  | [ a; b ] ->
      check Alcotest.bool "minimal plan is exactly the detect/starve pair" true
        (a = detect && b = starve)
  | events ->
      Alcotest.failf "minimization stalled at %d events: %s" (List.length events)
        (print_events events)

(* --- Faulted recovery domains ----------------------------------------- *)

(* Hierarchical local recovery under faults: domain mode reroutes
   requests at designated repliers and scopes repairs to domain
   subtrees, so a crashed or partitioned replier must not strand its
   domain — unanswered local rounds escalate up the chain until a
   live replier answers. Every case demands a clean oracle and full
   recovery. *)

let run_plan_domains ~protocol plan =
  let trace, link_bad = Lazy.force scale_case in
  let setup =
    Harness.Runner.tune_for_trace ~domains:Rdomain.Auto trace Harness.Runner.default_setup
  in
  let res =
    Harness.Runner.run_model ~setup ~fault_plan:plan ~domains:Rdomain.Auto protocol trace
      (Harness.Runner.Ground_truth link_bad)
  in
  res.Harness.Runner.oracle_violations = 0 && res.unrecovered = 0

let both_protocols =
  [ Harness.Runner.Srm_protocol; Harness.Runner.Cesrm_protocol Cesrm.Host.default_config ]

let test_canned_clean_oracle_domains () =
  let row = Mtrace.Scale.find "SCALE-bf-256" in
  List.iter
    (fun fault ->
      List.iter
        (fun proto ->
          let res =
            Harness.Runner.run_leg ~n_packets:100 ~fault ~seed:11L ~domains:Rdomain.Auto proto
              row
          in
          let label = fault ^ "/" ^ Harness.Runner.protocol_name proto ^ "/domains" in
          check Alcotest.bool (label ^ " oracle attached") true (res.oracle <> None);
          check Alcotest.int (label ^ " oracle clean") 0 res.oracle_violations;
          check Alcotest.int (label ^ " audit clean") 0 res.audit_violations;
          check Alcotest.int (label ^ " everything recovered") 0 res.unrecovered)
        both_protocols)
    Fault.Plan.canned_names

(* The designated repliers of the scale group's domains, source
   excluded — the nodes whose crash hits hierarchical recovery where
   it concentrates state. *)
let scale_repliers =
  lazy
    (let trace, _ = Lazy.force scale_case in
     let tree = Mtrace.Trace.tree trace in
     let d = Rdomain.of_tree ~tree Rdomain.Auto in
     let rs = ref [] in
     for dom = 0 to Rdomain.n_domains d - 1 do
       let r = Rdomain.replier d dom in
       if r <> 0 then rs := r :: !rs
     done;
     Array.of_list (List.sort_uniq compare !rs))

(* Crashing a designated replier mid-stream (with restart) leaves its
   domain requesting into a void for the local rounds; escalation must
   carry recovery to the parent domain and the oracle must stay
   clean. *)
let test_replier_crash_domains () =
  let repliers = Lazy.force scale_repliers in
  check Alcotest.bool "scale group has non-source repliers" true (Array.length repliers > 0);
  let plan =
    Fault.Plan.make ~name:"crash-designated-replier"
      [ Fault.Plan.Crash { node = repliers.(0); at = 5.4; restart_at = Some 6.4 } ]
  in
  List.iter
    (fun proto ->
      check Alcotest.bool
        (Harness.Runner.protocol_name proto ^ ": designated-replier crash stays clean")
        true
        (run_plan_domains ~protocol:proto plan))
    both_protocols

(* Random replier crash + overlapping partition: the partition may cut
   the very escalation path the crash forces recovery onto; both heal
   inside the run, so liveness must survive the overlap. *)
let gen_domain_fault_plan =
  let trace, _ = Lazy.force scale_case in
  let n_links = Net.Tree.n_nodes (Mtrace.Trace.tree trace) - 1 in
  let repliers = Lazy.force scale_repliers in
  QCheck.Gen.(
    int_range 0 (Array.length repliers - 1) >>= fun ri ->
    int_range 1 n_links >>= fun proot ->
    int_range 0 15 >>= fun ca ->
    int_range 1 8 >>= fun clen ->
    int_range 0 15 >>= fun pa ->
    int_range 1 8 >>= fun plen ->
    let crash_at = 5.0 +. (0.1 *. float_of_int ca) in
    let crash_until = crash_at +. (0.1 *. float_of_int clen) in
    let part_from = 5.0 +. (0.1 *. float_of_int pa) in
    let part_until = part_from +. (0.1 *. float_of_int plen) in
    return
      [
        Fault.Plan.Crash { node = repliers.(ri); at = crash_at; restart_at = Some crash_until };
        Fault.Plan.Link_down { link = proot; from_ = part_from; until = part_until };
      ])

let arbitrary_domain_plan = QCheck.make ~print:print_events gen_domain_fault_plan

let prop_domain_crash_partition_srm =
  QCheck.Test.make ~name:"fault: replier crash + partition overlap with domains, SRM" ~count:6
    arbitrary_domain_plan (fun events ->
      run_plan_domains ~protocol:Harness.Runner.Srm_protocol (Fault.Plan.make events))

let prop_domain_crash_partition_cesrm =
  QCheck.Test.make ~name:"fault: replier crash + partition overlap with domains, CESRM"
    ~count:4 arbitrary_domain_plan (fun events ->
      run_plan_domains
        ~protocol:(Harness.Runner.Cesrm_protocol Cesrm.Host.default_config)
        (Fault.Plan.make events))

(* --- Steady-state retirement under faults ----------------------------- *)

(* Retirement (lib/steady) must stay invisible under fault plans too:
   the stability floor is gated by the slowest member's delivered
   prefix, so a partitioned or crashed member freezes it rather than
   losing state it still needs. Each case runs a canned plan with an
   aggressively small window against the never-retiring reference
   (window = n_packets) on the same streaming trace and demands a
   clean, byte-identical outcome. *)
let steady_fingerprint (r : Harness.Runner.result) =
  let total k = Stats.Counters.total r.counters k in
  let summary = Stats.Recovery.latency_summary r.recoveries in
  Printf.sprintf
    "rqst=%d exp_rqst=%d repl=%d exp_repl=%d detected=%d unrecovered=%d recoveries=%d \
     audit=%d oracle=%d lat_mean=%.17g"
    (total Stats.Counters.Rqst) (total Stats.Counters.Exp_rqst) (total Stats.Counters.Repl)
    (total Stats.Counters.Exp_repl) r.detected r.unrecovered
    (Stats.Recovery.count r.recoveries) r.audit_violations r.oracle_violations
    (Stats.Summary.mean summary)

let steady_faulted ~window ~fault =
  let row = Mtrace.Scale.find "SCALE-bf-32" in
  Harness.Runner.run_leg ~n_packets:400 ~fault ~seed:42L
    ~steady:(Steady.Config.windowed window)
    (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config)
    row

let check_steady_faulted name ~window ~fault =
  let finite = steady_faulted ~window ~fault in
  let infinite = steady_faulted ~window:400 ~fault in
  check Alcotest.int (name ^ ": oracle clean") 0 finite.Harness.Runner.oracle_violations;
  check Alcotest.int (name ^ ": audit clean") 0 finite.Harness.Runner.audit_violations;
  check Alcotest.int (name ^ ": all recovered") 0 finite.Harness.Runner.unrecovered;
  check Alcotest.string (name ^ ": identical to infinite window")
    (steady_fingerprint infinite) (steady_fingerprint finite);
  finite

(* Window 1: every request for a just-stabilized seq is a late request
   at the horizon — repliers must serve from their retired-buffer base
   (has_packet stays true at or below it). *)
let test_retire_late_request_at_horizon () =
  let finite = check_steady_faulted "late-request" ~window:1 ~fault:"link-flap" in
  let c = Option.get finite.Harness.Runner.retirement in
  check Alcotest.bool "retirement was active" true (Steady.Controller.floor c > 0)

(* A replier crash whose down time straddles retirement epochs: the
   restarted host rebuilds from live traffic while everyone else keeps
   retiring. *)
let test_retire_crash_restart () =
  ignore (check_steady_faulted "crash-restart" ~window:16 ~fault:"crash-replier")

(* An active partition stalls the partitioned members' prefixes, which
   must freeze the floor (min over members) instead of retiring state
   their post-heal recovery needs. *)
let test_retire_under_partition () =
  let finite = check_steady_faulted "partition" ~window:16 ~fault:"partition-heal" in
  let c = Option.get finite.Harness.Runner.retirement in
  check Alcotest.bool "retirement still completed after heal" true
    (Steady.Controller.floor c > 0)

(* --- Membership churn: plans, churn-safe state, churn-aware oracle ---- *)

let churn_kitchen =
  Fault.Plan.make ~name:"churny"
    [
      Fault.Plan.Join { node = 3; at = 5.4 };
      Fault.Plan.Leave { node = 4; at = 5.2 };
      Fault.Plan.Rejoin { node = 4; at = 5.9 };
    ]

let test_churn_plan_json_roundtrip () =
  check Alcotest.bool "churn plan has churn" true (Fault.Plan.has_churn churn_kitchen);
  check Alcotest.bool "perturbation plan has none" false (Fault.Plan.has_churn kitchen_sink);
  check Alcotest.(list int) "initial absentees are the Join nodes" [ 3 ]
    (Fault.Plan.initial_absentees churn_kitchen);
  match Fault.Plan.of_json (Fault.Plan.to_json churn_kitchen) with
  | Error msg -> Alcotest.fail msg
  | Ok plan' ->
      check Alcotest.string "churn json round-trip" (plan_string churn_kitchen)
        (plan_string plan')

let test_churn_plan_validation () =
  let tree = sample_tree () in
  let expect_invalid name events =
    match Fault.Plan.validate ~tree (Fault.Plan.make events) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s should be rejected" name
  in
  (match Fault.Plan.validate ~tree churn_kitchen with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "churn kitchen sink should validate: %s" msg);
  expect_invalid "rejoin without a leave" [ Fault.Plan.Rejoin { node = 3; at = 5. } ];
  expect_invalid "rejoin before its leave"
    [ Fault.Plan.Leave { node = 4; at = 6. }; Fault.Plan.Rejoin { node = 4; at = 5. } ];
  expect_invalid "join of a router" [ Fault.Plan.Join { node = 1; at = 5. } ];
  expect_invalid "leave of the source" [ Fault.Plan.Leave { node = 0; at = 5. } ];
  expect_invalid "negative join time" [ Fault.Plan.Join { node = 3; at = -1. } ]

let test_canned_churn_plans () =
  let tree = sample_tree () in
  check Alcotest.int "three churn plans" 3 (List.length Fault.Plan.churn_names);
  List.iter
    (fun name ->
      match Fault.Plan.canned ~tree ~warmup:5. ~duration:10. name with
      | None -> Alcotest.failf "canned churn plan %s missing" name
      | Some plan -> (
          check Alcotest.string "churn plan is named" name plan.Fault.Plan.name;
          check Alcotest.bool "churn plan has churn events" true (Fault.Plan.has_churn plan);
          match Fault.Plan.validate ~tree plan with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "canned %s invalid: %s" name msg))
    Fault.Plan.churn_names;
  (* the perturbation names keep resolving, and never claim churn *)
  match Fault.Plan.canned ~tree ~warmup:5. ~duration:10. "link-flap" with
  | Some p -> check Alcotest.bool "link-flap has no churn" false (Fault.Plan.has_churn p)
  | None -> Alcotest.fail "link-flap should still resolve"

let test_churn_schedules_deterministic () =
  let nodes = [ 3; 4; 5 ] in
  let steady () =
    Fault.Plan.steady_churn ~nodes ~from_:5.0 ~until:6.5 ~rate:4.0 ~half_life:0.2 ()
  in
  check Alcotest.string "steady_churn is a pure function of its arguments"
    (print_events (steady ())) (print_events (steady ()));
  check Alcotest.int "flash crowd joins everyone at once" 3
    (List.length (Fault.Plan.flash_crowd ~nodes ~at:5.3));
  let late = Fault.Plan.late_joiners ~nodes ~at:5.2 ~spread:0.2 in
  check Alcotest.int "late joiners join once each" 3 (List.length late);
  List.iter
    (function
      | Fault.Plan.Join { at; _ } ->
          check Alcotest.bool "stagger within [at, at+spread]" true (at >= 5.2 && at <= 5.4)
      | _ -> Alcotest.fail "late_joiners emits only joins")
    late

(* The canned churn plans leave the oracle clean and every full-window
   member whole, for both protocols. *)
let test_canned_churn_clean_oracle () =
  let row = Mtrace.Meta.nth 4 in
  List.iter
    (fun fault ->
      List.iter
        (fun proto ->
          let res = Harness.Runner.run_leg ~n_packets:600 ~fault ~seed:11L proto row in
          let label = fault ^ "/" ^ Harness.Runner.protocol_name proto in
          check Alcotest.bool (label ^ " oracle attached") true (res.oracle <> None);
          check Alcotest.int (label ^ " oracle clean") 0 res.oracle_violations;
          check Alcotest.int (label ^ " full-window members whole") 0 res.unrecovered;
          check Alcotest.int (label ^ " forgiveness accounted") res.detected
            (Stats.Recovery.count res.recoveries + res.forgiven))
        both_protocols)
    Fault.Plan.churn_names

(* Model-based churn battery: random bounded join/leave/rejoin plans on
   a 32-receiver scale group, through the full harness wiring (depart /
   forgiveness, join baselining, peer forgetting, cache invalidation,
   oracle membership timeline) — the oracle must stay clean and every
   full-window member must recover everything. *)
let churn_case =
  lazy
    (let row = Mtrace.Scale.find "SCALE-bf-32" in
     let gen = Mtrace.Generator.synthesize ~n_packets:30 row in
     (gen.Mtrace.Generator.trace, gen.Mtrace.Generator.link_bad))

let churn_phase =
  lazy
    (let trace, _ = Lazy.force churn_case in
     let (setup : Harness.Runner.setup) = Harness.Runner.default_setup in
     (setup.warmup, float_of_int (Mtrace.Trace.n_packets trace) *. Mtrace.Trace.period trace))

let run_churn_model ~protocol plan =
  let trace, link_bad = Lazy.force churn_case in
  let setup = Harness.Runner.tune_for_trace trace Harness.Runner.default_setup in
  Harness.Runner.run_model ~setup ~fault_plan:plan protocol trace
    (Harness.Runner.Ground_truth link_bad)

(* One membership move per node, times on a 32-step grid over the data
   phase (a rejoin may land past it — absences can outlive the data,
   never the session tail). Duplicate node draws keep the first move,
   so every generated (and every shrunk) list compiles to a valid
   plan. *)
let churn_events_of moves =
  let trace, _ = Lazy.force churn_case in
  let receivers = Net.Tree.receivers (Mtrace.Trace.tree trace) in
  let warmup, duration = Lazy.force churn_phase in
  let at step = warmup +. (duration *. float_of_int step /. 32.) in
  let seen = Hashtbl.create 8 in
  List.concat_map
    (fun (ri, move) ->
      let node = receivers.(ri mod Array.length receivers) in
      if Hashtbl.mem seen node then []
      else begin
        Hashtbl.add seen node ();
        match move with
        | `Join a -> [ Fault.Plan.Join { node; at = at a } ]
        | `Leave a -> [ Fault.Plan.Leave { node; at = at a } ]
        | `Cycle (a, len) ->
            [
              Fault.Plan.Leave { node; at = at a };
              Fault.Plan.Rejoin { node; at = at (a + len) };
            ]
      end)
    moves

let gen_churn_move =
  QCheck.Gen.(
    int_range 0 2 >>= fun kind ->
    int_range 0 1000 >>= fun ri ->
    int_range 0 31 >>= fun a ->
    int_range 1 8 >>= fun len ->
    return (ri, match kind with 0 -> `Join a | 1 -> `Leave a | _ -> `Cycle (a, len)))

let arbitrary_churn_plan =
  QCheck.make
    ~print:(fun moves -> print_events (churn_events_of moves))
    ~shrink:QCheck.Shrink.(list ?shrink:None)
    QCheck.Gen.(list_size (int_range 0 4) gen_churn_move)

let churn_plan_clean ~protocol moves =
  let res = run_churn_model ~protocol (Fault.Plan.make (churn_events_of moves)) in
  res.Harness.Runner.oracle_violations = 0
  && res.unrecovered = 0
  && res.detected = Stats.Recovery.count res.recoveries + res.forgiven

let prop_churn_plans_clean_srm =
  QCheck.Test.make ~name:"fault: bounded churn plans keep SRM live and clean" ~count:12
    arbitrary_churn_plan
    (churn_plan_clean ~protocol:Harness.Runner.Srm_protocol)

let prop_churn_plans_clean_cesrm =
  QCheck.Test.make ~name:"fault: bounded churn plans keep CESRM live and clean" ~count:8
    arbitrary_churn_plan
    (churn_plan_clean ~protocol:(Harness.Runner.Cesrm_protocol Cesrm.Host.default_config))

(* Mutation self-test: a departed member whose deliveries resume (here:
   its enabled flag is resurrected without a rejoin) must trip the
   deliver-to-departed invariant — churn must actually silence it. *)
let run_departed_delivery ~resurrect () =
  let engine = Sim.Engine.create ~seed:7L () in
  let network = Net.Network.create ~engine ~tree:(sample_tree ()) ~link_delay:0.02 () in
  let oracle = Harness.Audit.attach ~faulted:true network in
  let proto = Srm.Proto.deploy ~network ~params:Srm.Params.default ~n_packets:10 ~period:0.05 () in
  List.iter (fun (_, h) -> Harness.Audit.attach_host oracle h) (Srm.Proto.members proto);
  ignore
    (Sim.Engine.schedule_at engine ~at:5.2 (fun () ->
         Net.Network.set_member network 4 false;
         Harness.Audit.note_membership oracle ~node:4 ~at:5.2 ~member:false));
  if resurrect then
    ignore
      (Sim.Engine.schedule_at engine ~at:5.3 (fun () -> Net.Network.set_enabled network 4 true));
  Srm.Proto.start proto ~warmup:5.0 ~tail:15.0;
  Sim.Engine.run ~until:120.0 engine;
  oracle

let test_oracle_rejects_deliver_to_departed () =
  let oracle = run_departed_delivery ~resurrect:true () in
  check Alcotest.bool "resurrected deliveries caught" true
    (has_invariant oracle "deliver-to-departed");
  let honest = run_departed_delivery ~resurrect:false () in
  check Alcotest.bool "an honest departure is clean" true (clean honest)

(* Mutation self-test: expedited requests pinned on a replier that left
   the group. Up to [max_departed_retry] = 2 in-flight unicasts may
   legitimately straddle the leave; the third means the cached pair was
   never invalidated. *)
let drive_oracle_departed n =
  let engine = Sim.Engine.create ~seed:1L () in
  let network = Net.Network.create ~engine ~tree:(sample_tree ()) ~link_delay:0.02 () in
  let oracle = Harness.Audit.attach ~faulted:true network in
  ignore
    (Sim.Engine.schedule_at engine ~at:0.05 (fun () ->
         Harness.Audit.note_membership oracle ~node:5 ~at:0.05 ~member:false));
  List.iteri
    (fun i payload ->
      ignore
        (Sim.Engine.schedule engine ~after:(0.1 *. float_of_int (i + 1)) (fun () ->
             Net.Network.unicast network ~from:3 ~dst:5 { Net.Packet.sender = 3; payload })))
    (List.init n exp_req);
  Sim.Engine.run engine;
  oracle

let test_oracle_rejects_departed_replier_retries () =
  let oracle = drive_oracle_departed 3 in
  check Alcotest.bool "a third unicast to the ghost is caught" true
    (has_invariant oracle "expedited-retry-departed");
  let tolerated = drive_oracle_departed 2 in
  check Alcotest.bool "in-flight timers straddling the leave are tolerated" true
    (clean tolerated)

(* Regression: a plan that empties the receiver set mid-stream must
   complete to the horizon with a clean verdict — every pending loss
   forgiven, nothing charged to the departed, no machinery stuck
   waiting on an empty group. *)
let test_empty_group_mid_stream () =
  let trace, _ = Lazy.force churn_case in
  let receivers = Net.Tree.receivers (Mtrace.Trace.tree trace) in
  let warmup, duration = Lazy.force churn_phase in
  let at = warmup +. (0.4 *. duration) in
  let plan =
    Fault.Plan.make ~name:"everyone-leaves"
      (List.map (fun node -> Fault.Plan.Leave { node; at }) (Array.to_list receivers))
  in
  List.iter
    (fun proto ->
      let label = Harness.Runner.protocol_name proto in
      let res = run_churn_model ~protocol:proto plan in
      check Alcotest.int (label ^ ": oracle clean with an empty group") 0
        res.Harness.Runner.oracle_violations;
      check Alcotest.int (label ^ ": nothing charged to the departed") 0 res.unrecovered;
      check Alcotest.int (label ^ ": every pending loss forgiven") res.detected
        (Stats.Recovery.count res.recoveries + res.forgiven))
    both_protocols

(* --- Rejected lever combinations --------------------------------------- *)

let rejects reason f =
  match f () with
  | exception Invalid_argument msg -> check Alcotest.string "rejection reason" reason msg
  | (_ : Harness.Runner.result) -> Alcotest.fail ("expected a rejection: " ^ reason)

(* LMS retries an expedited request to a stale replier by design, so
   the oracle flags most faulted LMS runs (on SCALE-bf-64 at 120
   packets, 26 of 32 over the canned plans): no plan runs under LMS. *)
let test_reject_lms_faulted () =
  let row = Mtrace.Scale.find "SCALE-bf-64" in
  List.iter
    (fun fault ->
      rejects "LMS under a fault plan" (fun () ->
          Harness.Runner.run_leg ~n_packets:120 ~fault ~seed:42L Harness.Runner.Lms_protocol row))
    (Fault.Plan.canned_names @ Fault.Plan.churn_names)

(* Domains scope SRM/CESRM requests and repairs; LMS routes neither
   through them. *)
let test_reject_lms_domains () =
  rejects "LMS with recovery domains" (fun () ->
      Harness.Runner.run_leg ~n_packets:30 ~domains:Rdomain.Auto ~seed:42L
        Harness.Runner.Lms_protocol (Mtrace.Scale.find "SCALE-dc-64"))

(* A reply can reach a host after retirement swept its loss (a
   duplicate, a repair held up by an outage), and CESRM digests it only
   for a loss the host suffered. Retirement used to forget that: on
   SCALE-bf-128 at 200 packets, seed 7, lru with a 16-packet window
   sent 20 requests and 71 replies against 21 and 72 without
   retirement; recent diverged the same way under dup-burst on
   SCALE-bf-48 (77 packets, seed 26578) and recent:1 under
   partition-heal with domains on SCALE-dc-48 (192 packets, seed
   128336). Every leg must match its never-retiring twin. *)
let test_retire_late_replies () =
  let leg (row, scheme, n_packets, seed, fault, domains) window =
    let retention = Option.get (Cesrm.Retention.of_name scheme) in
    let r =
      Harness.Runner.run_leg ~n_packets ?fault ?domains ~seed
        ~steady:(Steady.Config.windowed window)
        (Harness.Runner.Cesrm_protocol { Cesrm.Host.default_config with retention })
        (Mtrace.Scale.find row)
    in
    Printf.sprintf "rqst=%d repl=%d exp=%d/%d lat=%.17g"
      (Stats.Counters.total r.counters Stats.Counters.Rqst)
      (Stats.Counters.total r.counters Stats.Counters.Repl)
      r.exp_requests r.exp_replies
      (Stats.Summary.mean (Stats.Recovery.latency_summary r.recoveries))
  in
  List.iter
    (fun ((row, scheme, n_packets, _, fault, _) as case) ->
      check Alcotest.string
        (Printf.sprintf "%s %s %s" row scheme (Option.value fault ~default:"unfaulted"))
        (leg case n_packets) (leg case 16))
    [
      ("SCALE-bf-128", "lru", 200, 7L, None, None);
      ("SCALE-bf-128", "hotspot=inf", 200, 7L, None, None);
      ("SCALE-bf-48", "recent", 77, 26578L, Some "dup-burst", None);
      ("SCALE-dc-48", "recent:1", 192, 128336L, Some "partition-heal", Some Rdomain.Auto);
    ]

(* A replier that shares the requestor's losses cannot answer its
   expedited requests, yet others' expedited repairs used to count as
   its success, so wherever selection does not follow recency it
   stayed chosen past the oracle's retry bound: the domain preference
   on SCALE-ss-96 (145 packets, seed 850166, link-flap; nodes 29 and 38
   sent 13 requests in a row) and hotspot heat on SCALE-dc-48 (108
   packets, seed 70135, jitter-reorder; node 75 to its parent 74). *)
let test_replier_credit () =
  List.iter
    (fun (row, scheme, n_packets, seed, fault, domains) ->
      let retention = Option.get (Cesrm.Retention.of_name scheme) in
      let res =
        Harness.Runner.run_leg ~n_packets ~fault ?domains ~seed
          (Harness.Runner.Cesrm_protocol { Cesrm.Host.default_config with retention })
          (Mtrace.Scale.find row)
      in
      check Alcotest.int (row ^ " " ^ scheme ^ " oracle clean") 0 res.oracle_violations;
      check Alcotest.int (row ^ " " ^ scheme ^ " everything recovered") 0 res.unrecovered)
    [
      ("SCALE-ss-96", "recent", 145, 850166L, "link-flap", Some Rdomain.Auto);
      ("SCALE-dc-48", "hotspot", 108, 70135L, "jitter-reorder", None);
    ]

(* A reply the departed replier sent before leaving used to revive it
   on arrival: on SCALE-dc-48 at 200 packets, seed 313912, under
   churn-steady, node 76 heard one from replier 73 after 73 left and
   sent it 3 expedited requests, past the oracle's straddler
   allowance. *)
let test_stale_reply_departed () =
  let res =
    Harness.Runner.run_leg ~n_packets:200 ~fault:"churn-steady" ~seed:313912L
      (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config)
      (Mtrace.Scale.find "SCALE-dc-48")
  in
  check Alcotest.int "oracle clean" 0 res.oracle_violations;
  check Alcotest.int "accounting" res.detected
    (Stats.Recovery.count res.recoveries + res.forgiven + res.unrecovered)

(* --- Composition battery ---------------------------------------------- *)

(* Every lever against every other: protocol (SRM, CESRM under each
   retention scheme, LMS) × fault plan × steady window × recovery
   domains × shards × row × packets × seed. A rejected draw must carry
   the reason the rules below predict. Every other draw must run clean
   and obey the identity laws: a 16-packet window ≡ one that never
   retires, 2 shards ≡ 1 whenever [shardable] allows sharding. (A
   window that never retires ≡ no steady mode is pinned through
   [run_model] on one trace by the determinism goldens: a steady leg
   streams a scale row's trace, which a plain leg does not.) *)

type draw = {
  protocol : string;  (** ["srm"], ["lms"], or a CESRM retention name *)
  fault : string option;
  steady : bool;  (** a 16-packet window *)
  domains : bool;
  shards : int;
  row : string;
  n_packets : int;
  seed : int64;
}

let print_draw d =
  Printf.sprintf "%s on %s, %d packets, seed %Ld, faults %s, steady %s, domains %b, shards %d"
    d.protocol d.row d.n_packets d.seed
    (Option.value d.fault ~default:"none")
    (if d.steady then "windowed 16" else "none")
    d.domains d.shards

let composition_gen =
  QCheck.Gen.(
    let* protocol =
      oneofl [ "srm"; "recent"; "recent:1"; "lru"; "hotspot"; "hotspot=inf"; "lms" ]
    in
    let* fault =
      oneofl (None :: List.map Option.some (Fault.Plan.canned_names @ Fault.Plan.churn_names))
    in
    let* steady = bool in
    let* domains = bool in
    let* shards = oneofl [ 1; 2 ] in
    let* row = oneofl [ "SCALE-bf-48"; "SCALE-dc-48"; "SCALE-ss-96" ] in
    let* n_packets = int_range 60 200 in
    let+ seed = int_bound 1_000_000 in
    { protocol; fault; steady; domains; shards; row; n_packets; seed = Int64.of_int seed })

(* The rules, restated independently of [Runner.rejected]. *)
let predicted_rejection d =
  match d.protocol with
  | "lms" when d.domains -> Some "LMS with recovery domains"
  | "lms" when d.fault <> None -> Some "LMS under a fault plan"
  | _ -> None

(* Everything a run reports, bit for bit, except the makespan figure
   (see [makespan_face]). *)
let exact_face (r : Harness.Runner.result) =
  let lat = Stats.Recovery.latency_summary r.recoveries in
  Printf.sprintf
    "counters=%s detected=%d unrecovered=%d forgiven=%d recovered=%d exp=%d/%d audit=%d \
     oracle=%d cost=%d/%d/%d lat=%.17g/%d"
    (String.concat ","
       (List.map
          (fun k -> string_of_int (Stats.Counters.total r.counters k))
          Stats.Counters.all_kinds))
    r.detected r.unrecovered r.forgiven
    (Stats.Recovery.count r.recoveries)
    r.exp_requests r.exp_replies r.audit_violations r.oracle_violations
    (Net.Cost.retransmission_overhead r.cost)
    (Net.Cost.control_overhead r.cost ~multicast:true)
    (Net.Cost.control_overhead r.cost ~multicast:false)
    (Stats.Summary.mean lat) (Stats.Summary.count lat)

(* Count, max, mean, p50 and p99 of the makespan. A steady run flushes
   retired spans into a sketch, so against a run that never retires
   its mean agrees to rounding and its percentiles to the sketch's
   1/16 bucket bound. *)
let makespan_face (r : Harness.Runner.result) =
  let mk = Stats.Recovery.makespan_summary r.recoveries in
  ( Stats.Summary.count mk,
    Stats.Summary.max mk,
    [
      (Stats.Summary.mean mk, 1e-9);
      (Stats.Summary.percentile mk 0.5, 1. /. 16.);
      (Stats.Summary.percentile mk 0.99, 1. /. 16.);
    ] )

let same_makespan ~sketched a b =
  let n, max_a, qa = makespan_face a and n', max_b, qb = makespan_face b in
  n = n'
  && Float.equal max_a max_b
  && List.for_all2
       (fun (x, bound) (y, _) ->
         Float.equal x y || (sketched && Float.abs (x -. y) <= bound *. Float.abs y))
       qa qb

let composition_case d =
  let protocol =
    match d.protocol with
    | "srm" -> Harness.Runner.Srm_protocol
    | "lms" -> Harness.Runner.Lms_protocol
    | scheme ->
        Harness.Runner.Cesrm_protocol
          {
            Cesrm.Host.default_config with
            retention = Option.get (Cesrm.Retention.of_name scheme);
          }
  in
  let domains = if d.domains then Some Rdomain.Auto else None in
  let row = Mtrace.Scale.find d.row in
  let steady, reference =
    if d.steady then
      (Some (Steady.Config.windowed 16), Some (Steady.Config.windowed d.n_packets))
    else (None, None)
  in
  let run ?steady shards =
    Harness.Runner.run_leg ~n_packets:d.n_packets ?fault:d.fault ~shards ?steady ?domains
      ~seed:d.seed protocol row
  in
  let predicted = predicted_rejection d in
  match Harness.Runner.rejected ~faulted:(d.fault <> None) ~domains protocol with
  | Some reason when Some reason = predicted -> (
      match run ?steady d.shards with
      | exception Invalid_argument msg when msg = reason -> true
      | _ -> QCheck.Test.fail_reportf "%s: ran although rejected" (print_draw d))
  | rejected when rejected <> predicted ->
      QCheck.Test.fail_reportf "%s: rejected for %s, the rules say %s" (print_draw d)
        (Option.value rejected ~default:"nothing")
        (Option.value predicted ~default:"nothing")
  | _ ->
      let r = run ?steady d.shards in
      (* a run that detects nothing tests nothing *)
      QCheck.assume (r.detected > 0);
      let churn = match d.fault with Some f -> List.mem f Fault.Plan.churn_names | None -> false in
      if
        r.audit_violations <> 0 || r.unrecovered <> 0 || r.oracle_violations <> 0
        || (r.forgiven <> 0 && not churn)
      then
        QCheck.Test.fail_reportf "%s: audit %d, unrecovered %d, forgiven %d, oracle %d"
          (print_draw d) r.audit_violations r.unrecovered r.forgiven r.oracle_violations;
      (* The shard law applies where the runner would really shard. *)
      let shards_law =
        d.shards > 1
        &&
        let trace, _ = Harness.Runner.inputs ~seed:d.seed ~n_packets:d.n_packets ?steady row in
        let setup = Harness.Runner.tune_for_trace ?domains trace Harness.Runner.default_setup in
        let fault_plan =
          Option.map
            (fun f -> Result.get_ok (Harness.Runner.fault_plan ~setup trace f))
            d.fault
        in
        Harness.Runner.shardable ~tracer:None ~fault_plan ~setup ~steady ~domains protocol = None
      in
      if d.steady || shards_law then begin
        let expected = run ?steady:reference 1 in
        if exact_face r <> exact_face expected || not (same_makespan ~sketched:d.steady r expected)
        then
          QCheck.Test.fail_reportf "%s: diverges from its reference run@.%s@.vs@.%s"
            (print_draw d) (exact_face r) (exact_face expected)
      end;
      true

let prop_composition =
  QCheck.Test.make ~name:"lever composition: rejected by name, else clean and lawful" ~count:200
    ~if_assumptions_fail:(`Fatal, 0.5)
    (QCheck.make ~print:print_draw composition_gen)
    composition_case

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "json round-trip" `Quick test_plan_json_roundtrip;
          Alcotest.test_case "save/load" `Quick test_plan_save_load;
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "compile rejects invalid" `Quick test_plan_compile_rejects_invalid;
          Alcotest.test_case "canned plans" `Quick test_canned_plans;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "baseline clean" `Quick test_oracle_baseline_clean;
          Alcotest.test_case "rejects suppressed replies" `Quick
            test_oracle_rejects_suppressed_replies;
          Alcotest.test_case "rejects double delivery" `Quick test_oracle_rejects_double_delivery;
          Alcotest.test_case "json and pp" `Quick test_oracle_json_and_pp;
          Alcotest.test_case "retry bound trips on a silent replier" `Quick
            test_oracle_retry_bound_silent_replier;
          Alcotest.test_case "retry bound resets on any reply" `Quick
            test_oracle_retry_reset_on_reply;
          Alcotest.test_case "re-armed request and reply bounds" `Quick
            test_oracle_request_and_reply_bounds;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "cache expiry" `Quick test_cache_expire_replier;
          Alcotest.test_case "policy exclusion" `Quick test_policy_exclude;
          Alcotest.test_case "replier failure limit" `Quick test_replier_failure_limit;
        ] );
      ( "battery",
        [
          qcheck prop_bounded_plans_liveness_srm;
          qcheck prop_bounded_plans_liveness_cesrm;
          Alcotest.test_case "minimal failing plan" `Quick test_minimal_failing_plan;
          Alcotest.test_case "post-heal alive-but-behind replier" `Quick
            test_post_heal_alive_replier;
          Alcotest.test_case "canned plans clean for both protocols" `Slow
            test_canned_clean_oracle;
          Alcotest.test_case "unknown fault name" `Quick test_unknown_fault_name;
          qcheck prop_scale_plans_oracle_clean_srm;
          qcheck prop_scale_plans_oracle_clean_cesrm;
        ] );
      ( "domains",
        [
          Alcotest.test_case "canned plans clean with domains on" `Slow
            test_canned_clean_oracle_domains;
          Alcotest.test_case "designated-replier crash" `Quick test_replier_crash_domains;
          qcheck prop_domain_crash_partition_srm;
          qcheck prop_domain_crash_partition_cesrm;
          Alcotest.test_case "expedited credit to the asked replier" `Quick
            test_replier_credit;
        ] );
      ( "retirement",
        [
          Alcotest.test_case "late request at the stability horizon" `Quick
            test_retire_late_request_at_horizon;
          Alcotest.test_case "crash/restart straddling retirement epochs" `Quick
            test_retire_crash_restart;
          Alcotest.test_case "retirement under an active partition" `Quick
            test_retire_under_partition;
          Alcotest.test_case "late replies for retired losses" `Quick test_retire_late_replies;
        ] );
      ( "rejected",
        [
          Alcotest.test_case "LMS under every canned plan" `Quick test_reject_lms_faulted;
          Alcotest.test_case "LMS with recovery domains" `Quick test_reject_lms_domains;
        ] );
      ("compose", [ qcheck prop_composition ]);
      ( "churn",
        [
          Alcotest.test_case "churn plan json round-trip" `Quick test_churn_plan_json_roundtrip;
          Alcotest.test_case "churn plan validation" `Quick test_churn_plan_validation;
          Alcotest.test_case "canned churn plans" `Quick test_canned_churn_plans;
          Alcotest.test_case "churn schedules deterministic" `Quick
            test_churn_schedules_deterministic;
          Alcotest.test_case "canned churn plans clean for both protocols" `Slow
            test_canned_churn_clean_oracle;
          qcheck prop_churn_plans_clean_srm;
          qcheck prop_churn_plans_clean_cesrm;
          Alcotest.test_case "oracle rejects deliver-to-departed" `Quick
            test_oracle_rejects_deliver_to_departed;
          Alcotest.test_case "oracle rejects departed-replier retries" `Quick
            test_oracle_rejects_departed_replier_retries;
          Alcotest.test_case "empty group mid-stream" `Quick test_empty_group_mid_stream;
          Alcotest.test_case "stale reply from a departed replier" `Quick
            test_stale_reply_departed;
        ] );
    ]
