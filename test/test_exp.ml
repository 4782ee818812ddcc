(* The experiment-orchestration subsystem: spec expansion and JSON
   round-trips, scheduling-independent seed derivation, the fork pool's
   failure contract, and the invariant the whole design rests
   on — a parallel sweep aggregates to the same bytes as a serial run
   of the same spec. *)

let check = Alcotest.check

(* -- Spec ------------------------------------------------------------ *)

let small_spec =
  {
    Exp.Spec.name = "test";
    traces = [ (Mtrace.Meta.nth 4).Mtrace.Meta.name ];
    protocols =
      [
        Exp.Spec.Srm;
        Exp.Spec.Cesrm { retention = Cesrm.Retention.default; router_assist = false };
      ];
    base_seed = 7L;
    n_seeds = 2;
    n_packets = Some 250;
    link_delay_ms = 20.;
    lossy_recovery = false;
    faults = [];
    domains = None;
  }

let test_spec_roundtrip () =
  let rt spec =
    match Exp.Spec.of_json (Exp.Spec.to_json spec) with
    | Ok spec' -> spec'
    | Error msg -> Alcotest.fail msg
  in
  let same spec =
    check Alcotest.string "json round-trip"
      (Obs.Json.to_string (Exp.Spec.to_json spec))
      (Obs.Json.to_string (Exp.Spec.to_json (rt spec)))
  in
  same Exp.Spec.default;
  same small_spec;
  same
    {
      small_spec with
      protocols =
        [
          Exp.Spec.Lms;
          Exp.Spec.Cesrm
            { retention = Option.get (Cesrm.Retention.of_name "hotspot=inf"); router_assist = true };
        ];
      base_seed = Int64.min_int;
      n_packets = None;
      lossy_recovery = true;
    };
  same { small_spec with faults = [ "none"; "partition-heal"; "link-flap" ] };
  same { small_spec with domains = Some Rdomain.Auto };
  same { small_spec with domains = Some (Rdomain.Max_members 4) };
  check Alcotest.bool "flat specs carry no domains key" true
    (Obs.Json.member "domains" (Exp.Spec.to_json small_spec) = None);
  (* parse also accepts a text round-trip through the strict parser *)
  match Obs.Json.parse (Obs.Json.to_string ~pretty:true (Exp.Spec.to_json small_spec)) with
  | Error msg -> Alcotest.fail msg
  | Ok json -> (
      match Exp.Spec.of_json json with
      | Ok spec' ->
          check Alcotest.string "text round-trip"
            (Obs.Json.to_string (Exp.Spec.to_json small_spec))
            (Obs.Json.to_string (Exp.Spec.to_json spec'))
      | Error msg -> Alcotest.fail msg)

let test_spec_errors () =
  let expect_error mutate =
    match Exp.Spec.of_json (mutate (Exp.Spec.to_json small_spec)) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "validation accepted a bad spec"
  in
  let set field value = function
    | Obs.Json.Obj fields ->
        Obs.Json.Obj (List.map (fun (k, v) -> (k, if k = field then value else v)) fields)
    | other -> other
  in
  expect_error (set "traces" (Obs.Json.Arr [ Obs.Json.Str "NOSUCH" ]));
  expect_error (set "traces" (Obs.Json.Arr []));
  expect_error (set "protocols" (Obs.Json.Arr [ Obs.Json.Str "tcp" ]));
  expect_error (set "protocols" (Obs.Json.Arr [ Obs.Json.Str "cesrm:most-recent" ]));
  expect_error (set "protocols" (Obs.Json.Arr [ Obs.Json.Str "cesrm@ttl" ]));
  expect_error (set "base_seed" (Obs.Json.Str "not-a-seed"));
  expect_error (set "n_seeds" (Obs.Json.int 0));
  expect_error (set "link_delay_ms" (Obs.Json.int 0));
  expect_error (set "faults" (Obs.Json.Arr [ Obs.Json.Str "nosuch-plan" ]))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_protocol_names () =
  (* Names parse to the protocol they say and print back unchanged:
     the default retention is omitted, so the default cell is plain
     "cesrm". *)
  let parses name ~retention ~router_assist =
    match Exp.Spec.protocol_of_name name with
    | Ok (Exp.Spec.Cesrm c as p) ->
        check Alcotest.string (name ^ " retention") retention (Cesrm.Retention.name c.retention);
        check Alcotest.bool (name ^ " router assist") router_assist c.router_assist;
        check Alcotest.string (name ^ " round-trip") name (Exp.Spec.protocol_name p)
    | Ok _ -> Alcotest.failf "%s must parse as CESRM" name
    | Error msg -> Alcotest.failf "%s must parse: %s" name msg
  in
  parses "cesrm" ~retention:"recent" ~router_assist:false;
  parses "cesrm+ra" ~retention:"recent" ~router_assist:true;
  parses "cesrm@hotspot" ~retention:"hotspot" ~router_assist:false;
  parses "cesrm@hotspot=inf" ~retention:"hotspot=inf" ~router_assist:false;
  parses "cesrm@lru:4+ra" ~retention:"lru:4" ~router_assist:true;
  parses "cesrm@recent:1" ~retention:"recent:1" ~router_assist:false;
  parses "cesrm@hotspot=0.5:8" ~retention:"hotspot=0.5:8" ~router_assist:false;
  List.iter
    (fun p ->
      match Exp.Spec.protocol_of_name (Exp.Spec.protocol_name p) with
      | Ok p' ->
          check Alcotest.string "protocol name round-trip" (Exp.Spec.protocol_name p)
            (Exp.Spec.protocol_name p')
      | Error msg -> Alcotest.fail msg)
    [ Exp.Spec.Srm; Exp.Spec.Lms ];
  check Alcotest.string "default cell label" "cesrm"
    (Exp.Spec.protocol_name (List.nth Exp.Spec.default.Exp.Spec.protocols 1));
  let rejected name =
    match Exp.Spec.protocol_of_name name with
    | Error msg -> msg
    | Ok _ -> Alcotest.failf "%s must be rejected" name
  in
  let msg = rejected "cesrm:most-recent" in
  check Alcotest.bool
    (Printf.sprintf "the policy segment's error says it was removed: %s" msg)
    true
    (contains ~sub:"removed" msg);
  List.iter
    (fun name -> ignore (rejected name))
    [ "cesrm:most-recent@lru"; "cesrm@nope"; "cesrm@ttl"; "cesrm@"; "srm+ra"; "cesrmx" ]

let test_cells_and_seeds () =
  let cells = Exp.Spec.cells small_spec in
  check Alcotest.int "1 trace x 2 protocols x 2 seeds" 4 (Array.length cells);
  (* expansion order is trace-major, then seed, then protocol *)
  Array.iteri (fun i c -> check Alcotest.int "index = position" i c.Exp.Spec.index) cells;
  (* protocol variants of a cell group replay the identical trace seed *)
  check Alcotest.bool "srm/cesrm share seed (s0)" true
    (cells.(0).Exp.Spec.seed = cells.(1).Exp.Spec.seed);
  check Alcotest.bool "srm/cesrm share seed (s1)" true
    (cells.(2).Exp.Spec.seed = cells.(3).Exp.Spec.seed);
  check Alcotest.bool "seed axis varies the seed" true
    (cells.(0).Exp.Spec.seed <> cells.(2).Exp.Spec.seed);
  (* derivation is a pure function: re-expansion is identical *)
  let cells' = Exp.Spec.cells small_spec in
  Array.iteri
    (fun i c -> check Alcotest.bool "stable seeds" true (c.Exp.Spec.seed = cells'.(i).Exp.Spec.seed))
    cells;
  (* and matches Sim.Rng.substream by group index *)
  check Alcotest.bool "substream 0" true
    (cells.(0).Exp.Spec.seed = Sim.Rng.substream small_spec.Exp.Spec.base_seed 0);
  check Alcotest.bool "substream 1" true
    (cells.(2).Exp.Spec.seed = Sim.Rng.substream small_spec.Exp.Spec.base_seed 1)

let test_cells_with_faults () =
  let spec = { small_spec with n_seeds = 1; faults = [ "none"; "link-flap" ] } in
  let cells = Exp.Spec.cells spec in
  check Alcotest.int "1 trace x 2 faults x 2 protocols" 4 (Array.length cells);
  (* protocols stay innermost; the faults axis is next *)
  check
    (Alcotest.list (Alcotest.option Alcotest.string))
    "fault slots"
    [ Some "none"; Some "none"; Some "link-flap"; Some "link-flap" ]
    (List.map (fun c -> c.Exp.Spec.fault) (Array.to_list cells));
  (* the seed is keyed by (trace, seed index) only: every fault variant
     replays the identical synthesized trace *)
  Array.iter
    (fun c -> check Alcotest.bool "shared seed" true (c.Exp.Spec.seed = cells.(0).Exp.Spec.seed))
    cells;
  let trace_name = (Mtrace.Meta.nth 4).Mtrace.Meta.name in
  check Alcotest.string "label carries the fault" (trace_name ^ "/srm/s0/link-flap")
    (Exp.Spec.cell_label cells.(2));
  (* no faults axis: cells and labels reduce to the pre-faults scheme *)
  let plain = Exp.Spec.cells { spec with faults = [] } in
  check Alcotest.int "no axis = 2 cells" 2 (Array.length plain);
  check (Alcotest.option Alcotest.string) "no fault slot" None plain.(0).Exp.Spec.fault;
  check Alcotest.string "no label suffix" (trace_name ^ "/srm/s0")
    (Exp.Spec.cell_label plain.(0));
  check Alcotest.bool "same seed as the none variant" true
    (plain.(0).Exp.Spec.seed = cells.(0).Exp.Spec.seed)

let test_substream () =
  (* substream i is the seed of the i-th split of a base generator,
     independent of enumeration order *)
  let base = 12345L in
  let enumerated =
    let r = Sim.Rng.create base in
    Array.init 5 (fun _ -> Sim.Rng.bits64 r)
  in
  Array.iteri
    (fun i expected ->
      check Alcotest.bool "matches split chain" true (Sim.Rng.substream base i = expected))
    enumerated;
  check Alcotest.bool "order independence" true
    (Sim.Rng.substream base 3 = enumerated.(3));
  Alcotest.check_raises "negative index" (Invalid_argument "Rng.substream: negative index")
    (fun () -> ignore (Sim.Rng.substream base (-1)))

(* -- Pool ------------------------------------------------------------ *)

let test_pool_serial () =
  let order = ref [] in
  let results =
    Exp.Pool.map ~jobs:1
      ~on_result:(fun ~index ~done_:_ ~total:_ -> order := index :: !order)
      (fun i -> string_of_int (i * i))
      5
  in
  check (Alcotest.array Alcotest.string) "serial results" [| "0"; "1"; "4"; "9"; "16" |] results;
  check (Alcotest.list Alcotest.int) "serial order" [ 4; 3; 2; 1; 0 ] !order

let test_pool_parallel_matches_serial () =
  if not Exp.Pool.available then ()
  else begin
    let f i = Printf.sprintf "shard-%d:%d" i (i * 7) in
    check
      (Alcotest.array Alcotest.string)
      "parallel = serial" (Exp.Pool.map ~jobs:1 f 9) (Exp.Pool.map ~jobs:3 f 9)
  end

(* An [f] that raises, in process or in a worker, and a worker that
   dies mid-shard each fail the map with one [Failure] naming the
   shard. *)
let test_pool_failure_names_shard () =
  let expect_failure label jobs f =
    match Exp.Pool.map ~jobs f 4 with
    | _ -> Alcotest.fail (label ^ ": expected Failure")
    | exception Failure msg ->
        check Alcotest.bool (label ^ ": names the shard") true (contains ~sub:"shard 2" msg)
  in
  let raises i = if i = 2 then failwith "broken" else string_of_int i in
  let dies i = if i = 2 then Unix._exit 3 else string_of_int i in
  expect_failure "raises, serial" 1 raises;
  if Exp.Pool.available then begin
    expect_failure "raises, forked" 2 raises;
    expect_failure "worker dies" 2 dies
  end

(* A failed map leaves no child behind, running or unreaped. *)
let test_pool_failure_reaps () =
  if Exp.Pool.available then begin
    (match Exp.Pool.map ~jobs:2 (fun i -> if i = 1 then Unix._exit 1 else i) 6 with
    | _ -> Alcotest.fail "expected Failure"
    | exception Failure _ -> ());
    match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | pid, _ -> Alcotest.failf "child left behind (waitpid returned %d)" pid
  end

(* Results cross the pool as [Marshal] messages with closures allowed
   (bench ships figure pairs that hold closures). *)
let test_pool_closure_results () =
  let results = Exp.Pool.map ~jobs:3 (fun i -> (i, fun x -> (x * i) + 1)) 6 in
  Array.iteri
    (fun i (j, g) ->
      check Alcotest.int "index" i j;
      check Alcotest.int "closure" ((10 * i) + 1) (g 10))
    results

(* -- Sweep: serial vs parallel byte-identity ------------------------- *)

let test_sweep_identity () =
  let serial = Obs.Json.to_string (Exp.Sweep.run ~jobs:1 small_spec) in
  (* Fast sanity on the artifact shape before the expensive identity *)
  (match Obs.Json.parse serial with
  | Error msg -> Alcotest.fail msg
  | Ok artifact -> (
      (match Obs.Json.member "cells" artifact with
      | Some (Obs.Json.Arr cells) -> check Alcotest.int "4 cell rows" 4 (List.length cells)
      | _ -> Alcotest.fail "no cells array");
      match Option.bind (Obs.Json.member "totals" artifact) (Obs.Json.member "unrecovered") with
      | Some (Obs.Json.Num 0.) -> ()
      | _ -> Alcotest.fail "expected totals/unrecovered = 0"));
  if Exp.Pool.available then begin
    let parallel = Obs.Json.to_string (Exp.Sweep.run ~jobs:3 small_spec) in
    check Alcotest.string "serial and parallel artifacts byte-identical" serial parallel
  end

let test_sweep_identity_faulted () =
  (* The byte-identity must also hold when a faults axis multiplies the
     matrix: fault plans, the oracle and its JSON all replay exactly. *)
  let spec = { small_spec with n_seeds = 1; faults = [ "none"; "partition-heal" ] } in
  let serial = Obs.Json.to_string (Exp.Sweep.run ~jobs:1 spec) in
  (match Obs.Json.parse serial with
  | Error msg -> Alcotest.fail msg
  | Ok artifact -> (
      (match Obs.Json.member "cells" artifact with
      | Some (Obs.Json.Arr cells) -> check Alcotest.int "4 cell rows" 4 (List.length cells)
      | _ -> Alcotest.fail "no cells array");
      match
        Option.bind (Obs.Json.member "totals" artifact) (Obs.Json.member "oracle_violations")
      with
      | Some (Obs.Json.Num 0.) -> ()
      | _ -> Alcotest.fail "expected totals/oracle_violations = 0"));
  if Exp.Pool.available then begin
    let parallel = Obs.Json.to_string (Exp.Sweep.run ~jobs:3 spec) in
    check Alcotest.string "faulted sweep byte-identical serial vs parallel" serial parallel
  end

(* Spec.validate checks every protocol × faults-axis entry against the
   runner's rejected combinations before any cell runs: a
   [srm,lms --domains] sweep used to die on its LMS cell after the SRM
   cell had run. *)
let test_spec_rejections () =
  let reason spec =
    match Exp.Spec.validate spec with Ok _ -> None | Error msg -> Some msg
  in
  check (Alcotest.option Alcotest.string) "lms with domains"
    (Some "rejected: lms/none: LMS with recovery domains")
    (reason
       { small_spec with protocols = [ Exp.Spec.Srm; Exp.Spec.Lms ]; domains = Some Rdomain.Auto });
  check (Alcotest.option Alcotest.string) "lms under a plan"
    (Some "rejected: lms/link-flap: LMS under a fault plan")
    (reason { small_spec with protocols = [ Exp.Spec.Lms ]; faults = [ "none"; "link-flap" ] });
  check (Alcotest.option Alcotest.string) "lms unfaulted and flat" None
    (reason { small_spec with protocols = [ Exp.Spec.Srm; Exp.Spec.Lms ]; faults = [ "none" ] });
  check (Alcotest.option Alcotest.string) "srm and cesrm with domains under a plan" None
    (reason { small_spec with domains = Some Rdomain.Auto; faults = [ "churn-flash" ] })

(* The spec carries domains: a sweep replayed from its printed spec
   reproduces the artifact, and every cell runs what run_leg runs with
   domains on. *)
let test_sweep_spec_domains () =
  let spec =
    {
      small_spec with
      traces = [ "SCALE-dc-64" ];
      n_seeds = 1;
      n_packets = Some 30;
      domains = Some Rdomain.Auto;
    }
  in
  let artifact = Obs.Json.to_string (Exp.Sweep.run ~jobs:1 spec) in
  let replayed =
    match Exp.Spec.of_json (Exp.Spec.to_json spec) with
    | Ok spec' -> Obs.Json.to_string (Exp.Sweep.run ~jobs:1 spec')
    | Error msg -> Alcotest.fail msg
  in
  check Alcotest.string "replay from the spec" artifact replayed;
  Array.iter
    (fun (cell : Exp.Spec.cell) ->
      let res =
        Harness.Runner.run_leg ~n_packets:30 ~domains:Rdomain.Auto ~seed:cell.seed
          (Exp.Spec.runner_protocol cell.protocol)
          (Mtrace.Scale.find cell.trace)
      in
      let row = (Exp.Shard.run spec cell).row in
      check (Alcotest.option Alcotest.int) (Exp.Spec.cell_label cell ^ " detected")
        (Some res.detected)
        (Option.map int_of_float (Option.bind (Obs.Json.member "detected" row) Obs.Json.to_float)))
    (Exp.Spec.cells spec)

let () =
  Alcotest.run "exp"
    [
      ( "spec",
        [
          Alcotest.test_case "json round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "validation errors" `Quick test_spec_errors;
          Alcotest.test_case "protocol names" `Quick test_protocol_names;
          Alcotest.test_case "cells and derived seeds" `Quick test_cells_and_seeds;
          Alcotest.test_case "cells with a faults axis" `Quick test_cells_with_faults;
          Alcotest.test_case "rng substream" `Quick test_substream;
          Alcotest.test_case "rejected lever combinations" `Quick test_spec_rejections;
        ] );
      ( "pool",
        [
          Alcotest.test_case "serial fallback" `Quick test_pool_serial;
          Alcotest.test_case "parallel matches serial" `Quick test_pool_parallel_matches_serial;
          Alcotest.test_case "failure names the shard" `Quick test_pool_failure_names_shard;
          Alcotest.test_case "failure reaps every worker" `Quick test_pool_failure_reaps;
          Alcotest.test_case "closure results" `Quick test_pool_closure_results;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "serial = parallel (bytes)" `Slow test_sweep_identity;
          Alcotest.test_case "faulted serial = parallel (bytes)" `Slow
            test_sweep_identity_faulted;
          Alcotest.test_case "domains ride in the spec" `Quick test_sweep_spec_domains;
        ] );
    ]
