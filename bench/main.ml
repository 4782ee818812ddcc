(* Reproduction harness: regenerates every table and figure of the
   paper's evaluation (Section 4) plus the Section 3.4 analysis and the
   ablations listed in DESIGN.md, then runs Bechamel micro-benchmarks
   (one per experiment) on scaled-down inputs.

   Usage:
     dune exec bench/main.exe                 (default: 6000 packets/trace)
     dune exec bench/main.exe -- --full       (full Table 1 packet counts)
     dune exec bench/main.exe -- --packets N
     dune exec bench/main.exe -- --sections fig1,fig5b  (an unknown name is
                                               an error listing the known ones)
     dune exec bench/main.exe -- --jobs 8     (shard the per-trace pair
                                               runs across 8 forked
                                               workers; results identical)
     dune exec bench/main.exe -- --no-bechamel
     dune exec bench/main.exe -- --json FILE  (machine-readable timings)
     dune exec bench/main.exe -- --baseline FILE  (diff timings against a
                                               previous --json file; exits 1
                                               on deltas beyond thresholds)
     dune exec bench/main.exe -- --scale smoke|full  (synthetic scale
                                               scenarios instead of the trace
                                               reproduction; see below)
     dune exec bench/main.exe -- --scale full --shards 4  (additionally run
                                               each scale leg sharded over 4
                                               conservative PDES workers and
                                               report events/sec and speedup
                                               vs the serial reference)
     dune exec bench/main.exe -- --scale cache (the retention-policy gate:
                                               both adversarial cache-thrash
                                               scenarios at 256 receivers,
                                               one cesrm leg per retention
                                               scheme next to the SRM and
                                               1-entry floors)
     dune exec bench/main.exe -- --scale smoke --domains  (add an
                                               srm-dom/cesrm-dom leg pair per
                                               scenario: hierarchical local
                                               recovery domains (Rdomain.Auto)
                                               next to their flat twins, for
                                               the domains-vs-flat makespan
                                               comparison)

   The extra section "smoke" (one SRM+CESRM pair on the smallest
   trace) runs only when named explicitly; `dune runtest` uses it as a
   hot-path regression canary.

   --scale replaces the reproduction entirely: it runs SRM+CESRM legs
   over synthetic Mtrace.Scale scenarios (256–10 000 receivers) and
   emits one self-describing JSON document per run. The "smoke"
   profile (all three tree families at 256 receivers) is the CI
   regression gate; the "full" profile (families at 256/1024 plus
   bounded-fanout at 4096 and 10 000) is the scaling measurement.
   Either way every machine-dependent number (wall, allocation,
   events/sec) lives in a "machine" sub-object — a side channel the
   --baseline diff skips entirely — so the committed smoke baseline
   gates only deterministic simulation counters while staying fully
   machine-readable. Scale rows pin their own packet count (200), so
   --packets is ignored here.

   --steady smoke|full runs the streaming-execution profile instead
   (lib/steady): a CESRM leg over a scale scenario with a finite
   state-retirement window, asserting a hard peak-heap ceiling and
   bounded heap growth, plus (smoke) a byte-identity check against an
   infinite-window run of the same streaming trace. "smoke" is
   SCALE-bf-512 at 50k packets; "full" is SCALE-bf-1000 at 10^6
   packets — the million-packet constant-memory measurement. *)

let sections_filter = ref None

let n_packets = ref (Some 6000)

let with_bechamel = ref true

let csv_dir = ref None

let json_file = ref None

let baseline_file = ref None

let jobs = ref 1

let shards = ref 1

let scale_profile = ref None

let steady_profile = ref None

let with_domains = ref false

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--full" :: rest ->
        n_packets := None;
        go rest
    | "--packets" :: n :: rest ->
        n_packets := Some (int_of_string n);
        go rest
    | "--sections" :: s :: rest ->
        sections_filter := Some (String.split_on_char ',' s);
        go rest
    | "--no-bechamel" :: rest ->
        with_bechamel := false;
        go rest
    | "--csv" :: dir :: rest ->
        csv_dir := Some dir;
        go rest
    | "--json" :: file :: rest ->
        json_file := Some file;
        go rest
    | "--baseline" :: file :: rest ->
        baseline_file := Some file;
        go rest
    | "--jobs" :: n :: rest ->
        jobs := int_of_string n;
        go rest
    | "--shards" :: n :: rest ->
        shards := int_of_string n;
        go rest
    | "--scale" :: p :: rest ->
        if p <> "smoke" && p <> "full" && p <> "domains" && p <> "cache" then
          failwith ("unknown --scale profile: " ^ p ^ " (expected smoke, full, domains or cache)");
        scale_profile := Some p;
        if p = "domains" then with_domains := true;
        go rest
    | "--steady" :: p :: rest ->
        if p <> "smoke" && p <> "full" then
          failwith ("unknown --steady profile: " ^ p ^ " (expected smoke or full)");
        steady_profile := Some p;
        go rest
    | "--domains" :: rest ->
        with_domains := true;
        go rest
    | arg :: _ -> failwith ("unknown argument: " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv))

let want name =
  match !sections_filter with None -> true | Some names -> List.mem name names

let explicitly_wanted name =
  match !sections_filter with None -> false | Some names -> List.mem name names

(* Per-section wall times and Bechamel estimates, accumulated for the
   --json report (newest-first; reversed on output). *)
let section_times : (string * float) list ref = ref []

let bechamel_estimates : (string * float) list ref = ref []

let section name body =
  if want name then begin
    Printf.printf "================================================================\n";
    Printf.printf "== %s\n" name;
    Printf.printf "================================================================\n";
    let t0 = Unix.gettimeofday () in
    body ();
    section_times := (name, Unix.gettimeofday () -. t0) :: !section_times;
    print_newline ()
  end

(* The timing report is self-describing: a meta object records the git
   commit and the run parameters, so a stored --json file can later be
   interpreted (and compared via --baseline / `cesrm diff`) without
   knowing how it was produced. *)
let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then None else Some line
  with _ -> None

let meta_json () =
  let open Obs.Json in
  Obj
    [
      ("git_commit", match git_commit () with Some c -> Str c | None -> Null);
      ("packets", (match !n_packets with None -> Null | Some n -> int n));
      ( "sections_filter",
        match !sections_filter with None -> Null | Some l -> Str (String.concat "," l) );
      ("bechamel", Bool !with_bechamel);
      (* A string, not a number: job count affects wall time, never
         results, and must not be flagged by --baseline diffs. *)
      ("jobs", Str (string_of_int !jobs));
      (* Same convention: shard count is a runtime knob (PDES results
         are byte-identical to serial), so it must not be diffed. *)
      ("shards", Str (string_of_int !shards));
      ("scale_profile", match !scale_profile with None -> Null | Some p -> Str p);
      ("steady_profile", match !steady_profile with None -> Null | Some p -> Str p);
      ("argv", Str (String.concat " " (List.tl (Array.to_list Sys.argv))));
    ]

let json_doc ~total_wall_s =
  let open Obs.Json in
  let entry field (name, v) = Obj [ ("name", Str name); (field, Num v) ] in
  let meta = meta_json () in
  Obj
    [
      ("meta", meta);
      ("packets", (match !n_packets with None -> Null | Some n -> int n));
      ("total_wall_s", Num total_wall_s);
      ("sections", Arr (List.rev_map (entry "wall_s") !section_times));
      ("bechamel", Arr (List.rev_map (entry "ns_per_run") !bechamel_estimates));
    ]

let write_json ~file doc =
  Obs.Json.save ~pretty:true doc ~file;
  Printf.printf "(timings written to %s)\n" file

(* Machine-dependent numbers (wall, allocation, events/sec, heap) live
   under a "machine" key in the scale and steady reports: numeric for
   downstream tooling, never compared by --baseline. The run's own
   parameters live under "meta". *)
let under key path = List.mem key (String.split_on_char '/' path)

(* Diff this run against a stored --json file. Returns the number of
   flagged metrics (exit status). The scale and steady reports outside
   "machine" and "meta" are deterministic simulation counters, so
   [exact] flags any change in them. The default report's section
   timings are wall clock, whose noise is real, so they get loose
   thresholds: 25% relative and 50 ms absolute, enough to catch an
   injected slowdown but not scheduler jitter. *)
let diff_against_baseline ?(exact = false) ~file doc =
  match Obs.Json.parse_file file with
  | Error msg ->
      Printf.eprintf "baseline %s: %s\n" file msg;
      1
  | Ok base ->
      let thresholds, ignore =
        if exact then
          ({ Obs.Diff.rel = 0.; abs = 0. }, fun p -> under "machine" p || under "meta" p)
        else ({ Obs.Diff.rel = 0.25; abs = 0.050 }, under "machine")
      in
      let entries = Obs.Diff.diff ~thresholds ~ignore ~base ~current:doc () in
      Printf.printf "---- vs baseline %s ----\n" file;
      print_string (Obs.Diff.render entries);
      List.length (Obs.Diff.flagged entries)

(* ------------------------------------------------------------------ *)

(* Running the per-trace SRM+CESRM pairs is the bench's dominant cost;
   --jobs N shards the rows across N of Exp.Pool's forked workers (0
   auto-detects the count, 1 runs them in this process; each pair is
   marshalled back whole), which scales the matrix with the core count
   while every downstream figure stays a pure extraction over the same
   in-order pair list. *)
let run_pairs rows =
  let rows = Array.of_list rows in
  Array.to_list
    (Exp.Pool.map ~jobs:!jobs
       (fun i -> Harness.Figures.run_pair ?n_packets:!n_packets rows.(i))
       (Array.length rows))

let featured_pairs = lazy (run_pairs Mtrace.Meta.featured)

let all_pairs =
  lazy
    (let featured = Lazy.force featured_pairs in
     let find_featured row =
       List.find_opt
         (fun p -> p.Harness.Figures.row.Mtrace.Meta.name = row.Mtrace.Meta.name)
         featured
     in
     let rest =
       run_pairs (List.filter (fun row -> find_featured row = None) Mtrace.Meta.all)
     in
     List.map
       (fun row ->
         match find_featured row with
         | Some p -> p
         | None ->
             List.find
               (fun p -> p.Harness.Figures.row.Mtrace.Meta.name = row.Mtrace.Meta.name)
               rest)
       Mtrace.Meta.all)

(* The reproduction's sections in run order; [reproduction] runs the
   wanted ones, then writes the CSVs. *)
let reproduction_sections =
  let over_all f () = print_string (f (Lazy.force all_pairs)) in
  let per_featured f () = List.iter (fun p -> print_string (f p)) (Lazy.force featured_pairs) in
  [
    ("table1", over_all Harness.Figures.table1);
    ("attribution", over_all Harness.Figures.attribution_accuracy);
    ("fig1", per_featured Harness.Figures.figure1);
    ("fig2", per_featured Harness.Figures.figure2);
    ("fig3", per_featured Harness.Figures.figure3);
    ("fig4", per_featured Harness.Figures.figure4);
    ("fig5a", over_all Harness.Figures.figure5a);
    ("fig5b", over_all Harness.Figures.figure5b);
    ("summary", over_all Harness.Figures.summary);
    ("analysis", over_all Harness.Analysis.report);
  ]

let reproduction () =
  List.iter (fun (name, body) -> section name body) reproduction_sections;
  match !csv_dir with
  | None -> ()
  | Some dir ->
      Harness.Figures.write_csvs ~dir (Lazy.force all_pairs);
      Printf.printf "(CSV figures written to %s/)\n\n" dir

let ablation_packets () = match !n_packets with Some n -> min n 4000 | None -> 4000

let ablation_sections =
  let n () = ablation_packets () in
  let featured3 = [ Mtrace.Meta.nth 1; Mtrace.Meta.nth 7; Mtrace.Meta.nth 11 ] in
  [
    ( "ablation-retention",
      fun () -> print_string (Harness.Ablation.retentions ~n_packets:(n ()) featured3) );
    ( "ablation-cache",
      fun () -> print_string (Harness.Ablation.cache_sizes ~n_packets:(n ()) (Mtrace.Meta.nth 1))
    );
    ( "ablation-reorder",
      fun () ->
        print_string (Harness.Ablation.reorder_delays ~n_packets:(n ()) (Mtrace.Meta.nth 1)) );
    ( "ablation-linkdelay",
      fun () -> print_string (Harness.Ablation.link_delays ~n_packets:(n ()) (Mtrace.Meta.nth 7))
    );
    ( "ablation-lossy",
      fun () ->
        print_string
          (Harness.Ablation.toggle ~n_packets:(n ()) Harness.Ablation.Lossy_recovery
             [ Mtrace.Meta.nth 1; Mtrace.Meta.nth 9 ]) );
    ( "ablation-router-assist",
      fun () -> print_string (Harness.Ablation.router_assist ~n_packets:(n ()) featured3) );
    ( "ablation-reordering",
      fun () -> print_string (Harness.Ablation.reordering ~n_packets:(n ()) (Mtrace.Meta.nth 1))
    );
    ( "ablation-lossy-sessions",
      fun () ->
        print_string
          (Harness.Ablation.toggle ~n_packets:(n ()) Harness.Ablation.Lossy_sessions
             [ Mtrace.Meta.nth 9 ]) );
    ( "ablation-adaptive",
      fun () ->
        print_string
          (Harness.Ablation.adaptive_timers ~n_packets:(n ())
             [ Mtrace.Meta.nth 1; Mtrace.Meta.nth 11 ]) );
    ( "extension-churn",
      fun () -> print_string (Harness.Churn.report ~n_packets:(n ()) (Mtrace.Meta.nth 7)) );
    ( "extension-scaling",
      fun () -> print_string (Harness.Ablation.scaling ~n_packets:(min (n ()) 3000) ()) );
    ( "ablation-heterogeneous",
      fun () ->
        print_string
          (Harness.Ablation.toggle ~n_packets:(n ()) Harness.Ablation.Heterogeneous_delays
             [ Mtrace.Meta.nth 1; Mtrace.Meta.nth 9 ]) );
  ]

let ablations () = List.iter (fun (name, body) -> section name body) ablation_sections

(* --- Bechamel micro-benchmarks ------------------------------------- *)

let bechamel () =
  let open Bechamel in
  let open Toolkit in
  let row = Mtrace.Meta.nth 4 (* the smallest trace *) in
  let small_gen = lazy (Mtrace.Generator.synthesize ~n_packets:800 row) in
  let small_trace = lazy (Lazy.force small_gen).Mtrace.Generator.trace in
  let small_att = lazy (Harness.Runner.attribution_of_trace (Lazy.force small_trace)) in
  let make name f = Test.make ~name (Staged.stage f) in
  let tests =
    Test.make_grouped ~name:"cesrm" ~fmt:"%s/%s"
      [
        make "table1:synthesize-trace" (fun () ->
            ignore (Mtrace.Generator.synthesize ~n_packets:400 row));
        make "sec4.2:yajnik+attribution" (fun () ->
            ignore (Harness.Runner.attribution_of_trace (Lazy.force small_trace)));
        make "fig1-4:srm-run" (fun () ->
            ignore
              (Harness.Runner.run_model Harness.Runner.Srm_protocol (Lazy.force small_trace)
                 (Harness.Runner.Attributed (Lazy.force small_att))));
        make "fig1-4:cesrm-run" (fun () ->
            ignore
              (Harness.Runner.run_model (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config)
                 (Lazy.force small_trace) (Harness.Runner.Attributed (Lazy.force small_att))));
        make "fig5:overhead-accounting" (fun () ->
            let c = Net.Cost.create () in
            for _ = 1 to 1000 do
              Net.Cost.record_crossing c Net.Cost.Reply Net.Cost.Multicast
            done;
            ignore (Net.Cost.retransmission_overhead c));
        make "substrate:gilbert-50k" (fun () ->
            let model = Mtrace.Gilbert.of_marginal ~loss_rate:0.05 ~mean_burst:2.5 in
            ignore (Mtrace.Gilbert.run model (Sim.Rng.create 7L) 50_000));
        make "substrate:cache-churn" (fun () ->
            let cache = Cesrm.Cache.create ~capacity:16 () in
            for i = 1 to 1_000 do
              ignore
                (Cesrm.Cache.note_reply cache
                   {
                     Cesrm.Cache.seq = i;
                     requestor = i mod 7;
                     d_qs = float_of_int (i mod 5) /. 10.;
                     replier = i mod 11;
                     d_rq = float_of_int (i mod 3) /. 10.;
                     turning_point = None;
                   })
            done;
            ignore (Cesrm.Cache.choose ~live:(fun _ -> true) cache));
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let estimates =
    Hashtbl.fold
      (fun name result acc ->
        let ns =
          match Analyze.OLS.estimates result with Some [ e ] -> e | _ -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  bechamel_estimates := List.rev_append estimates !bechamel_estimates;
  let rows =
    List.map (fun (name, ns) -> [ name; Printf.sprintf "%10.3f ms/run" (ns /. 1e6) ]) estimates
  in
  print_string (Stats.Table.render ~header:[ "benchmark"; "time" ] ~rows)

(* One SRM+CESRM pair on the smallest trace: a fast end-to-end pass
   over the simulator hot path, used by the `dune runtest` smoke rule.
   Opt-in only (never part of a default full run). *)
let smoke () =
  section "smoke" (fun () ->
      let pair = Harness.Figures.run_pair ?n_packets:!n_packets (Mtrace.Meta.nth 4) in
      Printf.printf
        "trace %s: srm detected=%d unrecovered=%d, cesrm detected=%d unrecovered=%d audit=%d\n"
        pair.Harness.Figures.row.Mtrace.Meta.name pair.srm.detected pair.srm.unrecovered
        pair.cesrm.detected pair.cesrm.unrecovered
        (pair.srm.audit_violations + pair.cesrm.audit_violations);
      if pair.srm.unrecovered <> 0 || pair.cesrm.unrecovered <> 0 then
        failwith "smoke: unrecovered losses";
      if pair.srm.audit_violations <> 0 || pair.cesrm.audit_violations <> 0 then
        failwith "smoke: audit violations")

(* --- Scale profiles (--scale smoke|full) --------------------------- *)

(* The smoke grid is every tree family at the smallest standard size —
   seconds of wall, enough to catch a scale-path regression in either
   protocol. The full grid adds the 1024-receiver row of each family
   and walks bounded-fanout (the paper-like random topology) up to
   10 000 receivers; star-of-stars and deep-chain are tree-shape
   extremes, so one large size each would measure the same hot path
   again at much higher cost. *)
let scale_scenarios = function
  | "smoke" -> [ "SCALE-bf-256"; "SCALE-ss-256"; "SCALE-dc-256" ]
  (* The hierarchical-recovery gate: the 1024-deep chain is where
     domains-vs-flat separates hardest (the last-receiver makespan is
     pipeline-deep without local recovery), and the profile forces the
     srm-dom/cesrm-dom legs on so the baseline pins both sides. *)
  | "domains" -> [ "SCALE-dc-1024" ]
  (* The retention-policy gate: both adversarial cache-thrash families
     at a cheap size. The profile replaces the plain cesrm leg with one
     leg per retention scheme (the paper's 1-entry cache first as the
     floor), so the baseline pins the retention x scenario expedited
     grid. *)
  | "cache" -> [ "SCALE-rh-256"; "SCALE-ps-256" ]
  | _ ->
      [
        "SCALE-bf-256";
        "SCALE-ss-256";
        "SCALE-dc-256";
        "SCALE-bf-1024";
        "SCALE-ss-1024";
        "SCALE-dc-1024";
        "SCALE-bf-4096";
        "SCALE-bf-10000";
      ]

let scale_family_name row =
  match Mtrace.Scale.family_of_name row.Mtrace.Meta.name with
  | Some (Mtrace.Scale.Bounded_fanout _) -> "bounded-fanout"
  | Some (Mtrace.Scale.Star_of_stars _) -> "star-of-stars"
  | Some Mtrace.Scale.Deep_chain -> "deep-chain"
  | Some (Mtrace.Scale.Rotating_hot _) -> "rotating-hot"
  | Some (Mtrace.Scale.Phase_shift _) -> "phase-shift"
  | None -> "trace"

(* One protocol leg on one scale row, reduced to the JSON the report
   keeps. Simulation counters are deterministic (fixed seed, pure
   OCaml), so they are numbers the --baseline diff compares exactly;
   wall, allocation and events/sec depend on the machine, so they go
   in the leg's "machine" sub-object — numeric, but excluded from the
   diff (see [diff_against_baseline]). *)
(* One timed leg. [Gc.allocated_bytes] only sees this process, so
   [alloc_mb] is meaningful for serial runs; sharded legs take their
   allocation figure from the serial reference run instead. Events
   come from the registry: [sim/events_fired] is the engine's count in
   serial runs and the sum over workers in sharded ones (replicated
   source casts execute on every shard, so sharded totals exceed
   serial — it is an executed-events throughput, not a work metric). *)
let timed_leg ?shards ?domains protocol row =
  let registry = Obs.Registry.create () in
  let t0 = Unix.gettimeofday () in
  let alloc0 = Gc.allocated_bytes () in
  let r = Harness.Runner.run_leg ~seed:42L ~registry ?shards ?domains protocol row in
  let wall = Unix.gettimeofday () -. t0 in
  let alloc_mb = (Gc.allocated_bytes () -. alloc0) /. 1e6 in
  let events =
    match Obs.Registry.counter_value registry "sim/events_fired" with Some n -> n | None -> 0
  in
  (r, registry, wall, alloc_mb, events)

(* The deterministic face of a leg — what must be byte-equal between
   the serial engine and any sharded run of the same leg. *)
let leg_fingerprint (r : Harness.Runner.result) =
  ( r.Harness.Runner.detected,
    r.unrecovered,
    r.audit_violations,
    r.oracle_violations,
    r.counters,
    Net.Cost.retransmission_overhead r.cost,
    Net.Cost.control_overhead r.cost ~multicast:true,
    Net.Cost.control_overhead r.cost ~multicast:false,
    Stats.Recovery.count r.recoveries,
    Stats.Recovery.latency_summary r.recoveries )

let scale_leg name ?domains protocol row =
  (* The serial run is both the reference timing and (with --shards 1)
     the run itself; with --shards k > 1 a second, sharded run is
     timed against it and checked for result identity. *)
  let r, registry, serial_wall, alloc_mb, serial_events = timed_leg ?domains protocol row in
  let sharded =
    if !shards <= 1 then None
    else begin
      let r', _reg', wall', _alloc', events' = timed_leg ~shards:!shards ?domains protocol row in
      if leg_fingerprint r' <> leg_fingerprint r then
        failwith
          (Printf.sprintf "scale: sharded run of %s/%s diverges from serial"
             row.Mtrace.Meta.name name);
      Some (wall', events')
    end
  in
  let wall = match sharded with Some (w, _) -> w | None -> serial_wall in
  let events = match sharded with Some (_, e) -> e | None -> serial_events in
  let total k = Stats.Counters.total r.Harness.Runner.counters k in
  let latency = Stats.Recovery.latency_summary r.Harness.Runner.recoveries in
  (* Recovery-latency percentiles from the registry's online sketch
     (fed identically in records-on and records-off runs), and the
     last-receiver makespan — the figure hierarchical local recovery
     exists to improve. Both are deterministic, so the --baseline diff
     gates on them. *)
  let lat_hist = Obs.Registry.hist registry "recovery/latency_s" in
  let makespan = Stats.Recovery.makespan_summary r.Harness.Runner.recoveries in
  Printf.printf
    "%-16s %-10s wall %7.2f s  alloc %8.0f MB  detected %6d  unrecovered %d  mc-req %4d \
     uc-req %4d  repl %5d  exp-repl %4d  mkspan %6.3f/%6.3f s%s\n\
     %!"
    row.Mtrace.Meta.name name wall alloc_mb r.detected r.unrecovered
    (total Stats.Counters.Rqst) (total Stats.Counters.Exp_rqst) (total Stats.Counters.Repl)
    (total Stats.Counters.Exp_repl)
    (Stats.Summary.mean makespan) (Stats.Summary.max makespan)
    (match sharded with
    | Some _ -> Printf.sprintf "  speedup x%.2f (%d shards)" (serial_wall /. wall) !shards
    | None -> "");
  if r.Harness.Runner.unrecovered <> 0 then failwith ("scale: unrecovered losses in " ^ name);
  if r.Harness.Runner.audit_violations <> 0 then
    failwith ("scale: audit violations in " ^ name);
  let open Obs.Json in
  let machine =
    [
      ("wall_s", Num wall);
      ("alloc_mb", Num alloc_mb);
      ("events_per_s", Num (float_of_int events /. wall));
    ]
    @
    match sharded with
    | None -> []
    | Some (wall', _) ->
        [ ("serial_wall_s", Num serial_wall); ("speedup_vs_serial", Num (serial_wall /. wall')) ]
  in
  Obj
    ([
       ("name", Str name);
       ("detected", int r.detected);
       ("unrecovered", int r.unrecovered);
       ("audit_violations", int r.audit_violations);
       ("mc_requests", int (total Stats.Counters.Rqst));
       ("uc_requests", int (total Stats.Counters.Exp_rqst));
       ("replies", int (total Stats.Counters.Repl));
       ("expedited_replies", int (total Stats.Counters.Exp_repl));
       ("sessions", int (total Stats.Counters.Sess));
       ("retransmission_crossings", int (Net.Cost.retransmission_overhead r.cost));
       ("control_crossings_mc", int (Net.Cost.control_overhead r.cost ~multicast:true));
       ("control_crossings_uc", int (Net.Cost.control_overhead r.cost ~multicast:false));
       ("recovery_latency_mean_s", Num (Stats.Summary.mean latency));
       ("recovery_latency_p50_s", Num (Obs.Hist.p50 lat_hist));
       ("recovery_latency_p90_s", Num (Obs.Hist.p90 lat_hist));
       ("recovery_latency_p99_s", Num (Obs.Hist.p99 lat_hist));
       ("makespan_mean_s", Num (Stats.Summary.mean makespan));
       ("makespan_p99_s", Num (Stats.Summary.percentile makespan 0.99));
       ("makespan_max_s", Num (Stats.Summary.max makespan));
       ("machine", Obj machine);
     ]
    @ (match domains with None -> [] | Some _ -> [ ("domains", Str "auto") ])
    @ match sharded with None -> [] | Some _ -> [ ("shards", int !shards) ])

let run_scale profile =
  let open Obs.Json in
  List.map
    (fun scenario ->
      let row = Mtrace.Scale.find scenario in
      let srm = scale_leg "srm" Harness.Runner.Srm_protocol row in
      let cesrm_legs =
        if profile <> "cache" then
          [ scale_leg "cesrm" (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config) row ]
        else
          List.map
            (fun name ->
              let retention = Option.get (Cesrm.Retention.of_name name) in
              scale_leg ("cesrm@" ^ name)
                (Harness.Runner.Cesrm_protocol { Cesrm.Host.default_config with retention })
                row)
            [ "recent:1"; "recent"; "lru"; "hotspot" ]
      in
      (* --domains adds a hierarchical-recovery leg per protocol next
         to its flat twin, so one report carries the domains-vs-flat
         makespan comparison. *)
      let dom_legs =
        if not !with_domains then []
        else
          [
            scale_leg "srm-dom" ~domains:Rdomain.Auto Harness.Runner.Srm_protocol row;
            scale_leg "cesrm-dom" ~domains:Rdomain.Auto
              (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config) row;
          ]
      in
      let legs = (srm :: cesrm_legs) @ dom_legs in
      Obj
        [
          ("name", Str scenario);
          ("family", Str (scale_family_name row));
          ("n_receivers", int row.Mtrace.Meta.n_receivers);
          ("n_packets", int row.Mtrace.Meta.n_packets);
          ("n_losses", int row.Mtrace.Meta.n_losses);
          ("legs", Arr legs);
        ])
    (scale_scenarios profile)

let scale_json_doc ~scenarios ~total_wall_s =
  let open Obs.Json in
  Obj
    [
      ("meta", meta_json ());
      ("machine", Obj [ ("total_wall_s", Num total_wall_s) ]);
      ("scale", Arr scenarios);
    ]

let scale_main profile =
  let t0 = Unix.gettimeofday () in
  Printf.printf "== scale (%s) ==\n%!" profile;
  let scenarios = run_scale profile in
  let total = Unix.gettimeofday () -. t0 in
  Printf.printf "total wall time: %.1f s\n" total;
  let doc = scale_json_doc ~scenarios ~total_wall_s:total in
  Option.iter (fun file -> write_json ~file doc) !json_file;
  match !baseline_file with
  | None -> ()
  | Some file -> if diff_against_baseline ~exact:true ~file doc > 0 then exit 1

(* --- Steady profiles (--steady smoke|full) -------------------------- *)

(* Hard resource gates for the smoke profile. The ceiling is a few
   times the measured peak (so it trips on a state leak, not on GC
   jitter); the growth bound checks the retirement claim directly:
   once the retirement pipeline fills (floor a full window past
   zero), live heap must plateau — the mean over the last decile of
   steady-state epoch samples stays within tolerance of the first
   decile's. The samples are live words after a full major
   collection, taken right after each steady epoch's retirement: the
   major heap's size also follows the GC's pacing (with little
   promoted, one cycle can span the whole leg and the size climbs
   toward its equilibrium while live state stays flat). *)
let steady_smoke_heap_ceiling_mb = 1024.

let steady_smoke_heap_growth_max = 1.25

(* The full (million-packet) profile is the acceptance measurement:
   heap over the last decile of steady-state epochs must be within
   10% of the first decile's. The smoke bound is looser because 50k
   packets leave only ~25 steady samples. *)
let steady_full_heap_growth_max = 1.10

let steady_scenarios = function
  | "smoke" -> [ ("SCALE-bf-512", 50_000, 8_192) ]
  | _ -> [ ("SCALE-bf-1000", 1_000_000, 8_192) ]

(* One CESRM steady leg: streaming trace, finite retirement window,
   online metrics. Returns the result (for identity checks) plus the
   leg's JSON. *)
let steady_leg ~label ~row ~n_packets ~window =
  let registry = Obs.Registry.create () in
  let t0 = Unix.gettimeofday () in
  let alloc0 = Gc.allocated_bytes () in
  let steady = Steady.Config.windowed window in
  (* [Gc.stat] runs a full major collection, so its live words are
     what the run still reaches. *)
  let live = ref [] in
  let on_retire ~upto = if upto >= window then live := (Gc.stat ()).Gc.live_words :: !live in
  let r =
    Harness.Runner.run_leg ~seed:42L ~registry ~n_packets ~steady ~on_retire
      (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config)
      row
  in
  let live = Array.of_list (List.rev !live) in
  let wall = Unix.gettimeofday () -. t0 in
  let alloc_bytes = Gc.allocated_bytes () -. alloc0 in
  let events =
    match Obs.Registry.counter_value registry "sim/events_fired" with Some n -> n | None -> 0
  in
  let c = Option.get r.Harness.Runner.retirement in
  let peak_heap_mb = float_of_int (Steady.Controller.peak_heap_words c) *. 8. /. 1e6 in
  let heap_growth = Steady.Controller.heap_growth c in
  let live_growth = Steady.Controller.decile_growth live in
  let total k = Stats.Counters.total r.Harness.Runner.counters k in
  Printf.printf
    "%-16s %-8s wall %7.2f s  events/s %8.0f  bytes/event %6.0f  peak heap %6.1f MB  live growth \
     %s  floor %d/%d in %d epochs  detected %d  unrecovered %d\n\
     %!"
    row.Mtrace.Meta.name label wall
    (float_of_int events /. wall)
    (alloc_bytes /. Float.max 1. (float_of_int events))
    peak_heap_mb
    (match live_growth with Some g -> Printf.sprintf "x%.3f" g | None -> "-")
    (Steady.Controller.floor c) n_packets (Steady.Controller.ticks c) r.detected r.unrecovered;
  let print_mb what samples =
    if Array.length samples > 0 then begin
      Printf.printf "  %s (MB):" what;
      Array.iter (fun w -> Printf.printf " %.0f" (float_of_int w *. 8. /. 1e6)) samples;
      print_newline ()
    end
  in
  print_mb "heap/epoch" (Steady.Controller.heap_samples c);
  print_mb "live/steady epoch" live;
  if r.Harness.Runner.unrecovered <> 0 then failwith ("steady: unrecovered losses in " ^ label);
  if r.Harness.Runner.audit_violations <> 0 then
    failwith ("steady: audit violations in " ^ label);
  let open Obs.Json in
  let json =
    Obj
      [
        ("name", Str label);
        ("window", int window);
        ("n_packets", int n_packets);
        ("detected", int r.detected);
        ("unrecovered", int r.unrecovered);
        ("audit_violations", int r.audit_violations);
        ("mc_requests", int (total Stats.Counters.Rqst));
        ("uc_requests", int (total Stats.Counters.Exp_rqst));
        ("replies", int (total Stats.Counters.Repl));
        ("expedited_replies", int (total Stats.Counters.Exp_repl));
        ("retirement_floor", int (Steady.Controller.floor c));
        ("epochs", int (Steady.Controller.ticks c));
        ( "machine",
          Obj
            [
              ("wall_s", Num wall);
              ("events_per_s", Num (float_of_int events /. wall));
              ("bytes_per_event", Num (alloc_bytes /. Float.max 1. (float_of_int events)));
              ("alloc_mb", Num (alloc_bytes /. 1e6));
              ("peak_heap_mb", Num peak_heap_mb);
              ( "heap_growth",
                match heap_growth with Some g -> Num g | None -> Null );
              ( "live_growth",
                match live_growth with Some g -> Num g | None -> Null );
            ] );
      ]
  in
  (r, peak_heap_mb, live_growth, json)

let steady_main profile =
  let t0 = Unix.gettimeofday () in
  Printf.printf "== steady (%s) ==\n%!" profile;
  let legs =
    List.concat_map
      (fun (scenario, n_packets, window) ->
        let row = Mtrace.Scale.find scenario in
        let r, peak_mb, growth, json =
          steady_leg ~label:"windowed" ~row ~n_packets ~window
        in
        let smoke = profile = "smoke" in
        if smoke then begin
          if peak_mb > steady_smoke_heap_ceiling_mb then
            failwith
              (Printf.sprintf "steady: peak heap %.1f MB exceeds the %.0f MB ceiling" peak_mb
                 steady_smoke_heap_ceiling_mb);
          Option.iter
            (fun g ->
              if g > steady_smoke_heap_growth_max then
                failwith
                  (Printf.sprintf "steady: live heap grew x%.3f across epochs (max x%.2f)" g
                     steady_smoke_heap_growth_max))
            growth
        end
        else
          Option.iter
            (fun g ->
              if g > steady_full_heap_growth_max then
                failwith
                  (Printf.sprintf
                     "steady: live heap grew x%.3f across epochs (acceptance max x%.2f)" g
                     steady_full_heap_growth_max))
            growth;
        (* Identity gate: a window of n_packets never retires anything
           (the stability floor stays at 0), so its run is the
           infinite-window reference over the same streaming trace.
           Retirement must be invisible to the protocol. *)
        let reference =
          if not smoke then []
          else begin
            let r', _, _, json' =
              steady_leg ~label:"infinite" ~row ~n_packets ~window:n_packets
            in
            if leg_fingerprint r' <> leg_fingerprint r then
              failwith
                (Printf.sprintf "steady: windowed run of %s diverges from infinite-window"
                   scenario);
            Printf.printf "identity: windowed == infinite-window (%s)\n%!" scenario;
            [ json' ]
          end
        in
        let open Obs.Json in
        [
          Obj
            [
              ("name", Str scenario);
              ("n_receivers", int row.Mtrace.Meta.n_receivers);
              ("legs", Arr (json :: reference));
            ];
        ])
      (steady_scenarios profile)
  in
  let total = Unix.gettimeofday () -. t0 in
  Printf.printf "total wall time: %.1f s\n" total;
  let open Obs.Json in
  let doc =
    Obj
      [
        ("meta", meta_json ());
        ("machine", Obj [ ("total_wall_s", Num total) ]);
        ("steady", Arr legs);
      ]
  in
  Option.iter (fun file -> write_json ~file doc) !json_file;
  match !baseline_file with
  | None -> ()
  | Some file -> if diff_against_baseline ~exact:true ~file doc > 0 then exit 1

(* Every name --sections accepts, in run order. *)
let section_names =
  ("smoke" :: List.map fst reproduction_sections) @ List.map fst ablation_sections @ [ "bechamel" ]

let () =
  parse_args ();
  Option.iter
    (fun names ->
      match List.filter (fun name -> not (List.mem name section_names)) names with
      | [] -> ()
      | unknown ->
          failwith
            (Printf.sprintf "unknown --sections name(s): %s (known: %s)"
               (String.concat ", " unknown) (String.concat ", " section_names)))
    !sections_filter;
  match (!scale_profile, !steady_profile) with
  | Some profile, _ -> scale_main profile
  | None, Some profile -> steady_main profile
  | None, None ->
      let t0 = Unix.gettimeofday () in
      if explicitly_wanted "smoke" then smoke ();
      reproduction ();
      ablations ();
      if !with_bechamel then section "bechamel" bechamel;
      let total = Unix.gettimeofday () -. t0 in
      Printf.printf "total wall time: %.1f s\n" total;
      let doc = lazy (json_doc ~total_wall_s:total) in
      Option.iter (fun file -> write_json ~file (Lazy.force doc)) !json_file;
      (match !baseline_file with
      | None -> ()
      | Some file -> if diff_against_baseline ~file (Lazy.force doc) > 0 then exit 1)
