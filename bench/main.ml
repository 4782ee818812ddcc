(* Reproduction harness: regenerates every table and figure of the
   paper's evaluation (Section 4) plus the Section 3.4 analysis and the
   ablations listed in DESIGN.md. The output carries no timing, so it
   is a pure function of the code: bench/reproduction.t pins it.

   Usage:
     dune exec bench/main.exe                 (default: 6000 packets/trace)
     dune exec bench/main.exe -- --full       (full Table 1 packet counts)
     dune exec bench/main.exe -- --packets N
     dune exec bench/main.exe -- --sections fig1,fig5b  (an unknown name is
                                               an error listing the known ones)
     dune exec bench/main.exe -- --jobs 8     (shard the per-trace pair
                                               runs across 8 forked
                                               workers; results identical)
     dune exec bench/main.exe -- --scale smoke|full  (synthetic scale
                                               scenarios instead of the trace
                                               reproduction; see below)
     dune exec bench/main.exe -- --scale full --shards 4  (additionally run
                                               each scale leg sharded over 4
                                               conservative PDES workers,
                                               failing on any divergence from
                                               the serial reference; the
                                               --json report's machine objects
                                               carry events/sec and speedup)
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
     dune exec bench/main.exe -- --scale smoke --json FILE  (write the
                                               --scale or --steady report as
                                               JSON; the reproduction has
                                               none)

   --scale replaces the reproduction entirely: it runs SRM+CESRM legs
   over synthetic Mtrace.Scale scenarios (256–10 000 receivers) and
   prints each scenario's record and then each leg's as one line of
   JSON. The "smoke" profile (all three tree families at 256
   receivers) is a regression pin (bench/scale.t); the "full" profile
   (families at 256/1024 plus bounded-fanout at 4096 and 10 000) is
   the scaling measurement. Every machine-dependent number (wall,
   allocation, events/sec, speedup) lives only in the --json report,
   in a "machine" sub-object that stdout leaves out and `cesrm diff`
   never compares, so stdout is a pure function of the code. Scale
   rows pin their own packet count (200), so --packets is ignored
   here.

   --steady smoke|full runs the streaming-execution profile instead
   (lib/steady): a CESRM leg over a scale scenario with a
   state-retirement window, asserting a hard peak-heap ceiling and
   bounded live-heap growth, plus (smoke) a byte-identity check against
   a run of the same streaming trace whose window never retires (the
   "infinite" leg). Its stdout
   carries the same one-line records. "smoke" is
   SCALE-bf-512 at 50k packets; "full" is SCALE-bf-1000 at 10^6
   packets — the million-packet constant-memory measurement. *)

let sections_filter = ref None

let n_packets = ref (Some 6000)

let json_file = ref None

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
    | "--json" :: file :: rest ->
        json_file := Some file;
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

let section name body =
  if want name then begin
    Printf.printf "================================================================\n";
    Printf.printf "== %s\n" name;
    Printf.printf "================================================================\n";
    body ();
    print_newline ()
  end

(* A scenario's or leg's record as one line of stdout, without its
   machine figures: what is left is a pure function of the code. *)
let print_record fields =
  print_endline
    (Obs.Json.to_string (Obs.Json.Obj (List.filter (fun (k, _) -> k <> "machine") fields)));
  flush stdout

(* Print a leg's record, then fail the run if the leg left a loss
   unrecovered or broke an audit rule. *)
let emit_leg ~profile (r : Harness.Runner.result) name fields =
  print_record fields;
  if r.unrecovered <> 0 then failwith (profile ^ ": unrecovered losses in " ^ name);
  if r.audit_violations <> 0 then failwith (profile ^ ": audit violations in " ^ name);
  Obs.Json.Obj fields

(* The scale and steady reports are self-describing: a meta object
   records the git commit and the run parameters, so a stored --json
   file can later be interpreted without knowing how it was
   produced. *)
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
      ("jobs", int !jobs);
      ("shards", int !shards);
      ("scale_profile", match !scale_profile with None -> Null | Some p -> Str p);
      ("steady_profile", match !steady_profile with None -> Null | Some p -> Str p);
      ("argv", Str (String.concat " " (List.tl (Array.to_list Sys.argv))));
    ]

let write_json doc =
  Option.iter
    (fun file ->
      Obs.Json.save ~pretty:true doc ~file;
      Printf.printf "(timings written to %s)\n" file)
    !json_file

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
   wanted ones. *)
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

let reproduction () = List.iter (fun (name, body) -> section name body) reproduction_sections

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
     srm-dom/cesrm-dom legs on so the pin covers both sides. *)
  | "domains" -> [ "SCALE-dc-1024" ]
  (* The retention-policy gate: both adversarial cache-thrash families
     at a cheap size. The profile replaces the plain cesrm leg with one
     leg per retention scheme (the paper's 1-entry cache first as the
     floor), so the pin covers the retention x scenario expedited
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

(* One protocol leg on one scale row, reduced to the JSON the report
   keeps and printed without its machine figures. Simulation counters
   are deterministic (fixed seed, pure OCaml), so bench/scale.t pins
   them exactly; wall, allocation and events/sec depend on the
   machine, so they go in the leg's "machine" sub-object. *)
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
     (fed as recoveries land, whether or not the run keeps its
     records), and the last-receiver makespan — the figure
     hierarchical local recovery exists to improve. Both are
     deterministic, so the pins compare them. *)
  let lat_hist = Obs.Registry.hist registry "recovery/latency_s" in
  let makespan = Stats.Recovery.makespan_summary r.Harness.Runner.recoveries in
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
  emit_leg ~profile:"scale" r name
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
      let header =
        [
          ("name", Str scenario);
          ("family", Str (scale_family_name row));
          ("n_receivers", int row.Mtrace.Meta.n_receivers);
          ("n_packets", int row.Mtrace.Meta.n_packets);
          ("n_losses", int row.Mtrace.Meta.n_losses);
        ]
      in
      print_record header;
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
          List.map
            (fun (name, protocol) -> scale_leg name ~domains:Rdomain.Auto protocol row)
            [
              ("srm-dom", Harness.Runner.Srm_protocol);
              ("cesrm-dom", Harness.Runner.Cesrm_protocol Cesrm.Host.default_config);
            ]
      in
      let legs = (srm :: cesrm_legs) @ dom_legs in
      Obj (header @ [ ("legs", Arr legs) ]))
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
  write_json (scale_json_doc ~scenarios ~total_wall_s:total)

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

(* One CESRM steady leg: streaming trace, retirement window, online
   metrics. Returns the result (for identity checks) plus the leg's
   JSON. *)
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
  let live_growth = Steady.Controller.decile_growth live in
  let total k = Stats.Counters.total r.Harness.Runner.counters k in
  let open Obs.Json in
  let json =
    emit_leg ~profile:"steady" r label
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
        let header =
          Obs.Json.[ ("name", Str scenario); ("n_receivers", int row.Mtrace.Meta.n_receivers) ]
        in
        print_record header;
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
           never-retiring reference over the same streaming trace.
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
        [ Obs.Json.Obj (header @ [ ("legs", Obs.Json.Arr (json :: reference)) ]) ])
      (steady_scenarios profile)
  in
  let total = Unix.gettimeofday () -. t0 in
  let open Obs.Json in
  write_json
    (Obj
       [
         ("meta", meta_json ());
         ("machine", Obj [ ("total_wall_s", Num total) ]);
         ("steady", Arr legs);
       ])

(* Every name --sections accepts, in run order. *)
let section_names = List.map fst reproduction_sections @ List.map fst ablation_sections

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
      if !json_file <> None then
        failwith "--json writes the --scale and --steady reports; the reproduction has none";
      reproduction ();
      ablations ()
