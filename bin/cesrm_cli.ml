(* The cesrm command-line tool: synthesize traces, inspect them, run
   the link-loss inference pipeline, and run / compare the protocols. *)

open Cmdliner

(* -- shared arguments ------------------------------------------------ *)

let trace_name =
  let doc = "Table 1 trace name (e.g. RFV960419). Run `cesrm list` for the catalogue." in
  Arg.(value & opt (some string) None & info [ "t"; "trace" ] ~doc ~docv:"NAME")

let trace_file =
  let doc = "Read the trace from a file produced by `cesrm gen-trace`." in
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~doc ~docv:"FILE")

let packets =
  let doc = "Truncate the trace to this many packets (default: the full published count)." in
  Arg.(value & opt (some int) None & info [ "n"; "packets" ] ~doc ~docv:"N")

let seed =
  let doc = "Generator seed (default: derived from the trace name)." in
  Arg.(value & opt (some int64) None & info [ "seed" ] ~doc ~docv:"SEED")

(* Trace names resolve through [Mtrace.Scale.find]: the 14 published
   rows by name, plus synthetic SCALE-<family>-<n> scenarios. *)
let source_term =
  let source name file =
    match (name, file) with
    | None, None -> `Error (false, "one of --trace or --file is required")
    | Some _, Some _ -> `Error (false, "--trace and --file are mutually exclusive")
    | None, Some path -> `Ok (`File path)
    | Some n, None -> (
        match Mtrace.Scale.find n with
        | row -> `Ok (`Row row)
        | exception Not_found -> `Error (false, Printf.sprintf "unknown trace %s" n))
  in
  Term.(ret (const source $ trace_name $ trace_file))

let trace_term =
  let load source packets seed =
    match source with
    | `File path -> Mtrace.Codec.load path
    | `Row row -> (Mtrace.Generator.synthesize ?seed ?n_packets:packets row).Mtrace.Generator.trace
  in
  Term.(const load $ source_term $ packets $ seed)

(* A run's trace and loss model: a row's come from [Runner.inputs]
   (streamed, ground truth or attributed); a trace file replays the
   paper's inference pipeline. *)
let run_inputs ?steady source packets seed =
  match source with
  | `File path ->
      let trace = Mtrace.Codec.load path in
      (trace, Harness.Runner.Attributed (Harness.Runner.attribution_of_trace trace))
  | `Row row -> Harness.Runner.inputs ?seed ?n_packets:packets ?steady row

let ret = function Ok () -> `Ok () | Error msg -> `Error (false, msg)

let ( let* ) = Result.bind

(* -- list ------------------------------------------------------------ *)

let list_cmd =
  let scale_flag =
    Arg.(
      value & flag
      & info [ "scale" ]
          ~doc:
            "Also list the standard synthetic scale scenarios (SCALE-<family>-<n>; any size in \
             [8, 100000] is accepted by --trace, this lists the standard grid).")
  in
  let run scale =
    List.iter (fun r -> Format.printf "%a@." Mtrace.Meta.pp_row r) Mtrace.Meta.all;
    if scale then
      List.iter (fun r -> Format.printf "%a@." Mtrace.Meta.pp_row r) Mtrace.Scale.catalog
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:"List the 14 published trace rows (Table 1) and, with --scale, the scale scenarios.")
    Term.(const run $ scale_flag)

(* -- gen-trace -------------------------------------------------------- *)

let gen_trace_cmd =
  let output =
    let doc = "Output file (defaults to <NAME>.trace)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc ~docv:"FILE")
  in
  let run name packets seed output =
    match name with
    | None -> `Error (false, "--trace is required")
    | Some n -> (
        match (try Some (Mtrace.Scale.find n) with Not_found -> None) with
        | None -> `Error (false, Printf.sprintf "unknown trace %s" n)
        | Some row ->
            let gen = Mtrace.Generator.synthesize ?seed ?n_packets:packets row in
            let trace = gen.Mtrace.Generator.trace in
            let path = Option.value output ~default:(n ^ ".trace") in
            Mtrace.Codec.save trace path;
            Printf.printf "wrote %s: %s\n" path (Mtrace.Trace.summary trace);
            `Ok ())
  in
  Cmd.v
    (Cmd.info "gen-trace"
       ~doc:"Synthesize a Table 1 trace (calibrated Gilbert losses) and save it.")
    Term.(ret (const run $ trace_name $ packets $ seed $ output))

(* -- info ------------------------------------------------------------- *)

let info_cmd =
  let run trace =
    Printf.printf "%s\n" (Mtrace.Trace.summary trace);
    Format.printf "tree:@.%a" Net.Tree.pp (Mtrace.Trace.tree trace);
    let s = Mtrace.Locality.trace trace in
    Format.printf "locality: %a@." Mtrace.Locality.pp_trace_stats s
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print a trace's tree, loss counts and locality metrics.")
    Term.(const run $ trace_term)

(* -- infer ------------------------------------------------------------ *)

let infer_cmd =
  let run trace =
    let tree = Mtrace.Trace.tree trace in
    let yajnik = Inference.Yajnik.estimate trace in
    let minc = Inference.Minc.estimate trace in
    let att = Inference.Attribution.infer ~rates:yajnik trace in
    let rows =
      List.map
        (fun l ->
          [
            string_of_int l;
            string_of_int (Net.Tree.parent tree l);
            Printf.sprintf "%.4f" yajnik.(l);
            Printf.sprintf "%.4f" minc.(l);
          ])
        (Array.to_list (Net.Tree.links tree))
    in
    print_string
      (Stats.Table.render ~header:[ "link(child)"; "parent"; "yajnik"; "minc" ] ~rows);
    let a95, a98 = Inference.Attribution.posterior_quantile_stats att in
    Printf.printf "attribution: %d distinct patterns; posterior>0.95 %.1f%%, >0.98 %.1f%%\n"
      (Inference.Attribution.distinct_patterns att)
      (100. *. a95) (100. *. a98)
  in
  Cmd.v
    (Cmd.info "infer"
       ~doc:"Estimate per-link loss rates (Yajnik and MINC) and attribute each loss.")
    Term.(const run $ trace_term)

(* -- run / compare ----------------------------------------------------- *)

(* run and compare name a protocol as a sweep's protocols axis does. *)
let protocol_arg ~doc =
  let grammar =
    Arg.conv
      ( (fun s -> Result.map_error (fun m -> `Msg m) (Exp.Spec.protocol_of_name s)),
        fun ppf p -> Format.pp_print_string ppf (Exp.Spec.protocol_name p) )
  in
  let default = Exp.Spec.Cesrm { retention = Cesrm.Retention.default; router_assist = false } in
  let doc =
    doc
    ^ ": srm, lms, or cesrm[@RETENTION][+ra]. RETENTION is the CESRM replier-cache \
       retention scheme, which also ranks the expedited pair choice: recent (default, the \
       paper's keep-most-recent/evict-least-recent, most recent pair chosen), lru (true \
       least-recently-used), or hotspot[=half_life_s] (exponential-decay (requestor,replier) \
       score, default half-life 1 s; hotspot=inf never decays and chooses the most frequent \
       pair); append :K to cap the cache at K entries, e.g. cesrm@recent:1 for the paper's \
       1-entry baseline. +ra enables turning-point subcast (Section 3.3)."
  in
  Arg.(value & opt grammar default & info [ "p"; "protocol" ] ~doc ~docv:"PROTOCOL")

let lossy_arg =
  Arg.(value & flag & info [ "lossy-recovery" ] ~doc:"Drop recovery packets per link rates.")

let link_delay_arg =
  let doc = "Per-link one-way delay in milliseconds." in
  Arg.(value & opt float 20. & info [ "link-delay" ] ~doc ~docv:"MS")

let domains_arg =
  let doc =
    "Partition the tree into hierarchical local recovery domains of at most $(docv) members \
     each, with one designated replier per domain: requests and repairs stay scoped to the \
     requestor's domain and escalate to ancestor domains on unanswered rounds, and CESRM's \
     expedited cache prefers in-domain repliers. Bare flag auto-sizes the bound to \
     max(8, sqrt(group)); 0 disables (byte-identical to omitting the flag). SRM and CESRM \
     only; forces the serial engine."
  in
  Arg.(value & opt ~vopt:(Some (-1)) (some int) None & info [ "domains" ] ~doc ~docv:"MEMBERS")

let shards_arg =
  let doc =
    "Shard the simulation across $(docv) forked PDES workers with conservative \
     synchronization; results are byte-identical to a serial run. Runs that cannot be \
     sharded (event tracing, recovery domains, lossy recovery/sessions, LMS, a steady \
     window, link-jitter faults, CESRM) run on the serial engine, and $(b,run) and \
     $(b,compare) print why."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~doc ~docv:"K")

(* The run levers run, compare and sweep share. *)
type levers = { lossy : bool; link_delay_ms : float; shards : int; domains : Rdomain.spec option }

let levers_term =
  let levers lossy link_delay_ms shards domains =
    let ok domains = `Ok { lossy; link_delay_ms; shards; domains } in
    match domains with
    | None | Some 0 -> ok None
    | Some -1 -> ok (Some Rdomain.Auto)
    | Some k when k > 0 -> ok (Some (Rdomain.Max_members k))
    | Some k -> `Error (false, Printf.sprintf "--domains: %d is not a valid member bound" k)
  in
  Term.(ret (const levers $ lossy_arg $ link_delay_arg $ shards_arg $ domains_arg))

(* Per-receiver rows are capped: a 10 000-receiver scale run would
   otherwise print 10 000 table lines (and pay an O(n) lookup each). *)
let max_receiver_rows = 32

let print_receivers (res : Harness.Runner.result) =
  let shown, hidden =
    let all = res.rtt_to_source in
    let n = List.length all in
    if n <= max_receiver_rows then (all, 0)
    else (List.filteri (fun i _ -> i < max_receiver_rows) all, n - max_receiver_rows)
  in
  let rows =
    List.map
      (fun (node, rtt) ->
        let s = Harness.Runner.normalized_recovery res ~node ~filter:(fun _ -> true) in
        [
          string_of_int node;
          Printf.sprintf "%.0f" (1000. *. rtt);
          string_of_int (Stats.Summary.count s);
          (if Stats.Summary.count s = 0 then "-"
           else Printf.sprintf "%.2f" (Stats.Summary.mean s));
        ])
      shown
  in
  print_string
    (Stats.Table.render ~header:[ "receiver"; "rtt(ms)"; "recoveries"; "avg rec (RTT)" ] ~rows);
  if hidden > 0 then Printf.printf "... (%d more receivers not shown)\n" hidden

(* A steady run drops its per-loss records, so it has no per-receiver
   table to print. *)
let print_result (res : Harness.Runner.result) =
  Printf.printf "%s on %s\n" (Harness.Runner.protocol_name res.protocol)
    (Mtrace.Trace.summary res.trace);
  if Option.is_none res.retirement then print_receivers res
  else
    print_endline "per-receiver recoveries: not kept (a steady run keeps online summaries only)";
  Printf.printf "detected %d, unrecovered %d\n" res.detected res.unrecovered;
  (let mk = Stats.Recovery.makespan_summary res.recoveries in
   if Stats.Summary.count mk > 0 then
     Printf.printf "makespan (last-receiver recovery): mean %.3f s, p99 %.3f s, max %.3f s\n"
       (Stats.Summary.mean mk)
       (Stats.Summary.percentile mk 0.99)
       (Stats.Summary.max mk));
  Printf.printf "requests: mc %d uc %d | replies: %d expedited %d | sessions %d\n"
    (Stats.Counters.total res.counters Stats.Counters.Rqst)
    (Stats.Counters.total res.counters Stats.Counters.Exp_rqst)
    (Stats.Counters.total res.counters Stats.Counters.Repl)
    (Stats.Counters.total res.counters Stats.Counters.Exp_repl)
    (Stats.Counters.total res.counters Stats.Counters.Sess);
  if res.exp_requests > 0 then
    Printf.printf "expedited success: %.1f%%\n" (Harness.Runner.expedited_success_pct res);
  Printf.printf "overhead: retransmissions %d crossings, control mc %d uc %d\n"
    (Net.Cost.retransmission_overhead res.cost)
    (Net.Cost.control_overhead res.cost ~multicast:true)
    (Net.Cost.control_overhead res.cost ~multicast:false);
  if res.audit_violations > 0 then
    Printf.printf "WARNING: %d protocol-audit violations\n" res.audit_violations

let faults_arg =
  let doc =
    "Fault plan to run under: a canned name ($(b,partition-heal), $(b,link-flap), \
     $(b,crash-replier), $(b,jitter-reorder), $(b,dup-burst)), a canned membership-churn \
     plan ($(b,churn-late), $(b,churn-flash), $(b,churn-steady) — join/leave/rejoin \
     schedules driving the dynamic-membership layer), each instantiated against the \
     trace's tree, or a plan JSON file (see `Fault.Plan`). The run's invariant checker \
     adds its fault rules; their violations are reported and exit with status 1."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~doc ~docv:"PLAN")

(* Prints why a run asking for shards executes on the serial engine,
   once per distinct reason. *)
let serial_note () =
  let printed = ref [] in
  fun reason ->
    if not (List.mem reason !printed) then Printf.printf "shards: serial engine (%s)\n" reason;
    printed := reason :: !printed

(* One protocol run of [run] or [compare]: resolve the fault plan,
   check the configuration, [note] why it runs serially, run. *)
let run_one ?tracer ?registry ?steady ~note levers ~faults proto (trace, loss_model) =
  let { shards; domains; lossy = lossy_recovery; link_delay_ms } = levers in
  let setup =
    Harness.Runner.tune_for_trace ?domains trace
      { Harness.Runner.default_setup with lossy_recovery; link_delay = link_delay_ms /. 1000. }
  in
  let* fault_plan =
    match faults with
    | None -> Ok None
    | Some name ->
        Harness.Runner.fault_plan ~setup trace name
        |> Result.map Option.some
        |> Result.map_error (( ^ ) "--faults: ")
  in
  let faulted = Option.is_some fault_plan in
  match Harness.Runner.rejected ~faulted ~domains proto with
  | Some reason -> Error ("configuration rejected: " ^ reason)
  | None ->
      if shards > 1 then
        Option.iter note (Harness.Runner.shardable ~tracer ~fault_plan ~setup ~steady ~domains proto);
      Ok
        ( Harness.Runner.run_model ~setup ~shards ?tracer ?registry ?fault_plan ?steady ?domains
            proto trace loss_model,
          fault_plan )

let print_oracle (res : Harness.Runner.result) =
  Option.iter
    (fun o ->
      Format.printf "%a@." Harness.Audit.pp o;
      if res.oracle_violations > 0 then exit 1)
    res.oracle

let trace_out_arg =
  let doc =
    "Record the run's structured events (loss detections, request/reply sends, recoveries) \
     and export them as Chrome trace-event JSON to $(docv); open it in Perfetto \
     (ui.perfetto.dev) or chrome://tracing."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~doc ~docv:"FILE")

let metrics_arg =
  let doc =
    "Write the end-of-run metrics registry (engine/network/protocol counters and latency \
     histograms) as JSON to $(docv); two such files feed `cesrm diff`."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~doc ~docv:"FILE")

let steady_arg =
  let doc =
    "Run in steady (streaming) mode with a state-retirement window of $(docv) packets \
     (default 8192 when the flag is given bare): scale scenarios stream their trace from \
     lazy per-link loss chains — a million-packet run starts instantly — sources arm data \
     sends lazily, per-packet protocol state past the stability horizon is retired each \
     epoch, and metrics use constant-memory online summaries (no per-receiver table)."
  in
  Arg.(value & opt ~vopt:(Some 8192) (some int) None & info [ "steady" ] ~doc ~docv:"WINDOW")

let print_steady (res : Harness.Runner.result) =
  Option.iter
    (fun c ->
      Printf.printf "steady: retirement floor %d after %d epochs\n" (Steady.Controller.floor c)
        (Steady.Controller.ticks c))
    res.retirement

let run_cmd =
  let run source packets seed protocol levers faults trace_out metrics_out steady_window =
    ret
      (let* steady =
         match steady_window with
         | Some w when w < 1 -> Error "--steady: window must be >= 1"
         | w -> Ok (Option.map Steady.Config.windowed w)
       in
       let proto = Exp.Spec.runner_protocol protocol in
       let ((trace, _) as inputs) = run_inputs ?steady source packets seed in
       let tracer = Option.map (fun _ -> Obs.Trace.create ()) trace_out in
       let registry = Option.map (fun _ -> Obs.Registry.create ()) metrics_out in
       let* res, fault_plan =
         run_one ?tracer ?registry ?steady ~note:(serial_note ()) levers ~faults proto inputs
       in
       print_result res;
       print_steady res;
       Option.iter
         (fun (plan : Fault.Plan.t) ->
           Printf.printf "faults: plan %s (%d event(s))\n" plan.Fault.Plan.name
             (Fault.Plan.n_events plan))
         fault_plan;
       Option.iter
         (fun file ->
           let tr = Option.get tracer in
           Obs.Trace.export_chrome tr ~file;
           Printf.printf "(trace: %d events to %s%s)\n" (Obs.Trace.length tr) file
             (if Obs.Trace.dropped tr > 0 then
                Printf.sprintf "; ring wrapped, %d oldest dropped" (Obs.Trace.dropped tr)
              else ""))
         trace_out;
       Option.iter
         (fun file ->
           let meta =
             [
               ("protocol", Obs.Json.Str (Harness.Runner.protocol_name proto));
               ("trace", Obs.Json.Str (Mtrace.Trace.summary trace));
               ("link_delay_ms", Obs.Json.Num levers.link_delay_ms);
               ("lossy_recovery", Obs.Json.Bool levers.lossy);
             ]
           in
           Obs.Report.save ~meta (Option.get registry) ~file;
           Printf.printf "(metrics to %s)\n" file)
         metrics_out;
       print_oracle res;
       Ok ())
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Re-enact a trace under one protocol and report recovery statistics.")
    Term.(
      ret
        (const run $ source_term $ packets $ seed
        $ protocol_arg ~doc:"Protocol to run"
        $ levers_term $ faults_arg $ trace_out_arg $ metrics_arg $ steady_arg))

let compare_cmd =
  let run source packets seed protocol levers faults =
    let inputs = run_inputs source packets seed and note = serial_note () in
    ret
      (let* srm, _ = run_one ~note levers ~faults Harness.Runner.Srm_protocol inputs in
       let* other, _ = run_one ~note levers ~faults (Exp.Spec.runner_protocol protocol) inputs in
       print_result srm;
       print_newline ();
       print_result other;
       print_oracle srm;
       print_oracle other;
       Ok ())
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Run SRM and a second protocol on the same trace (optionally under the same fault \
          plan) and print both reports.")
    Term.(
      ret
        (const run $ source_term $ packets $ seed
        $ protocol_arg ~doc:"Protocol to run against SRM"
        $ levers_term $ faults_arg))

(* -- diff -------------------------------------------------------------- *)

let diff_cmd =
  let base_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BASE" ~doc:"Baseline JSON file.")
  in
  let current_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"CURRENT" ~doc:"Current JSON file.")
  in
  let rel_arg =
    let doc = "Relative threshold in percent: flag metrics whose delta exceeds $(docv)%% of the baseline." in
    Arg.(value & opt float 10. & info [ "rel" ] ~doc ~docv:"PCT")
  in
  let abs_arg =
    let doc = "Absolute threshold: deltas at or below $(docv) are never flagged (filters float noise)." in
    Arg.(value & opt float 1e-9 & info [ "abs" ] ~doc ~docv:"V")
  in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"List every compared metric, not only the flagged ones.")
  in
  let run base current rel abs all =
    match (Obs.Json.parse_file base, Obs.Json.parse_file current) with
    | Error msg, _ -> `Error (false, Printf.sprintf "%s: %s" base msg)
    | _, Error msg -> `Error (false, Printf.sprintf "%s: %s" current msg)
    | Ok b, Ok c ->
        let thresholds = { Obs.Diff.rel = rel /. 100.; abs } in
        let entries = Obs.Diff.diff ~thresholds ~base:b ~current:c () in
        print_string (Obs.Diff.render ~only_flagged:(not all) entries);
        if Obs.Diff.flagged entries <> [] then exit 1;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two metric/bench JSON files (from `cesrm run --metrics`, `cesrm sweep -o` or \
          `bench --json`) and flag deltas beyond thresholds; numbers under a `machine` or \
          `meta` key are never compared. Exits 1 if any metric is flagged.")
    Term.(ret (const run $ base_arg $ current_arg $ rel_arg $ abs_arg $ all_arg))

(* -- sweep ------------------------------------------------------------- *)

let sweep_cmd =
  let spec_file =
    let doc = "Load the experiment spec from a JSON file (written by --print-spec or by hand); \
               the axis flags below, --link-delay, --lossy-recovery and --domains are then \
               ignored." in
    Arg.(value & opt (some file) None & info [ "spec" ] ~doc ~docv:"FILE")
  in
  let traces_arg =
    let doc = "Traces axis: $(b,all), $(b,featured), or a comma-separated list of Table 1 names." in
    Arg.(value & opt string "featured" & info [ "traces" ] ~doc ~docv:"LIST")
  in
  let protocols_arg =
    let doc =
      "Protocols axis, comma-separated: $(b,srm), $(b,lms), or \
       $(b,cesrm)[@retention][+ra] (e.g. cesrm+ra, cesrm@lru:4, cesrm@hotspot=inf)."
    in
    Arg.(value & opt string "srm,cesrm" & info [ "protocols" ] ~doc ~docv:"LIST")
  in
  let seeds_arg =
    let doc = "Seeds axis: run each trace × protocol under $(docv) derived seeds." in
    Arg.(value & opt int 1 & info [ "seeds" ] ~doc ~docv:"N")
  in
  let base_seed_arg =
    let doc = "Base seed every shard seed is derived from." in
    Arg.(value & opt int64 42L & info [ "base-seed" ] ~doc ~docv:"SEED")
  in
  let name_arg =
    let doc = "Spec label, recorded in the artifact." in
    Arg.(value & opt string "sweep" & info [ "name" ] ~doc ~docv:"NAME")
  in
  let jobs_arg =
    let doc =
      "Worker processes (default: online CPU count; 1 = serial in-process; 0 = auto-detect \
       and record the resolved count in the artifact's meta)."
    in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~doc ~docv:"N")
  in
  let out_arg =
    let doc = "Write the aggregated artifact JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~doc ~docv:"FILE")
  in
  let print_spec_arg =
    Arg.(value & flag & info [ "print-spec" ] ~doc:"Print the expanded spec JSON and exit (pipe \
                                                   to a file to edit and reuse with --spec).")
  in
  let faults_axis_arg =
    let doc =
      "Faults axis, comma-separated: canned fault-plan names (including the membership-churn \
       plans $(b,churn-late), $(b,churn-flash), $(b,churn-steady)) and/or $(b,none) for the \
       unfaulted baseline (e.g. none,partition-heal,churn-steady). Each entry multiplies the \
       cell matrix; fault variants of a cell replay the identical synthesized trace."
    in
    Arg.(value & opt string "" & info [ "faults" ] ~doc ~docv:"LIST")
  in
  let build_spec ~spec_file ~name ~traces ~protocols ~seeds ~base_seed ~packets ~levers ~faults =
    let* spec =
      match spec_file with
      | Some file -> (
          match Obs.Json.parse_file file with
          | Error msg -> Error (Printf.sprintf "%s: %s" file msg)
          | Ok json -> Exp.Spec.of_json json)
      | None ->
          let trace_names =
            match traces with
            | "all" -> List.map (fun r -> r.Mtrace.Meta.name) Mtrace.Meta.all
            | "featured" -> List.map (fun r -> r.Mtrace.Meta.name) Mtrace.Meta.featured
            | list -> String.split_on_char ',' list
          in
          let rec parse_protocols = function
            | [] -> Ok []
            | p :: rest ->
                let* spec = Exp.Spec.protocol_of_name p in
                Result.map (fun tl -> spec :: tl) (parse_protocols rest)
          in
          let* protocols = parse_protocols (String.split_on_char ',' protocols) in
          Ok
            {
              Exp.Spec.name;
              traces = trace_names;
              protocols;
              base_seed;
              n_seeds = seeds;
              n_packets = packets;
              link_delay_ms = levers.link_delay_ms;
              lossy_recovery = levers.lossy;
              faults = (match faults with "" -> [] | l -> String.split_on_char ',' l);
              domains = levers.domains;
            }
    in
    Exp.Spec.validate spec
  in
  let summary_table artifact =
    let open Obs.Json in
    let num j name = match Option.bind (member name j) to_float with Some x -> x | None -> 0. in
    let cells = match member "cells" artifact with Some (Arr cs) -> cs | _ -> [] in
    let rows =
      List.map
        (fun c ->
          let str name = match member name c with Some (Str s) -> s | _ -> "?" in
          let exp_rq = num c "exp_requests" in
          [
            str "name";
            Printf.sprintf "%.0f" (num c "detected");
            Printf.sprintf "%.0f" (num c "unrecovered");
            (if exp_rq = 0. then "-"
             else Printf.sprintf "%.1f%%" (100. *. num c "exp_replies" /. exp_rq));
            Printf.sprintf "%.0f" (num c "audit_violations");
            Printf.sprintf "%.0f" (num c "oracle_violations");
          ])
        cells
    in
    Stats.Table.render
      ~header:[ "cell"; "detected"; "unrecov"; "exp ok"; "audit"; "oracle" ]
      ~rows
  in
  let run spec_file name traces protocols seeds base_seed packets levers faults jobs out
      print_spec =
    ret
      (let* spec =
         build_spec ~spec_file ~name ~traces ~protocols ~seeds ~base_seed ~packets ~levers ~faults
       in
       if print_spec then Ok (print_endline (Obs.Json.to_string ~pretty:true (Exp.Spec.to_json spec)))
       else begin
         let n = Array.length (Exp.Spec.cells spec) and shards = levers.shards in
         let resolved = Exp.Pool.resolve_jobs jobs in
         Printf.printf "sweep %s: %d shard(s) over %d worker(s)%s%s\n%!" spec.Exp.Spec.name n
           (min resolved n)
           (if shards > 1 then Printf.sprintf " x %d sim shard(s)" shards else "")
           (if resolved > 1 && not Exp.Pool.available then " (fork unavailable: serial)" else "");
         (* The shard counter redraws in place only on a terminal;
            piped, stdout carries just the final count. *)
         let live = Unix.isatty Unix.stdout in
         match
           Exp.Sweep.run ?jobs ~shards
             ~on_result:(fun ~index:_ ~done_ ~total ->
               if live then Printf.printf "\r  %d/%d shards%!" done_ total)
             spec
         with
         | exception Failure msg -> Error msg
         | artifact -> (
             Printf.printf "%s  %d/%d shards\n" (if live then "\r" else "") n n;
             print_string (summary_table artifact);
             let totals = Obs.Json.member "totals" artifact in
             Option.iter
               (fun t ->
                 let num name =
                   match Option.bind (Obs.Json.member name t) Obs.Json.to_float with
                   | Some x -> x
                   | None -> 0.
                 in
                 Printf.printf
                   "totals: detected %.0f, unrecovered %.0f, audit violations %.0f, oracle \
                    violations %.0f\n"
                   (num "detected") (num "unrecovered") (num "audit_violations")
                   (num "oracle_violations"))
               totals;
             Option.iter
               (fun file ->
                 Obs.Json.save ~pretty:true artifact ~file;
                 Printf.printf "(artifact to %s)\n" file)
               out;
             Ok ())
       end)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a trace × protocol × seed experiment matrix across forked workers and aggregate \
          the shards into one artifact (byte-identical to a serial run of the same spec).")
    Term.(
      ret
        (const run $ spec_file $ name_arg $ traces_arg $ protocols_arg $ seeds_arg $ base_seed_arg
        $ packets $ levers_term $ faults_axis_arg $ jobs_arg $ out_arg $ print_spec_arg))

(* -- main -------------------------------------------------------------- *)

let () =
  let doc = "Caching-Enhanced Scalable Reliable Multicast — trace-driven simulation toolkit" in
  let info = Cmd.info "cesrm" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; gen_trace_cmd; info_cmd; infer_cmd; run_cmd; compare_cmd; diff_cmd; sweep_cmd ]))
