(* Trace study: the full paper pipeline on one Yajnik-style trace —
   synthesize it, measure its loss locality (the phenomenon CESRM
   exploits), infer the responsible links as in Section 4.2, then
   re-enact it under SRM and CESRM and compare.

   Run with:  dune exec examples/trace_study.exe [TRACE] [PACKETS] *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "WRN951128" in
  let n_packets = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 5000 in
  let row = Mtrace.Meta.find name in
  Format.printf "Studying %a@." Mtrace.Meta.pp_row row;

  (* 1. Synthesize the trace (receiver-observable loss bitmaps only). *)
  let gen = Mtrace.Generator.synthesize ~n_packets row in
  let trace = gen.Mtrace.Generator.trace in
  Format.printf "@.%s@." (Mtrace.Trace.summary trace);

  (* 2. Loss locality: the temporal and spatial correlation that makes
     "recover the way the last loss was recovered" a good bet. *)
  let loc = Mtrace.Locality.trace trace in
  Format.printf "locality: %a@." Mtrace.Locality.pp_trace_stats loc;

  (* 3. Link-loss inference (Section 4.2): estimate per-link rates from
     the loss matrix, then pick the max-likelihood responsible links
     for every lossy packet. Ground truth is available from the
     generator, so we can check the estimator. *)
  let rates = Inference.Yajnik.estimate trace in
  let att = Inference.Attribution.infer ~rates trace in
  let a95, _ = Inference.Attribution.posterior_quantile_stats att in
  Format.printf "@.inference: %d distinct loss patterns, %.1f%% attributed with >95%% confidence@."
    (Inference.Attribution.distinct_patterns att)
    (100. *. a95);
  let tree = Mtrace.Trace.tree trace in
  Array.iter
    (fun l ->
      if rates.(l) > 0.005 || gen.link_rates.(l) > 0.005 then
        Format.printf "  link %2d->%2d: planted %.4f estimated %.4f@." (Net.Tree.parent tree l)
          l gen.link_rates.(l) rates.(l))
    (Net.Tree.links tree);

  (* 4. Re-enact under both protocols. *)
  let loss = Harness.Runner.Attributed att in
  let srm = Harness.Runner.run_model Harness.Runner.Srm_protocol trace loss in
  let cesrm =
    Harness.Runner.run_model (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config) trace loss
  in
  let avg = Harness.Runner.avg_normalized_recovery in
  Format.printf "@.SRM   : avg normalized recovery %.2f RTT, %d retransmission crossings@."
    (avg srm)
    (Net.Cost.retransmission_overhead srm.cost);
  Format.printf "CESRM : avg normalized recovery %.2f RTT, %d retransmission crossings@."
    (avg cesrm)
    (Net.Cost.retransmission_overhead cesrm.cost);
  Format.printf "CESRM recovers %.0f%% faster; expedited success %.0f%%@."
    (Harness.Runner.recovery_reduction srm cesrm)
    (Harness.Runner.expedited_success_pct cesrm)
