(* Streaming playout: the application the paper's introduction
   motivates. A live audio/video receiver buffers each packet for a
   fixed playout delay; a lost packet is useful only if it is repaired
   before its playout deadline. This example measures, across playout
   deadlines, the fraction of lost packets each protocol repairs in
   time — where CESRM's latency advantage turns directly into playback
   quality.

   Run with:  dune exec examples/streaming_playout.exe [TRACE] *)

let n_packets = 5000

let deadline_grid = [ 0.1; 0.2; 0.3; 0.5; 0.8; 1.2; 2.0 ]

let in_time_fraction (res : Harness.Runner.result) deadline =
  let records = Stats.Recovery.records res.recoveries in
  match records with
  | [] -> 1.
  | _ ->
      let ok =
        List.length
          (List.filter (fun r -> Stats.Recovery.latency r <= deadline) records)
      in
      float_of_int ok /. float_of_int (List.length records)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "WRN951128" in
  let row = Mtrace.Meta.find name in
  let trace, loss = Harness.Runner.inputs ~n_packets row in
  let srm = Harness.Runner.run_model Harness.Runner.Srm_protocol trace loss in
  let cesrm =
    Harness.Runner.run_model (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config) trace loss
  in
  let lms = Harness.Runner.run_model Harness.Runner.Lms_protocol trace loss in
  Format.printf
    "Streaming over %s: fraction of lost packets repaired before the playout deadline@.@."
    name;
  let rows =
    List.map
      (fun deadline ->
        [
          Printf.sprintf "%.0f ms" (1000. *. deadline);
          Printf.sprintf "%.1f%%" (100. *. in_time_fraction srm deadline);
          Printf.sprintf "%.1f%%" (100. *. in_time_fraction cesrm deadline);
          Printf.sprintf "%.1f%%" (100. *. in_time_fraction lms deadline);
        ])
      deadline_grid
  in
  print_string
    (Stats.Table.render ~header:[ "playout deadline"; "SRM"; "CESRM"; "LMS" ] ~rows);
  print_endline
    "CESRM turns its ~50% recovery-latency reduction into markedly better playback at\n\
     tight deadlines; LMS is even faster when healthy but needs router support and is\n\
     fragile under churn (see the bench's extension-churn section)."
