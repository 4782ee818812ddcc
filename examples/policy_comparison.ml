(* Pair-selection comparison: Section 3.2 sketches two expeditious-pair
   selection policies, most-recent loss and most-frequent loss. Here the
   replier cache's retention scheme is the one lever that ranks the
   pairs: recent is the paper's most-recent choice, hotspot=inf (pair
   scores that never decay) its most-frequent one; lru ranks by recency
   of use and hotspot by decaying frequency. This example compares
   them, with the paper's 1-entry cache as the floor, across a few
   traces.

   Run with:  dune exec examples/policy_comparison.exe
   (CESRM_EXAMPLE_PACKETS shortens the traces — the runtest smoke
   rule uses it to keep the examples fast.) *)

let n_packets =
  match Sys.getenv_opt "CESRM_EXAMPLE_PACKETS" with
  | Some s -> int_of_string s
  | None -> 4000

let avg_norm (res : Harness.Runner.result) =
  let s = Stats.Summary.create () in
  List.iter
    (fun (node, _) ->
      let n = Harness.Runner.normalized_recovery res ~node ~filter:(fun _ -> true) in
      if Stats.Summary.count n > 0 then Stats.Summary.add s (Stats.Summary.mean n))
    res.rtt_to_source;
  Stats.Summary.mean s

let () =
  let traces = [ "RFV960419"; "WRN951113"; "WRN951211"; "WRN951218" ] in
  let rows =
    List.concat_map
      (fun name ->
        let row = Mtrace.Meta.find name in
        let trace, loss = Harness.Runner.inputs ~n_packets row in
        List.map
          (fun retention ->
            let config =
              {
                Cesrm.Host.default_config with
                retention = Option.get (Cesrm.Retention.of_name retention);
              }
            in
            let res = Harness.Runner.run_model (Harness.Runner.Cesrm_protocol config) trace loss in
            let success =
              100. *. float_of_int res.exp_replies /. float_of_int (max 1 res.exp_requests)
            in
            [
              name;
              retention;
              Printf.sprintf "%.2f" (avg_norm res);
              Printf.sprintf "%d" res.exp_requests;
              Printf.sprintf "%.0f%%" success;
            ])
          [ "recent:1"; "recent"; "lru"; "hotspot"; "hotspot=inf" ])
      traces
  in
  print_string
    (Stats.Table.render
       ~header:[ "trace"; "retention"; "avg recovery (RTT)"; "expedited rqsts"; "success" ]
       ~rows);
  print_endline
    "The paper evaluates most-recent (simplest: one cached pair suffices) and reports\n\
     it beats most-frequent on the real traces. On these synthetic traces the\n\
     heat-ranked schemes are often faster; EXPERIMENTS.md \"One lever for replier\n\
     choice\" has means over five seeds of every Table-1 row."
