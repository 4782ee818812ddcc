let eq1_bound (p : Srm.Params.t) =
  p.c1 +. (p.c2 /. 2.) +. 1. +. p.d1 +. (p.d2 /. 2.) +. 1.

let eq2_bound ~reorder_delay ~rtt = reorder_delay +. rtt

let predicted_gap_rtt p = (eq1_bound p /. 2.) -. 1.

let measured_first_round res =
  Runner.avg_normalized_recovery res ~filter:(fun r ->
      (not r.Stats.Recovery.expedited) && r.rounds <= 1)

let measured_expedited res =
  Runner.avg_normalized_recovery res ~filter:(fun r -> r.Stats.Recovery.expedited)

let report pairs =
  let params =
    match pairs with
    | p :: _ -> p.Figures.srm.Runner.setup.Runner.params
    | [] -> Srm.Params.default
  in
  let rows =
    List.map
      (fun (p : Figures.pair) ->
        let srm_first = measured_first_round p.srm in
        let cesrm_first = measured_first_round p.cesrm in
        let exp = measured_expedited p.cesrm in
        [
          p.row.Mtrace.Meta.name;
          Printf.sprintf "%.2f" srm_first;
          Printf.sprintf "%.2f" cesrm_first;
          Printf.sprintf "%.2f" exp;
          Printf.sprintf "%.2f" (cesrm_first -. exp);
        ])
      pairs
  in
  Printf.sprintf
    "Section 3.4 analysis: Eq.(1) bound = %.2f d = %.2f RTT; predicted expedited gap <= %.2f RTT\n\
     (paper: SRM first-round averages in [1.5, 3.25] RTT; measured gap in [1, 2.5] RTT)\n"
    (eq1_bound params)
    (eq1_bound params /. 2.)
    (predicted_gap_rtt params)
  ^ Stats.Table.render
      ~header:
        [ "trace"; "SRM 1st-rnd(RTT)"; "CESRM 1st-rnd(RTT)"; "expedited(RTT)"; "gap(RTT)" ]
      ~rows
