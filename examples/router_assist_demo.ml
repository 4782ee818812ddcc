(* Router-assisted local recovery (Section 3.3): with turning-point
   annotation and subcast, an expedited retransmission reaches only the
   subtree below the turning-point router instead of the whole group.
   This example measures that exposure reduction.

   Run with:  dune exec examples/router_assist_demo.exe *)

let n_packets = 4000

let run ~router_assist trace loss =
  let config = { Cesrm.Host.default_config with router_assist } in
  Harness.Runner.run_model (Harness.Runner.Cesrm_protocol config) trace loss

let () =
  let trace, loss = Harness.Runner.inputs ~n_packets (Mtrace.Meta.find "UCB960424") in
  let plain = run ~router_assist:false trace loss in
  let assisted = run ~router_assist:true trace loss in
  let describe label (res : Harness.Runner.result) =
    let erepl_sends =
      Net.Cost.sends res.cost Net.Cost.Exp_reply Net.Cost.Multicast
      + Net.Cost.sends res.cost Net.Cost.Exp_reply Net.Cost.Subcast
    in
    let crossings = Net.Cost.total_crossings res.cost Net.Cost.Exp_reply in
    Format.printf
      "%-12s expedited replies %4d, link crossings %5d (%.1f per reply), unrecovered %d@."
      label erepl_sends crossings
      (if erepl_sends = 0 then 0. else float_of_int crossings /. float_of_int erepl_sends)
      res.unrecovered
  in
  let tree = Mtrace.Trace.tree trace in
  Format.printf "tree: %d nodes, %d links, %d receivers@." (Net.Tree.n_nodes tree)
    (Net.Tree.n_nodes tree - 1) (Net.Tree.n_receivers tree);
  describe "multicast" plain;
  describe "subcast" assisted;
  Format.printf
    "@.Subcast confines each expedited retransmission to the turning point's subtree;@.";
  Format.printf
    "SRM's fallback path still repairs anything the localized reply does not reach.@."
