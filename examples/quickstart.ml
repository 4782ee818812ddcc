(* Quickstart: build a small multicast group by hand, lose a few
   packets on one link, and watch CESRM recover them.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* A binary tree of height 3: node 0 is the source, the 8 deepest
     nodes are receivers. *)
  let tree = Net.Tree.balanced ~fanout:2 ~depth:3 in
  Format.printf "Multicast tree:@.%a@." Net.Tree.pp tree;

  (* One deterministic engine per experiment: same seed, same run. *)
  let engine = Sim.Engine.create ~seed:7L () in
  let network = Net.Network.create ~engine ~tree ~link_delay:0.020 () in

  (* Drop packets 10-14 and 30-34 on the link into node 2 (so the four
     receivers under node 2 lose them), and packet 50 on the link into
     receiver 7 only. *)
  let lost_on_link ~link ~seq =
    match link with
    | 2 -> (seq >= 10 && seq <= 14) || (seq >= 30 && seq <= 34)
    | 7 -> seq = 50
    | _ -> false
  in
  Net.Network.set_drop network (fun ~link ~down packet ->
      match packet.Net.Packet.payload with
      | Net.Packet.Data { seq } -> down && lost_on_link ~link ~seq
      | _ -> false);

  (* Deploy CESRM with its defaults (the most recent cached pair, the paper's
     C1=C2=2, D1=D2=1 scheduling parameters) and stream 100 packets at
     25 packets/s. *)
  let proto =
    Cesrm.Proto.deploy ~network ~params:Srm.Params.default ~n_packets:100 ~period:0.04 ()
  in
  Cesrm.Proto.start proto ~warmup:5.0 ~tail:10.0;
  Sim.Engine.run engine;

  (* Every loss is recovered; the first burst is repaired by SRM-style
     suppressed requests, later bursts by cached expedited recoveries. *)
  let recs = Stats.Recovery.records (Cesrm.Proto.recoveries proto) in
  Format.printf "%d losses detected and recovered:@." (List.length recs);
  List.iter
    (fun (r : Stats.Recovery.record) ->
      Format.printf "  receiver %2d seq %3d recovered in %5.0f ms %s@." r.node r.seq
        (1000. *. Stats.Recovery.latency r)
        (if r.expedited then "(expedited)" else "(SRM fallback)"))
    recs;
  Format.printf "expedited requests sent: %d, expedited replies: %d@."
    (Cesrm.Proto.expedited_requests proto)
    (Cesrm.Proto.expedited_replies proto)
