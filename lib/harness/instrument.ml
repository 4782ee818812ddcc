let attach_network ~trace ~stride network =
  let clock = Sim.Engine.clock (Net.Network.engine network) in
  Net.Network.add_tap network (fun ~from (p : Net.Packet.t) ->
      let at = clock.now in
      match p.payload with
      | Net.Packet.Data { seq } ->
          Obs.Trace.record trace ~at ~node:from ~stream:from
            ~key:(Srm.Key.make ~stride ~src:from ~seq)
            Obs.Trace.Data_sent
      | Net.Packet.Request { src; seq; _ } ->
          Obs.Trace.record trace ~at ~node:from ~stream:src
            ~key:(Srm.Key.make ~stride ~src ~seq)
            Obs.Trace.Request_sent
      | Net.Packet.Exp_request { src; seq; _ } ->
          Obs.Trace.record trace ~at ~node:from ~stream:src
            ~key:(Srm.Key.make ~stride ~src ~seq)
            Obs.Trace.Exp_request_sent
      | Net.Packet.Reply { src; seq; expedited; _ } ->
          Obs.Trace.record trace ~at ~node:from ~stream:src
            ~key:(Srm.Key.make ~stride ~src ~seq)
            (if expedited then Obs.Trace.Exp_reply_sent else Obs.Trace.Reply_sent)
      | Net.Packet.Session _ ->
          Obs.Trace.record trace ~at ~node:from ~stream:from ~key:0
            Obs.Trace.Session_sent)

let attach_srm_host ~trace ~stride host =
  let clock = Sim.Engine.clock (Net.Network.engine (Srm.Host.network host)) in
  let node = Srm.Host.self host in
  let hooks = Srm.Host.hooks host in
  let prev_detect = hooks.on_loss_detected in
  hooks.on_loss_detected <-
    (fun ~src ~seq ->
      prev_detect ~src ~seq;
      Obs.Trace.record trace ~at:clock.now ~node ~stream:src
        ~key:(Srm.Key.make ~stride ~src ~seq)
        Obs.Trace.Loss_detected);
  let prev_obtained = hooks.on_packet_obtained in
  hooks.on_packet_obtained <-
    (fun ~src ~seq ~expedited ->
      prev_obtained ~src ~seq ~expedited;
      (* The hook fires for every delivery; only packets this member
         detected as lost close a recovery span. *)
      if Srm.Host.suffered_loss ~src host ~seq then
        Obs.Trace.record trace ~at:clock.now ~node ~stream:src
          ~key:(Srm.Key.make ~stride ~src ~seq)
          (if expedited then Obs.Trace.Recovered_expedited else Obs.Trace.Recovered_fallback))

let record_recovery_hist registry ~rtt_of (r : Stats.Recovery.record) =
  let seconds = Obs.Registry.hist registry "recovery/latency_s" in
  let rtt_all = Obs.Registry.hist registry "recovery/latency_rtt" in
  let rtt_exp = Obs.Registry.hist registry "recovery/latency_rtt_expedited" in
  let rtt_fall = Obs.Registry.hist registry "recovery/latency_rtt_fallback" in
  let latency = Stats.Recovery.latency r in
  Obs.Hist.add seconds latency;
  match rtt_of r.node with
  | Some rtt when rtt > 0. ->
      let norm = latency /. rtt in
      Obs.Hist.add rtt_all norm;
      Obs.Hist.add (if r.expedited then rtt_exp else rtt_fall) norm
  | _ -> ()

let attach_recovery_hists registry ~rtt_of recoveries =
  List.iter (record_recovery_hist registry ~rtt_of) (Stats.Recovery.records recoveries)

(* Steady runs can't fold the hists at end of run — the record list is
   gone — so the observer feeds them one record at a time as
   recoveries land. Same adds in the same (insertion) order as the
   offline fold, and the hists themselves are log-bucketed arrays, so
   observability memory stays constant in stream length. *)
let attach_recovery_hists_online registry ~rtt_of recoveries =
  Stats.Recovery.set_observer recoveries (record_recovery_hist registry ~rtt_of)
