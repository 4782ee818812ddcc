(** Wiring between a protocol run and the {!Obs} subsystem.

    Instrumentation piggybacks on the two observation seams the
    simulator already has — the SRM host hooks
    ([on_loss_detected] / [on_reply_observed] / [on_packet_obtained])
    and the network packet tap — so it is attached {e after} protocol
    deployment (the hooks are chained, not stolen: CESRM's expedited
    machinery keeps running first) and a run without instrumentation
    attached executes exactly the seed code path: no closures, no
    recording, byte-identical determinism fingerprints.

    Recording is purely observational; the determinism guard in
    [test/test_obs.ml] pins that an instrumented run reproduces the
    uninstrumented fingerprints bit-for-bit. *)

val attach_network : trace:Obs.Trace.t -> stride:int -> Net.Network.t -> unit
(** Tap every sent packet into the trace: data, session, (expedited)
    requests and (expedited) replies, attributed to the sending node
    and packed with [stride] (= [n_packets + 1], the hosts' key
    stride). Composes with the protocol auditor's tap. *)

val attach_srm_host : trace:Obs.Trace.t -> stride:int -> Srm.Host.t -> unit
(** Chain trace recording onto the host's hooks: loss detections (which
    also open the recovery span) and packet obtentions for suffered
    losses (which close it, expedited or fallback). Call after the
    protocol has installed its own hooks. *)

val attach_recovery_hists_online :
  Obs.Registry.t -> rtt_of:(int -> float option) -> Stats.Recovery.t -> unit
(** Install a {!Stats.Recovery.set_observer} that feeds every
    subsequent recovery latency into the registry's log-bucketed
    histograms as it lands: ["recovery/latency_s"] (seconds, all
    recoveries) plus the ["recovery/latency_rtt"],
    ["recovery/latency_rtt_expedited"] and
    ["recovery/latency_rtt_fallback"] RTT-normalized splits (records
    whose node has no RTT — e.g. the source — are skipped in the
    normalized histograms). Attach {e before} the run; it works whether
    or not the collector keeps its records
    ({!Stats.Recovery.drop_records}). Every runner run with a registry
    is fed this way. *)

val attach_recovery_hists :
  Obs.Registry.t -> rtt_of:(int -> float option) -> Stats.Recovery.t -> unit
(** The same histograms folded after the run from the collector's
    kept records, in insertion order — bit-identical to the online
    feed (same adds, same order). For callers that wire a run by hand
    from public calls. *)
