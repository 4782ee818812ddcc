(** Deploying LMS on a simulated multicast group.

    Routers get designated repliers at deploy time ({!Routing.designate})
    and re-designate periodically — the soft-state refresh whose
    latency is LMS's weakness under membership churn (CESRM paper,
    Sections 3.3 and 5). Crash a member with [Net.Network.set_enabled];
    stale replier state then blackholes that subtree's requests until
    the next refresh. *)

type t

val deploy :
  network:Net.Network.t ->
  n_packets:int ->
  period:float ->
  ?refresh_period:float ->
  unit ->
  t
(** Default refresh period: 10 s. *)

val start : ?streaming:bool -> t -> warmup:float -> tail:float -> unit
(** Data schedule as in [Srm.Proto.start]; the source additionally
    multicasts a 1 s heartbeat carrying its highest sequence number
    (tail-loss detection). [streaming] produces sends lazily (always
    exact here — the LMS grid is unjittered). *)

val host : t -> int -> Host.t

val members : t -> (int * Host.t) list

val counters : t -> Stats.Counters.t
(** The network's send tally ([Net.Network.counters]): a request
    counts as [Exp_rqst], a repair as [Repl] (it leaves as a plain
    reply), and the source heartbeat as [Sess]. *)

val recoveries : t -> Stats.Recovery.t

val network : t -> Net.Network.t

val detected : t -> int
(** Losses detected across members. *)
