(** Deploying CESRM on a simulated multicast group: an [Srm.Proto]
    group whose members are CESRM hosts. Deploy order, RNG discipline,
    send schedule and lookups are [Srm.Proto]'s; this module adds only
    the CESRM host construction and the expedited sums. *)

type t = Host.t Srm.Proto.group

val deploy :
  ?config:Host.config ->
  ?owned:(int -> bool) ->
  ?domain:Rdomain.t ->
  network:Net.Network.t ->
  params:Srm.Params.t ->
  n_packets:int ->
  period:float ->
  unit ->
  t
(** Default config is {!Host.default_config}. [owned] and [domain] as
    in [Srm.Proto.deploy] (see also {!Host.create}). *)

val start : ?send_jitter:float -> ?streaming:bool -> t -> warmup:float -> tail:float -> unit
(** [Srm.Proto.start]. *)

val add_stream :
  ?send_jitter:float ->
  ?streaming:bool ->
  t ->
  src:int ->
  n_packets:int ->
  period:float ->
  start_at:float ->
  unit
(** [Srm.Proto.add_stream]; each member keeps a per-source
    requestor/replier cache (Section 3.1). *)

val host : t -> int -> Host.t
(** By node id. @raise Not_found for non-members. *)

val members : t -> (int * Host.t) list

val counters : t -> Stats.Counters.t
(** The network's send tally ([Net.Network.counters]). *)

val recoveries : t -> Stats.Recovery.t

val network : t -> Net.Network.t

val expedited_requests : t -> int
(** The tally's [Exp_rqst] total: expedited requests on the wire. *)

val expedited_replies : t -> int
(** The tally's [Exp_repl] total. *)
