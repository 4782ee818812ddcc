(** SRM session-message exchange and inter-host distance estimation
    (paper Section 2, and the setup assumptions of Section 4.3).

    Every group member periodically multicasts a session message
    carrying its current timestamp, the highest source sequence number
    it has seen, and an echo table: for each peer, the peer's last
    timestamp and how long it was held before being echoed. On hearing
    its own timestamp echoed by peer [m], a member computes
    [rtt = (now − ts) − held] and estimates its one-way distance to [m]
    as [rtt / 2].

    Session messages double as a loss-detection channel: a session
    max-sequence number above the local one reveals tail losses.

    The echo table is the classic one: every heard peer, in every
    message. Its size is quadratic across a group whose members all
    send sessions; scale runs avoid that by letting only the source
    send ({!Params.t.oracle_distances}), so there is no peer to
    echo. *)

type t

val create :
  ?oracle:(int -> float) ->
  network:Net.Network.t ->
  self:int ->
  period:float ->
  rng:Sim.Rng.t ->
  get_max_seqs:(unit -> (int * int) list) ->
  on_max_seq:(src:int -> int -> unit) ->
  unit ->
  t
(** [get_max_seqs] supplies the advertised per-stream sequence numbers;
    [on_max_seq] is invoked for each stream a peer advertises. The
    network counts the session messages sent
    ([Net.Network.counters]).

    [oracle] supplies an authoritative distance for peers with no
    measured estimate yet (scale runs pass the network's true
    delay-weighted tree distance — the converged state the paper
    assumes — so timers are well-spread without the quadratic session
    warm-up). Measured estimates take precedence once they exist. *)

val start : t -> until:float -> unit
(** Begin periodic transmission after a random offset within one
    period, stopping at [until]. *)

val on_packet : t -> Net.Packet.t -> unit
(** Feed an incoming session packet. Non-session packets are ignored. *)

val distance_or : t -> int -> default:float -> float
(** [distance_or t peer ~default] is the current one-way distance
    estimate to [peer], else the [oracle]'s answer, else [default].
    Allocation-free: it serves the request/reply scheduling hot path. *)

val known_peers : t -> int list
(** The peers with a distance estimate, ascending. *)

val reset : t -> unit
(** Forget all distance estimates and last-heard state, as a crashed
    host restarting with empty soft state would. Periodic transmission,
    if started, continues. *)

val forget_peer : t -> int -> unit
(** Drop the distance estimate and heard state for one peer — called
    when that peer {e leaves the group}, so a later rejoin starts from
    scratch instead of inheriting a stale estimate. *)
