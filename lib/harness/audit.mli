(** The run's one online invariant checker.

    CESRM descends from a line of work on formally modelled multicast
    protocols (the first author's thesis develops SRM and CESRM in the
    IOA framework); this module carries a little of that spirit into
    the simulator: it taps every packet the network sends and checks
    invariants that any correct SRM/CESRM/LMS execution must satisfy.
    Attach before running; read violations after.

    {b Safety rules}, checked on every send of every run:

    - {b data-well-formed}: each stream's original transmissions carry
      strictly increasing sequence numbers, each sent exactly once;
    - {b request-subject-exists}: no repair request (expedited or not)
      names a sequence number the source has not yet sent;
    - {b reply-has-cause}: every reply is preceded by some request or
      expedited request for the same packet;
    - {b replier-plausible}: no member retransmits a packet it could
      not hold (it neither sent it nor could have received it —
      approximated as: the reply does not precede the original send);
    - {b expedited-singleton}: a member never sends more expedited
      requests for one packet than [max_exp_per_loss] (CESRM's
      REORDER-DELAY timer is unique per loss);
    - {b request-rounds-bounded}: per member and packet, the multicast
      requests never exceed SRM's round cap plus the first request
      ([Srm.Params.max_rounds + 1] = 41) — hosts that do not re-arm
      stop there.

    {b Fault rules}, switched on by [~faulted:true] (the runner sets it
    exactly when it runs a fault plan, which also makes hosts re-arm
    their requests, {!Srm.Params.t.fault_tolerant}). They define
    {e graceful degradation} under faults, and need the per-member
    hooks {!attach_host} installs:

    - {b liveness}: every loss detected by a member that is alive and
      in the group at the end of the run has been repaired by then;
    - {b duplicate-delivery}: a member obtains each (src, seq) at most
      once — recovery may duplicate packets on the wire, never to the
      application;
    - {b expedited-retry}: a CESRM requestor unicasts a cached replier
      at most 12 consecutive times without {e anything} heard back
      from it. Any reply from the replier resets the bound: a live
      replier may legitimately draw many expedited requests it cannot
      answer (post-heal it can lack the very packets it is asked for,
      while its other replies keep it cached);
    - {b expedited-retry-departed}: once a cached replier leaves the
      group (per the timeline fed through {!note_membership}), at most
      two already-armed expedited requests per requestor may still
      reach for it (in-flight timers may straddle the leave);
    - {b request-suppression}: in place of request-rounds-bounded, a
      member sends at most 200 requests per loss — re-arming restarts
      the rounds, so only broken suppression passes this;
    - {b reply-suppression}: a member sends at most 16 replies per
      loss;
    - {b deliver-to-departed}: a member that left the group obtains no
      packet — churn must actually silence it.

    Under churn, liveness is membership-aware: a departing member's
    outstanding losses are forgiven ({!forget_node}), late joiners are
    never charged for packets sent before they joined (the runner
    baselines their detection windows), and members outside the group
    at the end are exempt. The fault rules' bounded invariants report
    once per offending key; request-rounds-bounded reports every
    request past its bound. *)

type t

type violation = {
  at : float;  (** sim time the violation was established *)
  node : int;  (** the member charged with it *)
  rule : string;  (** one of the thirteen rule names above *)
  detail : string;
}

val create :
  ?expect_in_order:bool -> ?max_exp_per_loss:int -> ?faulted:bool -> Net.Network.t -> t
(** A checker with no tap installed: feed it explicitly with
    {!observe}. A sharded run gives each worker one, and the primary
    worker replays the merged cross-shard tap stream into its own in
    timestamp order. Options as in {!attach}. *)

val observe : t -> at:float -> from:int -> Net.Packet.t -> unit
(** Check one packet send observed at time [at]. {!attach}'s tap does
    the same at the engine clock, which it stores in a flat float cell
    rather than passing it boxed: a checked send that adds no table
    entry (a session message, say) allocates nothing. *)

val attach :
  ?expect_in_order:bool -> ?max_exp_per_loss:int -> ?faulted:bool -> Net.Network.t -> t
(** Installs the tap. The checker sees sends from that moment on.
    [expect_in_order] (default true) enforces strictly increasing
    source sequence numbers — disable under deliberate send jitter.
    [max_exp_per_loss] (default 1, CESRM's invariant) bounds expedited
    requests per member and packet — raise it for LMS, whose retries
    legitimately resend. [faulted] (default false) switches on the
    fault rules. *)

val attach_host : t -> Srm.Host.t -> unit
(** Wrap the member's hooks (composing with whatever is installed —
    CESRM's own hooks keep running) for the liveness,
    duplicate-delivery and deliver-to-departed rules. Call once per
    member, after the protocol deployed.
    @raise Invalid_argument unless the fault rules are on; so do
    {!note_membership} and {!forget_node}. *)

val note_membership : t -> node:int -> at:float -> member:bool -> unit
(** Append one membership transition to the timeline the packet-stream
    rules consult. The runner feeds a plan's initial absentees (at
    time 0) and every join/leave/rejoin as it fires; entries must
    arrive in non-decreasing time order. A packet observed at the very
    instant of a transition is judged by the {e pre}-transition state,
    which keeps serial and sharded verdicts identical regardless of
    same-time event ordering. *)

val forget_node : t -> node:int -> unit
(** Drop every pending loss charged to [node] — the liveness
    forgiveness a departure earns. Call from the leave wiring, on the
    worker owning the node. *)

val retire_below : t -> upto:int -> unit
(** Drop per-packet bookkeeping for every seq at or below [upto] (on
    all sources, clamped to each source's highest sent seq), after
    running the expedited-singleton check over the retiring entries.
    Late traffic naming retired seqs is thereafter exempt from the
    per-packet rules — its history was checked before retirement (a
    reply timer armed before retirement still fires). Streaming
    (steady) runs call this at each stability epoch so the checker's
    memory tracks the live window, not the stream length. *)

val entries_at_or_below : t -> upto:int -> int
(** Per-packet entries naming a seq at or below [upto] — 0 below the
    retirement floor. For tests. *)

val violations : t -> violation list
(** In occurrence order, after the end-of-run checks (expedited
    requests per loss, and with the fault rules, liveness), which run
    once, at the first call. Empty for a correct execution. *)

val is_fault : violation -> bool
(** Whether the violation breaks a fault rule; the rest are the
    safety class. *)

val n_safety : t -> int
(** Safety-class violations, end-of-run checks included. *)

val n_fault : t -> int
(** Fault-class violations, end-of-run checks included; 0 with the
    fault rules off. *)

val packets_seen : t -> int

val check : t -> unit
(** @raise Failure listing the violations, if any. For tests. *)

val pp : Format.formatter -> t -> unit
(** The fault rules' verdict, as [run --faults] prints it:
    [oracle: clean], or the count and one line per fault-class
    violation. *)

val to_json : t -> Obs.Json.t
(** The fault-class violations:
    [{"violations": [{"at", "node", "invariant", "detail"}, ...],
    "count": n}]. *)

(** {1 Sharded runs} *)

type part
(** What one worker's checker contributes to the run's verdict:
    its violations and the losses still pending at its members. *)

val part : t -> part
(** Run the end-of-run expedited check, not liveness: that needs
    every worker's pending losses. *)

val merge : at:float -> part list -> t
(** A results-only checker: the parts' violations in time order, then
    the liveness violations over their pending losses, established at
    [at] (the run's last event time, what a serial run's {!violations}
    sees). {!violations}, the counts, {!pp} and {!to_json} work; it must
    not be fed or attached. *)
