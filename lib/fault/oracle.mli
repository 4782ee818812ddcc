(** Online protocol-invariant checker for faulted runs.

    The oracle taps the same observation seams the tracer uses — the
    per-member SRM hooks and the network packet tap — and checks, as
    the run unfolds plus once at the end, the invariants that define
    {e graceful degradation} for SRM/CESRM under faults:

    - {b eventual-recovery liveness}: every loss detected by a member
      that is alive at the end of the run has been repaired by then;
    - {b no duplicate delivery}: a member obtains each (src, seq) at
      most once — recovery may duplicate packets on the wire, never to
      the application;
    - {b bounded expedited retry}: a CESRM requestor may keep
      unicasting a cached replier only 12 consecutive times without
      {e anything} being heard back from it — past the bound it must
      have fallen
      back to SRM and moved off the silent (dead) replier. Any reply
      from the replier resets the bound: a live replier may
      legitimately draw many expedited requests it cannot answer
      (post-heal it can lack the very packets it is asked for, while
      its other replies keep it cached);
    - {b suppression sanity}: per loss, one member sends at most 200
      requests and at most 16 replies — timers, abstinence and
      back-off must keep working under churn;
    - {b no delivery to departed hosts}: a member that left the group
      must not obtain packets — churn must actually silence it;
    - {b no expedited retries pinned on a departed replier}: once a
      cached replier leaves the group (per the membership timeline fed
      through {!note_membership}), at most two already-armed expedited
      requests per requestor may still reach for it (in-flight timers
      may legitimately straddle the leave) — past that bound the
      cached pair should have been invalidated and CESRM fallen back
      to SRM recovery.

    Under churn, liveness is membership-aware: a member is only
    charged for losses whose {e entire} recovery window it was present
    for — a departing member's outstanding losses are forgiven
    ({!forget_node}), late joiners are never charged for packets sent
    before they joined (the runner baselines their detection windows),
    and members outside the group at the end are exempt.

    Violations are recorded as structured events, exported as JSON and
    counted into {!Stats.Counters} (kind [Oracle]) by the runner. A run
    with no violations is {!clean}. The numeric bounds are generous
    enough that only genuinely broken suppression trips them. *)

type violation = {
  at : float;  (** sim time the violation was established *)
  node : int;  (** the member charged with it *)
  invariant : string;
      (** ["liveness"], ["duplicate-delivery"], ["expedited-retry"],
          ["request-suppression"], ["reply-suppression"],
          ["deliver-to-departed"] or ["expedited-retry-departed"] *)
  detail : string;
}

type t

val create : network:Net.Network.t -> t
(** Installs a (composing) packet tap on the network; per-member hooks
    are added with {!attach_host}. *)

val create_detached : network:Net.Network.t -> t
(** Like {!create} but without the packet tap: feed the stream
    explicitly with {!observe}. A sharded run uses this — the primary
    worker replays the merged cross-shard tap stream in timestamp
    order, while every worker still gets {!attach_host} hooks for its
    own members. *)

val observe : t -> at:float -> from:int -> Net.Packet.t -> unit
(** Check one packet send observed at time [at] (what the tap installed
    by {!create} does with [at] = the engine clock). *)

val note_membership : t -> node:int -> at:float -> member:bool -> unit
(** Append one membership transition to the timeline the packet-stream
    checks consult. The runner feeds a plan's initial absentees (at
    time 0) and every join/leave/rejoin as it fires; entries must
    arrive in non-decreasing time order. A packet observed at the very
    instant of a transition is judged by the {e pre}-transition state,
    which keeps serial and sharded verdicts identical regardless of
    same-time event ordering. *)

val forget_node : t -> node:int -> unit
(** Drop every pending loss charged to [node] — the liveness
    forgiveness a departure earns (the member was not present for
    those losses' full recovery windows). Call from the leave wiring,
    on the worker owning the node. *)

val retire_below : t -> upto:int -> unit
(** Steady-state retirement, registered on the run's
    [Steady.Controller] like the auditor's: drop the per-packet
    delivery, request and reply counts naming a seq at or below
    [upto], every member having delivered those packets. Requests and
    replies naming a retired seq are exempt from the per-loss bounds
    from then on (a reply timer armed before retirement still fires).
    The floor covers every stream source; steady runs are
    single-source. *)

val entries_at_or_below : t -> upto:int -> int
(** Per-packet entries (delivery, request and reply counts) naming a
    seq at or below [upto] — 0 below the retirement floor. For
    tests. *)

val pending_losses : t -> (int * int * int * float) list
(** [(node, src, seq, detected_at)] for every loss still unrepaired at
    a member currently enabled {e and in the group} — the raw material
    of the liveness check, exported so a sharded run's coordinator can
    evaluate liveness over the whole group. Unsorted. *)

val liveness_violations : at:float -> (int * int * int * float) list -> violation list
(** The liveness violations {!finalize} would record at time [at] for
    the given pending losses (sorted canonically). *)

val assemble : violations:violation list -> t
(** A results-only oracle carrying an externally merged, chronological
    violation list: {!violations}, {!n_violations}, {!clean},
    {!to_json} and {!pp} work; {!finalize} is a no-op; {!attach_host}
    and {!observe} must not be used. *)

val attach_host : t -> Srm.Host.t -> unit
(** Wrap the member's hooks (composing with whatever is installed —
    CESRM's own hooks keep running). Call once per member, after the
    protocol deployed. *)

val finalize : t -> unit
(** Evaluate end-of-run invariants (liveness). Idempotent; call after
    [Sim.Engine.run] returns. Members disabled (crashed) at the end are
    exempt from liveness. *)

val violations : t -> violation list
(** Chronological. Implies {!finalize} has run for end-of-run checks
    only if it was called. *)

val n_violations : t -> int

val clean : t -> bool

val to_json : t -> Obs.Json.t
(** [{"violations": [{"at", "node", "invariant", "detail"}, ...],
    "count": n}]. *)

val pp : Format.formatter -> t -> unit
(** One line per violation, for CLI output. *)
