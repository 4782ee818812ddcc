(** Declarative, deterministic fault plans.

    A plan is a named list of timed fault events against a run's
    topology: link outages, per-link delay jitter (which reorders) and
    duplication windows, host crash/restart with soft-state loss, and
    membership churn. Times are absolute sim seconds —
    the same plan on the same seed replays identically, so faulted runs
    stay pure functions of (trace, seed, plan).

    {!compile} lowers a plan onto a concrete run: window events install
    {!Net.Network} perturbation windows (checked against link {e
    crossing} times, so packets already in flight when an outage opens
    are swallowed by it), and crash/restart events become
    {!Sim.Engine} timers that toggle {!Net.Network.set_enabled} and
    invoke the caller's soft-state-loss callbacks. *)

type event =
  | Link_down of { link : int; from_ : float; until : float }
      (** every crossing of [link] (either direction) inside
          [\[from_, until)] is dropped: the subtree below [link] is
          partitioned from the rest of the tree for the window, then
          heals *)
  | Link_jitter of { link : int; from_ : float; until : float; max_jitter : float }
      (** crossings arrive up to [max_jitter] seconds late (uniform);
          enough jitter reorders packets on the link *)
  | Link_dup of { link : int; from_ : float; until : float }
      (** crossings deliver a duplicate copy one extra propagation
          delay later *)
  | Crash of { node : int; at : float; restart_at : float option }
      (** the member on [node] crashes at [at] — receives nothing,
          transmits nothing, and loses all soft state (caches, session
          estimates, scheduled timers) — and, when [restart_at] is
          given, comes back up then *)
  | Join of { node : int; at : float }
      (** [node] is {e outside the group from time 0} (a late joiner:
          it neither receives casts nor runs timers) and joins at
          [at] with empty soft state — it is never charged for packets
          sent before it joined *)
  | Leave of { node : int; at : float }
      (** [node] departs the group at [at]: all its soft state is
          dropped (not suspended, unlike a crash), its pending losses
          are forgiven, and peers invalidate cached state naming it *)
  | Rejoin of { node : int; at : float }
      (** [node] — departed by an earlier [Leave] — comes back at [at]
          with empty soft state, exactly like a late joiner *)

type t = { name : string; events : event list }

val make : ?name:string -> event list -> t
(** Default name ["anonymous"]. *)

val n_events : t -> int

val has_churn : t -> bool
(** Whether the plan contains any membership (join/leave/rejoin)
    events. *)

val initial_absentees : t -> int list
(** The nodes [Join] events hold out of the group at time 0 (sorted,
    deduplicated) — the runner seeds oracle membership timelines with
    them. *)

val validate : tree:Net.Tree.t -> t -> (t, string) result
(** Well-formedness against a topology: link ids name tree links,
    crashed/churned nodes are receivers (routers cannot crash or
    churn), windows are ordered with non-negative start, jitter
    positive, restarts after crashes, and every [Rejoin] is preceded
    (in time) by a [Leave] of the same node. *)

val compile :
  network:Net.Network.t ->
  ?on_restart:(node:int -> unit) ->
  ?on_join:(node:int -> unit) ->
  ?on_leave:(node:int -> unit) ->
  t ->
  unit
(** Install the plan onto a network and its engine. Call before
    [Sim.Engine.run]; events are compiled in list order (determinism).
    [on_restart] fires from the restart timer {e after} the node is
    re-enabled — the runner uses it to drop the member's soft protocol
    state. Membership events lower onto {!Net.Network.set_member}:
    [Join] nodes are excluded from the group at compile time
    (uncounted — a starting condition) and restored by a timer at
    their join time; [on_join]/[on_leave] fire
    {e after} the membership flip, and the runner uses them to
    baseline a joiner's detection window and to drop / invalidate a
    departed member's state group-wide.
    @raise Invalid_argument if the plan does not validate against the
    network's tree. *)

(** {2 Serialization} *)

val to_json : t -> Obs.Json.t

val of_json : Obs.Json.t -> (t, string) result

val save : t -> file:string -> unit

val load : string -> (t, string) result
(** Parse a plan from a JSON file. *)

(** {2 Churn schedules}

    Declarative generators of membership-event lists. All three are
    pure functions of their arguments (a private LCG, never [Random]),
    so the same schedule replays identically on every shard and every
    process. *)

val late_joiners : nodes:int list -> at:float -> spread:float -> event list
(** Each node joins once, staggered evenly across [\[at, at + spread]]
    (all at [at] when there is one node or [spread] is 0). *)

val flash_crowd : nodes:int list -> at:float -> event list
(** Every node joins at exactly [at] — a burst of empty-state members
    arriving mid-stream. *)

val steady_churn :
  nodes:int list ->
  from_:float ->
  until:float ->
  rate:float ->
  half_life:float ->
  ?seed:int64 ->
  unit ->
  event list
(** Sustained leave/rejoin churn over [\[from_, until)]: departures
    arrive with exponential gaps of mean [1/rate] seconds, each picks
    a currently-present node from [nodes], and each absence lasts an
    exponential time with {e median} [half_life] before the node
    rejoins (rejoins may land past [until]).
    @raise Invalid_argument on an empty pool, a bad window, or
    non-positive [rate]/[half_life]. *)

(** {2 Canned plans}

    Deterministic plans derived from a topology and the run's data
    phase: [warmup] is when data starts flowing and [duration] how long
    it flows (so all fault windows land inside the data phase, with the
    recovery tail left clean for repair). *)

val canned_names : string list
(** ["partition-heal"; "link-flap"; "crash-replier"; "jitter-reorder";
    ["dup-burst"]] — the perturbation plans. Membership plans live in
    {!churn_names}; both resolve through {!canned}. *)

val churn_names : string list
(** ["churn-late"] (the deepest members arrive a quarter into the data
    phase), ["churn-flash"] (a batch joins at one instant mid-stream),
    ["churn-steady"] (sustained leave/rejoin churn across the middle
    of the phase, including the natural repliers). *)

val canned : tree:Net.Tree.t -> warmup:float -> duration:float -> string -> t option
(** Resolve a {!canned_names} or {!churn_names} plan against a
    topology and data phase; [None] for an unknown name. *)
