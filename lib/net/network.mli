(** Packet delivery over the multicast tree.

    The network model is the slice of NS2 the paper's evaluation uses
    (Section 4.3): every tree link has a fixed propagation delay and a
    fixed bandwidth; payload packets pay a serialization time of
    [size / bandwidth] per hop; control packets are size 0. Links are
    FIFO: a directed link is reserved while a packet serializes onto it.

    Three casts share one prologue (enabled check, tap, the send tally
    {!counters}) and one walk: [multicast] floods the whole tree away
    from the sender (plain IP multicast), [unicast] follows the tree
    path, and [subcast] unicasts up to a root router, then floods only
    downward from it, optionally within a scope — the router-assist
    capability of Section 3.3, LMS's turning-point replies and the
    recovery domains' local floods. No cast delivers to its sender.

    Loss injection is a pluggable predicate consulted once per directed
    link traversal; dropping a packet on a link prunes the flood below
    that link, which is exactly how a loss on an IP multicast tree link
    manifests.

    {b Walk order.} Every cast visits links in the order of a recursive
    neighbour walk from its sender — parent first, then children in
    {!Tree.children} order — because that order fixes the sequence of
    loss-predicate calls, random draws and delivery events, and with
    them the whole run. The walks read only the static arrays of
    {!Routes}; nothing is built per packet or memoized per origin. A
    multicast from [o] first climbs the parent chain p1, p2, ... while
    the crossings survive, delivering at each; then, for each ancestor
    reached from the highest down to p1, it floods that ancestor's
    child subtrees except the one toward [o]; then [o]'s own subtrees.
    Each child's subtree is a contiguous range of the root preorder, so
    a level costs at most two range scans, and a dropped up-crossing
    p_i -> p_(i+1) loses exactly the levels above p_i. Subcasts flood
    their root's preorder range. Unicast legs and {!dist} climb both
    ends to the LCA and go up the source side, then down the
    destination side — the hop order of {!Tree.path} and the summation
    order of {!Tree.dist}.

    {b Delivery.} A walk writes each node's arrival time into a per-node
    scratch array (one spare cell holds a duplicated copy's time) and
    schedules the delivery with {!Sim.Engine.schedule_call}, which reads
    the time from that array cell. A delivery carries no closure or
    boxed time, and its handle is an immediate int the network ignores,
    so casting and draining allocate the same bytes whatever the number
    of receivers. *)

type t

val create :
  engine:Sim.Engine.t ->
  tree:Tree.t ->
  ?link_delay:float ->
  ?bandwidth_bps:float ->
  unit ->
  t
(** Defaults: 20 ms per link and 1.5 Mbps, the paper's settings. *)

val create_heterogeneous :
  engine:Sim.Engine.t ->
  tree:Tree.t ->
  delays:float array ->
  ?bandwidth_bps:float ->
  unit ->
  t
(** Per-link delays, indexed by link (= child node) id; entry 0 unused. *)

val engine : t -> Sim.Engine.t

val tree : t -> Tree.t

val cost : t -> Cost.t

val counters : t -> Stats.Counters.t
(** The send tally every protocol group reads. The prologue bumps the
    sender's row after the enabled check, so a crashed or departed
    member's send counts nothing; data packets are not counted, nor
    is a shard's replay, so merged shard tallies equal the serial one. *)

val link_delay : t -> int -> float

val dist : t -> int -> int -> float
(** True one-way latency between two nodes (sum of link delays),
    bit-identical to {!Tree.dist}; allocates nothing per hop. *)

val rtt : t -> int -> int -> float

val set_drop : t -> (link:int -> down:bool -> Packet.t -> bool) -> unit
(** Install the loss-injection predicate. [down] is true when the
    packet is traversing the link away from the root. Return [true] to
    drop. The default predicate drops nothing. It runs inside a walk,
    which keeps its state in per-network scratch arrays, so it must
    not call back into this network. *)

val on_receive : t -> int -> (Packet.t -> unit) -> unit
(** Register node [v]'s delivery handler. Only registered nodes receive
    packets; interior routers just forward. *)

val multicast : t -> from:int -> Packet.t -> unit
(** Flood to the whole group. *)

val unicast : t -> from:int -> dst:int -> Packet.t -> unit

val subcast : t -> from:int -> root:int -> ?scope:(int -> bool) -> Packet.t -> unit
(** Unicast the packet from [from] to the router [root], then flood
    [root]'s subtree: the uphill leg is charged as unicast crossings,
    the downhill flood as subcast crossings. A sender inside the
    subtree does not hear its own packet; a sender that is [root]
    floods its subtree directly. [scope] keeps only the branches it
    accepts (the root included); it must be {e ancestry-closed} inside
    [root]'s subtree — an out-of-scope node may not have in-scope
    descendants — which lets rejected branches be pruned whole, and
    recovery-domain chains (see [lib/domain]) satisfy this by
    construction. A scoped subcast is not available in shard mode
    ({!enable_shard}); domain-scoped runs use the serial engine.
    @raise Invalid_argument for a scoped subcast in shard mode. *)

val add_tap : t -> (from:int -> Packet.t -> unit) -> unit
(** Install a passive observer invoked once per packet {e sent} (any
    cast mode), before delivery is computed; it has no effect on
    behaviour. Composes with any tap already installed (which keeps
    running, first), so the protocol auditor, the {!Obs} tracer and the
    fault oracle observe the same run. *)

val publish_metrics : t -> Obs.Registry.t -> unit
(** Snapshot this network's totals into the registry under the
    ["net/"] prefix (pull-based; see {!Obs.Registry}): {!publish_totals}
    of its {!cost}, {!packets_delivered} and {!churn_counts}. *)

val publish_totals :
  Obs.Registry.t -> Cost.t -> delivered:int -> churn:(int * int) option -> unit
(** The ["net/"] totals: the delivery count, the link-crossing totals
    the cost table derives, and, given [churn = Some (joins, leaves)],
    the membership counts (absent from churn-free registries). The
    coordinator of a sharded run calls it on the merged cost table and
    delivery count. *)

val set_enabled : t -> int -> bool -> unit
(** Crash or revive a member: a disabled node receives no deliveries
    and its own transmissions are silently discarded, so a crashed
    host's lingering timers cannot reach the network. The enabled flag
    is re-checked when a queued delivery fires, so a host that crashes
    while a packet is in flight does not process it on arrival. Routers
    cannot be disabled (forwarding is topology, not host, behaviour). *)

(** {2 Membership layer (dynamic join/leave/rejoin)}

    Dynamic group membership compiled from a fault plan's churn events
    (see [lib/fault]). Like the perturbation layer, the state is
    allocated on first use: a network with no membership changes runs
    the original static-group code path bit-identically. Membership
    delegates packet semantics to the enabled flag — a non-member
    neither receives casts nor gets its own transmissions onto the
    network — and additionally flips {!is_member}, which the oracle
    and the protocol layers consult to distinguish {e departed} (soft
    state dropped, losses forgiven) from {e crashed} (state suspended,
    recovery resumes on restart). Only leaf members can change
    membership; routers always forward. *)

val set_member : ?count:bool -> t -> int -> bool -> unit
(** Add or remove node [v] from the group. Implies
    [set_enabled t v flag]. Each effective transition bumps the join or
    leave count of {!churn_counts} unless [~count:false]
    (used for a late joiner's initial exclusion, which is a starting
    condition rather than a churn event). *)

val is_member : t -> int -> bool
(** [true] for every node until {!set_member} is first used. A crashed
    member ([set_enabled _ _ false]) is still a member. *)

val churn_counts : t -> (int * int) option
(** [Some (joins, leaves)], the effective transitions {!set_member}
    counted, once a membership layer is installed (any churn occurred or
    a plan excluded a late joiner at start); [None] before. *)

(** {2 Perturbation layer (fault injection)}

    Timed windows compiled from a {e fault plan} (see [lib/fault]).
    Windows are matched against the time a packet {e starts crossing}
    the link — not the send time of the flood — so an outage beginning
    after a packet was sent still swallows the crossings scheduled to
    happen inside it (the mid-flight case). A network with no windows
    installed runs the original unperturbed code path; installing the
    first window splits one generator off the engine RNG (for jitter
    sampling), so unfaulted runs remain bit-identical to the seed. *)

val perturbed : t -> bool

val add_link_down : t -> link:int -> from_:float -> until:float -> unit
(** The link drops every crossing (both directions) whose crossing time
    falls in [\[from_, until)].
    @raise Invalid_argument on a bad link id or window. *)

val add_link_jitter : t -> link:int -> from_:float -> until:float -> max_jitter:float -> unit
(** Crossings starting inside the window arrive up to [max_jitter]
    seconds late (uniform); jitter beyond the inter-packet gap reorders
    packets on the link. *)

val add_link_dup : t -> link:int -> from_:float -> until:float -> unit
(** Crossings starting inside the window deliver a second copy of the
    packet at the entered node one extra propagation delay later (a
    last-hop duplicate; the copy is not re-forwarded). *)

val link_is_down : t -> link:int -> at:float -> bool
(** Whether an installed outage window covers time [at]. *)

val is_enabled : t -> int -> bool

val packets_delivered : t -> int
(** Total handler invocations, for sanity checks. *)

(** {2 Shard mode (conservative PDES)}

    A sharded run replicates the {e network} on every worker — full
    tree, link state, perturbation windows — but partitions the
    {e hosts}: each shard installs delivery handlers only for the
    members it owns ({!Partition}). A cast of a data packet — the
    source's paced stream — is statically replicated: every shard's
    source issues it at the same simulation time and walks it locally,
    so FIFO link reservations stay identical everywhere with no
    exchange. Every other origin cast is tallied in its sender's row
    ({!counters}) and buffered as an {!emit} and replayed by all other
    shards ({!apply_emit}) at the next conservative sync window, through
    the same walk the origin took; replays tally the crossings into
    nodes the replaying shard owns, so summing per-shard {!Cost}
    tables ({!Cost.merge}) and send tallies ([Stats.Counters.merge])
    reproduces the serial totals exactly.

    Pruning: non-FIFO flood walks skip whole branches holding none of
    the shard's nodes — the source of the parallel speedup — while the
    pure loss predicate guarantees every shard sees identical drop
    decisions on the branches it does walk. *)

type emit = {
  e_at : float;  (** origin send time *)
  e_from : int;
  e_idx : int;  (** per-shard monotone counter; orders same-time ties *)
  e_cast : Cost.cast;
  e_to : int;  (** the unicast destination or subcast root; [e_from] for a multicast *)
  e_packet : Packet.t;
  e_disabled : int list;  (** members disabled at origin send time *)
}

val enable_shard : t -> partition:Partition.t -> me:int -> observe:bool -> unit
(** Switch this network into shard mode as shard [me] of [partition].
    Must be called before any handlers are installed or packets sent.
    [observe] marks the primary shard: it additionally records the tap
    stream ({!take_observations}) for the run's invariant checker. *)

val owns : t -> int -> bool
(** Whether node [v] belongs to this shard ([true] in serial mode). *)

val take_emits : t -> emit list
(** Drain the buffered origin casts since the last call, in execution
    order. The sync layer distributes these to the other shards. *)

val take_observations : t -> emit list
(** Primary shard only: drain the locally recorded tap stream (origin
    and replicated casts) since the last call, in execution order. *)

val apply_emit : t -> emit -> unit
(** Replay a remote shard's origin cast through the walk every cast
    takes. Safe only once the engine has advanced past [e_at]
    (conservative synchronisation guarantees all resulting arrivals are
    at or beyond the current barrier). *)

val delivery_rank : t -> (float * int * int * int) option
(** Shard mode, during a delivery handler: [(at, from, idx, pos)] — the
    cast key of the walk whose delivery is firing plus the delivered
    node's index in the unpruned, drop-free multicast walk from [from]
    (see {e Walk order} above; [-1] for [from] itself). Sorting
    same-[recovered_at] records by this rank reconstructs the serial
    engine's FIFO execution order among equal-time deliveries, which is
    what makes merged per-shard recovery streams byte-identical to a
    serial run. [None] in serial mode or outside a delivery. Cast keys
    are globally consistent: origin casts carry their emit's
    [(e_at, e_from, e_idx)], replicated source casts a dedicated
    every-shard counter encoded as [-2 - i]. *)
