(** Hierarchical local recovery domains over a multicast tree.

    SRM's global request/repair exchange is its core scaling flaw on
    deep topologies: every control packet traverses the whole tree, so
    recovery makespan grows with tree depth. This module partitions the
    tree into {e recovery domains} — connected, rooted subtree regions
    holding a bounded number of group members — and elects one
    {e designated replier} per domain (the member closest to the
    source). Recovery then runs domain-first: requests and repairs are
    scoped to the requestor's own domain and only {e escalate} to the
    parent domain after a bounded number of unanswered local rounds,
    climbing the domain chain until the root domain (which contains the
    source, so escalation always terminates with a member that has the
    packet).

    Domains are built bottom-up: walking the tree deepest-first, a
    domain is closed at the first node whose open region has
    accumulated [max_members] members; its whole unassigned subtree
    becomes the domain. Each domain is therefore a connected subtree
    region, its root's parent node (if any) belongs to the parent
    domain, and a member's path to its domain root stays inside the
    domain. The {e chain} of a domain — itself, its parent, up to the
    root domain — gives the escalation ladder, and the union of a
    chain prefix is ancestry-closed inside the prefix's topmost root:
    exactly the property {!Net.Network.scoped_cast} needs for O(1)
    branch pruning.

    The module is pure topology: building a map draws no randomness
    and schedules nothing, so runs without domains are untouched. *)

type t

type spec =
  | Auto  (** bound each domain at [max 8 (sqrt n_members)] members *)
  | Max_members of int  (** explicit per-domain member bound, [>= 1] *)

val auto_members : n_members:int -> int
(** The [Auto] bound: [max 8 (sqrt n_members)] — domain count and
    domain size grow together, so neither the local exchange nor the
    escalation ladder dominates. *)

val spec_members : n_members:int -> spec -> int
(** The per-domain member bound a spec resolves to for a group of
    [n_members]. *)

val build : tree:Net.Tree.t -> members:int array -> max_members:int -> t
(** Partition [tree] into recovery domains of at most [max_members]
    members each (the root domain can be smaller). [members] are the
    group-member node ids.
    @raise Invalid_argument if [max_members < 1] or a member id is out
    of range. *)

val of_tree : tree:Net.Tree.t -> spec -> t
(** {!build} with the standard member set (the source, node 0, plus
    every leaf receiver). *)

val tree : t -> Net.Tree.t

val max_members : t -> int

val n_domains : t -> int

val dom_of : t -> int -> int
(** The domain holding a node (routers included). *)

val root_of : t -> int -> int
(** A domain's root node (the topmost node of its subtree region). *)

val parent_of : t -> int -> int
(** A domain's parent domain, [-1] for the root domain. *)

val replier : t -> int -> int
(** A domain's designated replier: the member closest to the source
    (minimum tree depth, smallest id on ties). The root domain's
    replier is the source itself. *)

val is_replier : t -> int -> bool
(** Whether a node is some domain's designated replier. *)

val level : t -> int -> int
(** A domain's depth in the domain tree (root domain = 0). *)

val size : t -> int -> int
(** Member count of a domain. *)

val max_level : t -> dom:int -> int
(** Highest escalation level from [dom]: the length of its chain to
    the root domain. Levels beyond it clamp. *)

val scope_domain : t -> dom:int -> level:int -> int
(** The domain targeted at escalation [level] from [dom]: the
    [level]-th ancestor on the chain (clamped to the root domain). *)

val scope_root : t -> dom:int -> level:int -> int
(** Root node of {!scope_domain} — the node a scoped cast floods
    from. *)

val in_scope : t -> dom:int -> level:int -> int -> bool
(** Whether a node lies in the escalation scope — the union of the
    chain domains [0 .. level] from [dom]. Ancestry-closed inside
    {!scope_root}'s subtree, so {!Net.Network.scoped_cast} may prune
    rejected branches whole. O(1). *)

val request_target : t -> node:int -> level:int -> int
(** The peer a requestor at [node] aims its escalation-[level] request
    timer at: the designated replier of the level's chain domain,
    skipping itself up the chain (falling back to the source). The
    request timer's distance term uses this peer instead of the
    source, so local rounds fire on local round-trip times. *)
