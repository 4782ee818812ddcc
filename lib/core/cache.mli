(** The per-source optimal requestor/replier cache (paper Section 3.1).

    Each receiver caches, for recovered losses, the requestor/replier
    pair that carried out the recovery, as tuples
    [⟨i, q, d̂_qs, r, d̂_rq⟩]. When several pairs arise for the same
    packet (duplicate requests/replies), only the {e optimal} pair is
    kept — the one minimizing the recovery delay [d̂_qs + 2·d̂_rq].

    {e Which} tuples stay resident, and which one is expedited through,
    is the one lever: a {!Retention.scheme} decides ranking and
    eviction, and {!choose} takes the best-ranked pair whose replier is
    live. The default ({!Retention.Recent}) is the paper's scheme —
    keep the most recent packets, evict the least recent one when full,
    ignore replies for packets less recent than everything cached, and
    choose the most recent pair — and is bit-identical to the
    pre-retention cache. See {!Retention} for the LRU and hotspot
    alternatives.

    The cache is a fixed array of [capacity] cells kept in ranking
    order: under [Recent], a digest the cache ignores and a choice
    allocate nothing, and an insert allocates nothing beyond its tuple.

    Timed operations take [?now] (virtual time, default 0); [Lru] ranks
    by it and [Hotspot] decays by it, while the default scheme ignores
    it. *)

type entry = {
  seq : int;  (** the recovered packet *)
  requestor : int;
  d_qs : float;  (** requestor's distance estimate to the source *)
  replier : int;
  d_rq : float;  (** replier's distance estimate to the requestor *)
  turning_point : int option;  (** router-assist annotation, if any *)
}

val recovery_delay : entry -> float
(** [d_qs + 2·d_rq] — the optimality measure. *)

type t

val create : ?retention:Retention.scheme -> capacity:int -> unit -> t
(** [retention] defaults to {!Retention.Recent}.
    @raise Invalid_argument if capacity < 1. *)

val size : t -> int

val note_reply : ?now:float -> t -> entry -> [ `Inserted | `Updated | `Ignored ]
(** Digest a reply's annotation for a loss this receiver suffered.
    Under every scheme a same-seq tuple is replaced only when strictly
    better ([`Updated]) and kept otherwise ([`Ignored]); what differs
    is retention of {e distinct} seqs. [Recent]: insert, evict the
    least recent seq when full, ignore stale seqs on a full cache.
    [Lru]: always insert (evicting the least recently {e used} tuple);
    any digest for a cached seq refreshes its use recency. [Hotspot]:
    always insert (evicting the coldest pair's tuple); every digest
    bumps the named pair's decayed score. *)

val choose : ?now:float -> ?local:(int -> bool) -> live:(int -> bool) -> t -> entry
(** The pair for the next expedited recovery: the best-ranked tuple
    whose replier is [live] — the most recent seq under [Recent], the
    most recently used under [Lru], the hottest pair under [Hotspot]
    (ties toward the higher seq). With [local], a live replier passing
    it is preferred to any other, and the best-ranked live one is the
    fallback. One pass over the cells; with closures built once by the
    caller, the [Recent] and [Lru] passes allocate nothing.
    @raise Not_found if no cached tuple names a live replier. *)

val touch : ?now:float -> t -> seq:int -> unit
(** Record that the chosen pair (the tuple cached for [seq]) was acted
    on — an expedited request is being scheduled. Counts a {!hits};
    under [Lru] also refreshes the tuple's use recency. No-op
    ranking-wise under the other schemes. *)

val entries : ?now:float -> t -> entry list
(** The retention scheme's ranking, best first: packet recency for
    [Recent] (most recent seq first, the seed order), use recency for
    [Lru], decayed pair score for [Hotspot] (ties toward higher seq).
    {!choose} without [local] returns the first of these whose replier
    is live. For inspection; it builds a list. *)

val find : t -> seq:int -> entry option

val clear : t -> unit
(** Empty the cache (crash modelling): tuples and hotspot pair scores
    go; the cumulative {!evictions}/{!hits} counters stay (they are
    end-of-run metrics). *)

val expire_replier : t -> replier:int -> unit
(** Drop every tuple naming [replier]. Retry back-off's last resort
    (Section 3's graceful-degradation story): a replier that keeps
    failing to answer expedited requests — crashed, partitioned — must
    stop being chosen, and with it gone from the cache the next
    SRM-recovered loss repopulates fresh pairs. *)

val evictions : t -> int
(** Capacity-driven removals so far. *)

val hits : t -> int
(** {!touch} count — cached pairs acted on. *)
