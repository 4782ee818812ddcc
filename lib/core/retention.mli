(** Replier-cache retention schemes: the one lever for which cached
    requestor/replier pair CESRM expedites through.

    The paper's cache keeps the tuples of the most recent recovered
    packets and evicts the least recent one when full (Section 3.1);
    its evaluation picks the most recent pair (Section 3.2). That is
    {!Recent}, the default, and the {!Cache} goldens pin it
    bit-for-bit. The alternatives trade recency against frequency, as
    in Jain's comparison of LRU and frequency caches under
    destination-address locality:

    - {!Lru}: k-entry true-LRU — recency of {e use} (a choice acted on
      or a reply digest refreshes an entry), not of packet seq.
      Eviction drops the least recently used tuple; ranking presents
      the most recently used one first.
    - {!Hotspot}: per-(requestor, replier) exponential-decay score: a
      digest naming the pair bumps its score after decaying it by the
      inter-arrival gap ([score ← score·2^(-Δt/half_life) + 1]).
      Eviction drops the coldest pair's tuple; ranking presents the
      hottest pair's most recent tuple first, so selection rides
      long-lived pair locality rather than last-event recency. An
      infinite half-life never decays, so the score counts digests:
      [hotspot=inf] is the paper's {e most frequent} pair.

    Whatever the scheme, {!Cache.choose} takes its best-ranked pair
    whose replier is live. *)

type scheme =
  | Recent  (** the paper's keep-most-recent / evict-least-recent *)
  | Lru  (** true-LRU on use recency *)
  | Hotspot of float  (** pair-score half-life in virtual seconds; [infinity] = no decay *)

type t = {
  scheme : scheme;
  capacity : int option;
      (** entries per cache; [None] = the host's default of 16 — e.g.
          the paper's 1-entry baseline is [{ scheme = Recent; capacity = Some 1 }] *)
}

val default : t
(** [Recent] with no capacity override — byte-identical to the
    pre-retention cache. *)

val is_default : t -> bool

val name : t -> string
(** Canonical name, round-tripping through {!of_name}:
    ["recent" | "lru" | "hotspot[=H]"], with [":K"] appended when a
    capacity override is set. A half-life equal to the default is
    omitted; an infinite one prints as ["hotspot=inf"]. *)

val of_name : string -> t option
(** Parse [SCHEME[=HALF_LIFE][:CAPACITY]]; [None] on anything
    malformed (unknown scheme, a parameter on a scheme that takes none,
    non-positive half-life or capacity). *)

val scheme_label : scheme -> string
(** The bare scheme name (no parameters), for metric keys. *)

val all_names : string list
(** One name per kind of ranking: ["recent"], ["lru"], ["hotspot"] and
    ["hotspot=inf"]. *)

val names_doc : string
(** One-line syntax summary for CLI help. *)
