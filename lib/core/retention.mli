(** Replier-cache retention policies.

    The paper's cache keeps the tuples of the most recent recovered
    packets and evicts the least recent one when full (Section 3.1) —
    that is {!Recent}, the default, and the {!Cache} goldens pin it
    bit-for-bit. The alternatives probe the classic recency /
    frequency / decay trade-off (Jain's destination-locality playbook)
    under workloads whose loss locality shifts faster than packet
    recency can track:

    - {!Lru}: k-entry true-LRU — recency of {e use} (a policy hit or a
      reply digest refreshes an entry), not of packet seq. Eviction
      drops the least recently used tuple; ranking presents the most
      recently used one first.
    - {!Ttl}: the paper's scheme plus a virtual-time horizon — entries
      older than the horizon are purged on every lookup and digest, so
      a cache gone quiet empties instead of volunteering stale pairs.
    - {!Hotspot}: per-(requestor, replier) exponential-decay score: a
      digest naming the pair bumps its score after decaying it by the
      inter-arrival gap ([score ← score·2^(-Δt/half_life) + 1]).
      Eviction drops the coldest pair's tuple; ranking presents the
      hottest pair's most recent tuple first, so selection rides
      long-lived pair locality rather than last-event recency. *)

type scheme =
  | Recent  (** the paper's keep-most-recent / evict-least-recent *)
  | Lru  (** true-LRU on use recency *)
  | Ttl of float  (** horizon in virtual seconds *)
  | Hotspot of float  (** pair-score half-life in virtual seconds *)

type t = {
  scheme : scheme;
  capacity : int option;
      (** entries per cache; [None] = the host's default of 16 — e.g.
          the paper's 1-entry baseline is [{ scheme = Recent; capacity = Some 1 }] *)
}

val default : t
(** [Recent] with no capacity override — byte-identical to the
    pre-policy cache. *)

val default_ttl : float
(** Horizon used by the bare ["ttl"] name: 2 s of virtual time. *)

val default_half_life : float
(** Half-life used by the bare ["hotspot"] name: 1 s of virtual time. *)

val is_default : t -> bool

val name : t -> string
(** Canonical name, round-tripping through {!of_name}:
    ["recent" | "lru" | "ttl[=H]" | "hotspot[=H]"], with [":K"]
    appended when a capacity override is set. Parameters equal to the
    defaults are omitted. *)

val of_name : string -> t option
(** Parse [SCHEME[=PARAM][:CAPACITY]]; [None] on anything malformed
    (unknown scheme, non-positive parameter or capacity). *)

val scheme_label : scheme -> string
(** The bare scheme name (no parameters), for metric keys. *)

val all_names : string list

val names_doc : string
(** One-line syntax summary for CLI help. *)
