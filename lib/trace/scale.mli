(** Synthetic scale scenarios: 256–10 000-receiver topologies the
    Yajnik trace table ({!Meta}) does not reach.

    A scale scenario is named ["SCALE-<family>-<n_receivers>"], where
    [family] is one of [bf] (bounded-fanout random tree), [ss]
    (star-of-stars), [dc] (deep chain) — see {!Topology_gen} — or one
    of the adversarial cache-thrash families [rh] (rotating hot link)
    and [ps] (phase-shifting loss locality), both on bounded-fanout
    trees. Any receiver count in [8, 100 000] parses, so scenario size
    is a free parameter rather than a fixed catalog.

    A scenario resolves to a synthetic {!Meta.row} (index ≥ 100,
    disjoint from the 14 published rows) that the rest of the stack —
    {!Generator.synthesize}, [Harness.Runner.run_leg], [Exp] sweeps,
    the CLI — consumes exactly like a real trace row. Loss is
    calibrated Gilbert, like the trace rows, but at a deliberately low
    per-receiver fraction — and with the absolute budget frozen at its
    512-receiver level for larger groups: at scale every distinct
    loss event costs an O(n) recovery exchange, so a constant
    per-receiver fraction would make total recovery work quadratic in
    the group. *)

type family =
  | Bounded_fanout of { fanout : int }
  | Star_of_stars of { clusters : int }
  | Deep_chain
  | Rotating_hot of { window : int; pool : int }
      (** [rh]: one hot interior link, migrating round-robin through a
          pool of [pool] links every [window] packets — the loss
          locality a recency-ranked replier cache keeps chasing *)
  | Phase_shift of { window : int }
      (** [ps]: loss locality alternates every [window] packets between
          one shallow interior link [U] (losses shared by everyone
          below it) and the edge links under [U] (losses local to one
          receiver). Edge phases fill the caches below [U] with
          (self, sibling) pairs whose repliers share the [U] cut, so
          every [U]-phase loss mass-fails them under recency ranking —
          the scenario where score-based retention wins *)

val family_of_name : string -> family option
(** [Some family] when the name is a well-formed scale scenario name.
    [None] for anything else (including the published trace names) —
    the dispatch key {!Generator.synthesize} uses to pick the tree
    family. *)

val supports_streaming : family -> bool
(** Whether the family has a streaming loss-chain representation
    ({!Generator.synthesize_streaming}). The adversarial families
    ([rh], [ps]) build windowed Bernoulli schedules eagerly and return
    [false]; the harness keeps them on the eager generator even in
    steady mode. *)

val parse : string -> Meta.row option
(** Resolve a scale scenario name to its synthetic row. *)

val find : string -> Meta.row
(** [find name] resolves scale names via {!parse} and everything else
    via {!Meta.find} — the drop-in lookup for every site that accepts
    trace names. @raise Not_found on unknown non-scale names. *)

val catalog : Meta.row list
(** The standard scenario grid: every family at 256, 1024, 4096 and
    10 000 receivers. Informational (listings, docs); {!parse} accepts
    sizes outside this grid too. *)

val default_fanout : int
(** Fanout of the [bf] family's random trees — also the tree the
    adversarial [rh]/[ps] families are built on (4). *)
