(** Lazy per-link Gilbert loss chains for streaming traces.

    Replays exactly the bits [Generator.simulate_links] would
    materialize — same per-link models, same [Sim.Rng.split] order,
    same record-then-step trajectory as {!Gilbert.run} — but produces
    them on demand, keeping memory at O(links · lookback) instead of
    O(links · packets). Intended to back the drop predicate of a
    {!Trace.create_streaming} run. *)

type t

val create :
  ?lookback:int ->
  tree:Net.Tree.t ->
  rates:float array ->
  bursts:float array ->
  rng:Sim.Rng.t ->
  n_packets:int ->
  unit ->
  t
(** [rates] and [bursts] are indexed by node id; link [l] is the edge
    from [l]'s parent down to [l] (node 0, the root, has no uplink).
    Chains are seeded by [Sim.Rng.split rng] in ascending link order —
    callers must hand over the rng at the same point in the draw
    sequence where [Generator.simulate_links] would consume it. *)

val n_packets : t -> int

val lost : t -> link:int -> seq:int -> bool
(** Whether the link is Bad for (1-based) data packet [seq]. Queries
    per link must stay within [lookback] of the highest seq asked so
    far; older queries raise [Invalid_argument], as do link 0 /
    out-of-range arguments. *)
