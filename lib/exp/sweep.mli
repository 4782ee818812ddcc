(** One-call sweep: expand a spec, run its shards through the pool,
    aggregate.

    [run spec] is the composition the `cesrm sweep` subcommand and the
    tests share: {!Spec.cells} → {!Pool.map} over {!Shard.run} → one
    fold in shard-index order. Each shard returns its cell row and its
    histograms as values; the fold concatenates the rows (each
    carrying a ["name"] key, the form {!Obs.Diff} aligns across
    artifacts), sums their counts and merges the histograms
    ({!Obs.Hist.merge}, exact), and the artifact is rendered once. It
    is byte-identical for any [jobs] value (including the serial
    fallback), because shards are pure functions of their index. *)

val run :
  ?jobs:int ->
  ?shards:int ->
  ?on_result:(index:int -> done_:int -> total:int -> unit) ->
  ?meta:(string * Obs.Json.t) list ->
  Spec.t ->
  Obs.Json.t
(** The artifact of the spec: a [meta] object (schema tag, caller
    extras, the spec), the per-cell rows, summed totals and the merged
    latency histograms.
    @raise Failure when a shard fails (see {!Pool.map}). [meta]
    extends the artifact's meta object and must stay run-independent
    to preserve byte-identity. [shards] runs each
    cell's simulation sharded over that many PDES workers
    ({!Shard.run}) — total process count is then [jobs * shards]. The
    artifact is byte-identical for any [jobs] and [shards]; the one
    exception is [jobs = 0] (auto-detect), whose resolved worker count
    is recorded under meta ["jobs"] as
    [{"requested": 0, "detected": n}] — explicit counts record nothing,
    keeping the artifact a pure function of the spec. *)
