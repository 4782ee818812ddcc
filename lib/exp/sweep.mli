(** One-call sweep: expand a spec, run its shards through the pool,
    aggregate.

    [run spec] is the composition the `cesrm sweep` subcommand and the
    tests share: {!Spec.cells} → {!Pool.map} over {!Shard.run_string} →
    {!Agg}. The returned artifact is byte-identical for any [jobs]
    value (including the serial fallback), because shards are pure
    functions of their index and {!Agg.finalize} merges in index
    order. *)

val run :
  ?jobs:int ->
  ?shards:int ->
  ?on_result:(index:int -> done_:int -> total:int -> unit) ->
  ?meta:(string * Obs.Json.t) list ->
  Spec.t ->
  Obs.Json.t
(** @raise Failure when a shard fails (see {!Pool.map}). [meta]
    extends the artifact's meta object and must stay run-independent
    to preserve byte-identity. [shards] runs each
    cell's simulation sharded over that many PDES workers
    ({!Shard.run}) — total process count is then [jobs * shards]. The
    artifact is byte-identical for any [jobs] and [shards]; the one
    exception is [jobs = 0] (auto-detect), whose resolved worker count
    is recorded under meta ["jobs"] as
    [{"requested": 0, "detected": n}] — explicit counts record nothing,
    keeping the artifact a pure function of the spec. *)
