(** Aggregation of shard results into one sweep artifact.

    {!finalize} folds the shard results in shard-index order, so the
    artifact is a pure function of the result set — the parallel pool
    and the serial loop produce byte-identical bytes. Histograms are
    merged through {!Obs.Hist.of_json}/{!Obs.Hist.merge} (lossless by
    construction), scalar counts are summed, and the per-cell rows —
    each carrying a ["name"] key — are concatenated, which is the form
    {!Obs.Diff} aligns across artifacts. *)

val finalize : ?meta:(string * Obs.Json.t) list -> Spec.t -> Obs.Json.t array -> Obs.Json.t
(** The artifact of [spec] from its shard results, one per cell in
    index order: a [meta] object (schema tag, the spec, caller
    extras), the concatenated per-cell rows (transport histograms
    stripped), summed totals and the merged latency histograms.
    Callers must keep [meta] free of run-dependent values (wall time,
    job count) or forfeit serial/parallel byte-identity. *)
