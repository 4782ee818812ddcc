(** Serialization of a {!Registry} to JSON, alongside the text tables.

    Counters and gauges become numeric leaves; histograms become
    objects carrying count/sum/min/max/mean, the standard latency
    quantiles (p50/p90/p99/p999) and the non-empty buckets, so a
    report is both human-diffable and consumable by {!Diff}. An
    optional [meta] object (git commit, run parameters, …) makes the
    file self-describing. *)

val to_json : ?meta:(string * Json.t) list -> Registry.t -> Json.t

val save : ?meta:(string * Json.t) list -> Registry.t -> file:string -> unit
