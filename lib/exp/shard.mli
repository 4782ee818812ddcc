(** Execution of one sweep shard (= one {!Spec.cell}).

    A shard synthesizes its cell's trace with the cell's derived seed,
    runs the cell's protocol on it ({!Harness.Runner.run_leg}) and
    renders the outcome as a self-describing JSON object: headline
    counts, per-kind packet counters, cost-overhead crossings, a
    per-receiver recovery table, and the four recovery-latency
    histograms in {!Obs.Hist.to_json} transport form so the aggregator
    can merge them losslessly.

    The result is a pure function of [(spec, cell)] — no wall-clock or
    pid leaks into it — which is what makes serial and parallel sweeps
    byte-identical. *)

val hist_names : string list
(** The recovery histograms a shard carries (and {!Agg} merges):
    ["latency_s"], ["latency_rtt"], ["latency_rtt_expedited"],
    ["latency_rtt_fallback"] — the {!Harness.Instrument} registry
    names without their ["recovery/"] prefix. *)

val run : ?shards:int -> Spec.t -> Spec.cell -> Obs.Json.t
(** [shards] executes the cell's run sharded
    ([Harness.Runner.run_leg ?shards]); the rendered cell is
    byte-identical for any value, so it is a runtime knob, not part of
    the spec. Everything that changes results — recovery domains
    included — comes from the spec. *)

val run_string : ?shards:int -> Spec.t -> Spec.cell -> string
(** [run] rendered compactly — the worker-to-parent transport form. *)
