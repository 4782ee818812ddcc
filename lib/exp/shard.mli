(** Execution of one sweep shard (= one {!Spec.cell}).

    A shard synthesizes its cell's trace with the cell's derived seed,
    runs the cell's protocol on it ({!Harness.Runner.run_leg}) and
    returns the outcome as values: the cell's self-describing JSON row
    (headline counts, per-kind packet counters, cost-overhead
    crossings, a per-receiver recovery table) and its four
    recovery-latency histograms, which {!Sweep.run} merges. {!Pool.map}
    carries both from a worker to the parent as they are.

    The result is a pure function of [(spec, cell)] — no wall-clock or
    pid leaks into it — which is what makes serial and parallel sweeps
    byte-identical. *)

val hist_names : string list
(** The recovery histograms a shard carries (and {!Sweep.run}
    merges): ["latency_s"], ["latency_rtt"], ["latency_rtt_expedited"],
    ["latency_rtt_fallback"] — the {!Harness.Instrument} registry
    names without their ["recovery/"] prefix. *)

type t = { row : Obs.Json.t; hists : (string * Obs.Hist.t) list }
(** The cell's row and its histograms, keyed by {!hist_names}. *)

val run : ?shards:int -> Spec.t -> Spec.cell -> t
(** [shards] executes the cell's run sharded
    ([Harness.Runner.run_leg ?shards]); the result is identical for
    any value, so it is a runtime knob, not part of the spec.
    Everything that changes results — recovery domains included —
    comes from the spec. *)
