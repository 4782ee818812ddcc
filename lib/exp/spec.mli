(** Declarative experiment descriptions.

    A spec names the axes of a sweep — Table 1 traces × protocol
    variants × seeds — plus the shared run parameters; {!cells} expands
    the cartesian product into an ordered shard list. Every cell's
    generator/run seed is derived deterministically from the spec's
    base seed with {!Sim.Rng.substream}, keyed by (trace, seed index)
    but {e not} by protocol, so the protocol variants of one cell group
    re-enact the identical synthesized trace — the property the paper's
    SRM-vs-CESRM comparison rests on.

    Specs serialize to/from {!Obs.Json}, so a sweep is reproducible
    from its artifact alone. *)

type t = {
  name : string;  (** free-form label, recorded in the artifact *)
  traces : string list;
      (** Table 1 trace names, plus [SCALE-<family>-<n>] synthetic
          scale scenarios ({!Mtrace.Scale}) *)
  protocols : Harness.Runner.protocol list;
  base_seed : int64;
  n_seeds : int;  (** seeds axis: seed indices 0 .. n_seeds-1 *)
  n_packets : int option;  (** per-trace truncation; [None] = full row *)
  link_delay_ms : float;
  lossy_recovery : bool;
  faults : string list;
      (** optional faults axis: canned {!Fault.Plan} names and/or
          ["none"] for the unfaulted baseline; [[]] = no axis (the
          pre-faults enumeration, bit for bit) *)
  domains : Rdomain.spec option;
      (** every cell runs under hierarchical local recovery domains
          ({!Harness.Runner.run_model}); serialized as
          ["domains": "auto" | k] and omitted when [None], so flat
          artifacts keep their bytes *)
}

val default : t
(** The featured 6 traces × (SRM, default CESRM) × 1 seed, full packet
    counts, 20 ms links, lossless recovery, base seed 42, no faults
    axis, flat recovery. *)

val validate : t -> (t, string) result
(** Reject unknown trace names, empty axes, non-positive parameters,
    unknown fault-plan names, and any protocol × faults-axis entry
    whose lever combination {!Harness.Runner.rejected} names (e.g. LMS
    with [domains] or under a fault plan) — before any cell runs. *)

type cell = {
  index : int;  (** position in {!cells} — the shard id *)
  trace : string;
  protocol : Harness.Runner.protocol;
  seed_index : int;
  seed : int64;  (** derived; shared by all protocols of a cell group *)
  fault : string option;
      (** the faults-axis slot ([Some "none"] = explicit baseline);
          [None] iff the spec has no faults axis *)
}

val cells : t -> cell array
(** Cartesian expansion, trace-major then seed then fault then
    protocol, so the protocol variants sharing a synthesized trace and
    fault schedule are adjacent. Seeds are keyed by (trace, seed index)
    only — every fault variant replays the identical trace, making
    cross-fault comparisons paired too. *)

val cell_label : cell -> string
(** ["<trace>/<protocol>/s<seed_index>[/<fault>]"] — unique within a
    spec, used as the ["name"] key {!Obs.Diff} aligns artifact rows
    by. *)

val to_json : t -> Obs.Json.t

val of_json : Obs.Json.t -> (t, string) result
(** Parse and {!validate}. Seeds are encoded as decimal strings (JSON
    numbers are doubles and cannot carry an int64). *)
