(** Conservative parallel discrete-event simulation (PDES) primitives.

    The engine-level half of the sharded simulator (DESIGN.md §13):
    barrier algebra and the per-worker window loop. The domain-specific
    half — tree partitioning, cross-shard packet exchange, artifact
    merging — lives with the network ({!Net.Partition}, the shard mode
    of [Net.Network]) and the harness ([Harness.Parallel]).

    The synchronisation protocol is the classic conservative barrier
    scheme: with lookahead [L] (the minimum delay of any cut link, so
    any event executed at time [t] on one shard can affect another no
    earlier than [t +. L]), a coordinator repeatedly computes a global
    lower bound [G] on any still-unexecuted event anywhere, grants every
    worker the window [\[.., G +. L)], and exchanges the cross-shard
    sends each worker produced. Every granted barrier is safe by
    induction: a remote send from inside the previous window lands at
    or after the barrier that window ran to, so replaying it at window
    start never schedules into a shard's past. *)

(** Aggregate synchronisation counters, kept by the coordinator and
    published under the ["pdes/"] registry prefix. *)
module Stats : sig
  type t = {
    mutable windows : int;  (** barrier rounds granted *)
    mutable null_windows : int;  (** rounds exchanging no packets *)
    mutable cross_packets : int;  (** cross-shard packet volume *)
  }

  val create : unit -> t

  val publish :
    ?max_shard_events:int -> t -> shards:int -> lookahead:float -> Obs.Registry.t -> unit
  (** Record the counters (plus the shard count and lookahead) as
      ["pdes/windows"], ["pdes/null_messages"],
      ["pdes/cross_shard_packets"], ["pdes/shards"] and
      ["pdes/lookahead_s"]. [max_shard_events]
      (the busiest worker's executed-event count, under
      ["pdes/max_shard_events"]) is the load-balance figure: the
      multi-core speedup ceiling is serial events over it. *)
end

val next_barrier :
  lookahead:float -> nexts:float list -> emit_horizons:float list -> float
(** [next_barrier ~lookahead ~nexts ~emit_horizons] is [G +. L]: [G] is
    the least of every shard's next pending event time ([nexts],
    [infinity] for an idle shard) and of every just-collected emit's
    earliest possible remote effect ([emit_horizons], already
    [t +. L]); no unexecuted event anywhere lies below [G], so every
    shard may safely run strictly past [G] up to [G +. L). The bound
    adapts: an idle stretch is crossed in one round. *)

val run_window : Engine.t -> barrier:float -> horizon:float -> float
(** Execute every pending event with time [< barrier] and [<= horizon]
    (the horizon end is inclusive, matching [Engine.run ~until]).
    Returns the next pending event time after the window, [infinity] if
    none — the worker's contribution to the coordinator's next [G]. *)
