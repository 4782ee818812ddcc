(** Per-loss recovery records.

    One record is produced when a receiver that detected a loss first
    obtains the packet again (via any reply or a late data duplicate).
    Latencies are measured from detection, and the figures normalize
    them by the receiver's RTT to the source, as in the paper. *)

type record = {
  node : int;  (** receiver node id *)
  src : int;  (** the stream the packet belongs to *)
  seq : int;
  detected_at : float;
  recovered_at : float;
  rounds : int;  (** SRM request-timer expirations before recovery *)
  expedited : bool;  (** recovered by an expedited reply *)
  repaired : bool;
      (** recovered by a retransmission (any reply), as opposed to the
          original data packet arriving after detection had already
          fired — deep paths detect in-flight packets via session
          advertisements, and such self-healed records measure the
          transport, not the repair protocol *)
}

val latency : record -> float

type t
(** A collector. *)

val create : unit -> t

val drop_records : t -> unit
(** Steady-state mode: stop retaining per-loss records, and drop any
    already held. {!count} and the default {!latency_summary} keep
    working from O(1) online accumulators (exact moments, sketched
    percentiles); {!records} returns [[]] and a filtered or normalized
    {!latency_summary} is empty. *)

val add : t -> record -> unit

val set_observer : t -> (record -> unit) -> unit
(** Invoke [f] on every subsequent {!add}, after insertion — a run
    with a metrics registry feeds its latency histograms this way, and
    a PDES shard worker tags each record with the delivery rank of
    the walk that produced it ({!Net.Network.delivery_rank}). *)

val count : t -> int

val records : t -> record list
(** In insertion order. *)

val for_node : t -> int -> record list

val latency_summary : ?normalize:(record -> float) -> ?filter:(record -> bool) -> t -> Summary.t
(** Summary of [latency r /. normalize r] over records passing
    [filter]. Without [normalize] or [filter] it is the online summary
    of every latency, added in insertion order (exact moments, sketched
    percentiles), whether or not the records are kept. Passing either
    folds the kept records, so after {!drop_records} it yields an empty
    summary. *)

val retire_spans : t -> upto:int -> unit
(** Steady-state mode: sequence numbers at or below the stability
    horizon can gain no further records, so their per-loss spans are
    final — flush them into the online makespan sketch and drop the
    live entries. Driven by [Steady.Controller]; never called in
    classic runs (where {!makespan_summary} folds live spans
    exactly). *)

val makespan_summary : t -> Summary.t
(** One observation per repaired packet: the time from the loss's
    earliest detection at any member to its latest {e repaired}
    recovery at any member — the {e last-receiver} recovery time, the
    figure a whole-group repair is judged by. Only records with
    [repaired = true] contribute (see {!type:record}); self-healed
    detections are excluded. Exact in classic runs; after
    {!retire_spans} the retired part comes from a bounded-error sketch
    (like {!latency_summary} percentiles after {!drop_records}). *)

val makespan : t -> float
(** [Summary.max (makespan_summary t)] — the single worst last-receiver
    recovery time of the run; 0 when no losses were recovered. *)
