(** Structured event tracing for protocol runs.

    A trace is a preallocated ring buffer of unboxed event records —
    sim time, node, stream, packed loss key, event kind —
    recorded from the simulator's existing observation seams (the SRM
    host hooks and the network packet tap), so recording never perturbs
    protocol behaviour and a run without a trace attached pays nothing.
    When the ring fills, the oldest events are overwritten and counted
    in {!dropped}.

    {!export_chrome} serializes the buffer as Chrome trace-event JSON
    (the [traceEvents] array format), which opens directly in Perfetto
    or [chrome://tracing]: every event becomes an instant on the
    [pid = node, tid = stream] track, and each
    [Loss_detected → Recovered_*] pair is additionally reconstructed
    into a complete-span event named ["recovery expedited"] or
    ["recovery fallback"], so the expedited-vs-fallback latency gap
    (paper Fig. 2) is visible directly on the timeline. *)

type kind =
  | Loss_detected
  | Request_sent
  | Reply_sent
  | Exp_request_sent
  | Exp_reply_sent
  | Recovered_expedited
  | Recovered_fallback
  | Data_sent
  | Session_sent

val kind_name : kind -> string

type t

val create : ?capacity:int -> unit -> t
(** Ring capacity in events (default 65536, min 16). All storage is
    allocated here; recording allocates nothing. *)

val set_enabled : t -> bool -> unit
(** A disabled trace ignores {!record} calls (a single branch). Traces
    start enabled. *)

val record : t -> at:float -> node:int -> stream:int -> key:int -> kind -> unit
(** Append one event; [at] is sim time in seconds, [key] the packed
    (src, seq) loss key. *)

val recorded : t -> int
(** Events accepted since creation (including since-overwritten ones). *)

val dropped : t -> int
(** Events overwritten after the ring wrapped. *)

val length : t -> int
(** Events currently held. *)

val iter : t -> (at:float -> node:int -> stream:int -> key:int -> kind -> unit) -> unit
(** Oldest to newest. *)

val clear : t -> unit

val to_chrome_json : t -> Json.t
(** The trace as a Chrome trace-event document (object with a
    [traceEvents] array; [ts] in microseconds). *)

val export_chrome : t -> file:string -> unit
