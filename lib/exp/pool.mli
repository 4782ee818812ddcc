(** A fork-based worker pool with a shard queue over pipes.

    [map f n] evaluates [f 0 .. f (n-1)] across [jobs] forked worker
    processes and returns the results in index order. Each worker loops
    on a command pipe: the parent writes the next shard index, the
    worker runs [f] and streams back a length-prefixed result frame.
    The parent multiplexes result pipes with [select], so a slow shard
    never blocks dispatch to idle workers.

    Failure handling: a worker that exits, is killed, or overruns the
    per-shard [timeout] (the parent SIGKILLs it) is reaped and
    respawned, and its in-flight shard is re-enqueued, up to [retries]
    extra attempts per shard; an [f] that raises is reported as a frame
    (the worker survives) and counts against the same budget. When a
    shard exhausts its budget, the pool tears down and raises
    [Failure].

    With [jobs <= 1], on platforms without [fork], or when [n <= 1],
    the pool degrades to serial in-process evaluation — same results,
    no processes, and the same retry budget and [Failure] for an [f]
    that raises. Because shards are deterministic functions of their
    index, serial and parallel execution are interchangeable. *)

val available : bool
(** Whether [Unix.fork] works here (false on Windows). *)

val default_jobs : unit -> int
(** Detected online CPU count ([getconf _NPROCESSORS_ONLN]), at
    least 1. *)

val resolve_jobs : int option -> int
(** Worker-count policy shared by every [?jobs]-taking entry point:
    [None] and [Some 0] auto-detect via {!default_jobs} ([--jobs 0] is
    the CLI spelling); anything else is clamped to at least 1. *)

val map :
  ?jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?on_result:(index:int -> done_:int -> total:int -> unit) ->
  (int -> string) ->
  int ->
  string array
(** [map ?jobs ?timeout ?retries f n]. [jobs] defaults to
    {!default_jobs}, and [0] means the same auto-detection (see
    {!resolve_jobs}); [timeout] (seconds, default none) bounds one
    shard attempt's wall clock; [retries] (default 1) is the number of
    extra attempts after a crash/timeout/exception. [on_result] fires
    in the parent as each shard completes (arrival order).
    @raise Failure when a shard fails beyond its retry budget.
    @raise Invalid_argument on negative [n]. *)

val marshal_map : ?jobs:int -> ?timeout:float -> ?retries:int -> (int -> 'a) -> int -> 'a array
(** {!map} for arbitrary result types, transported with [Marshal]
    (closure flag on — safe because forked workers share the parent's
    code image). Serial fallback skips marshalling entirely. *)
