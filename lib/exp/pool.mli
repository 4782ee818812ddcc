(** A fork-based worker pool over {!Ipc.Chan}.

    [map f n] evaluates [f 0 .. f (n-1)] across forked worker processes
    and returns the results in index order. Each worker is an
    [Ipc.Chan.fork] endpoint: the parent sends it a shard index, the
    worker answers with [f]'s value as one [Marshal] message, and the
    parent [select]s on the replies, so a slow shard never blocks
    dispatch to idle workers.

    Failure: when an [f] raises or a worker dies, the map stops, kills
    and reaps every worker, and raises one [Failure] that names the
    shard. Nothing is retried: a shard is a pure function of its index,
    so a second attempt would fail the same way.

    With [jobs <= 1], on platforms without [fork], or when [n <= 1],
    the pool runs in-process — same results, no processes, and the same
    [Failure] for an [f] that raises. *)

val available : bool
(** Whether processes can fork here (false on Windows). *)

val resolve_jobs : int option -> int
(** Worker-count policy shared by every [?jobs]-taking entry point:
    [None] and [Some 0] auto-detect
    [Domain.recommended_domain_count ()], at least 1 ([--jobs 0] is
    the CLI spelling); anything else is clamped to at least 1. *)

val map :
  ?jobs:int ->
  ?on_result:(index:int -> done_:int -> total:int -> unit) ->
  (int -> 'a) ->
  int ->
  'a array
(** [map ?jobs ?on_result f n] forks [min jobs n] workers. [jobs]
    defaults to, and [0] means, the auto-detection of {!resolve_jobs}.
    [on_result] fires in the parent as each shard completes (arrival
    order). Results may hold closures (see {!Ipc.Chan.send}). SIGPIPE is
    ignored while workers run and restored afterwards.
    @raise Failure ["Pool: shard i failed: ..."] when [f i] raises or
    the worker running shard [i] dies.
    @raise Invalid_argument on negative [n]. *)
