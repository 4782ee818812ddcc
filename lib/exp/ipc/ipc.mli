(** The one transport between a process and the workers it forks.

    {!Chan} carries length-prefixed [Marshal] messages over a pipe
    pair, and {!Chan.fork} is the repo's one fork site. Both the sweep
    pool ([Exp.Pool]) and the sharded-run coordinator
    ([Harness.Parallel]) speak it; it lives below both so neither
    depends on the other. *)

module Chan : sig
  type t
  (** One endpoint of a bidirectional message channel. *)

  val of_fds : read:Unix.file_descr -> write:Unix.file_descr -> t

  val send : t -> 'a -> unit
  (** Marshal one value, closures included, and write it with its
      length prefix. Closures are safe because the peer is a fork that
      shares this process's code image.
      @raise Sys_error if the peer is gone (with SIGPIPE ignored). *)

  val recv : t -> 'a
  (** Block for the next whole message. Unsafe cast, as with [Marshal]:
      both endpoints must agree on the message type.
      @raise End_of_file if the peer closed the pipe. *)

  val fd : t -> Unix.file_descr
  (** The descriptor {!recv} reads, for [Unix.select]. [recv] reads
      through a buffered channel, so the descriptor only tells the
      whole truth when the peer has at most one message in flight:
      then the buffer is empty between messages, and a [select] on the
      descriptor cannot miss a message already sitting in it. *)

  val close : t -> unit

  val fork : child:(t -> unit) -> t * int
  (** Fork a worker connected by a fresh pipe pair. In the child, runs
      [child] on its endpoint and [_exit]s (never returns); in the
      parent, returns the other endpoint and the child's pid. Buffered
      stdout/stderr are flushed before forking so the child cannot
      replay them. *)

  val reap : int -> unit
  (** [waitpid] swallowing [EINTR]/[ECHILD]. *)
end
