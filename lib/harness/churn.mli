(** Membership-churn robustness (CESRM paper, Sections 3.3 and 5).

    Router-assisted protocols hold replier state in the network; when
    the designated replier leaves or crashes, that state is stale until
    the next soft-state refresh, and recovery in its subtree stalls.
    CESRM's cache adapts by itself: a failed expedited recovery falls
    back on SRM, whose reply repopulates the cache with a live pair.

    The experiment crashes, mid-transmission, the member each protocol
    leans on hardest (for LMS the busiest designated replier; for
    CESRM/SRM the member that served the most retransmissions in a
    crash-free {!Runner.run_model} of the same inputs) and compares
    recovery latency of the surviving receivers before and after the
    crash. Each crash run is a {!Run_types.build} of the row's
    {!Runner.inputs} under {!Runner.default_setup}, with no fault plan,
    plus one timer that disables the crashed member. *)

type phase = {
  mean_latency : float;
  p99_latency : float;
  max_latency : float;
}
(** Recovery latencies (seconds) of the surviving receivers' losses
    detected before, or at and after, the crash; all 0 when there are
    none. *)

type outcome = {
  label : string;  (** {!Runner.protocol_name} *)
  crashed : int;  (** the node that crashed *)
  before : phase;
  after : phase;
  unrecovered_alive : int;
      (** losses the surviving receivers detected but never recovered *)
}

val outcomes : ?n_packets:int -> Mtrace.Meta.row -> float * outcome list
(** The crash time (warmup plus half the data phase) and the outcomes
    of SRM, CESRM and LMS, in that order, on the row's trace truncated
    to [n_packets]. *)

val report : ?n_packets:int -> Mtrace.Meta.row -> string
(** The bench section: {!outcomes} as a table. *)
