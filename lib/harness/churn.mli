(** Membership-churn robustness (CESRM paper, Sections 3.3 and 5).

    Router-assisted protocols hold replier state in the network; when
    the designated replier leaves or crashes, that state is stale until
    the next soft-state refresh, and recovery in its subtree stalls.
    CESRM's cache adapts by itself: a failed expedited recovery falls
    back on SRM, whose reply repopulates the cache with a live pair.

    The experiment crashes, mid-transmission, the member each protocol
    leans on hardest (for LMS the busiest designated replier; for
    CESRM/SRM the member that served the most retransmissions in a
    crash-free dry run) and compares recovery latency of the surviving
    receivers before and after the crash. *)

val report : ?n_packets:int -> Mtrace.Meta.row -> string
(** The bench section: all three protocols under the crash. *)
