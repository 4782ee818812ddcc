(** Section 3.4: closed-form recovery-latency bounds and their
    comparison against simulation.

    Equation (1): a rough upper bound on the average latency of a
    successful first-round non-expedited recovery,
    [(C1 + C2/2)·d + d + (D1 + D2/2)·d + d].
    Equation (2): an upper bound on a successful expedited recovery,
    [REORDER_DELAY + RTT]. With the default parameters the predicted
    gap is roughly 2.25 RTT. *)

val eq1_bound : Srm.Params.t -> float
(** In units of one-way distance [d]. *)

val eq2_bound : reorder_delay:float -> rtt:float -> float
(** In seconds, for a given RTT bound. *)

val predicted_gap_rtt : Srm.Params.t -> float
(** [(eq1 / 2) − 1] — predicted expedited advantage in RTTs, assuming
    a negligible reorder delay. *)

val measured_first_round : Runner.result -> float
(** Average normalized recovery time ({!Runner.avg_normalized_recovery})
    of first-round non-expedited recoveries. *)

val measured_expedited : Runner.result -> float
(** The same over expedited recoveries. *)

val report : Figures.pair list -> string
(** Bounds vs. measurement, per trace: the paper's claims are that SRM
    first-round averages lie in [1.5, 3.25] RTT and the expedited gap
    in [1, 2.5] RTT. *)
