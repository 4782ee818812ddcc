(** Reproduction of every table and figure in the paper's evaluation
    (Section 4), as structured data plus ASCII rendering.

    The expensive part — running both protocols over a trace — is done
    once per trace by {!run_pair}; each figure function is a pure
    extraction over those results. *)

type pair = {
  row : Mtrace.Meta.row;
  trace : Mtrace.Trace.t;
  attribution : Inference.Attribution.t;
  srm : Runner.result;
  cesrm : Runner.result;
}

val run_pair : ?n_packets:int -> Mtrace.Meta.row -> pair
(** A Table 1 row's {!Runner.inputs} (the trace, optionally truncated
    to [n_packets], and its attributed losses), run under SRM and under
    default CESRM with {!Runner.default_setup}.
    @raise Invalid_argument on a row that is not in Table 1. *)

(* -- Table 1 -------------------------------------------------------- *)

val table1 : pair list -> string
(** Published trace characteristics next to the synthetic trace
    realized by the generator (receivers, depth, packets, losses). *)

(* -- Section 4.2 accuracy ------------------------------------------- *)

val attribution_accuracy : pair list -> string
(** Fraction of selected link combinations with posterior > 95% / 98%,
    per trace — the paper's accuracy statistic. *)

(* -- Figures -------------------------------------------------------- *)

type receiver_series = { node : int; srm_value : float; cesrm_value : float }

val figure1_data : pair -> receiver_series list
(** Per-receiver average normalized (RTT-relative) recovery times. *)

val figure1 : pair -> string

val figure2_data : pair -> (int * float) list
(** Per receiver: average normalized non-expedited minus expedited
    recovery time of CESRM (in RTTs); receivers with no expedited or no
    non-expedited recoveries are omitted. *)

val figure2 : pair -> string

type request_counts = {
  rq_node : int;
  srm_rqst : int;
  cesrm_rqst : int;  (** multicast fallback requests *)
  cesrm_exp_rqst : int;  (** unicast expedited requests *)
}

val figure3_data : pair -> request_counts list

val figure3 : pair -> string

type reply_counts = {
  rp_node : int;
  srm_repl : int;
  cesrm_repl : int;
  cesrm_exp_repl : int;
}

val figure4_data : pair -> reply_counts list

val figure4 : pair -> string

val figure5a_data : pair list -> (string * float) list
(** Per trace: percentage of successful expedited recoveries. *)

val figure5a : pair list -> string

type overhead = {
  trace_name : string;
  retrans_pct : float;  (** CESRM retransmission crossings / SRM's, % *)
  control_mc_pct : float;  (** CESRM multicast control / SRM control, % *)
  control_uc_pct : float;  (** CESRM unicast control / SRM control, % *)
}

val figure5b_data : pair list -> overhead list

val figure5b : pair list -> string

val summary : pair list -> string
(** Headline comparison: average recovery-time reduction, retransmission
    ratio, expedited success — the numbers the abstract quotes. *)
