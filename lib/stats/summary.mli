(** Streaming univariate summaries (Welford) with optional exact
    percentiles from retained samples. *)

type t

val create : ?keep_samples:bool -> unit -> t
(** With [keep_samples] (default true) every observation is retained so
    percentiles are exact; disable for very long streams — moments stay
    exact and percentiles fall back to a log-bucketed {!Obs.Hist}
    sketch (bounded relative error, see its docs). *)

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0 when empty. *)

val variance : t -> float
(** Unbiased sample variance; 0 with fewer than two observations. *)

val min : t -> float
(** +inf when empty. *)

val max : t -> float
(** -inf when empty. *)

val total : t -> float

val percentile : t -> float -> float
(** [percentile t 0.5] is the median — the observation of 0-based rank
    [round (q (n-1))], exact over retained samples and otherwise
    sketch-approximated at that same rank. [q = 0] and [q = 1] are the
    extremes; a single-sample summary returns that sample for every
    [q]; duplicates are handled like any adjacent equal ranks. Returns
    [nan] when the summary is empty.
    @raise Invalid_argument if [q] is NaN or outside [0, 1]. *)

val merge : t -> t -> t
(** Combine two summaries (samples concatenated if both retained). *)
