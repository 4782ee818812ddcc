(** Log-bucketed latency histograms (HDR-histogram style).

    A histogram covers the positive reals with octaves [2^e, 2^(e+1))
    split into a fixed number of equal-width sub-buckets, so the
    recorded value's relative quantization error is bounded by
    [1 / sub_buckets] (and the bucket-midpoint representative returned
    by {!quantile} is within half that). Values at or below zero land
    in a dedicated zero bucket whose representative is 0; values beyond
    the covered exponent range clamp into the first / last bucket.

    Recording is allocation-free (an array increment plus min/max/sum
    updates), which is what lets the recovery hot path keep full
    latency distributions instead of retained sample vectors.
    Histograms with the same [sub_buckets] are mergeable. *)

type t

val create : ?sub_buckets:int -> unit -> t
(** [sub_buckets] (default 16, clamped to a power of two in [1, 256])
    sets the per-octave resolution and hence the relative error bound
    [1 / sub_buckets]. *)

val sub_buckets : t -> int

val add : t -> float -> unit
(** Record one observation. NaN observations are counted separately and
    excluded from quantiles. *)

val count : t -> int
(** Observations recorded (NaNs excluded). *)

val nan_count : t -> int

val sum : t -> float

val mean : t -> float
(** 0 when empty. *)

val min : t -> float
(** Exact smallest observation; +inf when empty. *)

val max : t -> float
(** Exact largest observation; -inf when empty. *)

val quantile : t -> float -> float
(** [quantile t q] is the nearest-rank [q]-quantile's bucket
    representative (bucket midpoint), for [q] in [0, 1]; [q <= 0]
    returns the exact minimum and [q >= 1] the exact maximum. Returns
    [nan] when empty.
    @raise Invalid_argument if [q] is NaN. *)

val p50 : t -> float

val p90 : t -> float

val p99 : t -> float

val p999 : t -> float

val merge : t -> t -> t
(** Fresh histogram holding both inputs' observations.
    @raise Invalid_argument on mismatched [sub_buckets]. *)

val iter_buckets : t -> (lo:float -> hi:float -> count:int -> unit) -> unit
(** Non-empty buckets in increasing value order. The zero bucket is
    reported as [lo = hi = 0]. *)

val to_json : t -> Json.t
(** Self-describing JSON for reports and {!Diff}: derived summary
    fields (count, mean, min, max, standard quantiles) plus the sparse
    bucket counts. An output format only: histograms cross process
    boundaries as values (see [Exp.Pool]). *)
