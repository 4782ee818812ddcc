(** Deterministic pseudo-random number generation.

    The simulator must be reproducible: a run is a pure function of its
    seed. We therefore carry our own SplitMix64 generator rather than
    depending on the global [Random] state. SplitMix64 passes BigCrush
    and is trivially splittable, which lets every host derive an
    independent stream from the experiment seed.

    The state is 64 raw bits stored in place, so a draw allocates
    nothing beyond its own result (a float or [int64] returned to
    another module is boxed). Storage does not touch the arithmetic:
    every output is plain SplitMix64 of the seed and the sequence of
    draws, splits and copies, and [test_sim]'s "rng stream golden"
    pins the first outputs of three seeds, a split and a copy. *)

type t
(** A mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator. Distinct seeds yield
    statistically independent streams. *)

val copy : t -> t
(** [copy t] duplicates the generator state; the copy and the original
    then evolve independently. *)

val split : t -> t
(** [split t] derives a new independent generator from [t], advancing
    [t]. Use one split per host / per experiment leg. *)

val substream : int64 -> int -> int64
(** [substream base i] is the seed the [i]-th (0-based) {!split} of a
    generator created from [base] would start from — a pure function of
    [(base, i)], used to derive per-shard experiment seeds that are
    independent of shard scheduling order.
    @raise Invalid_argument on a negative [i]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val bits53 : t -> int
(** The top 53 bits of the next {!bits64} output, in [\[0, 2^53)]: the
    draw behind {!float}, {!uniform} and {!bernoulli}, which scale
    [Float.of_int (bits53 t) *. 0x1p-53]. An immediate int, so a caller
    that scales it in place (the SRM host's timer draws) allocates
    nothing, where a float returned from this module is boxed. *)

val float : t -> float -> float
(** [float t b] is uniform in [\[0, b)]. [b] must be positive. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]:
    [lo +. (Float.of_int (bits53 t) *. 0x1p-53 *. (hi -. lo))]. Requires
    [lo <= hi]; returns [lo] when the interval is empty, without
    drawing. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. [n] must be positive. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential with the given mean. *)

val log_uniform : t -> float -> float -> float
(** [log_uniform t lo hi] samples log-uniformly in [\[lo, hi)];
    both bounds must be positive. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
