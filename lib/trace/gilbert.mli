(** The Gilbert (two-state Markov) packet loss model.

    Yajnik et al. and follow-up measurement studies ([15,16] in the
    paper) show MBone losses are temporally correlated: a loss is much
    more likely right after another loss. A two-state chain — Good
    (packet forwarded) / Bad (packet dropped) — is the standard model
    of that burstiness and is what our synthetic per-link loss
    processes use. *)

type t
(** Model parameters (transition probabilities). *)

type state = Good | Bad

val of_marginal : loss_rate:float -> mean_burst:float -> t
(** Parameterize by the stationary loss probability and the mean loss
    burst length (>= 1). [loss_rate] must be in [\[0, 1)]. *)

val loss_rate : t -> float
(** Stationary probability of [Bad]. *)

val mean_burst : t -> float
(** Expected run length of consecutive losses. *)

val step : t -> Sim.Rng.t -> state -> state

val stationary_state : t -> Sim.Rng.t -> state
(** Sample the initial state from the stationary distribution. *)

val run : t -> Sim.Rng.t -> int -> Bitset.t
(** [run t rng n] samples an [n]-step trajectory started from the
    stationary distribution; bit set = loss. *)
