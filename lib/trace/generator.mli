(** Synthetic trace generation calibrated to Table 1.

    For each published trace row we draw a random tree of the published
    receiver count and depth, attach an independent Gilbert loss
    process to every link, and calibrate the per-link marginal loss
    rates so that the expected total number of receiver-loss events
    matches the published count, then correct the rates against the
    realized count. The correction does not always land: the realized
    count of an eager scale trace can miss its budget many times over
    (see {!synthesize}). A small set of "hot" interior links carries
    elevated rates, reproducing the spatial concentration of loss that
    Yajnik et al. report and that CESRM's cache exploits; the Gilbert
    burstiness reproduces the temporal locality.

    The generator returns, besides the receiver-observable trace, the
    ground-truth per-link loss trajectories. For Table 1 rows they only
    validate the {!Inference} estimators and simulations run on
    inferred links, as the paper drives NS2; scale rows inject them
    directly as the drop predicate, with no attribution pass. *)

type result = {
  trace : Trace.t;
  link_bad : Bitset.t array;
      (** ground truth: [link_bad.(l)] has bit [i] set iff link [l] was
          in the Bad state for packet [i+1]; slot 0 is an empty set. *)
  link_rates : float array;  (** configured marginal loss rate per link *)
  link_bursts : float array;  (** configured mean burst length per link *)
}

val synthesize : ?seed:int64 -> ?n_packets:int -> Meta.row -> result
(** Generate a synthetic equivalent of the given Table 1 row.
    [n_packets] overrides the row's packet count (loss count target is
    scaled proportionally) — used for fast test / bench runs.

    The Gilbert path corrects the scale against fresh draws: each
    attempt resimulates on the advancing rng and rescales by
    budget / realized, and it stops after four attempts however far
    off the last one still is. Eager scale traces can therefore miss
    their budget badly, in either direction (EXPERIMENTS "Scale
    scenarios" measures it: at seed 42, dc-1024 realizes 3 of 307
    budgeted losses at 200 packets, and dc-256 519 of 77 at 100).

    Rows naming an adversarial cache-thrash family
    ({!Scale.Rotating_hot}, {!Scale.Phase_shift}) take a different
    path: the loss schedule is windowed Bernoulli on explicitly chosen
    links — a hot link migrating through the [pool] largest interior
    subtrees every [window] packets ([rh]), or locality alternating
    between one shallow interior link and the receiver edges below it
    ([ps]) — with the drop rates calibrated analytically against the
    row's loss budget, then corrected by bisecting a global factor on
    a copy of the rng, keeping the factor whose realized count lands
    nearest the budget. *)

type streaming = {
  s_trace : Trace.t;  (** a {!Trace.create_streaming} trace: no loss matrix *)
  s_loss : Stream_loss.t;  (** lazy per-link loss chains backing the drop predicate *)
  s_rates : float array;
  s_bursts : float array;
}

val synthesize_streaming : ?seed:int64 -> ?n_packets:int -> Meta.row -> streaming
(** Like {!synthesize} but O(links) + O(prefix) setup and O(links)
    steady memory ({!Stream_loss}'s default lookback ring): same seed
    ⇒ same tree / weights / bursts draws, loss bits produced lazily.
    The analytic calibration is corrected against a sampled prefix:
    each probe simulates the first [min n_packets 2000] packets on a
    {e copy} of the rng (replaying exactly the per-link splits the
    stream will consume), so the realized count is a fixed function
    of the rates, and the correction bisects a global factor, then a
    factor on the receiver edges, until the prefix's realized count
    is within 3% of its share of the target. When the first probe is
    already within tolerance — the [bf]/[ss] rows — the rates and bits
    are identical to the uncorrected path; deep chains, whose analytic
    expectation systematically undershoots, stream within tolerance
    instead of ~25% under budget.
    @raise Invalid_argument for adversarial cache-thrash rows
    ([rh]/[ps] — see {!Scale.supports_streaming}): their windowed
    schedules have no streaming chain representation. *)
