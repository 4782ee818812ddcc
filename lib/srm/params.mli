(** SRM scheduling parameters (paper Section 2).

    Requests are scheduled uniformly in
    [2^k · \[C1·d_hs, (C1+C2)·d_hs\]] and backed off once per round;
    the back-off abstinence period is [2^k · C3 · d_hs]. Replies are
    scheduled uniformly in [\[D1·d_hh', (D1+D2)·d_hh'\]] with a reply
    abstinence period of [D3 · d_hh'].

    The record holds what callers set: the paper's six weights and
    session period (Section 4.3), and three extensions, all off by
    default. Values no caller varies are the constants below. *)

type t = {
  c1 : float;  (** request deterministic-suppression weight *)
  c2 : float;  (** request probabilistic-suppression window *)
  c3 : float;  (** back-off abstinence weight *)
  d1 : float;  (** reply deterministic-suppression weight *)
  d2 : float;  (** reply probabilistic-suppression window *)
  d3 : float;  (** reply abstinence weight *)
  session_period : float;  (** seconds between session messages *)
  adaptive : bool;
      (** adjust C1/C2 and D1/D2 dynamically per host ({!Adaptive});
          the values above are then the starting point *)
  rearm_backoff : bool;
      (** robustness extension for fault scenarios (not in the paper,
          default [false] = off): on session evidence that a loss still
          persists, a pending request timer more than one
          [session_period] away — exponential back-off pushed it out
          during an outage — is cancelled and rescheduled from round 0,
          and an exhausted request (all {!max_rounds} fired) is
          re-armed. Keeps recovery latency bounded by the session
          period after a partition heals, instead of by [2^k]
          back-off. *)
  oracle_distances : bool;
      (** scale extension (default [false] = off): the converged
          steady state the paper's Section 4.3 runs assume ("distances
          are known before data flows"), reached without simulating the
          quadratic session warm-up. Hosts read peer distances straight
          from the network's delay-weighted tree instead of estimating
          them from session echoes (measured estimates, when they
          exist, still take precedence), so receivers need not be
          echoed: only the data source runs the periodic session tick
          (its [max_seqs] advertisements are what tail-loss detection
          needs). Fixed-period all-member sessions are n messages of n
          deliveries each per period — unaffordable at 10^4 members. A
          host with a recovery-domain map reads true distances whatever
          this says (see [Host.create]), and keeps its session tick. *)
}

val default : t
(** The paper's Section 4.3 settings: C1 = C2 = 2, C3 = 1.5,
    D1 = D2 = 1, D3 = 1.5, session period 1 s; every extension off
    (paper-faithful: no session-driven re-arming). *)

val max_rounds : int
(** Safety cap on a loss's request rounds: 40. *)

val domain_local_rounds : int
(** Hierarchical local recovery (hosts with a recovery-domain map
    only): request rounds [0 .. domain_local_rounds - 1] stay inside
    the home domain (level 0), and round [domain_local_rounds + k]
    escalates to level [2^k], clamped to the chain top. 2. *)

val domain_dr_bias : float
(** Hierarchical local recovery: extra deterministic-suppression
    weight added to D1 for repliers that are {e not} a domain's
    designated replier, giving the designated replier a head start of
    [bias · d_hh'] before anyone else answers. 2. *)

val validate : t -> (t, string) result
(** Reject negative weights and a non-positive session period. *)
