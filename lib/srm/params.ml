type t = {
  c1 : float;
  c2 : float;
  c3 : float;
  d1 : float;
  d2 : float;
  d3 : float;
  session_period : float;
  adaptive : bool;
  rearm_backoff : bool;
  oracle_distances : bool;
}

let default =
  {
    c1 = 2.;
    c2 = 2.;
    c3 = 1.5;
    d1 = 1.;
    d2 = 1.;
    d3 = 1.5;
    session_period = 1.;
    adaptive = false;
    rearm_backoff = false;
    oracle_distances = false;
  }

let max_rounds = 40

let domain_local_rounds = 2

let domain_dr_bias = 2.

let validate t =
  if t.c1 < 0. || t.c2 < 0. || t.c3 < 0. || t.d1 < 0. || t.d2 < 0. || t.d3 < 0. then
    Error "scheduling weights must be non-negative"
  else if t.session_period <= 0. then Error "session period must be positive"
  else Ok t
