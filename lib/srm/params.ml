type t = {
  c1 : float;
  c2 : float;
  c3 : float;
  d1 : float;
  d2 : float;
  d3 : float;
  session_period : float;
  adaptive : bool;
  rearm_backoff : float option;
  oracle_distances : bool;
  session_sources_only : bool;
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
    rearm_backoff = None;
    oracle_distances = false;
    session_sources_only = false;
  }

let max_rounds = 40

let domain_local_rounds = 2

let domain_dr_bias = 2.

let validate t =
  if t.c1 < 0. || t.c2 < 0. || t.c3 < 0. || t.d1 < 0. || t.d2 < 0. || t.d3 < 0. then
    Error "scheduling weights must be non-negative"
  else if t.session_period <= 0. then Error "session period must be positive"
  else if (match t.rearm_backoff with Some w -> w <= 0. | None -> false) then
    Error "rearm_backoff must be positive when set"
  else Ok t

let pp ppf t =
  Format.fprintf ppf "C1=%g C2=%g C3=%g D1=%g D2=%g D3=%g session=%gs%s" t.c1 t.c2 t.c3 t.d1
    t.d2 t.d3 t.session_period
    (if t.adaptive then " (adaptive)" else "")
