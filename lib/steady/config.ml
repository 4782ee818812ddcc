type t = { window : int; epoch_every : float option }

let windowed ?epoch_every window =
  if window < 1 then invalid_arg "Steady.Config.windowed: window must be >= 1";
  (match epoch_every with
  | Some e when not (e > 0.) ->
      invalid_arg "Steady.Config.windowed: epoch_every must be positive"
  | _ -> ());
  { window; epoch_every }

(* One retirement pass costs a sweep of every member's soft-state
   tables, so ticking every packet period would be quadratic-ish in
   stream length. A window's worth of packets between ticks keeps the
   floor trailing at most one window behind the theoretical horizon
   (live state thus stays under two windows) while amortizing the
   sweep to O(1) per packet. Bounded below so tiny windows don't tick
   pathologically often, and above so the floor keeps moving on slow
   streams. *)
let epoch_period t ~period =
  match t.epoch_every with
  | Some e -> e
  | None -> Float.max (50. *. period) (Float.min (float_of_int t.window *. period) 60.)
