type side = {
  mutable lo : float; (* C1 / D1 *)
  mutable width : float; (* C2 / D2 *)
  mutable ave_dup : float;
  mutable ave_delay : float;
}

type t = { request : side; reply : side }

let gain = 0.25

let create ~initial =
  {
    request =
      { lo = initial.Params.c1; width = initial.Params.c2; ave_dup = 0.; ave_delay = 1. };
    reply = { lo = initial.Params.d1; width = initial.Params.d2; ave_dup = 0.; ave_delay = 1. };
  }

let c1 t = t.request.lo

let c2 t = t.request.width

let d1 t = t.reply.lo

let d2 t = t.reply.width

let clamp lo hi x = Float.max lo (Float.min hi x)

(* The adjustment schedule of Floyd et al. §VI: on sustained duplicates
   raise the interval start and widen the window; when duplicates are
   rare, recover latency — shrink the window while the measured delay
   is high, and lower the start once duplicates all but vanish. *)
let adjust side ~dups ~delay_in_d =
  side.ave_dup <- ((1. -. gain) *. side.ave_dup) +. (gain *. float_of_int dups);
  side.ave_delay <- ((1. -. gain) *. side.ave_delay) +. (gain *. delay_in_d);
  if side.ave_dup >= 1.0 then begin
    side.lo <- side.lo +. 0.1;
    side.width <- side.width +. 0.5
  end
  else begin
    if side.ave_delay > 1.5 && side.ave_dup < 0.8 then side.width <- side.width -. 0.1;
    if side.ave_dup < 0.25 then side.lo <- side.lo -. 0.05
  end;
  side.lo <- clamp 0.5 6. side.lo;
  side.width <- clamp 0.5 8. side.width

let note_request_cycle t ~dups ~delay_in_d = adjust t.request ~dups ~delay_in_d

let note_reply_cycle t ~dups ~delay_in_d = adjust t.reply ~dups ~delay_in_d
