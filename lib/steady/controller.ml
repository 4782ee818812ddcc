(* The retirement controller: the one place that knows when protocol
   state may be dropped. Member hosts only expose "how far have I
   delivered" and "forget everything at or below this seq"; the
   controller computes the global stability floor and drives every
   member (plus any registered extras — auditor, instrumentation) from
   the engine's epoch tick. *)

type member = {
  node : int;
  delivered_prefix : unit -> int;
  retire : upto:int -> unit;
}

type t = {
  window : int;
  mutable members : member list;
  mutable extra : (upto:int -> unit) list;
  mutable floor : int;
  mutable ticks : int;
  mutable peak_heap : int;
}

let create ~window =
  if window < 1 then invalid_arg "Steady.Controller.create: window must be >= 1";
  { window; members = []; extra = []; floor = 0; ticks = 0; peak_heap = 0 }

let add_member t m = t.members <- m :: t.members

let on_retire t f = t.extra <- f :: t.extra

let floor t = t.floor

let ticks t = t.ticks

(* The stability horizon: every member has delivered the prefix up to
   its reported value, so anything [window] below the global minimum
   can no longer be the subject of a loss that still needs local
   state. The floor is monotone by construction (prefixes only grow). *)
let stability_floor t =
  match t.members with
  | [] -> 0
  | ms ->
      let min_prefix =
        List.fold_left (fun acc m -> min acc (m.delivered_prefix ())) max_int ms
      in
      max t.floor (max 0 (min_prefix - t.window))

let tick t =
  t.ticks <- t.ticks + 1;
  let f = stability_floor t in
  if f > t.floor then begin
    t.floor <- f;
    List.iter (fun m -> m.retire ~upto:f) t.members;
    List.iter (fun g -> g ~upto:f) t.extra
  end;
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  if top > t.peak_heap then t.peak_heap <- top

let peak_heap_words t = t.peak_heap

(* Mean of the last decile of [samples] over the first decile's: ~1
   for a quantity that has plateaued, growing with the run if it
   leaks. [None] under 10 samples or a non-positive first decile. *)
let decile_growth samples =
  let n = Array.length samples in
  if n < 10 then None
  else begin
    let d = max 1 (n / 10) in
    let mean lo hi =
      let acc = ref 0. in
      for i = lo to hi - 1 do
        acc := !acc +. float_of_int samples.(i)
      done;
      !acc /. float_of_int (hi - lo)
    in
    let first = mean 0 d and last = mean (n - d) n in
    if first <= 0. then None else Some (last /. first)
  end

(* Only the deterministic numbers go to the registry (it feeds the
   byte-stable diff gates); the peak heap is machine-dependent and
   stays behind its accessor. *)
let publish_metrics t registry =
  Obs.Registry.incr ~by:t.ticks registry "steady/ticks";
  Obs.Registry.set_gauge registry "steady/floor" (float_of_int t.floor);
  Obs.Registry.set_gauge registry "steady/window" (float_of_int t.window)
