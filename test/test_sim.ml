(* Tests for the simulation substrate: PRNG, heap, event engine. *)

let check = Alcotest.check

let qcheck = QCheck_alcotest.to_alcotest

(* --- Rng ------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 42L and b = Sim.Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same seed, same stream" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Sim.Rng.create 1L and b = Sim.Rng.create 2L in
  let differs = ref false in
  for _ = 1 to 10 do
    if Sim.Rng.bits64 a <> Sim.Rng.bits64 b then differs := true
  done;
  check Alcotest.bool "different seeds diverge" true !differs

let test_rng_split_independent () =
  let parent = Sim.Rng.create 7L in
  let child = Sim.Rng.split parent in
  let xs = List.init 50 (fun _ -> Sim.Rng.bits64 parent) in
  let ys = List.init 50 (fun _ -> Sim.Rng.bits64 child) in
  check Alcotest.bool "streams differ" true (xs <> ys)

let test_rng_copy () =
  let a = Sim.Rng.create 3L in
  ignore (Sim.Rng.bits64 a);
  let b = Sim.Rng.copy a in
  check Alcotest.int64 "copy resumes identically" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)

let test_rng_uniform_mean () =
  let rng = Sim.Rng.create 11L in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.uniform rng 2.0 4.0
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "uniform(2,4) mean near 3" true (Float.abs (mean -. 3.0) < 0.03)

let test_rng_exponential_mean () =
  let rng = Sim.Rng.create 13L in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.exponential rng 0.5
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "exponential mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_rng_bernoulli_extremes () =
  let rng = Sim.Rng.create 17L in
  for _ = 1 to 100 do
    check Alcotest.bool "p=0 never true" false (Sim.Rng.bernoulli rng 0.);
    check Alcotest.bool "p=1 always true" true (Sim.Rng.bernoulli rng 1.0)
  done

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"rng: float stays in [0,b)" ~count:500
    QCheck.(pair small_int (float_range 0.001 1000.))
    (fun (seed, b) ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let x = Sim.Rng.float rng b in
      x >= 0. && x < b)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng: int stays in [0,n)" ~count:500
    QCheck.(pair small_int (int_range 1 100000))
    (fun (seed, n) ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let x = Sim.Rng.int rng n in
      x >= 0 && x < n)

let prop_rng_shuffle_multiset =
  QCheck.Test.make ~name:"rng: shuffle preserves elements" ~count:200
    QCheck.(pair small_int (list int))
    (fun (seed, xs) ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let a = Array.of_list xs in
      Sim.Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

let test_rng_log_uniform_bounds () =
  let rng = Sim.Rng.create 23L in
  for _ = 1 to 1000 do
    let x = Sim.Rng.log_uniform rng 0.01 10. in
    check Alcotest.bool "in range" true (x >= 0.0099 && x <= 10.01)
  done

(* SplitMix64 outputs pinned as literals: a slip in how the state is
   stored (width, byte order, the split or copy path) changes them. *)
let test_rng_stream_golden () =
  let first8 r = List.init 8 (fun _ -> Sim.Rng.bits64 r) in
  let stream = Alcotest.(list int64) in
  check stream "seed 0"
    [
      0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL; 0xf88bb8a8724c81ecL;
      0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL; 0x2c829abe1f4532e1L; 0xc584133ac916ab3cL;
    ]
    (first8 (Sim.Rng.create 0L));
  check stream "seed 42"
    [
      0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L; 0x581ce1ff0e4ae394L;
      0x09bc585a244823f2L; 0xde4431fa3c80db06L; 0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L;
    ]
    (first8 (Sim.Rng.create 42L));
  check stream "seed -1"
    [
      0xe4d971771b652c20L; 0xe99ff867dbf682c9L; 0x382ff84cb27281e9L; 0x6d1db36ccba982d2L;
      0xb4a0472e578069aeL; 0xd31dadbda438bb33L; 0xf14f2cf802083fa5L; 0x405da438a39e8064L;
    ]
    (first8 (Sim.Rng.create (-1L)));
  let parent = Sim.Rng.create 42L in
  let child = Sim.Rng.split parent in
  check stream "split child of seed 42"
    [
      0x57e1faba65107204L; 0xf4abd143feb24055L; 0x7c816738c12903b2L; 0x113e5dec6f8fd8a8L;
      0xad4a599062fd1739L; 0x11485b98a7ea20b7L; 0x32028f50341ebd74L; 0xbc16a3d4cc48678eL;
    ]
    (first8 child);
  let after_two =
    [
      0x47526757130f9f52L; 0x581ce1ff0e4ae394L; 0x09bc585a244823f2L; 0xde4431fa3c80db06L;
      0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L; 0x5705b8770b3d7dd5L; 0x9e54d738297f77aeL;
    ]
  in
  let original = Sim.Rng.create 42L in
  ignore (Sim.Rng.bits64 original);
  ignore (Sim.Rng.bits64 original);
  let copy = Sim.Rng.copy original in
  check stream "copy of seed 42 after two draws" after_two (first8 copy);
  check stream "the original is untouched by the copy" after_two (first8 original);
  let u = Sim.Rng.create 7L in
  let uniforms =
    List.init 4 (fun i -> Sim.Rng.uniform u (float_of_int i) (float_of_int i +. 0.25))
  in
  check
    Alcotest.(list (float 0.))
    "uniform draws from seed 7"
    [ 0x1.8f2f879164c82p-4; 0x1.01130f35fd0f2p+0; 0x1.1cd3081017562p+1; 0x1.92a75d6e0ce7cp+1 ]
    uniforms

(* [Gc.allocated_bytes] is exact only right after a minor collection:
   on OCaml 5.1 it counts an eighth of the young generation's
   allocation until the next collection corrects it. *)
let allocated f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  f ();
  Gc.minor ();
  Gc.allocated_bytes () -. before

(* The generator state is stored in place: a draw allocates only the
   box of the float it returns to this module. *)
let test_rng_draw_alloc () =
  let rng = Sim.Rng.create 5L and n = 10_000 in
  let draws () =
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Sim.Rng.uniform rng 0. 1.))
    done
  in
  draws ();
  let per_draw = (allocated draws -. allocated ignore) /. float_of_int n in
  if per_draw > 16. then Alcotest.failf "Rng.uniform allocated %.1f B per draw" per_draw

(* The SRM host's timers draw through [Srm.Host.uniform_draw], which
   scales [Rng.bits53] in place so nothing is boxed. It must be
   [Rng.uniform] bit for bit, draw nothing on an empty interval, and
   leave the generator where [uniform] does. *)
let prop_host_draw_is_uniform =
  let bound =
    QCheck.Gen.(
      frequency
        [
          (4, float_range (-10.) 10.);
          (1, map (fun i -> float_of_int i /. 4.) (int_range (-8) 8));
          (1, oneofl [ 0.; -0.; 1e-300; 1e300 ]);
        ])
  in
  QCheck.Test.make ~name:"rng: host timer draw = uniform, same generator state" ~count:500
    QCheck.(
      make
        ~print:(fun (seed, lo, hi) -> Printf.sprintf "seed %Ld, lo %h, hi %h" seed lo hi)
        Gen.(triple ui64 bound bound))
    (fun (seed, lo, hi) ->
      let a = Sim.Rng.create seed and b = Sim.Rng.create seed in
      let x = Sim.Rng.uniform a lo hi and y = Srm.Host.uniform_draw b lo hi in
      Printf.sprintf "%h" x = Printf.sprintf "%h" y && Sim.Rng.bits64 a = Sim.Rng.bits64 b)

(* --- Engine ----------------------------------------------------------- *)

let test_engine_time_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let note tag () = log := (tag, Sim.Engine.now e) :: !log in
  ignore (Sim.Engine.schedule e ~after:3.0 (note "c"));
  ignore (Sim.Engine.schedule e ~after:1.0 (note "a"));
  ignore (Sim.Engine.schedule e ~after:2.0 (note "b"));
  Sim.Engine.run e;
  check
    Alcotest.(list (pair string (float 1e-9)))
    "events in order"
    [ ("a", 1.0); ("b", 2.0); ("c", 3.0) ]
    (List.rev !log)

let test_engine_fifo_ties () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.Engine.schedule e ~after:1.0 (fun () -> log := i :: !log))
  done;
  Sim.Engine.run e;
  check Alcotest.(list int) "FIFO among equal times" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let timer = Sim.Engine.schedule e ~after:1.0 (fun () -> fired := true) in
  check Alcotest.bool "pending before" true (Sim.Engine.is_pending e timer);
  Sim.Engine.cancel e timer;
  check Alcotest.bool "not pending after" false (Sim.Engine.is_pending e timer);
  Sim.Engine.run e;
  check Alcotest.bool "cancelled timer did not fire" false !fired

let test_engine_cancel_idempotent () =
  let e = Sim.Engine.create () in
  let timer = Sim.Engine.schedule e ~after:1.0 (fun () -> ()) in
  Sim.Engine.cancel e timer;
  Sim.Engine.cancel e timer;
  Sim.Engine.run e

let test_engine_schedule_inside_callback () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.schedule e ~after:1.0 (fun () ->
         log := "outer" :: !log;
         ignore (Sim.Engine.schedule e ~after:0.5 (fun () -> log := "inner" :: !log))));
  Sim.Engine.run e;
  check Alcotest.(list string) "nested scheduling" [ "outer"; "inner" ] (List.rev !log);
  check (Alcotest.float 1e-9) "clock advanced" 1.5 (Sim.Engine.now e)

let test_engine_horizon () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  ignore (Sim.Engine.schedule e ~after:1.0 (fun () -> fired := 1 :: !fired));
  ignore (Sim.Engine.schedule e ~after:2.0 (fun () -> fired := 2 :: !fired));
  ignore (Sim.Engine.schedule e ~after:3.0 (fun () -> fired := 3 :: !fired));
  Sim.Engine.run ~until:2.0 e;
  check Alcotest.(list int) "events at or before horizon" [ 1; 2 ] (List.rev !fired);
  Sim.Engine.run e;
  check Alcotest.(list int) "remaining events run later" [ 1; 2; 3 ] (List.rev !fired)

let test_engine_max_events () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore (Sim.Engine.schedule e ~after:1.0 (fun () -> incr count))
  done;
  Sim.Engine.run ~max_events:4 e;
  check Alcotest.int "event budget respected" 4 !count

let test_engine_negative_delay_clamped () =
  let e = Sim.Engine.create () in
  let at = ref (-1.) in
  ignore (Sim.Engine.schedule e ~after:5.0 (fun () ->
      ignore (Sim.Engine.schedule e ~after:(-3.0) (fun () -> at := Sim.Engine.now e))));
  Sim.Engine.run e;
  check (Alcotest.float 1e-9) "clamped to now" 5.0 !at

let test_engine_schedule_at_past_clamped () =
  let e = Sim.Engine.create () in
  let at = ref (-1.) in
  ignore (Sim.Engine.schedule e ~after:2.0 (fun () ->
      ignore (Sim.Engine.schedule_at e ~at:1.0 (fun () -> at := Sim.Engine.now e))));
  Sim.Engine.run e;
  check (Alcotest.float 1e-9) "past events run now" 2.0 !at

let test_engine_pending_events () =
  let e = Sim.Engine.create () in
  let t1 = Sim.Engine.schedule e ~after:1.0 (fun () -> ()) in
  ignore (Sim.Engine.schedule e ~after:2.0 (fun () -> ()));
  check Alcotest.int "two pending" 2 (Sim.Engine.pending_events e);
  Sim.Engine.cancel e t1;
  check Alcotest.int "one pending after cancel" 1 (Sim.Engine.pending_events e)

let test_engine_step () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  ignore (Sim.Engine.schedule e ~after:1.0 (fun () -> incr count));
  check Alcotest.bool "step runs one" true (Sim.Engine.step e);
  check Alcotest.bool "step on empty is false" false (Sim.Engine.step e);
  check Alcotest.int "ran once" 1 !count

let test_engine_fire_time () =
  let e = Sim.Engine.create () in
  let t = Sim.Engine.schedule e ~after:2.5 (fun () -> ()) in
  check (Alcotest.float 1e-9) "fire time" 2.5 (Sim.Engine.fire_time e t)

let test_engine_pending_events_lifecycle () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let timers = List.init 10 (fun i -> Sim.Engine.schedule e ~after:(float_of_int i) (fun () -> incr fired)) in
  check Alcotest.int "all pending" 10 (Sim.Engine.pending_events e);
  let victim = List.nth timers 3 in
  Sim.Engine.cancel e victim;
  Sim.Engine.cancel e victim;
  check Alcotest.int "double cancel counts once" 9 (Sim.Engine.pending_events e);
  check Alcotest.bool "cancelled is not pending" false (Sim.Engine.is_pending e victim);
  ignore (Sim.Engine.step e);
  check Alcotest.int "fire decrements" 8 (Sim.Engine.pending_events e);
  Sim.Engine.cancel e (List.hd timers);
  check Alcotest.int "cancel after fire is a no-op" 8 (Sim.Engine.pending_events e);
  Sim.Engine.run e;
  check Alcotest.int "queue drained" 0 (Sim.Engine.pending_events e);
  check Alcotest.int "nine fired" 9 !fired

(* Mass cancellation triggers the in-place tombstone compaction; the
   survivors must still fire, once each, in time order. *)
let test_engine_compaction () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let timers =
    Array.init 1000 (fun i ->
        let at = float_of_int ((i * 7919) mod 1000) in
        Sim.Engine.schedule_at e ~at (fun () -> log := at :: !log))
  in
  Array.iteri (fun i t -> if i mod 10 <> 0 then Sim.Engine.cancel e t) timers;
  check Alcotest.int "post-compaction pending" 100 (Sim.Engine.pending_events e);
  Sim.Engine.run e;
  let fired = List.rev !log in
  check Alcotest.int "survivors fired" 100 (List.length fired);
  check Alcotest.bool "in order" true (fired = List.sort compare fired)

(* A fired timer's slot may be recycled by a later schedule; stale
   handles must not affect the new occupant. *)
let test_engine_slot_reuse_safe () =
  let e = Sim.Engine.create () in
  let stale = Sim.Engine.schedule e ~after:1.0 (fun () -> ()) in
  Sim.Engine.run e;
  let fired = ref false in
  let fresh = Sim.Engine.schedule e ~after:1.0 (fun () -> fired := true) in
  Sim.Engine.cancel e stale;
  check Alcotest.bool "stale handle reports not pending" false (Sim.Engine.is_pending e stale);
  check Alcotest.bool "fresh timer survives stale cancel" true (Sim.Engine.is_pending e fresh);
  Sim.Engine.run e;
  check Alcotest.bool "fresh timer fired" true !fired

(* [schedule_call] handles cancel like any other: the event never
   fires and leaves the pending count at once. *)
let test_engine_cancel_call () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  let call i = fired := i :: !fired in
  let at = [| 1.0 |] in
  let a = Sim.Engine.schedule_call e ~times:at 0 call 1 in
  at.(0) <- 2.0;
  ignore (Sim.Engine.schedule_call e ~times:at 0 call 2);
  check Alcotest.bool "pending before" true (Sim.Engine.is_pending e a);
  check (Alcotest.float 0.) "fire time read from the cell" 1.0 (Sim.Engine.fire_time e a);
  Sim.Engine.cancel e a;
  check Alcotest.bool "not pending after" false (Sim.Engine.is_pending e a);
  check Alcotest.int "pending count drops" 1 (Sim.Engine.pending_events e);
  Sim.Engine.run e;
  check Alcotest.(list int) "only the live call fired" [ 2 ] !fired;
  check Alcotest.int "one cancelled" 1 (Sim.Engine.events_cancelled e)

(* A handle outlives its event; once the slot is recycled — by either
   primitive — cancelling the old handle must leave the new occupant
   alone. [no_timer] is never pending. *)
let test_engine_stale_handles () =
  let at = [| 1.0 |] and fired = ref 0 in
  let call (_ : int) = incr fired in
  let cases =
    [
      ("schedule", fun e -> Sim.Engine.schedule e ~after:1.0 (fun () -> incr fired));
      ("schedule_call", fun e -> Sim.Engine.schedule_call e ~times:at 0 call 0);
    ]
  in
  List.iter
    (fun (old_name, old_prim) ->
      List.iter
        (fun (new_name, new_prim) ->
          let what = Printf.sprintf "%s then %s" old_name new_name in
          let e = Sim.Engine.create () in
          fired := 0;
          let stale = old_prim e in
          Sim.Engine.run e;
          at.(0) <- Sim.Engine.now e +. 1.0;
          let fresh = new_prim e in
          Sim.Engine.cancel e stale;
          check Alcotest.bool (what ^ ": stale is not pending") false
            (Sim.Engine.is_pending e stale);
          check Alcotest.bool (what ^ ": fresh survives") true (Sim.Engine.is_pending e fresh);
          Sim.Engine.run e;
          check Alcotest.int (what ^ ": both fired") 2 !fired;
          check Alcotest.int (what ^ ": nothing cancelled") 0 (Sim.Engine.events_cancelled e))
        cases)
    cases;
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~after:1.0 ignore);
  Sim.Engine.cancel e Sim.Engine.no_timer;
  check Alcotest.bool "no_timer is never pending" false
    (Sim.Engine.is_pending e Sim.Engine.no_timer);
  check Alcotest.int "cancelling no_timer is a no-op" 1 (Sim.Engine.pending_events e)

let test_engine_fire_time_not_pending () =
  let e = Sim.Engine.create () in
  let fired = Sim.Engine.schedule e ~after:1.0 ignore in
  Sim.Engine.run e;
  let cancelled = Sim.Engine.schedule e ~after:1.0 ignore in
  Sim.Engine.cancel e cancelled;
  List.iter
    (fun (what, timer) ->
      match Sim.Engine.fire_time e timer with
      | _ -> Alcotest.failf "fire_time answered for a %s handle" what
      | exception Invalid_argument _ -> ())
    [ ("fired", fired); ("cancelled", cancelled); ("no_timer", Sim.Engine.no_timer) ]

(* The recovery timers' path: arming a [schedule_call] timer and
   cancelling it, on an engine whose slot tables are warm, allocates
   nothing — no closure, no handle record, no boxed time. Nor does
   [schedule] with a shared closure: it reaches the slot table through
   the inlined [schedule_at], so the fire time it computes is never
   boxed. *)
let test_engine_cancel_alloc () =
  let e = Sim.Engine.create () and n = 10_000 in
  let call (_ : int) = () in
  let at = [| 0. |] and clock = Sim.Engine.clock e in
  let cycle () =
    at.(0) <- clock.now +. 1.0;
    for i = 1 to n do
      Sim.Engine.cancel e (Sim.Engine.schedule_call e ~times:at 0 call i);
      Sim.Engine.cancel e (Sim.Engine.schedule e ~after:1.0 ignore)
    done
  in
  let flush () =
    ignore (Sim.Engine.schedule e ~after:5.0 ignore);
    Sim.Engine.run e
  in
  cycle ();
  flush ();
  let per_pair = (allocated cycle -. allocated ignore) /. float_of_int n in
  check Alcotest.int "all cancelled" (4 * n) (Sim.Engine.events_cancelled e);
  if per_pair > 0. then
    Alcotest.failf "schedule_call + cancel and schedule + cancel allocated %.1f B" per_pair

(* --- Differential: wheel backend vs. reference heap ----------------- *)

(* The timer wheel must be observationally identical to the pure heap
   (DESIGN.md §12: buckets flush into the heap, which alone decides
   firing order). The battery interprets one random schedule program
   against both backends and compares the full (label, time) firing
   trace plus the lifetime counters. Programs mix zero delays,
   sub-tick delays, quantized delays (lots of exact ties), ordinary
   delays, beyond-horizon delays (the heap overflow level), and
   callback-driven cancellation, chained scheduling and re-arms. Every
   other timer goes through [schedule_call] (a shared closure, its
   label as the argument), so cancels and re-arms hit both primitives.
   Shrinking drops ops, so a failure reports a minimal diverging
   schedule. *)

type sched_action =
  | Sched_nop
  | Sched_cancel of int  (* cancel timer (k mod timers-so-far) *)
  | Sched_chain of float  (* schedule a fresh timer at now + d *)
  | Sched_rearm of int * float  (* cancel, then schedule a replacement *)

type sched_spec = { sched_delay : float; sched_action : sched_action }

let run_sched_program backend specs =
  let e = Sim.Engine.create ~backend () in
  let log = ref [] in
  let timers = Hashtbl.create 16 in
  let next_label = ref 0 in
  let calls = Hashtbl.create 16 and at = [| 0. |] in
  let rec add delay action =
    let label = !next_label in
    incr next_label;
    let cancel_nth k =
      if !next_label > 0 then
        Option.iter (Sim.Engine.cancel e) (Hashtbl.find_opt timers (k mod !next_label))
    in
    let fire () =
      log := (label, Sim.Engine.now e) :: !log;
      match action with
      | Sched_nop -> ()
      | Sched_cancel k -> cancel_nth k
      | Sched_chain d -> add d Sched_nop
      | Sched_rearm (k, d) ->
          cancel_nth k;
          add d Sched_nop
    in
    let t =
      if label land 1 = 0 then Sim.Engine.schedule e ~after:delay fire
      else begin
        Hashtbl.replace calls label fire;
        at.(0) <- Sim.Engine.now e +. delay;
        Sim.Engine.schedule_call e ~times:at 0 call label
      end
    in
    Hashtbl.replace timers label t
  and call label = (Hashtbl.find calls label) () in
  List.iter (fun { sched_delay; sched_action } -> add sched_delay sched_action) specs;
  Sim.Engine.run e;
  ( List.rev !log,
    Sim.Engine.events_fired e,
    Sim.Engine.events_cancelled e,
    Sim.Engine.now e )

let print_sched_spec { sched_delay; sched_action } =
  let a =
    match sched_action with
    | Sched_nop -> ""
    | Sched_cancel k -> Printf.sprintf " cancel:%d" k
    | Sched_chain d -> Printf.sprintf " chain:+%h" d
    | Sched_rearm (k, d) -> Printf.sprintf " rearm:%d,+%h" k d
  in
  Printf.sprintf "{+%h%s}" sched_delay a

let gen_sched_delay =
  QCheck.Gen.(
    frequency
      [
        (1, return 0.);
        (2, float_range 0. 0.001);
        (* eighths of a second: collisions guaranteed, so FIFO among
           exact ties is exercised constantly *)
        (4, map (fun i -> float_of_int i /. 8.) (int_range 0 80));
        (2, float_range 0. 10.);
        (* around and beyond the 256^3-tick wheel horizon *)
        (1, float_range 16000. 20000.);
      ])

let gen_sched_spec =
  QCheck.Gen.(
    let action =
      frequency
        [
          (5, return Sched_nop);
          (2, map (fun k -> Sched_cancel k) (int_range 0 50));
          (2, map (fun d -> Sched_chain d) gen_sched_delay);
          (1, map2 (fun k d -> Sched_rearm (k, d)) (int_range 0 50) gen_sched_delay);
        ]
    in
    map2
      (fun sched_delay sched_action -> { sched_delay; sched_action })
      gen_sched_delay action)

let arb_sched_program =
  QCheck.make
    ~print:(fun specs -> String.concat " " (List.map print_sched_spec specs))
    ~shrink:QCheck.Shrink.(list ?shrink:None)
    QCheck.Gen.(list_size (int_range 0 60) gen_sched_spec)

let prop_wheel_heap_differential =
  QCheck.Test.make ~name:"engine: wheel and heap backends fire identically" ~count:150
    arb_sched_program
    (fun specs -> run_sched_program `Wheel specs = run_sched_program `Heap specs)

(* A deterministic, cascade-heavy program: thousands of timers spread
   over 3000 s force level-1 and level-2 wheel cascades, with a
   quarter cancelled while still parked in wheel buckets. Also guards
   the differential against vacuity: the wheel backend must actually
   report wheel traffic. *)
let test_engine_wheel_cascades_differential () =
  let program backend =
    let e = Sim.Engine.create ~backend () in
    let log = ref [] in
    let timers =
      Array.init 2000 (fun i ->
          let at = float_of_int (i * 7919 mod 3000) +. (float_of_int i /. 97.) in
          Sim.Engine.schedule_at e ~at (fun () -> log := (i, Sim.Engine.now e) :: !log))
    in
    Array.iteri (fun i t -> if i land 3 = 0 then Sim.Engine.cancel e t) timers;
    Sim.Engine.run e;
    (e, List.rev !log)
  in
  let wheel_engine, wheel_log = program `Wheel in
  let _, heap_log = program `Heap in
  check Alcotest.bool "wheel = heap over cascade-heavy program" true (wheel_log = heap_log);
  let reg = Obs.Registry.create () in
  Sim.Engine.publish_metrics wheel_engine reg;
  let wheel_inserts = Option.value ~default:0 (Obs.Registry.counter_value reg "sim/wheel_inserts") in
  let cascades = Option.value ~default:0 (Obs.Registry.counter_value reg "sim/wheel_cascades") in
  check Alcotest.bool "wheel actually engaged" true (wheel_inserts > 1000);
  check Alcotest.bool "cascades happened" true (cascades > 0)

let prop_engine_random_schedule =
  QCheck.Test.make ~name:"engine: arbitrary delays run in sorted order" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 40) (float_range 0. 100.))
    (fun delays ->
      let e = Sim.Engine.create () in
      let log = ref [] in
      List.iter
        (fun d -> ignore (Sim.Engine.schedule e ~after:d (fun () -> log := Sim.Engine.now e :: !log)))
        delays;
      Sim.Engine.run e;
      let times = List.rev !log in
      times = List.sort compare delays)

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "log-uniform bounds" `Quick test_rng_log_uniform_bounds;
          qcheck prop_rng_float_bounds;
          qcheck prop_rng_int_bounds;
          qcheck prop_rng_shuffle_multiset;
          Alcotest.test_case "rng stream golden" `Quick test_rng_stream_golden;
          Alcotest.test_case "an Rng draw allocates only its result" `Quick test_rng_draw_alloc;
          qcheck prop_host_draw_is_uniform;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_time_order;
          Alcotest.test_case "FIFO ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "cancel idempotent" `Quick test_engine_cancel_idempotent;
          Alcotest.test_case "nested scheduling" `Quick test_engine_schedule_inside_callback;
          Alcotest.test_case "horizon" `Quick test_engine_horizon;
          Alcotest.test_case "max events" `Quick test_engine_max_events;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay_clamped;
          Alcotest.test_case "past schedule_at" `Quick test_engine_schedule_at_past_clamped;
          Alcotest.test_case "pending count" `Quick test_engine_pending_events;
          Alcotest.test_case "pending lifecycle" `Quick test_engine_pending_events_lifecycle;
          Alcotest.test_case "tombstone compaction" `Quick test_engine_compaction;
          Alcotest.test_case "slot reuse safety" `Quick test_engine_slot_reuse_safe;
          Alcotest.test_case "step" `Quick test_engine_step;
          Alcotest.test_case "fire time" `Quick test_engine_fire_time;
          qcheck prop_engine_random_schedule;
          Alcotest.test_case "a cancelled schedule_call timer never fires" `Quick
            test_engine_cancel_call;
          Alcotest.test_case "stale handles on recycled slots are no-ops" `Quick
            test_engine_stale_handles;
          Alcotest.test_case "fire_time raises unless pending" `Quick
            test_engine_fire_time_not_pending;
          Alcotest.test_case "a cancelled timer allocates nothing" `Quick test_engine_cancel_alloc;
        ] );
      ( "differential",
        [
          qcheck prop_wheel_heap_differential;
          Alcotest.test_case "cascade-heavy program" `Quick
            test_engine_wheel_cascades_differential;
        ] );
    ]
