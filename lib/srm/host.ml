(* A flat float record: its stores allocate nothing, where a float
   field of the mixed [request_state] would box on every write. *)
type request_times = {
  detected_at : float;
  mutable abstain_until : float; (* back-off abstinence horizon *)
  mutable first_sent : float; (* when our own first request fired; nan = not yet *)
}

type request_state = {
  mutable backoff : int; (* k = number of times this request was scheduled *)
  mutable timer : Sim.Engine.timer; (* no_timer once the rounds are exhausted *)
  mutable dup_requests : int; (* duplicate requests overheard for this loss *)
  times : request_times;
}

type hooks = {
  mutable on_loss_detected : src:int -> seq:int -> unit;
  mutable on_reply_observed : Net.Packet.payload -> unit;
  mutable on_packet_obtained : src:int -> seq:int -> expedited:bool -> unit;
  mutable on_state_reset : unit -> unit;
  mutable on_peer_left : int -> unit;
  mutable on_retired : unit -> unit;
}

(* Hierarchical local recovery (lib/domain): the host's own domain and
   chain height are resolved once at creation; per-request escalation
   levels index into them. [period] is the source's send period, which
   the in-flight allowance counts in. *)
type domain_ctx = { dmap : Rdomain.t; my_dom : int; max_lvl : int; period : float }

(* A stream's float state for the domain-mode in-flight allowance,
   flat so a data arrival's store into [last_data_at] allocates
   nothing. *)
type inflight = {
  (* When [last_data_seq] (below) landed: the data-arrival anchor. *)
  mutable last_data_at : float;
  (* Lazily computed (nan = unset): scales with this host's distance
     to the stream's source. *)
  mutable slack : float;
}

(* Per-stream reception state; SRM is multi-source, so every table
   below is keyed by (stream source, sequence number). The delivery
   map is a {!Window}: windowed for steady-state runs, a flat bitmap
   otherwise. *)
type stream_state = {
  win : Window.t;
  (* Data-arrival anchor for the domain-mode in-flight allowance: the
     last original data packet of this stream to land here, and when
     ([inflight.last_data_at]). Unlike the window's [max_seq] (which
     session advertisements also advance) this tracks only real
     arrivals, so [last_data_at + Δseq · period] predicts when a later
     packet is {e due} on this host's path — constant pipeline lag
     cancels out. *)
  mutable last_data_seq : int;
  (* Due-time detection frontier (domain mode): every sequence at or
     below it has been either delivered or declared lost; sequences
     above wait until they are overdue. [due_scan] is the parked
     rescan timer ({!Sim.Engine.no_timer} when none): at most one per
     stream is ever outstanding. *)
  mutable scanned_due : int;
  mutable due_scan : Sim.Engine.timer;
  inflight : inflight;
  (* One bit per detected seq (empty until the first detection): the
     answer to [suffered_loss], which outlives the request and
     retirement. *)
  mutable lost : Bytes.t;
}

type t = {
  network : Net.Network.t;
  engine : Sim.Engine.t;
  clock : Sim.Engine.clock; (* the engine's; [now] reads it unboxed *)
  self : int;
  params : Params.t;
  n_packets : int; (* per-stream cap *)
  stride : int; (* Key packing stride: n_packets + 1 *)
  rng : Sim.Rng.t;
  session : Session.t;
  (* Keyed by source node id. Sparse: a group of n members previously
     carried an n-slot array per host (n^2 option slots across the
     group); only nodes that actually source or get asked about a
     stream materialize entries. [stream_srcs] mirrors the key set in
     ascending id order so [max_seqs] advertisements keep their
     original deterministic order. *)
  streams : (int, stream_state) Hashtbl.t;
  mutable stream_srcs : int list;
  (* Per-loss state, keyed by packed (src, seq) ints. [requests] stays
     a [Hashtbl]: crash restarts and session re-arms walk it in its
     iteration order, drawing from [rng] per request, so its order is
     part of every faulted run's outcome. *)
  requests : (Key.t, request_state) Hashtbl.t;
  replies : Reply_table.t; (* scheduled reply, abstinence, last reply sent *)
  (* Recovery timers carry only the packed key: the engine dispatches
     it to one of these closures, built once in [create], and reads the
     fire time from [fire_at]'s single cell, so arming a timer
     allocates nothing. *)
  fire_at : float array;
  mutable request_timer : Key.t -> unit;
  mutable reply_timer : Key.t -> unit;
  mutable grace_timer : Key.t -> unit; (* session-advertisement grace *)
  mutable due_timer : int -> unit; (* domain mode's due scan, armed with the stream's src *)
  adaptive : Adaptive.t option;
  domain : domain_ctx option;
  mutable n_local_requests : int; (* domain mode: requests sent at level 0 *)
  mutable n_escalations : int; (* domain mode: requests sent at level > 0 *)
  mutable n_detected : int;
  (* False between [depart] and the next [join]. Gates loss detection:
     deliveries to a departed node are dropped at the network layer,
     but detection timers parked before the departure (the
     session-advertisement grace timer in particular) still fire on
     the wiped host and would charge it for every packet it no longer
     tracks. *)
  mutable in_group : bool;
  mutable reply_from : int; (* replier of the reply being handled; -1 outside one *)
  counters : Stats.Counters.t;
  recoveries : Stats.Recovery.t;
  hooks : hooks;
}

let key t ~src ~seq = Key.make ~stride:t.stride ~src ~seq

(* A reply row that holds nothing observable: no reply scheduled, no
   abstinence still running (a passed horizon blocks nothing, just like
   no horizon) and no reply of ours on record. Dropping it changes no
   answer, so the table may recycle it. *)
let inert (clock : Sim.Engine.clock) (l : Reply_table.t) r =
  l.timer.(r) = Sim.Engine.no_timer
  && (not (l.abstain.(r) > clock.now))
  && Float.is_nan l.replied.(r)

let network t = t.network

let now t = t.clock.now

(* Arm a recovery timer [after] seconds from now (clamped at 0, as
   [Sim.Engine.schedule] does) whose callback gets the packed [k]. *)
let[@inline] arm t ~after callback k =
  t.fire_at.(0) <- now t +. (if after < 0. then 0. else after);
  Sim.Engine.schedule_call t.engine ~times:t.fire_at 0 callback k

let self t = t.self

let hooks t = t.hooks

(* Every delivery looks its stream up two to four times; [find] with
   [Not_found] allocates nothing on a hit, where [find_opt] allocates a
   [Some]. *)
let stream t src =
  match Hashtbl.find t.streams src with
  | s -> s
  | exception Not_found ->
      let s =
        {
          win = Window.create ~n_packets:t.n_packets;
          last_data_seq = 0;
          scanned_due = 0;
          due_scan = Sim.Engine.no_timer;
          inflight = { last_data_at = neg_infinity; slack = Float.nan };
          lost = Bytes.empty;
        }
      in
      Hashtbl.replace t.streams src s;
      let rec insert = function
        | x :: tl when x < src -> x :: insert tl
        | rest -> src :: rest
      in
      t.stream_srcs <- insert t.stream_srcs;
      s

let has_packet ?(src = 0) t ~seq =
  seq >= 1 && seq <= t.n_packets && Window.mem (stream t src).win ~seq

let reply_sender t = if t.reply_from < 0 then None else Some t.reply_from

let suffered_loss ?(src = 0) t ~seq =
  match Hashtbl.find t.streams src with
  | st ->
      let i = seq lsr 3 in
      i < Bytes.length st.lost && Char.code (Bytes.get st.lost i) land (1 lsl (seq land 7)) <> 0
  | exception Not_found -> false

let max_seq_seen ?(src = 0) t = Window.max_seq (stream t src).win

let max_seqs t =
  List.filter_map
    (fun src ->
      match Hashtbl.find_opt t.streams src with
      | Some st when Window.max_seq st.win > 0 -> Some (src, Window.max_seq st.win)
      | _ -> None)
    t.stream_srcs

let detected_losses t = t.n_detected

let pending_requests t = Hashtbl.length t.requests

let request_round ?(src = 0) t ~seq =
  Option.map (fun (st : request_state) -> st.backoff) (Hashtbl.find_opt t.requests (key t ~src ~seq))

(* Paper Section 4.3 assumes distances are known before data flows; the
   1 s fallback only matters if a request fires inside the warm-up. *)
let dist_to t peer = Session.distance_or t.session peer ~default:1.0

let dist_to_source ?(src = 0) t = dist_to t src

(* --- hierarchical local recovery ----------------------------------- *)

(* Escalation level of a request round: [domain_local_rounds] rounds
   are spent inside the home domain, then the scope widens {e
   geometrically} — level 1, 2, 4, 8, ... — clamped at the chain's
   top, the root domain, which holds the source, so the ladder always
   ends at a member with the packet. Doubling the level per round
   keeps the climb logarithmic in the ladder length: a deep chain
   stacks O(depth / domain size) domains, and walking them one per
   round would push recovery past the run horizon once the request
   back-off compounds. *)
let level_for ~local_rounds ~max_lvl round =
  if round < local_rounds then 0 else min max_lvl (1 lsl min 30 (round - local_rounds))

let level_of ctx ~round =
  level_for ~local_rounds:Params.domain_local_rounds ~max_lvl:ctx.max_lvl round

(* The distance a request timer scales by: flat SRM uses the source,
   domain mode the escalation level's designated replier — so local
   rounds fire on local round-trip times instead of the full
   source-path delay (the whole point on deep chains). *)
let request_dist t ~src ~round =
  match t.domain with
  | None -> dist_to_source ~src t
  | Some ctx ->
      dist_to t (Rdomain.request_target ctx.dmap ~node:t.self ~level:(level_of ctx ~round))

(* Reply transmission for a requestor at a given round: a repair
   subcast flooding the {e entire subtree} under the round's scope
   root. Repliers reconstruct the level from the round carried in the
   request. The subtree — not the requestor's chain prefix — is
   deliberate: a loss cut above a domain is shared by every domain
   below the cut, and the one reply that finally escalates past it
   must heal them all, the way a flat SRM reply's global flood does.
   A down-flood from the scope root reaches exactly its subtree, so
   the scope predicate is unrestricted. *)
let domain_transmit t ~requestor ~round =
  match t.domain with
  | None -> None
  | Some ctx ->
      let dom = Rdomain.dom_of ctx.dmap requestor in
      let level =
        level_for ~local_rounds:Params.domain_local_rounds
          ~max_lvl:(Rdomain.max_level ctx.dmap ~dom)
          round
      in
      Some
        (fun packet ->
          Net.Network.scoped_cast t.network ~from:t.self
            ~root:(Rdomain.scope_root ctx.dmap ~dom ~level)
            ~scope:(fun _ -> true)
            packet)

(* --- request scheduling ------------------------------------------- *)

let[@inline] two_pow k = Float.of_int (1 lsl min k 30)

(* [Sim.Rng.uniform], scaled here from the generator's 53-bit draw:
   inlined into the request and reply timers, its bounds and result
   stay unboxed. *)
let[@inline] uniform_draw rng lo hi =
  if hi <= lo then lo else lo +. (Float.of_int (Sim.Rng.bits53 rng) *. 0x1p-53 *. (hi -. lo))

(* Current scheduling weights: fixed from Params, or the adaptive
   controller's live values. One reader per weight: a pair would be a
   tuple allocated per timer draw. *)
let c1 t = match t.adaptive with Some a -> Adaptive.c1 a | None -> t.params.Params.c1

let c2 t = match t.adaptive with Some a -> Adaptive.c2 a | None -> t.params.Params.c2

let d1 t = match t.adaptive with Some a -> Adaptive.d1 a | None -> t.params.Params.d1

let d2 t = match t.adaptive with Some a -> Adaptive.d2 a | None -> t.params.Params.d2

(* Binary back-off multiplier. Flat SRM doubles without bound; domain
   mode caps the exponent at the local-round count, because past that
   point each round already doubles the escalation {e level} — and
   with it the target distance the interval scales by — so compounding
   2^round on top would square the growth and park deep-ladder rounds
   beyond the run horizon. *)
let[@inline] backoff_factor t round =
  match t.domain with
  | None -> two_pow round
  | Some _ -> two_pow (min round Params.domain_local_rounds)

let arm_request t ~src seq (st : request_state) =
  let d = request_dist t ~src ~round:st.backoff in
  let lo = c1 t *. d and w = c2 t *. d in
  let f = backoff_factor t st.backoff in
  st.timer <-
    arm t ~after:(uniform_draw t.rng (f *. lo) (f *. (lo +. w))) t.request_timer (key t ~src ~seq)

(* The request timer's callback. A request leaves [requests] only with
   its timer cancelled, so the key always finds it. *)
let fire_request t k =
  let st = Hashtbl.find t.requests k in
  let src = Key.src ~stride:t.stride k and seq = Key.seq ~stride:t.stride k in
  if not (has_packet ~src t ~seq) then begin
    let d = dist_to_source ~src t in
    Stats.Counters.bump t.counters ~node:t.self Stats.Counters.Rqst;
    if Float.is_nan st.times.first_sent then st.times.first_sent <- now t;
    let packet =
      {
        Net.Packet.sender = t.self;
        payload = Net.Packet.Request { src; seq; requestor = t.self; d_qs = d; round = st.backoff };
      }
    in
    (match t.domain with
    | None -> Net.Network.multicast t.network ~from:t.self packet
    | Some ctx ->
        let level = level_of ctx ~round:st.backoff in
        if level = 0 then t.n_local_requests <- t.n_local_requests + 1
        else t.n_escalations <- t.n_escalations + 1;
        Net.Network.scoped_cast t.network ~from:t.self
          ~root:(Rdomain.scope_root ctx.dmap ~dom:ctx.my_dom ~level)
          ~scope:(Rdomain.in_scope ctx.dmap ~dom:ctx.my_dom ~level)
          packet);
    (* Schedule the next round: k increments, the interval doubles, and
       a fresh back-off abstinence period opens (Section 2.1). *)
    if st.backoff < Params.max_rounds then begin
      st.backoff <- st.backoff + 1;
      st.times.abstain_until <-
        now t
        +. (backoff_factor t st.backoff *. t.params.Params.c3
           *. request_dist t ~src ~round:st.backoff);
      arm_request t ~src seq st
    end
    else st.timer <- Sim.Engine.no_timer
  end

(* Session-driven re-arm (Params.fault_tolerant): session evidence says
   packets up to [upto] of [src]'s stream exist, yet some of our pending
   requests for them have their next round more than one session
   period out — exponential back-off pushed them there during an
   outage.
   Restart those from round 0, and revive exhausted requests (all
   max_rounds fired, timer gone). A handle that fired without being
   replaced has its time in the past, so it never counts as stale. *)
let rearm_stale t ~src ~upto =
  let window = t.params.Params.session_period in
  Hashtbl.iter
    (fun k (st : request_state) ->
      if Key.src ~stride:t.stride k = src && Key.seq ~stride:t.stride k <= upto then begin
        let stale =
          if Sim.Engine.is_pending t.engine st.timer then
            Sim.Engine.fire_time t.engine st.timer -. now t > window
          else st.timer = Sim.Engine.no_timer
        in
        if stale then begin
          Sim.Engine.cancel t.engine st.timer;
          st.backoff <- 0;
          st.times.abstain_until <- neg_infinity;
          arm_request t ~src (Key.seq ~stride:t.stride k) st
        end
      end)
    t.requests

(* Host restart after a crash: soft state is gone. Distance estimates,
   scheduled replies, and abstinence horizons are dropped; reception
   state (the application already has those packets) and the set of
   known losses survive, with every pending request restarted from
   round 0 so recovery does not inherit a pre-crash back-off exponent. *)
let restart_recovery t =
  t.hooks.on_state_reset ();
  Session.reset t.session;
  let l = t.replies in
  Reply_table.filter l (fun r ->
      Sim.Engine.cancel t.engine l.timer.(r);
      l.timer.(r) <- Sim.Engine.no_timer;
      l.abstain.(r) <- Float.nan;
      not (inert t.clock l r));
  Hashtbl.iter
    (fun k (st : request_state) ->
      Sim.Engine.cancel t.engine st.timer;
      st.backoff <- 0;
      st.times.abstain_until <- neg_infinity;
      arm_request t ~src:(Key.src ~stride:t.stride k) (Key.seq ~stride:t.stride k) st)
    t.requests

(* Membership departure. Unlike a crash — which suspends soft state and
   resumes recovery on restart — a leave {e drops} everything: reception
   windows, detection history, pending requests and replies, session
   estimates. Every armed timer is cancelled, so a group whose last
   receiver departs drains its event queue instead of backing off to
   the horizon. Returns the number of detected-but-unrecovered losses
   dropped: the member was not present for those losses' full recovery
   windows, so the run's liveness accounting forgives them. *)
let depart t =
  t.hooks.on_state_reset ();
  let forgiven = Hashtbl.length t.requests in
  Hashtbl.iter (fun _ (st : request_state) -> Sim.Engine.cancel t.engine st.timer) t.requests;
  Hashtbl.reset t.requests;
  Reply_table.iter t.replies (fun r -> Sim.Engine.cancel t.engine t.replies.timer.(r));
  Reply_table.reset t.replies;
  (* Reception state goes too; a parked due-scan timer that fires after
     this finds (or lazily recreates) a stream with no data anchor and
     does nothing. Session-advertisement grace timers are not tracked,
     so [in_group] gates {!detect_loss} instead: one firing on the
     wiped host would otherwise charge the departed member for every
     packet of the stream. *)
  Hashtbl.reset t.streams;
  t.stream_srcs <- [];
  Session.reset t.session;
  t.in_group <- false;
  forgiven

(* Membership (re)join with empty soft state. The one thing a joiner
   must be told is where each stream already stands: baselining the
   window at the source's current max-seq uses the steady-mode
   "retired = delivered" convention ({!Window.baseline}), so detection
   — gap-, session-, and due-time-triggered alike — can only ever
   charge the member for packets sent after it joined. *)
let join t ~baselines =
  t.in_group <- true;
  List.iter
    (fun (src, upto) ->
      if upto > 0 then begin
        let st = stream t src in
        Window.baseline st.win ~upto;
        st.scanned_due <- max st.scanned_due upto;
        st.last_data_seq <- max st.last_data_seq upto
      end)
    baselines

(* A peer left the group: drop the session soft state naming it, so a
   later rejoin re-measures instead of inheriting a stale estimate. *)
let forget_peer t peer =
  t.hooks.on_peer_left peer;
  Session.forget_peer t.session peer

(* A request for [seq] was overheard while ours is pending: push ours to
   the next round unless inside the back-off abstinence period. *)
let back_off_request t ~src seq (st : request_state) =
  if now t >= st.times.abstain_until && st.backoff < Params.max_rounds then begin
    Sim.Engine.cancel t.engine st.timer;
    st.backoff <- st.backoff + 1;
    st.times.abstain_until <-
      now t
      +. (backoff_factor t st.backoff *. t.params.Params.c3
         *. request_dist t ~src ~round:st.backoff);
    arm_request t ~src seq st
  end

let detect_loss ?(initial_backoff = 0) t ~src seq =
  if t.in_group && not (has_packet ~src t ~seq || Hashtbl.mem t.requests (key t ~src ~seq))
  then begin
    (* A loss is detected once: its request lives until the packet
       arrives, and the packet never leaves again. *)
    let stream = stream t src in
    if Bytes.length stream.lost = 0 then stream.lost <- Bytes.make ((t.n_packets lsr 3) + 1) '\000';
    let i = seq lsr 3 in
    Bytes.set stream.lost i (Char.chr (Char.code (Bytes.get stream.lost i) lor (1 lsl (seq land 7))));
    t.n_detected <- t.n_detected + 1;
    let st =
      {
        backoff = initial_backoff;
        timer = Sim.Engine.no_timer;
        dup_requests = 0;
        times = { detected_at = now t; abstain_until = neg_infinity; first_sent = Float.nan };
      }
    in
    Hashtbl.replace t.requests (key t ~src ~seq) st;
    arm_request t ~src seq st;
    t.hooks.on_loss_detected ~src ~seq
  end

(* Domain-mode in-flight allowance. A session advertisement, an
   overheard request, or a repair flood can name packets still
   pipelined down a deep path — flat SRM is insulated against
   premature requests by timers scaled to the full source distance,
   but domain timers fire on local round-trips, so evidence-driven
   detection must wait until the packet is {e overdue}. The due time
   is anchored to this host's own data arrivals:
   [last_data_at + (Δseq + 1) · period] — the constant pipeline lag
   cancels, making the check depth-independent; one extra period
   absorbs jitter. Without an anchor (no data yet) everything defers:
   the first arrival re-triggers the scan. *)

(* How far past its nominal arrival time a packet may run before the
   gap is declared a loss: one period absorbs send jitter, plus a
   patience term proportional to the distance from the source —
   [(C1+C2+D1+D2+bias+2) · d_src], the worst-case local repair latency
   per unit of path. The proportionality is what makes upstream local
   recovery {e silencing}: a domain that catches a loss repairs with a
   subtree flood trailing the data stream by one local repair latency
   (its own slack included), and every further domain down the path has
   strictly more patience than that trail, so the repair lands before
   their due timers fire. The deep side of a loss cut is healed without
   ever recording a loss — which is what keeps the last-receiver
   makespan a local figure instead of a pipeline-deep one. Flat SRM
   gets the same insulation implicitly from request timers scaled by
   [C1 · d_src]; domain mode's request timers are local by design, so
   the patience must live in the detector. *)
let[@inline] inflight_slack t ~src st =
  if Float.is_nan st.inflight.slack then
    (st.inflight.slack <-
       (match t.domain with
       | None -> 0.
       | Some _ ->
           let p = t.params in
           (p.Params.c1 +. p.Params.c2 +. p.Params.d1 +. p.Params.d2 +. Params.domain_dr_bias +. 2.)
           *. dist_to_source ~src t));
  st.inflight.slack

let[@inline] due_time t ~src st ~period seq =
  st.inflight.last_data_at
  +. ((float_of_int (seq - st.last_data_seq) +. 1.) *. period)
  +. inflight_slack t ~src st

(* Detect every missing sequence whose due time has passed, and leave
   one timer parked at the next due instant for the rest. The frontier
   only ever advances, so each sequence is scanned O(1) times. *)
let scan_due t ~src ~period =
  let st = stream t src in
  if st.inflight.last_data_at > neg_infinity then begin
    let frontier = ref st.scanned_due in
    while
      !frontier < Window.max_seq st.win && due_time t ~src st ~period (!frontier + 1) <= now t
    do
      incr frontier;
      if not (has_packet ~src t ~seq:!frontier) then detect_loss t ~src !frontier
    done;
    st.scanned_due <- !frontier;
    if st.scanned_due < Window.max_seq st.win && st.due_scan = Sim.Engine.no_timer then
      st.due_scan <-
        arm t ~after:(due_time t ~src st ~period (st.scanned_due + 1) -. now t) t.due_timer src
  end

(* The due-scan timer of [src]'s stream fired. One parked before a
   [depart] dropped the stream finds the new stream's own timer, if
   any, still pending, and leaves it parked. *)
let fire_due t src =
  let st = stream t src in
  if not (Sim.Engine.is_pending t.engine st.due_scan) then st.due_scan <- Sim.Engine.no_timer;
  match t.domain with Some ctx -> scan_due t ~src ~period:ctx.period | None -> ()

(* Evidence that packets 1..m of [src]'s stream exist (sources send
   sequentially): any unseen gap at or below m is a loss — immediately
   in flat mode, once overdue in domain mode. *)
let seq_exists t ~src m =
  let win = (stream t src).win in
  match t.domain with
  | None ->
      if m > Window.max_seq win then begin
        let first = Window.max_seq win + 1 in
        Window.note_max_seq win (min m t.n_packets);
        for seq = first to Window.max_seq win do
          if not (has_packet ~src t ~seq) then detect_loss t ~src seq
        done
      end
  | Some ctx ->
      Window.note_max_seq win (min m t.n_packets);
      scan_due t ~src ~period:ctx.period

(* Whether [seq] is past the in-flight allowance — gate for detection
   paths that bypass {!seq_exists} (the overheard-request suppression
   join). Always true in flat mode. *)
let inflight_clear t ~src ~seq =
  match t.domain with
  | None -> true
  | Some ctx ->
      let st = stream t src in
      st.inflight.last_data_at > neg_infinity && due_time t ~src st ~period:ctx.period seq <= now t

(* --- obtaining packets -------------------------------------------- *)

let record_recovery t ~src seq (st : request_state) ~expedited ~repaired =
  Stats.Recovery.add t.recoveries
    {
      Stats.Recovery.node = t.self;
      src;
      seq;
      detected_at = st.times.detected_at;
      recovered_at = now t;
      rounds = st.backoff;
      expedited;
      repaired;
    }

(* [repaired] says how the packet got here: [true] for a
   retransmission (any reply), [false] for the original data packet —
   which can still close a detection when session advertisements
   outran the data flood on a deep path. *)
let obtain t ~src seq ~expedited ~repaired =
  if not (has_packet ~src t ~seq) then begin
    Window.add (stream t src).win ~seq;
    (* A pending request is now moot. A missing packet has one exactly
       when it was detected lost, so its request is the recovery. *)
    (match Hashtbl.find_opt t.requests (key t ~src ~seq) with
    | None -> ()
    | Some st ->
        Sim.Engine.cancel t.engine st.timer;
        Hashtbl.remove t.requests (key t ~src ~seq);
        (match t.adaptive with
        | Some a when not (Float.is_nan st.times.first_sent) ->
            let d = Float.max 1e-9 (dist_to_source ~src t) in
            Adaptive.note_request_cycle a ~dups:st.dup_requests
              ~delay_in_d:((st.times.first_sent -. st.times.detected_at) /. d)
        | _ -> ());
        record_recovery t ~src seq st ~expedited ~repaired);
    t.hooks.on_packet_obtained ~src ~seq ~expedited
  end

let note_sent ?(src = 0) t ~seq =
  if seq >= 1 && seq <= t.n_packets then begin
    let win = (stream t src).win in
    Window.add win ~seq;
    Window.note_max_seq win seq
  end

let delivered_prefix ?(src = 0) t = Window.prefix (stream t src).win

let retired_floor ?(src = 0) t = Window.base (stream t src).win

(* Steady-state retirement: drop per-packet state at or below [upto],
   clamped to each stream's own delivered prefix (the controller's
   global horizon already sits below every member's prefix; the clamp
   makes the operation safe to call with anything). Only {e inert}
   state is dropped — a reply timer still pending is left to fire and
   remove itself, and an abstinence horizon still in the future is
   kept — so a retiring run fires exactly the events a never-retiring
   run would. Request state needs no sweep: a request
   exists only while the packet is missing, and everything at or below
   the delivered prefix has arrived. *)
let retire_below t ~upto =
  Hashtbl.iter (fun _src st -> Window.retire_below st.win ~upto) t.streams;
  let l = t.replies in
  (* A pending reply timer and a running abstinence stay, for retired
     packets too; our replies to retired packets are forgotten. *)
  Reply_table.filter l (fun r ->
      let k = l.keys.(r) in
      (match Hashtbl.find_opt t.streams (Key.src ~stride:t.stride k) with
      | Some st when Key.seq ~stride:t.stride k <= Window.base st.win -> l.replied.(r) <- Float.nan
      | _ -> ());
      not (inert t.clock l r));
  t.hooks.on_retired ()

(* --- replies ------------------------------------------------------- *)

(* Inside the reply abstinence period ([nan], no horizon, compares
   false). *)
let reply_pending t ~src seq =
  let r = Reply_table.find t.replies (key t ~src ~seq) in
  r >= 0 && now t < t.replies.abstain.(r)

let reply_blocked ?(src = 0) t ~seq =
  let r = Reply_table.find t.replies (key t ~src ~seq) in
  r >= 0 && (t.replies.timer.(r) <> Sim.Engine.no_timer || now t < t.replies.abstain.(r))

let open_reply_abstinence t ~src seq ~requestor =
  let r = Reply_table.add t.replies (key t ~src ~seq) in
  t.replies.abstain.(r) <- now t +. (t.params.Params.d3 *. dist_to t requestor)

let emit_reply ?transmit ~delay_norm t ~src ~seq ~requestor ~d_qs ~expedited ~turning_point =
  let d_rq = dist_to t requestor in
  Stats.Counters.bump t.counters ~node:t.self
    (if expedited then Stats.Counters.Exp_repl else Stats.Counters.Repl);
  let packet =
    {
      Net.Packet.sender = t.self;
      payload =
        Net.Packet.Reply
          { src; seq; requestor; d_qs; replier = t.self; d_rq; expedited; turning_point };
    }
  in
  (match transmit with
  | Some send -> send packet
  | None -> Net.Network.multicast t.network ~from:t.self packet);
  (match t.adaptive with
  | Some a ->
      let r = Reply_table.add t.replies (key t ~src ~seq) in
      t.replies.replied.(r) <- now t;
      Adaptive.note_reply_cycle a ~dups:0 ~delay_in_d:delay_norm
  | None -> ());
  open_reply_abstinence t ~src seq ~requestor

let send_reply_now ?(src = 0) t ~seq ~requestor ~d_qs ~expedited ?turning_point ?transmit () =
  if has_packet ~src t ~seq && not (reply_blocked ~src t ~seq) then begin
    emit_reply ?transmit ~delay_norm:0. t ~src ~seq ~requestor ~d_qs ~expedited ~turning_point;
    true
  end
  else false

let schedule_reply t ~src ~seq ~requestor ~d_qs ~round =
  let d = dist_to t requestor in
  (* Domain mode: a designated replier keeps the paper's window; every
     other candidate waits an extra [dr_bias · d] first, so the local
     replier answers unchallenged unless it is down or missing the
     packet — the "designated replier with fallback" election. *)
  let w1 =
    match t.domain with
    | Some ctx when not (Rdomain.is_replier ctx.dmap t.self) ->
        d1 t +. Params.domain_dr_bias
    | _ -> d1 t
  in
  let lo = w1 *. d and w = d2 t *. d in
  let delay = uniform_draw t.rng lo (lo +. w) in
  let k = key t ~src ~seq in
  let timer = arm t ~after:delay t.reply_timer k in
  let l = t.replies in
  let r = Reply_table.add l k in
  l.timer.(r) <- timer;
  l.requestor.(r) <- requestor;
  l.round.(r) <- round;
  l.d_qs.(r) <- d_qs;
  l.delay_norm.(r) <- (if d <= 0. then 0. else delay /. d)

(* The reply timer's callback: the reply's parameters wait in its row,
   which stays while the timer is pending. *)
let fire_reply t k =
  let l = t.replies in
  let r = Reply_table.find l k in
  l.timer.(r) <- Sim.Engine.no_timer;
  let src = Key.src ~stride:t.stride k and seq = Key.seq ~stride:t.stride k in
  (* The abstinence may have opened while we waited (an expedited reply
     of ours, for instance). *)
  if (not (reply_pending t ~src seq)) && has_packet ~src t ~seq then begin
    let requestor = l.requestor.(r) in
    emit_reply
      ?transmit:(domain_transmit t ~requestor ~round:l.round.(r))
      ~delay_norm:l.delay_norm.(r) t ~src ~seq ~requestor ~d_qs:l.d_qs.(r) ~expedited:false
      ~turning_point:None
  end

(* --- incoming PDUs -------------------------------------------------- *)

let handle_request t ~src ~seq ~requestor ~d_qs ~round =
  if requestor <> t.self then begin
    seq_exists t ~src seq;
    if has_packet ~src t ~seq then begin
      (* Replier side: requests are discarded while a reply is
         scheduled or pending (Section 2.2). *)
      if not (reply_blocked ~src t ~seq) then schedule_reply t ~src ~seq ~requestor ~d_qs ~round
    end
    else
      match Hashtbl.find_opt t.requests (key t ~src ~seq) with
      | Some st ->
          st.dup_requests <- st.dup_requests + 1;
          back_off_request t ~src seq st
      | None ->
          (* We share the loss but have no pending request: the
             overheard request covers the current round, so join at the
             next one — that is the suppression. In domain mode the
             join also waits out the in-flight allowance (a neighbour
             one hop closer to the source legitimately detects before
             our copy lands); {!seq_exists} above raised [max_seq], so
             the due-time frontier picks the packet up if it really is
             lost. *)
          if inflight_clear t ~src ~seq then detect_loss ~initial_backoff:1 t ~src seq
  end

let handle_reply t payload ~src ~seq ~requestor ~replier =
  if replier <> t.self then begin
    seq_exists t ~src seq;
    let l = t.replies in
    let r = Reply_table.find l (key t ~src ~seq) in
    if r >= 0 then begin
      (* Suppression: cancel any scheduled reply for this packet. *)
      Sim.Engine.cancel t.engine l.timer.(r);
      l.timer.(r) <- Sim.Engine.no_timer;
      (* Adaptive: a reply for something we also replied to recently is
         a duplicate our timers failed to suppress. *)
      match t.adaptive with
      | Some a when not (Float.is_nan l.replied.(r)) ->
          Adaptive.note_reply_cycle a ~dups:1 ~delay_in_d:1.
      | _ -> ()
    end;
    open_reply_abstinence t ~src seq ~requestor;
    let expedited =
      match payload with Net.Packet.Reply { expedited; _ } -> expedited | _ -> false
    in
    t.reply_from <- replier;
    obtain t ~src seq ~expedited ~repaired:true;
    t.reply_from <- -1;
    t.hooks.on_reply_observed payload
  end

let on_packet t (p : Net.Packet.t) =
  match p.payload with
  | Net.Packet.Data { seq } ->
      let src = p.sender in
      (* Anchor before gap detection: sources send sequentially, so at
         the instant [seq] lands anything below it is already overdue —
         this arrival is what proves its predecessors late. *)
      let stream = stream t src in
      if seq > stream.last_data_seq then begin
        stream.last_data_seq <- seq;
        stream.inflight.last_data_at <- now t
      end;
      seq_exists t ~src (seq - 1);
      obtain t ~src seq ~expedited:false ~repaired:false;
      Window.note_max_seq stream.win seq
  | Net.Packet.Request { src; seq; requestor; d_qs; round } ->
      handle_request t ~src ~seq ~requestor ~d_qs ~round
  | Net.Packet.Reply { src; seq; requestor; replier; _ } ->
      handle_reply t p.payload ~src ~seq ~requestor ~replier
  | Net.Packet.Session _ -> Session.on_packet t.session p
  | Net.Packet.Exp_request _ -> ()

let start t ~session_until =
  (* Scale extension: with [oracle_distances], receivers skip the
     periodic tick — only the source's max-seq advertisements flow
     (what tail-loss detection needs), not the n^2 all-member
     exchange. *)
  if not (t.params.Params.oracle_distances && t.self <> 0) then
    Session.start t.session ~until:session_until

(* Accumulating publish: every member adds its share into the same
   group-wide metric names (see Obs.Registry). *)
let publish_metrics t registry =
  Obs.Registry.incr ~by:t.n_detected registry "srm/losses_detected";
  Obs.Registry.incr ~by:(Hashtbl.length t.requests) registry "srm/requests_open_at_end";
  let scheduled = ref 0 in
  Reply_table.iter t.replies (fun r ->
      if t.replies.timer.(r) <> Sim.Engine.no_timer then incr scheduled);
  Obs.Registry.incr ~by:!scheduled registry "srm/replies_scheduled_at_end";
  Obs.Registry.incr ~by:(List.length (Session.known_peers t.session)) registry
    "srm/session_peer_links";
  (match t.domain with
  | Some _ ->
      Obs.Registry.incr ~by:t.n_local_requests registry "srm/domain_local_requests";
      Obs.Registry.incr ~by:t.n_escalations registry "srm/domain_escalations"
  | None -> ());
  Hashtbl.iter
    (fun _ (st : request_state) ->
      Obs.Registry.observe registry "srm/open_request_rounds" (float_of_int st.backoff))
    t.requests

let create ?domain ~network ~self ~params ~n_packets ~period ~counters ~recoveries () =
  let rng = Sim.Rng.split (Sim.Engine.rng (Net.Network.engine network)) in
  let domain =
    Option.map
      (fun dmap ->
        let my_dom = Rdomain.dom_of dmap self in
        { dmap; my_dom; max_lvl = Rdomain.max_level dmap ~dom:my_dom; period })
      domain
  in
  (* The session needs callbacks into the host being constructed; tie
     the knot with forward cells. *)
  let get_max_seqs_cell = ref (fun () -> []) in
  let on_max_seq_cell = ref (fun ~src:_ (_ : int) -> ()) in
  (* Oracle distances are memoized per host: the underlying tree walk
     is O(depth), while the scheduling hot path asks for the same few
     peers (the source, recent requestors) over and over. The memo
     only ever holds those few. A domain host always reads them: its
     request timers aim at designated repliers, whose distances the
     session exchange never converges for. *)
  let oracle =
    if params.Params.oracle_distances || Option.is_some domain then (
      let memo = Hashtbl.create 8 in
      Some
        (fun peer ->
          match Hashtbl.find memo peer with
          | d -> d
          | exception Not_found ->
              let d = Net.Network.dist network self peer in
              Hashtbl.replace memo peer d;
              d))
    else None
  in
  let session =
    Session.create ?oracle ~network ~self ~period:params.Params.session_period
      ~rng:(Sim.Rng.split rng)
      ~get_max_seqs:(fun () -> !get_max_seqs_cell ())
      ~on_max_seq:(fun ~src m -> !on_max_seq_cell ~src m)
      ~on_send:(fun () -> Stats.Counters.bump counters ~node:self Stats.Counters.Sess)
      ()
  in
  let engine = Net.Network.engine network in
  let clock = Sim.Engine.clock engine in
  let t =
    {
      network;
      engine;
      clock;
      self;
      params;
      n_packets;
      stride = n_packets + 1;
      rng;
      session;
      streams = Hashtbl.create 4;
      stream_srcs = [];
      (* Small initial sizes on purpose: tables grow on demand, and at
         10^4 members the per-host footprint is what decides whether
         the group's hot state fits in cache — 64-bucket empties were
         ~4 KB per host, tens of MB across a scale group, and the
         delivery path touches a random host's tables per event. *)
      requests = Hashtbl.create 8;
      replies = Reply_table.create ~disposable:(inert clock) 4;
      fire_at = [| 0. |];
      request_timer = ignore;
      reply_timer = ignore;
      grace_timer = ignore;
      due_timer = ignore;
      adaptive = (if params.Params.adaptive then Some (Adaptive.create ~initial:params) else None);
      domain;
      n_local_requests = 0;
      n_escalations = 0;
      n_detected = 0;
      in_group = true;
      reply_from = -1;
      counters;
      recoveries;
      hooks =
        {
          on_loss_detected = (fun ~src:_ ~seq:_ -> ());
          on_reply_observed = (fun _ -> ());
          on_packet_obtained = (fun ~src:_ ~seq:_ ~expedited:_ -> ());
          on_state_reset = ignore;
          on_peer_left = ignore;
          on_retired = ignore;
        };
    }
  in
  t.request_timer <- fire_request t;
  t.reply_timer <- fire_reply t;
  t.grace_timer <-
    (fun k -> seq_exists t ~src:(Key.src ~stride:t.stride k) (Key.seq ~stride:t.stride k));
  t.due_timer <- fire_due t;
  get_max_seqs_cell := (fun () -> max_seqs t);
  (* A peer's session max-seq may name packets still in flight to us
     (the peer can be closer to the source). Gap- and request-triggered
     detection cannot be premature — a request fires at least 2·d_qs
     after the requestor's own copy landed, which bounds our copy's
     remaining flight time — but session-triggered detection must wait
     out one source-path delay (plus serialization slack) before
     declaring a gap a loss. *)
  on_max_seq_cell :=
    (fun ~src m ->
      if params.Params.fault_tolerant then rearm_stale t ~src ~upto:m;
      if m > Window.max_seq (stream t src).win then begin
        let grace = dist_to_source ~src t +. 0.05 in
        (* Domain mode: {!seq_exists} itself defers detection until the
           advertised packets are overdue (the in-flight allowance), so
           the flat grace suffices here — but a host that has received
           no data yet takes its anchor from this first advertisement
           (as if packet 0 just landed), else a stream lost in its
           entirety would never be declared missing. *)
        (match t.domain with
        | Some _ ->
            let st = stream t src in
            if st.inflight.last_data_at = neg_infinity then begin
              st.inflight.last_data_at <- now t;
              st.last_data_seq <- 0
            end
        | None -> ());
        (* [seq_exists] clamps the advertisement to [n_packets] anyway;
           clamped, it packs into a key. *)
        ignore (arm t ~after:grace t.grace_timer (key t ~src ~seq:(min m t.n_packets)))
      end);
  t
