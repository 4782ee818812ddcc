let log = Logs.Src.create "srm.host" ~doc:"SRM host events"

module Log = (val Logs.src_log log : Logs.LOG)

type request_state = {
  mutable backoff : int; (* k = number of times this request was scheduled *)
  mutable timer : Sim.Engine.timer option;
  mutable abstain_until : float; (* back-off abstinence horizon *)
  mutable dup_requests : int; (* duplicate requests overheard for this loss *)
  mutable first_sent : float option; (* when our own first request fired *)
}

(* Test-only protocol mutations: each one breaks a different invariant
   the fault oracle asserts, proving the checker can actually fail. *)
type mutation =
  | Suppress_replies (* schedule replies normally but never transmit *)
  | Double_deliver (* fire on_packet_obtained twice per packet *)

type hooks = {
  mutable on_loss_detected : src:int -> seq:int -> unit;
  mutable on_reply_observed : Net.Packet.payload -> unit;
  mutable on_packet_obtained : src:int -> seq:int -> expedited:bool -> unit;
}

(* Hierarchical local recovery (lib/domain): the host's own domain and
   chain height are resolved once at creation; per-request escalation
   levels index into them. *)
type domain_ctx = { dmap : Rdomain.t; my_dom : int; max_lvl : int }

let no_hooks () =
  {
    on_loss_detected = (fun ~src:_ ~seq:_ -> ());
    on_reply_observed = (fun _ -> ());
    on_packet_obtained = (fun ~src:_ ~seq:_ ~expedited:_ -> ());
  }

(* Per-stream reception state; SRM is multi-source, so every table
   below is keyed by (stream source, sequence number). The delivery
   map is windowed for steady-state runs: byte [i] of [received]
   covers sequence [base + 1 + i]; everything at or below [base] has
   been retired by the steady controller, which only ever retires
   fully-delivered prefixes — so a retired seq reads as delivered.
   [prefix] is the contiguous delivered prefix (every seq <= prefix is
   locally available), the quantity the stability horizon is computed
   from. With no retirement ([base] stays 0) the window grows to
   [n_packets] on demand and behaves exactly like the old flat
   bitmap. *)
type stream_state = {
  mutable received : Bytes.t; (* window: 0 = missing, 1 = have *)
  mutable base : int; (* retired floor: seqs <= base are delivered *)
  mutable prefix : int; (* contiguous delivered prefix *)
  mutable max_seq : int;
  (* Data-arrival anchor for the domain-mode in-flight allowance: the
     last original data packet of this stream to land here, and when.
     Unlike [max_seq] (which session advertisements also advance) this
     tracks only real arrivals, so [last_data_at + Δseq · period]
     predicts when a later packet is {e due} on this host's path —
     constant pipeline lag cancels out. *)
  mutable last_data_seq : int;
  mutable last_data_at : float;
  (* Due-time detection frontier (domain mode): every sequence at or
     below it has been either delivered or declared lost; sequences
     above wait until they are overdue. [due_pending] coalesces the
     rescan timer — at most one per stream is ever outstanding. *)
  mutable scanned_due : int;
  mutable due_pending : bool;
  (* Per-stream in-flight slack, lazily computed (nan = unset): scales
     with this host's distance to the stream's source. *)
  mutable inflight_slack : float;
  (* One bit per seq whose detection retirement swept (empty until the
     first), so [suffered_loss] answers for retired seqs as it would
     had nothing been retired. *)
  mutable lost_retired : Bytes.t;
}

(* Streams start with a bounded window so a million-packet run never
   materializes the full per-receiver bitmap; short runs reach
   [n_packets] immediately and allocate exactly what they used to. *)
let initial_window = 4096

let win_get st ~seq =
  seq <= st.base
  ||
  let i = seq - st.base - 1 in
  i < Bytes.length st.received && Bytes.get st.received i = '\001'

let rec advance_prefix st len =
  let i = st.prefix - st.base in
  if i < len && Bytes.get st.received i = '\001' then begin
    st.prefix <- st.prefix + 1;
    advance_prefix st len
  end

let win_set ~n_packets st ~seq =
  if seq > st.base then begin
    let i = seq - st.base - 1 in
    let len = Bytes.length st.received in
    let len =
      if i >= len then begin
        let len' = min (n_packets - st.base) (max (i + 1) (max (2 * len) 64)) in
        let b = Bytes.make len' '\000' in
        Bytes.blit st.received 0 b 0 len;
        st.received <- b;
        len'
      end
      else len
    in
    Bytes.set st.received i '\001';
    if seq = st.prefix + 1 then advance_prefix st len
  end

type t = {
  network : Net.Network.t;
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
  (* Per-loss tables below are keyed by packed (src, seq) ints. *)
  requests : (Key.t, request_state) Hashtbl.t;
  replies : (Key.t, Sim.Engine.timer) Hashtbl.t; (* scheduled reply *)
  reply_abstain : (Key.t, float) Hashtbl.t; (* -> horizon *)
  detect_info : (Key.t, float) Hashtbl.t; (* -> detection time *)
  replied : (Key.t, float) Hashtbl.t; (* -> when we sent a reply *)
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
  mutable retired_losses : bool; (* some stream's [lost_retired] is set *)
  mutable reply_from : int; (* replier of the reply being handled; -1 outside one *)
  counters : Stats.Counters.t;
  recoveries : Stats.Recovery.t;
  hooks : hooks;
  mutable mutations : mutation list;
}

let key t ~src ~seq = Key.make ~stride:t.stride ~src ~seq

let network t = t.network

let engine t = Net.Network.engine t.network

let now t = Sim.Engine.now (engine t)

let self t = t.self

let session t = t.session

let hooks t = t.hooks

let inject_mutation t m = if not (List.mem m t.mutations) then t.mutations <- m :: t.mutations

let mutated t m = List.mem m t.mutations

let stream t src =
  match Hashtbl.find_opt t.streams src with
  | Some s -> s
  | None ->
      let s =
        {
          received = Bytes.make (min t.n_packets initial_window) '\000';
          base = 0;
          prefix = 0;
          max_seq = 0;
          last_data_seq = 0;
          last_data_at = neg_infinity;
          scanned_due = 0;
          due_pending = false;
          inflight_slack = Float.nan;
          lost_retired = Bytes.empty;
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
  seq >= 1 && seq <= t.n_packets && win_get (stream t src) ~seq

let reply_sender t = if t.reply_from < 0 then None else Some t.reply_from

let suffered_loss ?(src = 0) t ~seq =
  Hashtbl.mem t.detect_info (key t ~src ~seq)
  || t.retired_losses
     &&
     match Hashtbl.find_opt t.streams src with
     | Some st ->
         let i = seq lsr 3 in
         i < Bytes.length st.lost_retired
         && Char.code (Bytes.get st.lost_retired i) land (1 lsl (seq land 7)) <> 0
     | None -> false

let max_seq_seen ?(src = 0) t = (stream t src).max_seq

let max_seqs t =
  List.filter_map
    (fun src ->
      match Hashtbl.find_opt t.streams src with
      | Some st when st.max_seq > 0 -> Some (src, st.max_seq)
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

let domain t = Option.map (fun c -> c.dmap) t.domain

let domain_local_requests t = t.n_local_requests

let domain_escalations t = t.n_escalations

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

let level_of t ctx ~round =
  level_for ~local_rounds:t.params.Params.domain_local_rounds ~max_lvl:ctx.max_lvl round

(* The distance a request timer scales by: flat SRM uses the source,
   domain mode the escalation level's designated replier — so local
   rounds fire on local round-trip times instead of the full
   source-path delay (the whole point on deep chains). *)
let request_dist t ~src ~round =
  match t.domain with
  | None -> dist_to_source ~src t
  | Some ctx ->
      dist_to t (Rdomain.request_target ctx.dmap ~node:t.self ~level:(level_of t ctx ~round))

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
        level_for ~local_rounds:t.params.Params.domain_local_rounds
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

let two_pow k = Float.of_int (1 lsl min k 30)

(* Current scheduling weights: fixed from Params, or the adaptive
   controller's live values. *)
let request_weights t =
  match t.adaptive with
  | Some a -> (Adaptive.c1 a, Adaptive.c2 a)
  | None -> (t.params.Params.c1, t.params.Params.c2)

let reply_weights t =
  match t.adaptive with
  | Some a -> (Adaptive.d1 a, Adaptive.d2 a)
  | None -> (t.params.Params.d1, t.params.Params.d2)

(* Binary back-off multiplier. Flat SRM doubles without bound; domain
   mode caps the exponent at the local-round count, because past that
   point each round already doubles the escalation {e level} — and
   with it the target distance the interval scales by — so compounding
   2^round on top would square the growth and park deep-ladder rounds
   beyond the run horizon. *)
let backoff_factor t round =
  match t.domain with
  | None -> two_pow round
  | Some _ -> two_pow (min round t.params.Params.domain_local_rounds)

let request_interval t ~src (st : request_state) =
  let d = request_dist t ~src ~round:st.backoff in
  let w1, w2 = request_weights t in
  let lo = w1 *. d and w = w2 *. d in
  let f = backoff_factor t st.backoff in
  Sim.Rng.uniform t.rng (f *. lo) (f *. (lo +. w))

let rec arm_request t ~src seq st =
  st.timer <-
    Some
      (Sim.Engine.schedule (engine t) ~after:(request_interval t ~src st) (fun () ->
           fire_request t ~src seq st))

and fire_request t ~src seq st =
  if not (has_packet ~src t ~seq) then begin
    let d = dist_to_source ~src t in
    Log.debug (fun m ->
        m "t=%.4f host %d RQST src %d seq %d round %d d_hs=%.4f" (now t) t.self src seq
          st.backoff d);
    Stats.Counters.bump t.counters ~node:t.self Stats.Counters.Rqst;
    if st.first_sent = None then st.first_sent <- Some (now t);
    let packet =
      {
        Net.Packet.sender = t.self;
        payload = Net.Packet.Request { src; seq; requestor = t.self; d_qs = d; round = st.backoff };
      }
    in
    (match t.domain with
    | None -> Net.Network.multicast t.network ~from:t.self packet
    | Some ctx ->
        let level = level_of t ctx ~round:st.backoff in
        if level = 0 then t.n_local_requests <- t.n_local_requests + 1
        else t.n_escalations <- t.n_escalations + 1;
        Net.Network.scoped_cast t.network ~from:t.self
          ~root:(Rdomain.scope_root ctx.dmap ~dom:ctx.my_dom ~level)
          ~scope:(Rdomain.in_scope ctx.dmap ~dom:ctx.my_dom ~level)
          packet);
    (* Schedule the next round: k increments, the interval doubles, and
       a fresh back-off abstinence period opens (Section 2.1). *)
    if st.backoff < t.params.Params.max_rounds then begin
      st.backoff <- st.backoff + 1;
      st.abstain_until <-
        now t
        +. (backoff_factor t st.backoff *. t.params.Params.c3
           *. request_dist t ~src ~round:st.backoff);
      arm_request t ~src seq st
    end
    else st.timer <- None
  end

(* Session-driven re-arm (Params.rearm_backoff): session evidence says
   packets up to [upto] of [src]'s stream exist, yet some of our pending
   requests for them have their next round more than [window] seconds
   out — exponential back-off pushed them there during an outage.
   Restart those from round 0, and revive exhausted requests (all
   max_rounds fired, timer gone). *)
let rearm_stale t ~src ~upto ~window =
  Hashtbl.iter
    (fun k (st : request_state) ->
      if Key.src ~stride:t.stride k = src && Key.seq ~stride:t.stride k <= upto then begin
        let stale =
          match st.timer with
          | None -> true
          | Some timer -> Sim.Engine.fire_time timer -. now t > window
        in
        if stale then begin
          (match st.timer with Some timer -> Sim.Engine.cancel timer | None -> ());
          st.backoff <- 0;
          st.abstain_until <- neg_infinity;
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
  Session.reset t.session;
  Hashtbl.iter (fun _ timer -> Sim.Engine.cancel timer) t.replies;
  Hashtbl.reset t.replies;
  Hashtbl.reset t.reply_abstain;
  Hashtbl.iter
    (fun k (st : request_state) ->
      (match st.timer with Some timer -> Sim.Engine.cancel timer | None -> ());
      st.backoff <- 0;
      st.abstain_until <- neg_infinity;
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
  let forgiven = Hashtbl.length t.requests in
  Hashtbl.iter
    (fun _ (st : request_state) ->
      match st.timer with Some timer -> Sim.Engine.cancel timer | None -> ())
    t.requests;
  Hashtbl.reset t.requests;
  Hashtbl.iter (fun _ timer -> Sim.Engine.cancel timer) t.replies;
  Hashtbl.reset t.replies;
  Hashtbl.reset t.reply_abstain;
  Hashtbl.reset t.detect_info;
  Hashtbl.reset t.replied;
  (* Reception state goes too; a parked due-scan timer that fires after
     this finds (or lazily recreates) a stream with no data anchor and
     does nothing. Session-advertisement grace timers are anonymous
     (uncancellable), so [in_group] gates {!detect_loss} instead: one
     firing on the wiped host would otherwise charge the departed
     member for every packet of the stream. *)
  Hashtbl.reset t.streams;
  t.stream_srcs <- [];
  Session.reset t.session;
  t.in_group <- false;
  forgiven

(* Membership (re)join with empty soft state. The one thing a joiner
   must be told is where each stream already stands: baselining the
   window at the source's current max-seq uses the steady-mode
   "retired = delivered" convention ([win_get] answers true at or below
   [base]), so detection — gap-, session-, and due-time-triggered alike
   — can only ever charge the member for packets sent after it joined. *)
let join t ~baselines =
  t.in_group <- true;
  List.iter
    (fun (src, upto) ->
      if upto > 0 then begin
        let st = stream t src in
        (* [max] for idempotence; the window bytes are all-zero here
           (fresh host, or [depart] just wiped them), so moving [base]
           shifts no live bits. *)
        st.base <- max st.base upto;
        st.prefix <- max st.prefix upto;
        st.max_seq <- max st.max_seq upto;
        st.scanned_due <- max st.scanned_due upto;
        st.last_data_seq <- max st.last_data_seq upto
      end)
    baselines

(* A peer left the group: drop the session soft state naming it, so a
   later rejoin re-measures instead of inheriting a stale estimate. *)
let forget_peer t peer = Session.forget_peer t.session peer

(* A request for [seq] was overheard while ours is pending: push ours to
   the next round unless inside the back-off abstinence period. *)
let back_off_request t ~src seq st =
  if now t >= st.abstain_until && st.backoff < t.params.Params.max_rounds then begin
    (match st.timer with Some timer -> Sim.Engine.cancel timer | None -> ());
    st.backoff <- st.backoff + 1;
    st.abstain_until <-
      now t
      +. (backoff_factor t st.backoff *. t.params.Params.c3
         *. request_dist t ~src ~round:st.backoff);
    arm_request t ~src seq st
  end

let detect_loss ?(initial_backoff = 0) t ~src seq =
  if t.in_group && not (has_packet ~src t ~seq || Hashtbl.mem t.requests (key t ~src ~seq))
  then begin
    if not (Hashtbl.mem t.detect_info (key t ~src ~seq)) then begin
      Hashtbl.replace t.detect_info (key t ~src ~seq) (now t);
      Log.debug (fun m -> m "t=%.4f host %d DETECT src %d seq %d" (now t) t.self src seq);
      t.n_detected <- t.n_detected + 1
    end;
    let st =
      {
        backoff = initial_backoff;
        timer = None;
        abstain_until = neg_infinity;
        dup_requests = 0;
        first_sent = None;
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
let inflight_period t =
  match t.domain with None -> None | Some _ -> t.params.Params.domain_inflight_period

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
let inflight_slack t ~src st =
  if Float.is_nan st.inflight_slack then
    (st.inflight_slack <-
       (match t.domain with
       | None -> 0.
       | Some _ ->
           let p = t.params in
           (p.Params.c1 +. p.Params.c2 +. p.Params.d1 +. p.Params.d2
           +. p.Params.domain_dr_bias +. 2.)
           *. dist_to_source ~src t));
  st.inflight_slack

let due_time t ~src st ~period seq =
  st.last_data_at
  +. ((float_of_int (seq - st.last_data_seq) +. 1.) *. period)
  +. inflight_slack t ~src st

(* Detect every missing sequence whose due time has passed, and leave
   one timer parked at the next due instant for the rest. The frontier
   only ever advances, so each sequence is scanned O(1) times. *)
let rec scan_due t ~src ~period =
  let st = stream t src in
  if st.last_data_at > neg_infinity then begin
    let frontier = ref st.scanned_due in
    while !frontier < st.max_seq && due_time t ~src st ~period (!frontier + 1) <= now t do
      incr frontier;
      if not (has_packet ~src t ~seq:!frontier) then detect_loss t ~src !frontier
    done;
    st.scanned_due <- !frontier;
    if st.scanned_due < st.max_seq && not st.due_pending then begin
      st.due_pending <- true;
      let after = Float.max 0. (due_time t ~src st ~period (st.scanned_due + 1) -. now t) in
      ignore
        (Sim.Engine.schedule (engine t) ~after (fun () ->
             st.due_pending <- false;
             scan_due t ~src ~period))
    end
  end

(* Evidence that packets 1..m of [src]'s stream exist (sources send
   sequentially): any unseen gap at or below m is a loss — immediately
   in flat mode, once overdue in domain mode. *)
let seq_exists t ~src m =
  let stream = stream t src in
  match inflight_period t with
  | None ->
      if m > stream.max_seq then begin
        let first = stream.max_seq + 1 in
        stream.max_seq <- min m t.n_packets;
        for seq = first to stream.max_seq do
          if not (has_packet ~src t ~seq) then detect_loss t ~src seq
        done
      end
  | Some period ->
      if m > stream.max_seq then stream.max_seq <- min m t.n_packets;
      scan_due t ~src ~period

(* Whether [seq] is past the in-flight allowance — gate for detection
   paths that bypass {!seq_exists} (the overheard-request suppression
   join). Always true in flat mode. *)
let inflight_clear t ~src ~seq =
  match inflight_period t with
  | None -> true
  | Some period ->
      let st = stream t src in
      st.last_data_at > neg_infinity && due_time t ~src st ~period seq <= now t

(* --- obtaining packets -------------------------------------------- *)

let record_recovery t ~src seq ~expedited ~rounds ~repaired =
  match Hashtbl.find_opt t.detect_info (key t ~src ~seq) with
  | None -> ()
  | Some detected_at ->
      Stats.Recovery.add t.recoveries
        {
          Stats.Recovery.node = t.self;
          src;
          seq;
          detected_at;
          recovered_at = now t;
          rounds;
          expedited;
          repaired;
        }

(* [repaired] says how the packet got here: [true] for a
   retransmission (any reply), [false] for the original data packet —
   which can still close a detection when session advertisements
   outran the data flood on a deep path. *)
let obtain t ~src seq ~expedited ~repaired =
  if not (has_packet ~src t ~seq) then begin
    win_set ~n_packets:t.n_packets (stream t src) ~seq;
    (* A pending request is now moot. *)
    let rounds =
      match Hashtbl.find_opt t.requests (key t ~src ~seq) with
      | None -> 0
      | Some st ->
          (match st.timer with Some timer -> Sim.Engine.cancel timer | None -> ());
          Hashtbl.remove t.requests (key t ~src ~seq);
          (match (t.adaptive, st.first_sent, Hashtbl.find_opt t.detect_info (key t ~src ~seq)) with
          | Some a, Some sent, Some detected ->
              let d = Float.max 1e-9 (dist_to_source ~src t) in
              Adaptive.note_request_cycle a ~dups:st.dup_requests
                ~delay_in_d:((sent -. detected) /. d)
          | _ -> ());
          st.backoff
    in
    if suffered_loss ~src t ~seq then begin
      Log.debug (fun m -> m "t=%.4f host %d RECOVERED src %d seq %d" (now t) t.self src seq);
      record_recovery t ~src seq ~expedited ~rounds ~repaired
    end;
    t.hooks.on_packet_obtained ~src ~seq ~expedited;
    if mutated t Double_deliver then t.hooks.on_packet_obtained ~src ~seq ~expedited
  end

let note_sent ?(src = 0) t ~seq =
  if seq >= 1 && seq <= t.n_packets then begin
    let stream = stream t src in
    win_set ~n_packets:t.n_packets stream ~seq;
    if seq > stream.max_seq then stream.max_seq <- seq
  end

let delivered_prefix ?(src = 0) t = (stream t src).prefix

let retired_floor ?(src = 0) t = (stream t src).base

(* Steady-state retirement: drop per-packet state at or below [upto],
   clamped to each stream's own delivered prefix (the controller's
   global horizon already sits below every member's prefix; the clamp
   makes the operation safe to call with anything). Only {e inert}
   state is dropped — a reply timer still pending is left to fire and
   remove itself, and an abstinence horizon still in the future is
   kept — so a finite-window run fires exactly the events an
   infinite-window run would. Request state needs no sweep: a request
   exists only while the packet is missing, and everything at or below
   the delivered prefix has arrived. *)
let retire_below t ~upto =
  Hashtbl.iter
    (fun _src st ->
      let upto = min upto st.prefix in
      if upto > st.base then begin
        let len = Bytes.length st.received in
        let shift = upto - st.base in
        if shift >= len then Bytes.fill st.received 0 len '\000'
        else begin
          Bytes.blit st.received shift st.received 0 (len - shift);
          Bytes.fill st.received (len - shift) shift '\000'
        end;
        st.base <- upto
      end)
    t.streams;
  let retired k =
    let src = Key.src ~stride:t.stride k and seq = Key.seq ~stride:t.stride k in
    match Hashtbl.find_opt t.streams src with Some st -> seq <= st.base | None -> false
  in
  let sweep ?(keep = fun _ _ -> false) table =
    let dead = Hashtbl.fold (fun k v acc -> if retired k && not (keep k v) then k :: acc else acc) table [] in
    List.iter (Hashtbl.remove table) dead
  in
  sweep t.replies ~keep:(fun _ timer -> Sim.Engine.is_pending timer);
  sweep t.reply_abstain ~keep:(fun _ horizon -> horizon > now t);
  (* A reply can still arrive for a retired loss (a duplicate, a repair
     held up by an outage), and CESRM digests it by [suffered_loss]:
     keep that answer as a bit before the detection goes. *)
  Hashtbl.iter
    (fun k _ ->
      if retired k then begin
        let st = Hashtbl.find t.streams (Key.src ~stride:t.stride k) in
        if Bytes.length st.lost_retired = 0 then
          st.lost_retired <- Bytes.make ((t.n_packets lsr 3) + 1) '\000';
        let seq = Key.seq ~stride:t.stride k in
        let i = seq lsr 3 in
        Bytes.set st.lost_retired i
          (Char.chr (Char.code (Bytes.get st.lost_retired i) lor (1 lsl (seq land 7))));
        t.retired_losses <- true
      end)
    t.detect_info;
  sweep t.detect_info;
  sweep t.replied

(* --- replies ------------------------------------------------------- *)

let reply_pending t ~src seq =
  match Hashtbl.find_opt t.reply_abstain (key t ~src ~seq) with
  | Some horizon -> now t < horizon
  | None -> false

let reply_blocked ?(src = 0) t ~seq =
  Hashtbl.mem t.replies (key t ~src ~seq) || reply_pending t ~src seq

let open_reply_abstinence t ~src seq ~requestor =
  Hashtbl.replace t.reply_abstain (key t ~src ~seq)
    (now t +. (t.params.Params.d3 *. dist_to t requestor))

let emit_reply ?transmit ?(delay_norm = 0.) t ~src ~seq ~requestor ~d_qs ~expedited
    ~turning_point =
  let d_rq = dist_to t requestor in
  Log.debug (fun m ->
      m "t=%.4f host %d %s src %d seq %d (req=%d d_rq=%.4f)" (now t) t.self
        (if expedited then "EREPL" else "REPL")
        src seq requestor d_rq);
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
  (if not (mutated t Suppress_replies) then
     match transmit with
     | Some send -> send packet
     | None -> Net.Network.multicast t.network ~from:t.self packet);
  (match t.adaptive with
  | Some a ->
      Hashtbl.replace t.replied (key t ~src ~seq) (now t);
      Adaptive.note_reply_cycle a ~dups:0 ~delay_in_d:delay_norm
  | None -> ());
  open_reply_abstinence t ~src seq ~requestor

let send_reply_now ?(src = 0) t ~seq ~requestor ~d_qs ~expedited ?turning_point ?transmit () =
  if has_packet ~src t ~seq && not (reply_blocked ~src t ~seq) then begin
    emit_reply ?transmit t ~src ~seq ~requestor ~d_qs ~expedited ~turning_point;
    true
  end
  else false

let schedule_reply t ~src ~seq ~requestor ~d_qs ~round =
  let d = dist_to t requestor in
  let w1, w2 = reply_weights t in
  (* Domain mode: a designated replier keeps the paper's window; every
     other candidate waits an extra [dr_bias · d] first, so the local
     replier answers unchallenged unless it is down or missing the
     packet — the "designated replier with fallback" election. *)
  let w1 =
    match t.domain with
    | Some ctx when not (Rdomain.is_replier ctx.dmap t.self) ->
        w1 +. t.params.Params.domain_dr_bias
    | _ -> w1
  in
  let lo = w1 *. d and w = w2 *. d in
  let delay = Sim.Rng.uniform t.rng lo (lo +. w) in
  Log.debug (fun m ->
      m "t=%.4f host %d schedule REPL seq %d for +%.4f (d_rq=%.4f req=%d)" (now t) t.self seq
        delay d requestor);
  let delay_norm = if d <= 0. then 0. else delay /. d in
  let transmit = domain_transmit t ~requestor ~round in
  let timer =
    Sim.Engine.schedule (engine t) ~after:delay (fun () ->
        Hashtbl.remove t.replies (key t ~src ~seq);
        (* The abstinence may have opened while we waited (an expedited
           reply of ours, for instance). *)
        if (not (reply_pending t ~src seq)) && has_packet ~src t ~seq then
          emit_reply ?transmit ~delay_norm t ~src ~seq ~requestor ~d_qs ~expedited:false
            ~turning_point:None)
  in
  Hashtbl.replace t.replies (key t ~src ~seq) timer

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
    (* Suppression: cancel any scheduled reply for this packet. *)
    (match Hashtbl.find_opt t.replies (key t ~src ~seq) with
    | Some timer ->
        Sim.Engine.cancel timer;
        Hashtbl.remove t.replies (key t ~src ~seq)
    | None -> ());
    (* Adaptive: a reply for something we also replied to recently is a
       duplicate our timers failed to suppress. *)
    (match (t.adaptive, Hashtbl.find_opt t.replied (key t ~src ~seq)) with
    | Some a, Some _ -> Adaptive.note_reply_cycle a ~dups:1 ~delay_in_d:1.
    | _ -> ());
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
        stream.last_data_at <- now t
      end;
      seq_exists t ~src (seq - 1);
      obtain t ~src seq ~expedited:false ~repaired:false;
      if seq > stream.max_seq then stream.max_seq <- seq
  | Net.Packet.Request { src; seq; requestor; d_qs; round } ->
      handle_request t ~src ~seq ~requestor ~d_qs ~round
  | Net.Packet.Reply { src; seq; requestor; replier; _ } ->
      handle_reply t p.payload ~src ~seq ~requestor ~replier
  | Net.Packet.Session _ -> Session.on_packet t.session p
  | Net.Packet.Exp_request _ -> ()

let start t ~session_until =
  (* Scale extension: with [session_sources_only], receivers skip the
     periodic tick — only the source's max-seq advertisements flow
     (what tail-loss detection needs), not the n^2 all-member
     exchange. *)
  if not (t.params.Params.session_sources_only && t.self <> 0) then
    Session.start t.session ~until:session_until

(* Accumulating publish: every member adds its share into the same
   group-wide metric names (see Obs.Registry). *)
let publish_metrics t registry =
  Obs.Registry.incr ~by:t.n_detected registry "srm/losses_detected";
  Obs.Registry.incr ~by:(Hashtbl.length t.requests) registry "srm/requests_open_at_end";
  Obs.Registry.incr ~by:(Hashtbl.length t.replies) registry "srm/replies_scheduled_at_end";
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

let create ?domain ~network ~self ~params ~n_packets ~counters ~recoveries () =
  let rng = Sim.Rng.split (Sim.Engine.rng (Net.Network.engine network)) in
  let domain =
    Option.map
      (fun dmap ->
        let my_dom = Rdomain.dom_of dmap self in
        { dmap; my_dom; max_lvl = Rdomain.max_level dmap ~dom:my_dom })
      domain
  in
  (* The session needs callbacks into the host being constructed; tie
     the knot with forward cells. *)
  let get_max_seqs_cell = ref (fun () -> []) in
  let on_max_seq_cell = ref (fun ~src:_ (_ : int) -> ()) in
  (* Oracle distances are memoized per host: the underlying tree walk
     is O(depth) and allocating, while the scheduling hot path asks for
     the same few peers (the source, recent requestors) over and over.
     The memo only ever holds those few. *)
  let oracle =
    if params.Params.oracle_distances then (
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
    Session.create
      ?echo_limit:params.Params.session_echo_limit ?oracle
      ~network ~self ~period:params.Params.session_period ~rng:(Sim.Rng.split rng)
      ~get_max_seqs:(fun () -> !get_max_seqs_cell ())
      ~on_max_seq:(fun ~src m -> !on_max_seq_cell ~src m)
      ~on_send:(fun () -> Stats.Counters.bump counters ~node:self Stats.Counters.Sess)
      ()
  in
  let t =
    {
      network;
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
      replies = Hashtbl.create 8;
      reply_abstain = Hashtbl.create 8;
      detect_info = Hashtbl.create 8;
      replied = Hashtbl.create 8;
      adaptive = (if params.Params.adaptive then Some (Adaptive.create ~initial:params) else None);
      domain;
      n_local_requests = 0;
      n_escalations = 0;
      n_detected = 0;
      in_group = true;
      retired_losses = false;
      reply_from = -1;
      counters;
      recoveries;
      hooks = no_hooks ();
      mutations = [];
    }
  in
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
      (match params.Params.rearm_backoff with
      | Some window -> rearm_stale t ~src ~upto:m ~window
      | None -> ());
      if m > (stream t src).max_seq then begin
        let grace = dist_to_source ~src t +. 0.05 in
        (* Domain mode: {!seq_exists} itself defers detection until the
           advertised packets are overdue (the in-flight allowance), so
           the flat grace suffices here — but a host that has received
           no data yet takes its anchor from this first advertisement
           (as if packet 0 just landed), else a stream lost in its
           entirety would never be declared missing. *)
        (match (t.domain, params.Params.domain_inflight_period) with
        | Some _, Some _ ->
            let st = stream t src in
            if st.last_data_at = neg_infinity then begin
              st.last_data_at <- now t;
              st.last_data_seq <- 0
            end
        | _ -> ());
        ignore
          (Sim.Engine.schedule (Net.Network.engine network) ~after:grace (fun () ->
               seq_exists t ~src m))
      end);
  t
