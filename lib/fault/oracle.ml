(* The bounds, generous enough that only genuinely broken suppression
   trips them. *)
let max_expedited_retry = 12

let max_requests_per_loss = 200

let max_replies_per_loss = 16

(* Small: a CESRM host may have expedited timers already armed at the
   instant its cached replier departs (those in-flight retries are
   legitimate), but a host that keeps unicasting a ghost past that has
   failed to invalidate the pair. *)
let max_departed_retry = 2

type violation = { at : float; node : int; invariant : string; detail : string }

type t = {
  network : Net.Network.t option; (* None for an {!assemble}d merge result *)
  clock : Sim.Engine.clock option; (* the network engine's, read unboxed per event *)
  (* (node, src, seq) -> detection time, removed on first obtain *)
  pending : (int * int * int, float) Hashtbl.t;
  (* (node, src, seq) -> how many times the member obtained it *)
  obtained : (int * int * int, int) Hashtbl.t;
  (* (requestor, replier) -> consecutive expedited requests unanswered *)
  exp_streak : (int * int, int) Hashtbl.t;
  (* (requestor, replier) -> expedited requests sent while the replier
     was departed (per the membership timeline) *)
  ghost_streak : (int * int, int) Hashtbl.t;
  (* membership timeline, newest first: (at, node, member). Appended as
     churn events fire; consulted with each observation's timestamp so
     the packet-stream checks answer identically whether the stream is
     checked inline (serial tap) or replayed later in timestamp order
     (a sharded run's primary worker). *)
  mutable churn_rev : (float * int * bool) list;
  (* (node, src, seq) -> requests this member sent for the loss *)
  requests : (int * int * int, int) Hashtbl.t;
  (* (replier, src, seq) -> replies this member sent for the loss *)
  replies : (int * int * int, int) Hashtbl.t;
  (* bounded invariants report once per offending key *)
  latched : (string * int * int, unit) Hashtbl.t;
  (* steady-state retirement floor: [obtained], [requests] and
     [replies] hold no entry naming a seq at or below it *)
  mutable floor : int;
  mutable violations_rev : violation list;
  mutable n_violations : int;
  mutable finalized : bool;
}

let violate t ~at ~node ~invariant detail =
  t.violations_rev <- { at; node; invariant; detail } :: t.violations_rev;
  t.n_violations <- t.n_violations + 1

(* Bounded invariants latch per (invariant, offending key) so a broken
   loop reports once, not once per packet. *)
let latch_once t ~invariant ~a ~b f =
  if not (Hashtbl.mem t.latched (invariant, a, b)) then begin
    Hashtbl.replace t.latched (invariant, a, b) ();
    f ()
  end

let note_membership t ~node ~at ~member = t.churn_rev <- (at, node, member) :: t.churn_rev

(* Whether [node] was a member strictly before [at] per the timeline
   (default: yes). Strict comparison keeps serial and sharded checks
   identical: a packet sent at the very instant of a membership flip
   is judged by the pre-flip state in both modes, independent of
   same-time timer/tap ordering inside the engine. *)
let member_at t node ~at =
  let rec scan = function
    | [] -> true
    | (entry_at, n, member) :: rest ->
        if n = node && entry_at < at then member else scan rest
  in
  scan t.churn_rev

(* The packet-stream checks, with the observation time explicit: a
   serial run's tap passes the engine clock, a sharded run's primary
   worker replays the merged cross-shard tap stream in timestamp
   order. *)
let observe t ~at ~from:_ (p : Net.Packet.t) =
  match p.payload with
  | Net.Packet.Exp_request { requestor; replier; src; seq; _ } ->
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.exp_streak (requestor, replier)) in
      Hashtbl.replace t.exp_streak (requestor, replier) n;
      if n > max_expedited_retry then
        latch_once t ~invariant:"expedited-retry" ~a:requestor ~b:replier (fun () ->
            violate t ~at ~node:requestor ~invariant:"expedited-retry"
              (Printf.sprintf
                 "%d consecutive expedited requests to replier %d without hearing from it \
                  (last for src %d seq %d)"
                 n replier src seq));
      if not (member_at t replier ~at) then begin
        let g =
          1 + Option.value ~default:0 (Hashtbl.find_opt t.ghost_streak (requestor, replier))
        in
        Hashtbl.replace t.ghost_streak (requestor, replier) g;
        if g > max_departed_retry then
          latch_once t ~invariant:"expedited-retry-departed" ~a:requestor ~b:replier (fun () ->
              violate t ~at ~node:requestor ~invariant:"expedited-retry-departed"
                (Printf.sprintf
                   "%d expedited requests to replier %d after it left the group (last for \
                    src %d seq %d) — the cached pair was never invalidated"
                   g replier src seq))
      end
      else Hashtbl.remove t.ghost_streak (requestor, replier)
  | Net.Packet.Reply { requestor = _; replier; src; seq; expedited = _; _ } ->
      (* Any reply from [replier] is evidence it is alive; the
         retry bound targets hammering a *silent* replier. A live
         replier can legitimately draw more expedited requests than
         the bound without answering any (post-heal it may lack the
         very packets it is asked for, while its other replies keep
         it cached), so every streak aimed at it resets here. *)
      let stale =
        Hashtbl.fold
          (fun ((_, rp) as k) _ acc -> if rp = replier then k :: acc else acc)
          t.exp_streak []
      in
      List.iter (Hashtbl.remove t.exp_streak) stale;
      let stale_ghost =
        Hashtbl.fold
          (fun ((_, rp) as k) _ acc -> if rp = replier then k :: acc else acc)
          t.ghost_streak []
      in
      List.iter (Hashtbl.remove t.ghost_streak) stale_ghost;
      (* A retired seq's count is gone: the per-loss bound no longer
         applies to it (replies still serve retired packets). *)
      if seq > t.floor then begin
        let key = (replier, src, seq) in
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.replies key) in
        Hashtbl.replace t.replies key n;
        if n > max_replies_per_loss then
          latch_once t ~invariant:"reply-suppression" ~a:replier ~b:((src * 1_000_000) + seq)
            (fun () ->
              violate t ~at ~node:replier ~invariant:"reply-suppression"
                (Printf.sprintf "%d replies for src %d seq %d" n src seq))
      end
  | Net.Packet.Request { requestor; src; seq; _ } when seq > t.floor ->
      let key = (requestor, src, seq) in
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.requests key) in
      Hashtbl.replace t.requests key n;
      if n > max_requests_per_loss then
        latch_once t ~invariant:"request-suppression" ~a:requestor ~b:((src * 1_000_000) + seq)
          (fun () ->
            violate t ~at ~node:requestor ~invariant:"request-suppression"
              (Printf.sprintf "%d requests for src %d seq %d" n src seq))
  | Net.Packet.Request _ | Net.Packet.Data _ | Net.Packet.Session _ -> ()

let make network =
  {
    network;
    clock = Option.map (fun n -> Sim.Engine.clock (Net.Network.engine n)) network;
    pending = Hashtbl.create 256;
    obtained = Hashtbl.create 1024;
    exp_streak = Hashtbl.create 32;
    ghost_streak = Hashtbl.create 8;
    churn_rev = [];
    requests = Hashtbl.create 256;
    replies = Hashtbl.create 256;
    latched = Hashtbl.create 32;
    floor = 0;
    violations_rev = [];
    n_violations = 0;
    finalized = false;
  }

let create_detached ~network = make (Some network)

let now t =
  match t.clock with
  | Some clock -> clock.now
  | None -> invalid_arg "Oracle: no network (assembled result)"

let create ~network =
  let t = make (Some network) in
  Net.Network.add_tap network (fun ~from p -> observe t ~at:(now t) ~from p);
  t

let attach_host t host =
  let hooks = Srm.Host.hooks host in
  let node = Srm.Host.self host in
  let prev_detect = hooks.Srm.Host.on_loss_detected in
  hooks.Srm.Host.on_loss_detected <-
    (fun ~src ~seq ->
      if not (Hashtbl.mem t.obtained (node, src, seq)) then
        Hashtbl.replace t.pending (node, src, seq) (now t);
      prev_detect ~src ~seq);
  let prev_obtained = hooks.Srm.Host.on_packet_obtained in
  hooks.Srm.Host.on_packet_obtained <-
    (fun ~src ~seq ~expedited ->
      Hashtbl.remove t.pending (node, src, seq);
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.obtained (node, src, seq)) in
      Hashtbl.replace t.obtained (node, src, seq) n;
      if n = 2 then
        violate t ~at:(now t) ~node ~invariant:"duplicate-delivery"
          (Printf.sprintf "src %d seq %d delivered to the application again" src seq);
      (* This hook fires inline on whichever worker owns the host, in
         both serial and sharded runs, so the live membership flag is
         the correct (and mode-consistent) reference here. *)
      (match t.network with
      | Some network when not (Net.Network.is_member network node) ->
          latch_once t ~invariant:"deliver-to-departed" ~a:node ~b:src (fun () ->
              violate t ~at:(now t) ~node ~invariant:"deliver-to-departed"
                (Printf.sprintf
                   "src %d seq %d delivered to node %d, which is not in the group" src seq
                   node))
      | _ -> ());
      prev_obtained ~src ~seq ~expedited)

(* Losses still pending for members alive at the end of the run — the
   raw material of the liveness check. A shard worker exports these so
   the coordinator can evaluate liveness over the whole group. *)
let pending_losses t =
  let network = Option.get t.network in
  Hashtbl.fold
    (fun (node, src, seq) detected_at acc ->
      if Net.Network.is_enabled network node && Net.Network.is_member network node then
        (node, src, seq, detected_at) :: acc
      else acc)
    t.pending []

(* A departing member's outstanding losses are forgiven: it was not
   present for their full recovery window, so liveness does not apply.
   Called by the runner's on_leave wiring (on the worker owning the
   node in a sharded run — the only worker whose oracle holds pending
   entries for it). *)
let forget_node t ~node =
  let stale =
    Hashtbl.fold (fun ((n, _, _) as k) _ acc -> if n = node then k :: acc else acc) t.pending []
  in
  List.iter (Hashtbl.remove t.pending) stale

(* Steady-state retirement. Every member has delivered the packets at
   or below the floor, so no obtain of one can follow and no loss of
   one is pending; only their per-packet counts would stay behind. *)
let retire_below t ~upto =
  if upto > t.floor then begin
    t.floor <- upto;
    let live (_, _, seq) n = if seq <= upto then None else Some n in
    Hashtbl.filter_map_inplace live t.obtained;
    Hashtbl.filter_map_inplace live t.requests;
    Hashtbl.filter_map_inplace live t.replies
  end

let entries_at_or_below t ~upto =
  let count table =
    Hashtbl.fold (fun (_, _, seq) _ acc -> if seq <= upto then acc + 1 else acc) table 0
  in
  count t.obtained + count t.requests + count t.replies

let liveness_violations ~at still_missing =
  List.map
    (fun (node, src, seq, detected_at) ->
      {
        at;
        node;
        invariant = "liveness";
        detail =
          Printf.sprintf "src %d seq %d detected lost at t=%.3f, never repaired" src seq
            detected_at;
      })
    (List.sort compare still_missing)

let finalize t =
  if not t.finalized then begin
    t.finalized <- true;
    List.iter
      (fun v ->
        t.violations_rev <- v :: t.violations_rev;
        t.n_violations <- t.n_violations + 1)
      (liveness_violations ~at:(now t) (pending_losses t))
  end

(* A results-only oracle holding an externally merged violation list
   (chronological) — how a sharded run's coordinator reassembles the
   serial artifact from per-worker pieces. *)
let assemble ~violations =
  let t = make None in
  t.violations_rev <- List.rev violations;
  t.n_violations <- List.length violations;
  t.finalized <- true;
  t

let violations t = List.rev t.violations_rev

let n_violations t = t.n_violations

let clean t = t.n_violations = 0

let to_json t =
  let open Obs.Json in
  Obj
    [
      ( "violations",
        Arr
          (List.map
             (fun v ->
               Obj
                 [
                   ("at", Num v.at);
                   ("node", int v.node);
                   ("invariant", Str v.invariant);
                   ("detail", Str v.detail);
                 ])
             (violations t)) );
      ("count", int t.n_violations);
    ]

let pp ppf t =
  if clean t then Format.fprintf ppf "oracle: clean"
  else begin
    Format.fprintf ppf "oracle: %d violation(s)" t.n_violations;
    List.iter
      (fun v ->
        Format.fprintf ppf "@.  t=%.3f node %d [%s] %s" v.at v.node v.invariant v.detail)
      (violations t)
  end
