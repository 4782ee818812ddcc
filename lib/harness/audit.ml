type violation = { at : float; node : int; rule : string; detail : string }

(* The bounds. Without re-arming, a member's requests for one loss stop
   at SRM's round cap plus the first request; a faulted run re-arms
   them from round 0 on session evidence, so only broken suppression
   passes 200 there. The other fault bounds are as generous. *)
let max_requests = Srm.Params.max_rounds + 1

let max_requests_rearmed = 200

let max_replies_per_loss = 16

let max_expedited_retry = 12

(* Small: a CESRM host may have expedited timers already armed at the
   instant its cached replier departs (those in-flight retries are
   legitimate), but a host that keeps unicasting a ghost past that has
   failed to invalidate the pair. *)
let max_departed_retry = 2

let fault_rules =
  [
    "liveness";
    "duplicate-delivery";
    "expedited-retry";
    "expedited-retry-departed";
    "request-suppression";
    "reply-suppression";
    "deliver-to-departed";
  ]

(* The fault rules' state, present only when they are on. *)
type faults = {
  network : Net.Network.t;
  (* (node, src, seq) -> detection time, removed on first obtain *)
  pending : (int * int * int, float) Hashtbl.t;
  (* (node, src, seq) -> how many times the member obtained it *)
  obtained : (int * int * int, int) Hashtbl.t;
  (* (replier, src, seq) -> replies this member sent for the loss *)
  replies : (int * int * int, int) Hashtbl.t;
  (* (requestor, replier) -> consecutive expedited requests unanswered *)
  exp_streak : (int * int, int) Hashtbl.t;
  (* (requestor, replier) -> expedited requests sent while the replier
     was departed (per the membership timeline) *)
  ghost_streak : (int * int, int) Hashtbl.t;
  (* membership timeline, newest first: (at, node, member). Appended as
     churn events fire; consulted with each observation's timestamp so
     the packet-stream rules answer identically whether the stream is
     checked inline (serial tap) or replayed later in timestamp order
     (a sharded run's primary worker). *)
  mutable churn_rev : (float * int * bool) list;
  (* bounded fault rules report once per offending key *)
  latched : (string * int * int, unit) Hashtbl.t;
}

type t = {
  now : unit -> float; (* the engine clock; a merged verdict's end time *)
  expect_in_order : bool;
  max_exp_per_loss : int;
  faults : faults option;
  mutable finalized : bool;
  mutable seen : int;
  mutable violations : violation list; (* newest first *)
  max_data_seq : (int, int) Hashtbl.t; (* per stream source *)
  retired_floor : (int, int) Hashtbl.t; (* per source: seqs <= floor retired *)
  requested : (int * int, unit) Hashtbl.t; (* (src, seq) with a request *)
  data_sent_at : (int * int, float) Hashtbl.t;
  exp_requests : (int * int * int, int) Hashtbl.t; (* (host, src, seq) -> count *)
  requests : (int * int * int, int) Hashtbl.t; (* (host, src, seq) -> mc request count *)
}

let flag t ~at ~node rule detail = t.violations <- { at; node; rule; detail } :: t.violations

let bump tbl key =
  let n = 1 + match Hashtbl.find tbl key with n -> n | exception Not_found -> 0 in
  Hashtbl.replace tbl key n;
  n

let max_seq_of t src = Option.value ~default:0 (Hashtbl.find_opt t.max_data_seq src)

let floor_of t src = Option.value ~default:0 (Hashtbl.find_opt t.retired_floor src)

let faults_of t =
  match t.faults with Some f -> f | None -> invalid_arg "Audit: the fault rules are off"

let latch_once f ~rule ~a ~b k =
  if not (Hashtbl.mem f.latched (rule, a, b)) then begin
    Hashtbl.replace f.latched (rule, a, b) ();
    k ()
  end

let note_membership t ~node ~at ~member =
  let f = faults_of t in
  f.churn_rev <- (at, node, member) :: f.churn_rev

(* Whether [node] was a member strictly before [at] per the timeline
   (default: yes). Strict comparison keeps serial and sharded checks
   identical: a packet sent at the very instant of a membership flip
   is judged by the pre-flip state in both modes, independent of
   same-time timer/tap ordering inside the engine. *)
let member_at f node ~at =
  let rec scan = function
    | [] -> true
    | (entry_at, n, member) :: rest -> if n = node && entry_at < at then member else scan rest
  in
  scan f.churn_rev

let check_expedited t f ~at ~requestor ~replier ~src ~seq =
  let n = bump f.exp_streak (requestor, replier) in
  if n > max_expedited_retry then
    latch_once f ~rule:"expedited-retry" ~a:requestor ~b:replier (fun () ->
        flag t ~at ~node:requestor "expedited-retry"
          (Printf.sprintf
             "%d consecutive expedited requests to replier %d without hearing from it (last \
              for src %d seq %d)"
             n replier src seq));
  if not (member_at f replier ~at) then begin
    let g = bump f.ghost_streak (requestor, replier) in
    if g > max_departed_retry then
      latch_once f ~rule:"expedited-retry-departed" ~a:requestor ~b:replier (fun () ->
          flag t ~at ~node:requestor "expedited-retry-departed"
            (Printf.sprintf
               "%d expedited requests to replier %d after it left the group (last for src %d \
                seq %d) — the cached pair was never invalidated"
               g replier src seq))
  end
  else Hashtbl.remove f.ghost_streak (requestor, replier)

(* Any reply from [replier] is evidence it is alive; the retry bound
   targets hammering a *silent* replier, so every streak aimed at it
   resets here. *)
let heard_from f ~replier =
  let reset table =
    Hashtbl.fold (fun ((_, rp) as k) _ acc -> if rp = replier then k :: acc else acc) table []
    |> List.iter (Hashtbl.remove table)
  in
  reset f.exp_streak;
  reset f.ghost_streak

(* The observation core takes the send time explicitly: a serial run's
   tap passes the engine clock, while a sharded run feeds the merged
   cross-shard tap stream after the fact, in timestamp order. Seqs at
   or below a source's retired floor are past their stability horizon:
   their bookkeeping has been dropped, so the per-packet rules no
   longer apply (late requests for them are legitimate — replies still
   serve retired packets). Their history was checked before
   retirement. The fault rules are reached by plain matches, not
   closures, so with them off a send allocates nothing more. *)
let observe t ~at ~from (p : Net.Packet.t) =
  t.seen <- t.seen + 1;
  match p.payload with
  | Net.Packet.Data { seq } ->
      (* any member may source a stream; its own sends are the stream *)
      let src = from in
      if t.expect_in_order && seq <> max_seq_of t src + 1 then
        flag t ~at ~node:src "data-well-formed"
          (Printf.sprintf "source %d sent seq %d after %d" src seq (max_seq_of t src));
      Hashtbl.replace t.max_data_seq src (max (max_seq_of t src) seq);
      if Hashtbl.mem t.data_sent_at (src, seq) then
        flag t ~at ~node:src "data-well-formed"
          (Printf.sprintf "source %d seq %d sent twice" src seq)
      else Hashtbl.replace t.data_sent_at (src, seq) at
  | Net.Packet.Request { src; seq; requestor; _ } when seq > floor_of t src -> (
      if seq > max_seq_of t src then
        flag t ~at ~node:requestor "request-subject-exists"
          (Printf.sprintf "host %d requested unsent src %d seq %d" requestor src seq);
      Hashtbl.replace t.requested (src, seq) ();
      let n = bump t.requests (requestor, src, seq) in
      match t.faults with
      | None ->
          if n > max_requests then
            flag t ~at ~node:requestor "request-rounds-bounded"
              (Printf.sprintf "host %d sent %d requests for seq %d" requestor n seq)
      | Some f ->
          if n > max_requests_rearmed then
            latch_once f ~rule:"request-suppression" ~a:requestor ~b:((src * 1_000_000) + seq)
              (fun () ->
                flag t ~at ~node:requestor "request-suppression"
                  (Printf.sprintf "%d requests for src %d seq %d" n src seq)))
  | Net.Packet.Exp_request { src; seq; requestor; replier; _ } ->
      if seq > floor_of t src then begin
        if seq > max_seq_of t src then
          flag t ~at ~node:requestor "request-subject-exists"
            (Printf.sprintf "host %d expedited unsent src %d seq %d" requestor src seq);
        Hashtbl.replace t.requested (src, seq) ();
        ignore (bump t.exp_requests (requestor, src, seq))
      end;
      (match t.faults with
      | Some f -> check_expedited t f ~at ~requestor ~replier ~src ~seq
      | None -> ())
  | Net.Packet.Reply { src; seq; replier; _ } ->
      (match t.faults with Some f -> heard_from f ~replier | None -> ());
      if seq > floor_of t src then begin
        if not (Hashtbl.mem t.requested (src, seq)) then
          flag t ~at ~node:replier "reply-has-cause"
            (Printf.sprintf "host %d replied to unrequested src %d seq %d" replier src seq);
        (match Hashtbl.find_opt t.data_sent_at (src, seq) with
        | Some sent when sent <= at -> ()
        | _ ->
            flag t ~at ~node:replier "replier-plausible"
              (Printf.sprintf "host %d retransmitted src %d seq %d before the original send"
                 replier src seq));
        match t.faults with
        | Some f ->
            let n = bump f.replies (replier, src, seq) in
            if n > max_replies_per_loss then
              latch_once f ~rule:"reply-suppression" ~a:replier ~b:((src * 1_000_000) + seq)
                (fun () ->
                  flag t ~at ~node:replier "reply-suppression"
                    (Printf.sprintf "%d replies for src %d seq %d" n src seq))
        | None -> ()
      end
  | Net.Packet.Request _ | Net.Packet.Session _ -> ()

let attach_host t host =
  let f = faults_of t in
  let hooks = Srm.Host.hooks host in
  let node = Srm.Host.self host in
  let prev_detect = hooks.Srm.Host.on_loss_detected in
  hooks.Srm.Host.on_loss_detected <-
    (fun ~src ~seq ->
      if not (Hashtbl.mem f.obtained (node, src, seq)) then
        Hashtbl.replace f.pending (node, src, seq) (t.now ());
      prev_detect ~src ~seq);
  let prev_obtained = hooks.Srm.Host.on_packet_obtained in
  hooks.Srm.Host.on_packet_obtained <-
    (fun ~src ~seq ~expedited ->
      Hashtbl.remove f.pending (node, src, seq);
      if bump f.obtained (node, src, seq) = 2 then
        flag t ~at:(t.now ()) ~node "duplicate-delivery"
          (Printf.sprintf "src %d seq %d delivered to the application again" src seq);
      (* This hook fires inline on whichever worker owns the host, in
         both serial and sharded runs, so the live membership flag is
         the correct (and mode-consistent) reference here. *)
      if not (Net.Network.is_member f.network node) then
        latch_once f ~rule:"deliver-to-departed" ~a:node ~b:src (fun () ->
            flag t ~at:(t.now ()) ~node "deliver-to-departed"
              (Printf.sprintf "src %d seq %d delivered to node %d, which is not in the group"
                 src seq node));
      prev_obtained ~src ~seq ~expedited)

(* A departing member's outstanding losses are forgiven: it was not
   present for their full recovery window, so liveness does not apply.
   Called by the runner's on_leave wiring (on the worker owning the
   node in a sharded run — the only worker holding pending entries for
   it). *)
let forget_node t ~node =
  let f = faults_of t in
  Hashtbl.fold (fun ((n, _, _) as k) _ acc -> if n = node then k :: acc else acc) f.pending []
  |> List.iter (Hashtbl.remove f.pending)

let flag_expedited t ~at (host, _src, seq) n =
  if n > t.max_exp_per_loss then
    flag t ~at ~node:host "expedited-singleton"
      (Printf.sprintf "host %d sent %d expedited requests for seq %d" host n seq)

(* Drop bookkeeping for all seqs at or below [upto] on every source,
   first running the end-of-run expedited-singleton check over the
   retiring entries so nothing escapes it. Keeps the checker's memory
   proportional to the live window on streaming runs. Every member has
   delivered the retired packets, so no obtain of one can follow and
   no loss of one is pending. *)
let retire_below t ~upto =
  let retiring src seq = seq <= upto && seq > floor_of t src in
  let at = t.now () in
  Hashtbl.iter
    (fun ((_, src, seq) as k) n -> if retiring src seq then flag_expedited t ~at k n)
    t.exp_requests;
  let sweep table ~retired =
    Hashtbl.fold (fun k _ acc -> if retired k then k :: acc else acc) table []
    |> List.iter (Hashtbl.remove table)
  in
  let sweep2 table = sweep table ~retired:(fun (src, seq) -> retiring src seq) in
  let sweep3 table = sweep table ~retired:(fun (_, src, seq) -> retiring src seq) in
  sweep2 t.requested;
  sweep2 t.data_sent_at;
  sweep3 t.exp_requests;
  sweep3 t.requests;
  Option.iter
    (fun f ->
      sweep3 f.obtained;
      sweep3 f.replies)
    t.faults;
  Hashtbl.iter
    (fun src max_seq ->
      (* never lift the floor past what the source actually sent:
         requests for genuinely unsent seqs must keep getting flagged *)
      let upto = min upto max_seq in
      if upto > floor_of t src then Hashtbl.replace t.retired_floor src upto)
    t.max_data_seq

let entries_at_or_below t ~upto =
  let count2 table =
    Hashtbl.fold (fun (_, seq) _ acc -> if seq <= upto then acc + 1 else acc) table 0
  in
  let count3 table =
    Hashtbl.fold (fun (_, _, seq) _ acc -> if seq <= upto then acc + 1 else acc) table 0
  in
  count2 t.requested + count2 t.data_sent_at + count3 t.exp_requests + count3 t.requests
  + Option.fold ~none:0 ~some:(fun f -> count3 f.obtained + count3 f.replies) t.faults

(* Losses still pending for members alive and in the group — the raw
   material of the liveness rule. *)
let pending_losses f =
  Hashtbl.fold
    (fun (node, src, seq) detected_at acc ->
      if Net.Network.is_enabled f.network node && Net.Network.is_member f.network node then
        (node, src, seq, detected_at) :: acc
      else acc)
    f.pending []

let liveness ~at still_missing =
  List.map
    (fun (node, src, seq, detected_at) ->
      {
        at;
        node;
        rule = "liveness";
        detail =
          Printf.sprintf "src %d seq %d detected lost at t=%.3f, never repaired" src seq
            detected_at;
      })
    (List.sort compare still_missing)

(* The end-of-run checks, once: expedited requests per loss over what
   retirement left, then (unless a sharded run's merge owns it)
   liveness. *)
let finish t ~with_liveness =
  if not t.finalized then begin
    t.finalized <- true;
    let at = t.now () in
    Hashtbl.iter (flag_expedited t ~at) t.exp_requests;
    if with_liveness then
      Option.iter
        (fun f -> t.violations <- List.rev_append (liveness ~at (pending_losses f)) t.violations)
        t.faults
  end

let make ~now ?(expect_in_order = true) ?(max_exp_per_loss = 1) ?network () =
  {
    now;
    expect_in_order;
    max_exp_per_loss;
    faults =
      Option.map
        (fun network ->
          {
            network;
            pending = Hashtbl.create 256;
            obtained = Hashtbl.create 1024;
            replies = Hashtbl.create 256;
            exp_streak = Hashtbl.create 32;
            ghost_streak = Hashtbl.create 8;
            churn_rev = [];
            latched = Hashtbl.create 32;
          })
        network;
    finalized = false;
    seen = 0;
    violations = [];
    max_data_seq = Hashtbl.create 4;
    retired_floor = Hashtbl.create 4;
    requested = Hashtbl.create 256;
    data_sent_at = Hashtbl.create 1024;
    exp_requests = Hashtbl.create 256;
    requests = Hashtbl.create 256;
  }

(* LMS retries legitimately resend expedited requests (pass a higher
   [max_exp_per_loss]); CESRM's REORDER-DELAY timer is unique per loss,
   so its runs are checked with the strict default of 1. *)
let create ?expect_in_order ?max_exp_per_loss ?(faulted = false) network =
  let clock = Sim.Engine.clock (Net.Network.engine network) in
  make
    ~now:(fun () -> clock.now)
    ?expect_in_order ?max_exp_per_loss
    ?network:(if faulted then Some network else None)
    ()

let attach ?expect_in_order ?max_exp_per_loss ?faulted network =
  let t = create ?expect_in_order ?max_exp_per_loss ?faulted network in
  let clock = Sim.Engine.clock (Net.Network.engine network) in
  Net.Network.add_tap network (fun ~from p -> observe t ~at:clock.now ~from p);
  t

let violations t =
  finish t ~with_liveness:true;
  List.rev t.violations

let is_fault v = List.mem v.rule fault_rules

let n_fault t = List.length (List.filter is_fault (violations t))

let n_safety t = List.length (violations t) - n_fault t

let packets_seen t = t.seen

let pp_violation ppf v = Format.fprintf ppf "[%.4f] %s: %s" v.at v.rule v.detail

let check t =
  match violations t with
  | [] -> ()
  | vs ->
      failwith
        (Printf.sprintf "protocol audit failed (%d violations): %s" (List.length vs)
           (String.concat "; " (List.map (fun v -> Format.asprintf "%a" pp_violation v) vs)))

let pp ppf t =
  match List.filter is_fault (violations t) with
  | [] -> Format.fprintf ppf "oracle: clean"
  | vs ->
      Format.fprintf ppf "oracle: %d violation(s)" (List.length vs);
      List.iter
        (fun v -> Format.fprintf ppf "@.  t=%.3f node %d [%s] %s" v.at v.node v.rule v.detail)
        vs

let to_json t =
  let open Obs.Json in
  let vs = List.filter is_fault (violations t) in
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
                   ("invariant", Str v.rule);
                   ("detail", Str v.detail);
                 ])
             vs) );
      ("count", int (List.length vs));
    ]

type part = { p_violations : violation list; p_pending : (int * int * int * float) list }

let part t =
  finish t ~with_liveness:false;
  {
    p_violations = List.rev t.violations;
    p_pending = Option.fold ~none:[] ~some:pending_losses t.faults;
  }

let merge ~at parts =
  let streamed =
    List.concat_map (fun p -> p.p_violations) parts
    |> List.stable_sort (fun a b -> Float.compare a.at b.at)
  in
  let t = make ~now:(fun () -> at) () in
  t.violations <- List.rev (streamed @ liveness ~at (List.concat_map (fun p -> p.p_pending) parts));
  t.finalized <- true;
  t
