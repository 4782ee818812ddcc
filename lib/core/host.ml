type config = { retention : Retention.t; reorder_delay : float; router_assist : bool }

let default_config = { retention = Retention.default; reorder_delay = 0.; router_assist = false }

let max_replier_failures = 8

type t = {
  srm : Srm.Host.t;
  network : Net.Network.t;
  clock : Sim.Engine.clock; (* the engine's; [now] reads it unboxed *)
  self : int;
  domain : Rdomain.t option;
  config : config;
  fault_tolerant : bool; (* Srm.Params.fault_tolerant: presume silent repliers dead *)
  stride : int; (* Srm.Key packing stride: n_packets + 1 *)
  caches : (int, Cache.t) Hashtbl.t; (* per stream source (Section 3.1) *)
  exp_timers : (Srm.Key.t, Sim.Engine.timer) Hashtbl.t;
  pending_exp : (Srm.Key.t, int) Hashtbl.t; (* packed (src, seq) -> replier we expedited to *)
  replier_stats : (int, int * int) Hashtbl.t; (* replier -> successes, attempts *)
  consec_failures : (int, int) Hashtbl.t; (* replier -> consecutive expedited failures *)
  dead_repliers : (int, unit) Hashtbl.t; (* presumed dead until a reply revives them *)
  (* [Cache.choose]'s predicates, built once: not presumed dead, and
     (domain mode) in our recovery domain. *)
  live : int -> bool;
  in_domain : (int -> bool) option;
  mutable n_cache_invalidations : int; (* cached pairs dropped because their replier left *)
  mutable cache_local_hits : int; (* expedited pairs whose replier shares our domain *)
  mutable cache_remote_hits : int;
}

let srm t = t.srm

let key t ~src ~seq = Srm.Key.make ~stride:t.stride ~src ~seq

(* [find] with [Not_found]: a hit allocates nothing, where [find_opt]
   allocates a [Some]. *)
let cache ?(src = 0) t =
  match Hashtbl.find t.caches src with
  | c -> c
  | exception Not_found ->
      let capacity = Option.value t.config.retention.Retention.capacity ~default:16 in
      let c = Cache.create ~retention:t.config.retention.Retention.scheme ~capacity () in
      Hashtbl.replace t.caches src c;
      c

let self t = t.self

let engine t = Net.Network.engine t.network

(* Virtual time for the retention schemes (LRU use, hotspot decay).
   The default scheme ignores it entirely. *)
let now t = t.clock.now

(* Fresh evidence a replier is alive and answering: forget any presumed
   death and the consecutive-failure streak. *)
let revive_replier t ~replier =
  Hashtbl.remove t.dead_repliers replier;
  Hashtbl.remove t.consec_failures replier

let replier_dead t ~replier = Hashtbl.mem t.dead_repliers replier

(* Retry back-off (the missing piece the fault rules flushed out):
   after [max_replier_failures] consecutive expedited recoveries that a
   replier failed to serve — the packet arrived the SRM way instead —
   presume the replier dead, purge it from every cache, and exclude it
   from the pair choice until one of its replies is heard again. *)
let note_replier_failure t ~replier =
  if t.fault_tolerant then begin
    let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.consec_failures replier) in
    Hashtbl.replace t.consec_failures replier n;
    if n >= max_replier_failures && not (replier_dead t ~replier) then begin
      Hashtbl.replace t.dead_repliers replier ();
      Hashtbl.iter (fun _ c -> Cache.expire_replier c ~replier) t.caches
    end
  end

(* Membership departure of [replier], as seen from this host: every
   cached pair naming it is a ghost — an expedited request would
   unicast into the void — so the pairs are invalidated immediately
   instead of burning the consecutive-failure budget rediscovering the
   obvious, and the replier is presumed dead until a reply revives it
   (a rejoined replier's first reply does exactly that, via
   {!digest_reply}). The failure streak is cleared too: a rejoin
   starts from a clean slate. *)
let invalidate_replier t ~replier =
  let size () = Hashtbl.fold (fun _ c acc -> acc + Cache.size c) t.caches 0 in
  let before = size () in
  Hashtbl.iter (fun _ c -> Cache.expire_replier c ~replier) t.caches;
  t.n_cache_invalidations <- t.n_cache_invalidations + (before - size ());
  Hashtbl.replace t.dead_repliers replier ();
  Hashtbl.remove t.consec_failures replier

let cache_invalidations t = t.n_cache_invalidations

(* The other half of the retry bound: attempts still in flight count
   against the failure budget too, so a host cannot hammer an
   unresponsive replier with fresh expedited requests while none of the
   earlier ones has resolved (during an outage no outcome arrives at
   all, which is exactly when the hammering would happen). *)
let outstanding_to t ~replier =
  Hashtbl.fold (fun _ r acc -> if r = replier then acc + 1 else acc) t.pending_exp 0

let attempt_budget_ok t ~replier =
  (not t.fault_tolerant)
  ||
  let failed = Option.value ~default:0 (Hashtbl.find_opt t.consec_failures replier) in
  failed + outstanding_to t ~replier < max_replier_failures

let note_expedited_outcome t ~src seq ~expedited =
  match Hashtbl.find_opt t.pending_exp (key t ~src ~seq) with
  | None -> ()
  | Some replier ->
      Hashtbl.remove t.pending_exp (key t ~src ~seq);
      let ok, total = Option.value ~default:(0, 0) (Hashtbl.find_opt t.replier_stats replier) in
      Hashtbl.replace t.replier_stats replier ((ok + if expedited then 1 else 0), total + 1);
      (* Only a repair from the replier we asked is its success: credited
         with other repliers' expedited repairs, a replier that shares
         our losses stays chosen (hotspot heat, domain preference) while
         the others repair us. *)
      if expedited && Srm.Host.reply_sender t.srm = Some replier then
        Hashtbl.remove t.consec_failures replier
      else note_replier_failure t ~replier

let cancel_expedited t ~src seq =
  match Hashtbl.find_opt t.exp_timers (key t ~src ~seq) with
  | Some timer ->
      Sim.Engine.cancel (engine t) timer;
      Hashtbl.remove t.exp_timers (key t ~src ~seq)
  | None -> ()

let send_expedited_request t ~src seq (pair : Cache.entry) =
  Hashtbl.remove t.exp_timers (key t ~src ~seq);
  if
    (not (Srm.Host.has_packet ~src t.srm ~seq))
    (* A presumed-dead replier is never sent to — without churn this is
       implied by the failure budget (death is only ever declared at
       the budget's limit), but a membership departure marks death
       directly, and the armed timer that captured the pair before the
       leave must not fire an expedited request at the ghost. *)
    && (not (replier_dead t ~replier:pair.replier))
    && attempt_budget_ok t ~replier:pair.replier
  then begin
    Hashtbl.replace t.pending_exp (key t ~src ~seq) pair.replier;
    Net.Network.unicast t.network ~from:t.self ~dst:pair.replier
      {
        Net.Packet.sender = t.self;
        payload =
          Net.Packet.Exp_request
            {
              src;
              seq;
              requestor = t.self;
              d_qs = Srm.Host.dist_to_source ~src t.srm;
              replier = pair.replier;
              turning_point = (if t.config.router_assist then pair.turning_point else None);
            };
      }
  end

(* Section 3.2: on detecting a loss, take the cache's best-ranked pair
   with a live replier — in domain mode preferring one in our recovery
   domain, since an in-domain expedited exchange never leaves the
   domain subtree; if we are its expeditious requestor, arm the
   REORDER_DELAY timer. *)
let maybe_expedite t ~src ~seq =
  match Cache.choose ~now:(now t) ?local:t.in_domain ~live:t.live (cache ~src t) with
  | exception Not_found -> ()
  | pair when pair.requestor = t.self && not (Hashtbl.mem t.exp_timers (key t ~src ~seq)) ->
      Cache.touch ~now:(now t) (cache ~src t) ~seq:pair.seq;
      (match t.in_domain with
      | None -> ()
      | Some local ->
          if local pair.replier then t.cache_local_hits <- t.cache_local_hits + 1
          else t.cache_remote_hits <- t.cache_remote_hits + 1);
      let timer =
        Sim.Engine.schedule (engine t) ~after:t.config.reorder_delay (fun () ->
            send_expedited_request t ~src seq pair)
      in
      Hashtbl.replace t.exp_timers (key t ~src ~seq) timer
  | _ -> ()

(* Section 3.1: digest reply annotations for losses we suffered. *)
let digest_reply t payload =
  match payload with
  | Net.Packet.Reply { src; seq; requestor; d_qs; replier; d_rq; expedited = _; turning_point } ->
      (* A reply still in flight when its replier left the group must
         not revive it; its rejoin makes it a member again. *)
      if Net.Network.is_member t.network replier then revive_replier t ~replier;
      if Srm.Host.suffered_loss ~src t.srm ~seq then begin
        let turning_point =
          if not t.config.router_assist then None
          else
            match turning_point with
            | Some _ as tp -> tp
            | None ->
                (* What the router annotation would carry: the node at
                   which this reply turned downward toward us. *)
                Some (Net.Tree.lca (Net.Network.tree t.network) replier t.self)
        in
        ignore
          (Cache.note_reply ~now:(now t) (cache ~src t)
             { Cache.seq; requestor; d_qs; replier; d_rq; turning_point })
      end
  | _ -> ()

let handle_expedited_request t ~src ~seq ~requestor ~d_qs ~turning_point =
  let transmit =
    match (t.config.router_assist, turning_point) with
    | true, Some via when via <> t.self ->
        Some (fun packet -> Net.Network.subcast t.network ~from:t.self ~root:via packet)
    | _ -> (
        match t.domain with
        | None -> None
        | Some dmap ->
            (* Domain mode: the expedited reply subcasts the subtree
               under the requestor's domain root — its loss-sharing
               neighbours (and any deeper domains cut off by the same
               upstream loss) hear it, the rest of the tree is spared.
               An off-domain replier reaches the domain root by
               unicast first. *)
            let dom = Rdomain.dom_of dmap requestor in
            Some
              (fun packet ->
                Net.Network.subcast t.network ~from:t.self
                  ~root:(Rdomain.scope_root dmap ~dom ~level:0)
                  packet))
  in
  ignore
    (Srm.Host.send_reply_now ~src t.srm ~seq ~requestor ~d_qs ~expedited:true
       ?turning_point:(if t.config.router_assist then turning_point else None)
       ?transmit ())

(* Steady-state retirement, run once the SRM core has moved its floors
   (the [on_retired] hook): sweep the expedited tables. Both are
   self-cleaning on delivery (the on_packet_obtained hook cancels the
   timer and scores the replier), so the sweep is defensive — it drops
   whatever was left behind for a retired (hence delivered) packet,
   keeping the tables bounded over a million-packet run without
   touching any timer that could still fire. *)
let sweep_retired t =
  let retired k =
    Srm.Key.seq ~stride:t.stride k
    <= Srm.Host.retired_floor ~src:(Srm.Key.src ~stride:t.stride k) t.srm
  in
  let sweep ?(keep = fun _ -> false) table =
    let dead =
      Hashtbl.fold (fun k v acc -> if retired k && not (keep v) then k :: acc else acc) table []
    in
    List.iter (Hashtbl.remove table) dead
  in
  sweep t.exp_timers ~keep:(Sim.Engine.is_pending (engine t));
  sweep t.pending_exp

(* Crash support: all of CESRM's state is soft — caches, outstanding
   expedited recoveries, replier bookkeeping — so a restarting (or
   departing) host comes back with none of it. *)
let reset_caches t =
  Hashtbl.iter (fun _ c -> Cache.clear c) t.caches;
  Hashtbl.iter (fun _ timer -> Sim.Engine.cancel (engine t) timer) t.exp_timers;
  Hashtbl.reset t.exp_timers;
  Hashtbl.reset t.pending_exp;
  Hashtbl.reset t.replier_stats;
  Hashtbl.reset t.consec_failures;
  Hashtbl.reset t.dead_repliers

let on_packet t (p : Net.Packet.t) =
  match p.payload with
  | Net.Packet.Exp_request { src; seq; requestor; d_qs; replier; turning_point } ->
      if replier = t.self then handle_expedited_request t ~src ~seq ~requestor ~d_qs ~turning_point
  | _ -> Srm.Host.on_packet t.srm p

let create ?domain ~network ~self ~params ~config ~n_packets ~period ~recoveries () =
  let srm = Srm.Host.create ?domain ~network ~self ~params ~n_packets ~period ~recoveries () in
  let dead_repliers = Hashtbl.create 8 in
  let t =
    {
      srm;
      network;
      clock = Sim.Engine.clock (Net.Network.engine network);
      self;
      domain;
      config;
      fault_tolerant = params.Srm.Params.fault_tolerant;
      stride = n_packets + 1;
      caches = Hashtbl.create 4;
      exp_timers = Hashtbl.create 16;
      pending_exp = Hashtbl.create 16;
      replier_stats = Hashtbl.create 8;
      consec_failures = Hashtbl.create 8;
      dead_repliers;
      live = (fun replier -> not (Hashtbl.mem dead_repliers replier));
      in_domain =
        Option.map
          (fun dmap replier -> Rdomain.dom_of dmap replier = Rdomain.dom_of dmap self)
          domain;
      n_cache_invalidations = 0;
      cache_local_hits = 0;
      cache_remote_hits = 0;
    }
  in
  let hooks = Srm.Host.hooks srm in
  hooks.on_loss_detected <- (fun ~src ~seq -> maybe_expedite t ~src ~seq);
  hooks.on_packet_obtained <-
    (fun ~src ~seq ~expedited ->
      cancel_expedited t ~src seq;
      note_expedited_outcome t ~src seq ~expedited);
  hooks.on_reply_observed <- (fun payload -> digest_reply t payload);
  hooks.on_state_reset <- (fun () -> reset_caches t);
  hooks.on_peer_left <- (fun replier -> invalidate_replier t ~replier);
  hooks.on_retired <- (fun () -> sweep_retired t);
  t

let publish_metrics t registry =
  Srm.Host.publish_metrics t.srm registry;
  let sent kind = Stats.Counters.get (Net.Network.counters t.network) ~node:t.self kind in
  Obs.Registry.incr ~by:(sent Stats.Counters.Exp_rqst) registry "cesrm/exp_requests_sent";
  Obs.Registry.incr ~by:(sent Stats.Counters.Exp_repl) registry "cesrm/exp_replies_sent";
  Obs.Registry.incr ~by:(Hashtbl.length t.pending_exp) registry
    "cesrm/exp_outstanding_at_end";
  (match t.domain with
  | None -> ()
  | Some _ ->
      Obs.Registry.incr ~by:t.cache_local_hits registry "cesrm/domain_cache_local_hits";
      Obs.Registry.incr ~by:t.cache_remote_hits registry "cesrm/domain_cache_remote_hits");
  (* Guarded so the metric key set — and with it every churn-free
     report golden — is unchanged unless churn actually invalidated
     something. *)
  if t.n_cache_invalidations > 0 then
    Obs.Registry.incr ~by:t.n_cache_invalidations registry "cesrm/cache_invalidations";
  Hashtbl.iter
    (fun _ c ->
      Obs.Registry.incr registry "cesrm/caches";
      Obs.Registry.incr ~by:(Cache.size c) registry "cesrm/cache_entries")
    t.caches;
  (* Retention accounting, keyed by scheme so retention sweeps read as
     "hits under lru" vs "hits under recent" straight off the report. *)
  let scheme_key metric =
    Printf.sprintf "cesrm/cache_%s/%s" metric
      (Retention.scheme_label t.config.retention.Retention.scheme)
  in
  let sum f = Hashtbl.fold (fun _ c acc -> acc + f c) t.caches 0 in
  Obs.Registry.incr ~by:(sum Cache.evictions) registry (scheme_key "evictions");
  Obs.Registry.incr ~by:(sum Cache.hits) registry (scheme_key "hits");
  Hashtbl.iter
    (fun _ (ok, total) ->
      if total > 0 then
        Obs.Registry.observe registry "cesrm/replier_success_rate"
          (float_of_int ok /. float_of_int total))
    t.replier_stats
