(* Fault-injection perturbation state (see {!add_link_down} etc. in the
   interface). Windows are consulted against the *crossing* time of each
   packet, not the send time: a link that goes down after a flood was
   computed still swallows the crossings scheduled to happen inside the
   outage — the mid-flight case a naive "check now at send" misses. *)
type window = { w_from : float; w_until : float; w_mag : float }

type perturb = {
  downs : window list array; (* per link id *)
  jitters : window list array; (* w_mag = max extra delay, seconds *)
  dups : window list array;
  prng : Sim.Rng.t; (* jitter sampling; split off the engine rng on install *)
}

(* Membership state (dynamic join/leave/rejoin; see {!set_member} in
   the interface). Allocated lazily like [perturb]: [None] means the
   group is static and every node is a member — the unfaulted fast
   path never touches it, so churn-free runs stay byte-identical. *)
type membership = {
  m_member : bool array; (* per node; false = outside the group *)
  mutable m_joins : int;
  mutable m_leaves : int;
}

(* -- shard mode (conservative PDES) --------------------------------- *)

type emit_cast = Ecast_multicast | Ecast_unicast of int | Ecast_relayed of int

type emit = {
  e_at : float;
  e_from : int;
  e_idx : int;
  e_cast : emit_cast;
  e_packet : Packet.t;
  e_disabled : int list;
}

(* Cold-path shard state; the per-crossing hot-path fields (owner
   array, owned-below oracle) live directly on [t] below. *)
type shard = {
  sh_observe : bool; (* primary shard: record the tap stream *)
  mutable sh_next_idx : int; (* monotone per-shard emit/obs counter *)
  (* Replicated source casts execute identically on every shard, so
     this counter (advanced unconditionally, unlike [sh_next_idx]) is
     a consistent cross-shard id for them; encoded as [-2 - i] in the
     walk key's idx slot to stay disjoint from emit indices (>= 0) and
     the no-walk sentinel (-1). *)
  mutable sh_rep_idx : int;
  mutable sh_emits : emit list; (* reversed; drained per sync window *)
  mutable sh_obs : emit list; (* reversed; local tap-stream records *)
  mutable sh_disabled : int list; (* currently disabled members *)
  mutable sh_replaying : bool; (* inside [apply_emit]'s walk *)
  mutable sh_replay_disabled : int list; (* origin-time snapshot *)
}

type t = {
  engine : Sim.Engine.t;
  clock : Sim.Engine.clock; (* the engine's; read unboxed on every cast *)
  tree : Tree.t;
  delays : float array; (* per link id; slot 0 unused *)
  bandwidth_bps : float;
  routes : Routes.t; (* static preorder arrays; see routes.mli *)
  (* Scratch: per-node arrival time of the packet in flight, plus one
     spare cell (index [n_nodes]) for a duplicated copy's later
     arrival. Every delivery reads its time from here
     ([Engine.schedule_call ~times:arrive]), so no arrival is boxed. *)
  arrive : float array;
  chain : int array; (* scratch: the root-ward node chain of the walk in progress *)
  mutable drop : link:int -> down:bool -> Packet.t -> bool;
  handlers : (Packet.t -> unit) option array;
  enabled : bool array; (* crashed / departed members are disabled *)
  (* Directed serialization reservations, one float per link per
     direction. Reservations only ever attach to a single tree link
     (the [from]/[to_] of a traverse are its endpoints), so the former
     n x n matrix was n^2 memory for 2(n-1) useful cells — at 10^4
     receivers that matrix alone was gigabytes. *)
  busy_down : float array; (* parent -> child, indexed by link id *)
  busy_up : float array; (* child -> parent *)
  cost : Cost.t;
  mutable delivered : int;
  mutable tap : (from:int -> Packet.t -> unit) option;
  mutable perturb : perturb option; (* None = the unfaulted fast path *)
  mutable membership : membership option; (* None = static full group *)
  (* Shard-mode hot path: [sh_owner] empty means serial (no sharding);
     otherwise crossings are tallied only when the entered node is
     owned by [sh_me], and non-FIFO flood walks are pruned to branches
     containing owned nodes (via [sh_below], the owned-below oracle). *)
  mutable sh_owner : int array;
  mutable sh_me : int;
  mutable sh_below : int array;
  mutable sh_total : int;
  mutable shard : shard option;
  (* Allocation-free delivery: one pooled packet slot per in-flight
     cast and one shared fire closure, dispatched by integer argument
     [(slot lsl node_bits) lor node] through [Engine.schedule_call],
     with the time read from [arrive] — the per-delivery closure this
     replaces dominated allocation at scale (tens of MB per 200-packet
     leg). *)
  mutable pslots : Packet.t array;
  mutable prefs : int array; (* per-slot pending deliveries + 1 while walking *)
  mutable pfree : int array; (* free-slot stack *)
  mutable pfree_top : int;
  mutable cur_pslot : int; (* slot of the cast being walked *)
  mutable fire : int -> unit; (* shared delivery dispatch; tied below *)
  node_bits : int;
  (* Shard mode only: the originating cast key (at, from, idx) of the
     walk each slot pins — globally consistent across shards, so a
     worker can tag every recovery with the walk that produced it and
     the coordinator can reconstruct the serial engine's FIFO order
     among same-time deliveries. [cur_deliver_*] stash the firing
     delivery's key + node for {!delivery_rank} (the slot itself may
     be recycled by casts the handler makes). *)
  mutable pwalk : (float * int * int) array;
  mutable cur_deliver_at : float;
  mutable cur_deliver_from : int;
  mutable cur_deliver_idx : int;
  mutable cur_deliver_node : int; (* -1 = not inside a delivery *)
}

let no_drop ~link:_ ~down:_ _ = false

let rec bits_for n b = if 1 lsl b >= n then b else bits_for n (b + 1)

let release_pslot t s =
  t.prefs.(s) <- t.prefs.(s) - 1;
  if t.prefs.(s) = 0 then begin
    t.pfree.(t.pfree_top) <- s;
    t.pfree_top <- t.pfree_top + 1
  end

let deliver_fire t arg =
  let node = arg land ((1 lsl t.node_bits) - 1) in
  let s = arg lsr t.node_bits in
  let packet = t.pslots.(s) in
  release_pslot t s;
  (* Re-checked at fire time: a host that crashes while the packet is
     in flight must not process it on arrival (the schedule-time check
     in [deliver] only covers hosts already down at send time). *)
  if t.enabled.(node) then begin
    t.delivered <- t.delivered + 1;
    match t.handlers.(node) with
    | Some h ->
        (match t.shard with
        | Some _ ->
            (* Stash before the handler runs: casts it makes may
               recycle slot [s] and overwrite [pwalk.(s)]. *)
            let at, from, idx = t.pwalk.(s) in
            t.cur_deliver_at <- at;
            t.cur_deliver_from <- from;
            t.cur_deliver_idx <- idx;
            t.cur_deliver_node <- node;
            h packet;
            t.cur_deliver_node <- -1
        | None -> h packet)
    | None -> ()
  end

let create_heterogeneous ~engine ~tree ~delays ?(bandwidth_bps = 1.5e6) () =
  let n = Tree.n_nodes tree in
  if Array.length delays <> n then invalid_arg "Network.create_heterogeneous: delays size";
  let pcap = 64 in
  let t =
    {
      engine;
      clock = Sim.Engine.clock engine;
      tree;
      delays;
      bandwidth_bps;
      routes = Routes.create tree;
      arrive = Array.make (n + 1) 0.;
      chain = Array.make (Tree.height tree + 1) 0;
      drop = no_drop;
      handlers = Array.make n None;
      enabled = Array.make n true;
      busy_down = Array.make n 0.;
      busy_up = Array.make n 0.;
      cost = Cost.create ();
      delivered = 0;
      tap = None;
      perturb = None;
      membership = None;
      sh_owner = [||];
      sh_me = 0;
      sh_below = [||];
      sh_total = 0;
      shard = None;
      pslots = Array.make pcap { Packet.sender = 0; payload = Packet.Data { seq = 0 } };
      prefs = Array.make pcap 0;
      pfree = Array.init pcap (fun i -> i);
      pfree_top = pcap;
      cur_pslot = 0;
      fire = (fun _ -> ());
      node_bits = bits_for n 0;
      pwalk = Array.make pcap (0., -1, -1);
      cur_deliver_at = 0.;
      cur_deliver_from = -1;
      cur_deliver_idx = -1;
      cur_deliver_node = -1;
    }
  in
  t.fire <- (fun arg -> deliver_fire t arg);
  t

let grow_pslots t =
  let old = Array.length t.pslots in
  let cap = old * 2 in
  let pslots = Array.make cap t.pslots.(0) in
  Array.blit t.pslots 0 pslots 0 old;
  let prefs = Array.make cap 0 in
  Array.blit t.prefs 0 prefs 0 old;
  let pfree = Array.make cap 0 in
  (* the old stack is empty (that is why we grew); refill with the
     newly minted slots *)
  for i = 0 to cap - old - 1 do
    pfree.(i) <- old + i
  done;
  let pwalk = Array.make cap (0., -1, -1) in
  Array.blit t.pwalk 0 pwalk 0 old;
  t.pslots <- pslots;
  t.prefs <- prefs;
  t.pfree <- pfree;
  t.pwalk <- pwalk;
  t.pfree_top <- cap - old

(* Pin the cast's packet in a pooled slot for the duration of its walk;
   the initial refcount 1 is the walk's own pin, dropped by the cast
   entry point when the walk returns. *)
let acquire_pslot t packet =
  if t.pfree_top = 0 then grow_pslots t;
  t.pfree_top <- t.pfree_top - 1;
  let s = t.pfree.(t.pfree_top) in
  t.pslots.(s) <- packet;
  t.prefs.(s) <- 1;
  t.cur_pslot <- s;
  s

let create ~engine ~tree ?(link_delay = 0.020) ?bandwidth_bps () =
  let delays = Array.make (Tree.n_nodes tree) link_delay in
  create_heterogeneous ~engine ~tree ~delays ?bandwidth_bps ()

let engine t = t.engine

let tree t = t.tree

let routes t = t.routes

let cost t = t.cost

let link_delay t l = t.delays.(l)

(* Climb [src] and [dst] to their LCA through the parent and depth
   arrays, keeping [dst]'s side in the scratch chain: [chain.(0 .. k-1)]
   holds the nodes from [dst] up to just below the LCA, [chain.(k)] the
   LCA itself, and [k] is returned — so [chain.(j + 1)] is the parent of
   [chain.(j)] for every [j < k]. One helper serves every unicast leg,
   {!dist} and {!delivery_rank}; none of them, nor [flood] (which keeps
   its ancestors in the same chain), runs inside another. *)
let climb_to_lca t ~src ~dst =
  let parent = t.routes.Routes.parent and depth = t.routes.Routes.depth in
  let u = ref src and v = ref dst and k = ref 0 in
  while !u <> !v do
    let du = depth.(!u) and dv = depth.(!v) in
    if du >= dv then u := parent.(!u);
    if dv >= du then begin
      t.chain.(!k) <- !v;
      incr k;
      v := parent.(!v)
    end
  done;
  t.chain.(!k) <- !v;
  !k

(* On-demand tree walk instead of a precomputed n x n matrix: the
   matrix was the dominant memory cost at scale (800 MB at 10^4
   nodes). The sum runs up the source side, then down the destination
   side — [Tree.dist]'s order, so callers see bit-identical floats —
   and builds no list. *)
let dist t u v =
  let k = climb_to_lca t ~src:u ~dst:v in
  let lca = t.chain.(k) and parent = t.routes.Routes.parent in
  let d = ref 0. and x = ref u in
  while !x <> lca do
    d := !d +. t.delays.(!x);
    x := parent.(!x)
  done;
  for j = k - 1 downto 0 do
    d := !d +. t.delays.(t.chain.(j))
  done;
  !d

let rtt t u v = 2. *. dist t u v

let set_drop t f = t.drop <- f

(* Compose with any installed tap so several passive observers (the
   protocol auditor, the Obs tracer) can coexist; the earlier tap runs
   first. *)
let add_tap t f =
  match t.tap with
  | None -> t.tap <- Some f
  | Some g ->
      t.tap <-
        Some
          (fun ~from packet ->
            g ~from packet;
            f ~from packet)

let tap t ~from packet = match t.tap with None -> () | Some f -> f ~from packet

(* Churn counters only exist when a membership layer was installed,
   so churn-free registries keep their exact historical key set. *)
let publish_totals registry cost ~delivered ~churn =
  Obs.Registry.incr ~by:delivered registry "net/packets_delivered";
  Obs.Registry.incr ~by:(Cost.retransmission_overhead cost) registry
    "net/retransmission_crossings";
  Obs.Registry.incr ~by:(Cost.control_overhead cost ~multicast:true) registry
    "net/control_crossings_mc";
  Obs.Registry.incr ~by:(Cost.control_overhead cost ~multicast:false) registry
    "net/control_crossings_uc";
  Obs.Registry.incr ~by:(Cost.total_crossings cost Cost.Data) registry "net/data_crossings";
  Obs.Registry.incr ~by:(Cost.total_crossings cost Cost.Session) registry
    "net/session_crossings";
  Option.iter
    (fun (joins, leaves) ->
      Obs.Registry.incr ~by:joins registry "net/member_joins";
      Obs.Registry.incr ~by:leaves registry "net/member_leaves")
    churn

let churn_counts t = Option.map (fun m -> (m.m_joins, m.m_leaves)) t.membership

let publish_metrics t registry =
  publish_totals registry t.cost ~delivered:t.delivered ~churn:(churn_counts t)

let on_receive t v f = t.handlers.(v) <- Some f

let packets_delivered t = t.delivered

let set_enabled t v flag =
  t.enabled.(v) <- flag;
  (* Shard mode keeps an explicit disabled-member list: emits snapshot
     it so a replaying shard can reproduce the origin's send-time
     enabled check even when the member's state changed since. The list
     is replaced, never mutated, so snapshots stay valid. *)
  match t.shard with
  | None -> ()
  | Some sh ->
      if flag then sh.sh_disabled <- List.filter (fun x -> x <> v) sh.sh_disabled
      else if not (List.mem v sh.sh_disabled) then sh.sh_disabled <- v :: sh.sh_disabled

let is_enabled t v = t.enabled.(v)

(* -- membership layer (dynamic join/leave/rejoin) -------------------- *)

let get_membership t =
  match t.membership with
  | Some m -> m
  | None ->
      let m =
        {
          m_member = Array.make (Tree.n_nodes t.tree) true;
          m_joins = 0;
          m_leaves = 0;
        }
      in
      t.membership <- Some m;
      m

let is_member t v =
  match t.membership with None -> true | Some m -> m.m_member.(v)

(* Membership rides the enabled flag for packet semantics: a
   non-member neither receives casts (schedule-time and fire-time
   checks in [deliver]/[deliver_fire]) nor originates them (the
   send-side [enabled] guards) — and the shard-mode [sh_disabled]
   snapshots keep working unchanged. The distinction from a crash is
   that [is_member] is false too: the oracle stops charging the node
   for losses, and protocol layers drop (rather than suspend) its soft
   state. [count] is false for the compile-time initial exclusion of a
   late joiner, which is a starting condition, not a churn event. *)
let set_member ?(count = true) t v flag =
  let m = get_membership t in
  if m.m_member.(v) <> flag then begin
    m.m_member.(v) <- flag;
    if count then if flag then m.m_joins <- m.m_joins + 1 else m.m_leaves <- m.m_leaves + 1
  end;
  set_enabled t v flag

(* -- perturbation layer (fault injection) --------------------------- *)

let perturbed t = t.perturb <> None

let get_perturb t =
  match t.perturb with
  | Some p -> p
  | None ->
      let n = Tree.n_nodes t.tree in
      let p =
        {
          downs = Array.make n [];
          jitters = Array.make n [];
          dups = Array.make n [];
          prng = Sim.Rng.split (Sim.Engine.rng t.engine);
        }
      in
      t.perturb <- Some p;
      p

let check_link t link =
  if link < 1 || link >= Tree.n_nodes t.tree then
    invalid_arg (Printf.sprintf "Network: link %d out of range" link)

let check_window ~from_ ~until =
  if not (from_ >= 0. && until > from_) then
    invalid_arg "Network: perturbation window must satisfy 0 <= from < until"

let add_window arr link w = arr.(link) <- arr.(link) @ [ w ]

let add_link_down t ~link ~from_ ~until =
  check_link t link;
  check_window ~from_ ~until;
  add_window (get_perturb t).downs link { w_from = from_; w_until = until; w_mag = 0. }

let add_link_jitter t ~link ~from_ ~until ~max_jitter =
  check_link t link;
  check_window ~from_ ~until;
  if max_jitter <= 0. then invalid_arg "Network.add_link_jitter: max_jitter must be positive";
  add_window (get_perturb t).jitters link { w_from = from_; w_until = until; w_mag = max_jitter }

let add_link_dup t ~link ~from_ ~until =
  check_link t link;
  check_window ~from_ ~until;
  add_window (get_perturb t).dups link { w_from = from_; w_until = until; w_mag = 0. }

let rec window_at windows at =
  match windows with
  | [] -> None
  | w :: rest -> if at >= w.w_from && at < w.w_until then Some w else window_at rest at

let link_is_down t ~link ~at =
  match t.perturb with
  | None -> false
  | Some p -> window_at p.downs.(link) at <> None

(* Schedule delivery of the current cast's packet (the one pinned in
   [cur_pslot]) at [node], at the time the walk wrote into
   [arrive.(cell)]: [node]'s own cell, or the spare cell for a
   duplicated copy. During an emit replay the send-time enabled check
   consults the origin's snapshot instead of live state: the member may
   have crashed or revived between the origin's send and this shard's
   replay of it. *)
let deliver t ~node ~cell =
  match t.handlers.(node) with
  | None -> ()
  | Some _ ->
      let blocked =
        match t.shard with
        | Some sh when sh.sh_replaying -> List.mem node sh.sh_replay_disabled
        | _ -> not t.enabled.(node)
      in
      if not blocked then begin
        let s = t.cur_pslot in
        t.prefs.(s) <- t.prefs.(s) + 1;
        ignore
          (Sim.Engine.schedule_call t.engine ~times:t.arrive cell t.fire
             ((s lsl t.node_bits) lor node))
      end

(* Whether this shard tallies the crossing into [to_] — exactly the
   owner of the entered node counts it, so merged per-shard tallies
   reproduce the serial totals with nothing double-counted. Serial
   mode (empty owner array) counts everything. *)
let[@inline] counts_crossing t to_ = Array.length t.sh_owner = 0 || t.sh_owner.(to_) = t.sh_me

(* Move [packet] across the link [link] from [from] to [to_], leaving
   [from] at time [at]. Returns the arrival time, or NaN if the loss
   predicate dropped it (a float sentinel rather than an option keeps
   the per-crossing path allocation-free). [cat], [tx] and [fifo] are
   per-packet constants hoisted out by the caller: the packet's cost
   category, its serialization time, and whether it reserves links.

   Size-0 control packets serialize instantly: they neither wait on
   nor extend link reservations. Payload packets pay one serialization
   time per hop. Only the source's paced data stream accumulates FIFO
   reservations: it is the only same-link in-order flow, whereas reply
   floods originate at many members whose crossing times are computed
   at send time — letting them reserve both breaks causality and,
   under reply implosion, builds unbounded queues the paper's
   lossless-recovery model does not have (NS2 would drop, not queue,
   that excess). *)
let[@inline] traverse t ~cat ~cast ~link ~down ~from:_ ~to_ ~at ~tx ~fifo packet =
  if t.drop ~link ~down packet then Float.nan
  else
    let busy = if down then t.busy_down else t.busy_up in
    match t.perturb with
    | None ->
        if counts_crossing t to_ then Cost.record_crossing t.cost cat cast;
        if tx = 0. then at +. t.delays.(link)
        else if fifo then begin
          let start = Float.max at busy.(link) in
          busy.(link) <- start +. tx;
          start +. tx +. t.delays.(link)
        end
        else at +. tx +. t.delays.(link)
    | Some p ->
        (* Perturbed path. Outage windows are matched against the time
           the packet starts crossing this link, so a link that fails
           after the flood was computed still swallows the crossings
           falling inside the outage. *)
        if window_at p.downs.(link) at <> None then Float.nan
        else begin
          if counts_crossing t to_ then Cost.record_crossing t.cost cat cast;
          let arrival =
            if tx = 0. then at +. t.delays.(link)
            else if fifo then begin
              let start = Float.max at busy.(link) in
              busy.(link) <- start +. tx;
              start +. tx +. t.delays.(link)
            end
            else at +. tx +. t.delays.(link)
          in
          let arrival =
            match window_at p.jitters.(link) at with
            | Some w when w.w_mag > 0. -> arrival +. Sim.Rng.float p.prng w.w_mag
            | _ -> arrival
          in
          (* Duplication: a second copy of the packet arrives at the
             link's child-side endpoint one extra propagation delay
             later (a last-hop duplicate; it is not re-forwarded). *)
          (match window_at p.dups.(link) at with
          | Some _ ->
              let spare = Tree.n_nodes t.tree in
              t.arrive.(spare) <- arrival +. t.delays.(link);
              deliver t ~node:to_ ~cell:spare
          | None -> ());
          arrival
        end

let tx_of t packet = float_of_int (Packet.size_bits packet) /. t.bandwidth_bps

let is_fifo packet = match packet.Packet.payload with Packet.Data _ -> true | _ -> false

(* Cross the down links into root-preorder entries [lo, hi) — whole
   subtrees, each in the order a recursive child walk visits it — and
   deliver at every node entered; a dropped crossing skips the entry's
   subtree. [arrive] carries per-hop arrival times, so the float
   accumulation is hop by hop, exactly as a recursive walk's.

   Shard mode prunes non-FIFO walks to the branches that matter here:
   a crossing into a subtree holding none of this shard's nodes is
   skipped whole via the same subtree skip a drop uses ([flood] prunes
   its up-crossings alike). Kept crossings are prefix-closed (a kept
   crossing's predecessor toward the origin is always kept), so the
   hop-by-hop [arrive] accumulation still sees serial-identical floats.
   FIFO walks — the source's replicated data floods — are never pruned:
   their link reservations ([busy]) must advance identically on every
   shard. *)
let scan t ~cat ~cast ~tx ~fifo lo hi packet =
  let r = t.routes in
  let nodes = r.Routes.nodes and prevs = r.Routes.prevs and skips = r.Routes.skips in
  let below = if fifo then [||] else t.sh_below in
  let i = ref lo in
  while !i < hi do
    let node = nodes.(!i) in
    if Array.length below > 0 && below.(node) = 0 then i := !i + skips.(!i)
    else begin
      let prev = prevs.(!i) in
      let at' =
        traverse t ~cat ~cast ~link:node ~down:true ~from:prev ~to_:node ~at:t.arrive.(prev)
          ~tx ~fifo packet
      in
      if Float.is_nan at' then i := !i + skips.(!i)
      else begin
        t.arrive.(node) <- at';
        deliver t ~node ~cell:node;
        incr i
      end
    end
  done

(* Everything strictly below [v]: its children's subtrees. *)
let scan_below t ~cat ~cast ~tx ~fifo v packet =
  let r = t.routes in
  let p = r.Routes.pos.(v) in
  let stop = p + r.Routes.skips.(p) in
  if p + 1 < stop then scan t ~cat ~cast ~tx ~fifo (p + 1) stop packet

(* The whole-tree flood away from [origin], in the order of a recursive
   neighbour walk (parent first, then children in [Tree.children]
   order). Up: climb the parent chain p1, p2, ... while the crossings
   survive, delivering at each. Down: for each ancestor reached, from
   the highest to p1, its children's subtrees except the one toward
   [origin] — the preorder ranges either side of that child's — and
   finally [origin]'s own children's subtrees. A dropped up-crossing
   thus loses exactly the levels above it, as in the recursive walk.
   In shard mode an up-crossing is kept while an owned node lies
   outside the subtree it leaves. *)
let flood t ~cat ~cast ~tx ~fifo ~origin packet =
  let r = t.routes and chain = t.chain in
  let parent = r.Routes.parent and pos = r.Routes.pos and skips = r.Routes.skips in
  let below = if fifo then [||] else t.sh_below in
  chain.(0) <- origin;
  let m = ref 0 and climbing = ref (parent.(origin) >= 0) in
  while !climbing do
    let x = chain.(!m) in
    let p = parent.(x) in
    if Array.length below > 0 && t.sh_total - below.(x) <= 0 then climbing := false
    else begin
      let at' =
        traverse t ~cat ~cast ~link:x ~down:false ~from:x ~to_:p ~at:t.arrive.(x) ~tx ~fifo
          packet
      in
      if Float.is_nan at' then climbing := false
      else begin
        t.arrive.(p) <- at';
        deliver t ~node:p ~cell:p;
        incr m;
        chain.(!m) <- p;
        climbing := parent.(p) >= 0
      end
    end
  done;
  for j = !m downto 1 do
    let pa = pos.(chain.(j)) and pc = pos.(chain.(j - 1)) in
    let stop_a = pa + skips.(pa) and stop_c = pc + skips.(pc) in
    if pa + 1 < pc then scan t ~cat ~cast ~tx ~fifo (pa + 1) pc packet;
    if stop_c < stop_a then scan t ~cat ~cast ~tx ~fifo stop_c stop_a packet
  done;
  scan_below t ~cat ~cast ~tx ~fifo origin packet

(* Record an origin cast for the shard exchange: buffered until the
   next conservative sync window, then replayed by every other shard.
   The primary shard also keeps a copy as its tap-stream record. Hosts
   never originate FIFO (data) traffic — that is the source's
   replicated stream ({!multicast_replicated}) — and an emit of one
   would desynchronise link reservations across shards, so it is
   rejected loudly. *)
let note_origin t sh ~from ~cast packet =
  if is_fifo packet then
    invalid_arg "Network: fifo (data) casts in shard mode must use multicast_replicated";
  let e =
    {
      e_at = t.clock.now;
      e_from = from;
      e_idx = sh.sh_next_idx;
      e_cast = cast;
      e_packet = packet;
      e_disabled = sh.sh_disabled;
    }
  in
  sh.sh_next_idx <- sh.sh_next_idx + 1;
  sh.sh_emits <- e :: sh.sh_emits;
  if sh.sh_observe then sh.sh_obs <- e :: sh.sh_obs;
  e

let multicast t ~from packet =
  if not t.enabled.(from) then ()
  else begin
    tap t ~from packet;
    let cat = Cost.category_of packet in
    Cost.record_send t.cost cat Cost.Multicast;
    let saved = t.cur_pslot in
    let s = acquire_pslot t packet in
    (match t.shard with
    | Some sh ->
        let e = note_origin t sh ~from ~cast:Ecast_multicast packet in
        t.pwalk.(s) <- (e.e_at, e.e_from, e.e_idx)
    | None -> ());
    t.arrive.(from) <- t.clock.now;
    flood t ~cat ~cast:Cost.Multicast ~tx:(tx_of t packet) ~fifo:(is_fifo packet) ~origin:from
      packet;
    release_pslot t s;
    t.cur_pslot <- saved
  end

(* The source's data stream under shard mode: statically replicated —
   every shard walks the full (unpruned) flood locally, keeping link
   reservations and per-node arrivals identical everywhere with no
   exchange at all. Only the sender's owner tallies the send and (when
   primary) records the tap stream, so merged artifacts stay serial-
   identical. Serial mode: exactly {!multicast}. *)
let multicast_replicated t ~from packet =
  if not t.enabled.(from) then ()
  else begin
    tap t ~from packet;
    let cat = Cost.category_of packet in
    (match t.shard with
    | None -> Cost.record_send t.cost cat Cost.Multicast
    | Some sh ->
        if t.sh_owner.(from) = t.sh_me then Cost.record_send t.cost cat Cost.Multicast;
        if sh.sh_observe then begin
          let e =
            {
              e_at = t.clock.now;
              e_from = from;
              e_idx = sh.sh_next_idx;
              e_cast = Ecast_multicast;
              e_packet = packet;
              e_disabled = [];
            }
          in
          sh.sh_next_idx <- sh.sh_next_idx + 1;
          sh.sh_obs <- e :: sh.sh_obs
        end);
    let saved = t.cur_pslot in
    let s = acquire_pslot t packet in
    (match t.shard with
    | Some sh ->
        let i = sh.sh_rep_idx in
        sh.sh_rep_idx <- i + 1;
        t.pwalk.(s) <- (t.clock.now, from, -2 - i)
    | None -> ());
    t.arrive.(from) <- t.clock.now;
    flood t ~cat ~cast:Cost.Multicast ~tx:(tx_of t packet) ~fifo:(is_fifo packet) ~origin:from
      packet;
    release_pslot t s;
    t.cur_pslot <- saved
  end

(* Walk the unicast path [from] -> [dst] through their LCA, charged as
   unicast crossings: up the source side, then down the destination
   side, the hop order of [Tree.path]. The walk leaves [from] at
   [arrive.(from)]; on arrival it writes the time into [arrive.(dst)]
   and returns [true], and it returns [false] if a hop dropped. Callers
   deliver only on arrival. *)
let walk_path t ~cat ~from ~dst ~tx ~fifo packet =
  let k = climb_to_lca t ~src:from ~dst in
  let chain = t.chain and parent = t.routes.Routes.parent in
  let lca = chain.(k) in
  let at = ref t.arrive.(from) and x = ref from in
  while !x <> lca && not (Float.is_nan !at) do
    let p = parent.(!x) in
    at :=
      traverse t ~cat ~cast:Cost.Unicast ~link:!x ~down:false ~from:!x ~to_:p ~at:!at ~tx ~fifo
        packet;
    x := p
  done;
  let j = ref (k - 1) in
  while !j >= 0 && not (Float.is_nan !at) do
    let c = chain.(!j) in
    at :=
      traverse t ~cat ~cast:Cost.Unicast ~link:c ~down:true ~from:chain.(!j + 1) ~to_:c ~at:!at
        ~tx ~fifo packet;
    decr j
  done;
  if Float.is_nan !at then false
  else begin
    t.arrive.(dst) <- !at;
    true
  end

let unicast t ~from ~dst packet =
  if not t.enabled.(from) then ()
  else begin
    tap t ~from packet;
    let cat = Cost.category_of packet in
    Cost.record_send t.cost cat Cost.Unicast;
    let origin =
      match t.shard with
      | Some sh -> Some (note_origin t sh ~from ~cast:(Ecast_unicast dst) packet)
      | None -> None
    in
    if from <> dst then begin
      let saved = t.cur_pslot in
      let s = acquire_pslot t packet in
      (match origin with
      | Some e -> t.pwalk.(s) <- (e.e_at, e.e_from, e.e_idx)
      | None -> ());
      t.arrive.(from) <- t.clock.now;
      if walk_path t ~cat ~from ~dst ~tx:(tx_of t packet) ~fifo:(is_fifo packet) packet then
        deliver t ~node:dst ~cell:dst;
      release_pslot t s;
      t.cur_pslot <- saved
    end
  end

(* Deliver at [node], then flood its subtree; the caller has written
   [node]'s arrival time into [arrive.(node)]. *)
let flood_down t ~cat ~node packet =
  deliver t ~node ~cell:node;
  scan_below t ~cat ~cast:Cost.Subcast ~tx:(tx_of t packet) ~fifo:(is_fifo packet) node packet

let relayed_subcast t ~from ~via packet =
  if not t.enabled.(from) then ()
  else begin
    tap t ~from packet;
    let cat = Cost.category_of packet in
    Cost.record_send t.cost cat Cost.Subcast;
    let origin =
      match t.shard with
      | Some sh -> Some (note_origin t sh ~from ~cast:(Ecast_relayed via) packet)
      | None -> None
    in
    let saved = t.cur_pslot in
    let s = acquire_pslot t packet in
    (match origin with
    | Some e -> t.pwalk.(s) <- (e.e_at, e.e_from, e.e_idx)
    | None -> ());
    t.arrive.(from) <- t.clock.now;
    let tx = tx_of t packet and fifo = is_fifo packet in
    if from = via || walk_path t ~cat ~from ~dst:via ~tx ~fifo packet then
      flood_down t ~cat ~node:via packet;
    release_pslot t s;
    t.cur_pslot <- saved
  end

(* Flood the subtree below [root] — its root-preorder range — keeping
   only the branches [scope] accepts. Scope predicates come from
   {!Rdomain}-style recovery-domain chains, which are closed under tree
   ancestry inside the flooded subtree: an out-of-scope node has no
   in-scope descendant, so the whole subtree is skipped in O(1) exactly
   like a dropped crossing. The sender [skip] never hears its own cast
   (matching multicast). *)
let run_scoped t ~cat ~tx ~fifo ~scope ~skip ~root packet =
  let r = t.routes in
  let nodes = r.Routes.nodes and prevs = r.Routes.prevs and skips = r.Routes.skips in
  let p = r.Routes.pos.(root) in
  let stop = p + skips.(p) in
  let i = ref (p + 1) in
  while !i < stop do
    let node = nodes.(!i) in
    if not (scope node) then i := !i + skips.(!i)
    else begin
      let prev = prevs.(!i) in
      let at' =
        traverse t ~cat ~cast:Cost.Subcast ~link:node ~down:true ~from:prev ~to_:node
          ~at:t.arrive.(prev) ~tx ~fifo packet
      in
      if Float.is_nan at' then i := !i + skips.(!i)
      else begin
        t.arrive.(node) <- at';
        if node <> skip then deliver t ~node ~cell:node;
        incr i
      end
    end
  done

let scoped_cast t ~from ~root ~scope packet =
  (match t.shard with
  | Some _ -> invalid_arg "Network.scoped_cast: not available in shard mode"
  | None -> ());
  if not t.enabled.(from) then ()
  else begin
    tap t ~from packet;
    let cat = Cost.category_of packet in
    Cost.record_send t.cost cat Cost.Subcast;
    let tx = tx_of t packet and fifo = is_fifo packet in
    let saved = t.cur_pslot in
    let s = acquire_pslot t packet in
    t.arrive.(from) <- t.clock.now;
    (if from = root then run_scoped t ~cat ~tx ~fifo ~scope ~skip:from ~root packet
     else if walk_path t ~cat ~from ~dst:root ~tx ~fifo packet then begin
       if scope root then deliver t ~node:root ~cell:root;
       run_scoped t ~cat ~tx ~fifo ~scope ~skip:from ~root packet
     end);
    release_pslot t s;
    t.cur_pslot <- saved
  end

(* -- shard-mode control surface ------------------------------------- *)

let enable_shard t ~partition ~me ~observe =
  if Array.length partition.Partition.owner <> Tree.n_nodes t.tree then
    invalid_arg "Network.enable_shard: partition does not match this tree";
  if me < 0 || me >= partition.Partition.n_shards then
    invalid_arg "Network.enable_shard: shard id out of range";
  t.sh_owner <- partition.Partition.owner;
  t.sh_me <- me;
  t.sh_below <- Partition.owned_below partition ~tree:t.tree ~me;
  t.sh_total <- Partition.n_owned partition ~me;
  t.shard <-
    Some
      {
        sh_observe = observe;
        sh_next_idx = 0;
        sh_rep_idx = 0;
        sh_emits = [];
        sh_obs = [];
        sh_disabled = [];
        sh_replaying = false;
        sh_replay_disabled = [];
      }

let owns t v = Array.length t.sh_owner = 0 || t.sh_owner.(v) = t.sh_me

let take_emits t =
  match t.shard with
  | None -> []
  | Some sh ->
      let es = List.rev sh.sh_emits in
      sh.sh_emits <- [];
      es

let take_observations t =
  match t.shard with
  | None -> []
  | Some sh ->
      let os = List.rev sh.sh_obs in
      sh.sh_obs <- [];
      os

(* [v]'s index in the unpruned walk {!flood} makes from [origin] (-1
   for [origin] itself). The walk lists the ancestors p1 .. pd first,
   then blocks B_d .. B_0: B_j is p_j's subtree less p_j and less
   p_(j-1)'s subtree, in preorder (p_0 = [origin], whose block is its
   subtree less itself). B_j .. B_0 are p_j's subtree less the j + 1
   chain nodes, so B_j starts at index n - |subtree p_j| + j. *)
let walk_rank t ~origin v =
  if v = origin then -1
  else begin
    let r = t.routes in
    let j = climb_to_lca t ~src:v ~dst:origin in
    let a = t.chain.(j) in
    if a = v then j - 1
    else begin
      let pa = r.Routes.pos.(a) and pv = r.Routes.pos.(v) in
      let skipped =
        if j = 0 then 0
        else begin
          let pc = r.Routes.pos.(t.chain.(j - 1)) in
          if pv > pc then r.Routes.skips.(pc) else 0
        end
      in
      Array.length r.Routes.nodes - r.Routes.skips.(pa) + j + (pv - pa - 1) - skipped
    end
  end

(* The firing delivery's serial rank: its walk's cast key plus the
   delivered node's position in the unpruned flood from the cast's
   origin — the exact (time, seq) FIFO key the serial engine executes
   same-time deliveries in, reconstructible on any shard because the
   walk is a static function of the tree. Runs once per tagged
   recovery, never on the delivery path. *)
let delivery_rank t =
  match t.shard with
  | None -> None
  | Some _ ->
      if t.cur_deliver_node < 0 || t.cur_deliver_from < 0 then None
      else
        Some
          ( t.cur_deliver_at,
            t.cur_deliver_from,
            t.cur_deliver_idx,
            walk_rank t ~origin:t.cur_deliver_from t.cur_deliver_node )

(* Replay a remote shard's origin cast: the same walk the origin ran,
   started from the emit's recorded send time, with the origin-side
   bookkeeping (tap, send tally, emit capture) suppressed — crossings
   into nodes this shard owns are tallied and deliveries scheduled
   exactly as the serial run would have. All arrival times land at or
   beyond the conservative barrier (>= e_at + lookahead), so the
   engine never sees a past-time event. *)
let apply_emit t e =
  match t.shard with
  | None -> invalid_arg "Network.apply_emit: shard mode not enabled"
  | Some sh ->
      sh.sh_replaying <- true;
      sh.sh_replay_disabled <- e.e_disabled;
      let packet = e.e_packet in
      let cat = Cost.category_of packet in
      let tx = tx_of t packet and fifo = is_fifo packet in
      let saved = t.cur_pslot in
      let s = acquire_pslot t packet in
      t.pwalk.(s) <- (e.e_at, e.e_from, e.e_idx);
      (match e.e_cast with
      | Ecast_multicast ->
          t.arrive.(e.e_from) <- e.e_at;
          flood t ~cat ~cast:Cost.Multicast ~tx ~fifo ~origin:e.e_from packet
      | Ecast_unicast dst ->
          if e.e_from <> dst then begin
            t.arrive.(e.e_from) <- e.e_at;
            if walk_path t ~cat ~from:e.e_from ~dst ~tx ~fifo packet then
              deliver t ~node:dst ~cell:dst
          end
      | Ecast_relayed via ->
          t.arrive.(e.e_from) <- e.e_at;
          if e.e_from = via || walk_path t ~cat ~from:e.e_from ~dst:via ~tx ~fifo packet then
            flood_down t ~cat ~node:via packet);
      release_pslot t s;
      t.cur_pslot <- saved;
      sh.sh_replaying <- false;
      sh.sh_replay_disabled <- []
