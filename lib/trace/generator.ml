type result = {
  trace : Trace.t;
  link_bad : Bitset.t array;
  link_rates : float array;
  link_bursts : float array;
}

let expected_losses tree ~rates ~n_packets =
  let per_receiver node =
    let rec survive v acc =
      if v = 0 then acc else survive (Net.Tree.parent tree v) (acc *. (1. -. rates.(v)))
    in
    1. -. survive node 1.
  in
  Array.fold_left
    (fun acc node -> acc +. per_receiver node)
    0. (Net.Tree.receivers tree)
  *. float_of_int n_packets

(* O(n) variant for scale trees: survival probabilities accumulate
   top-down, each node multiplying its parent's product once, instead
   of one root walk per receiver (quadratic on deep chains, and the
   calibration bisection evaluates this ~60 times). Not a drop-in for
   [expected_losses] on the legacy rows: the per-receiver product
   multiplies the same factors in the opposite order, so the result
   can differ in ULPs — and the pinned trace goldens were minted with
   the bottom-up walk. *)
let expected_losses_topdown tree ~rates ~n_packets =
  let n = Net.Tree.n_nodes tree in
  let survive = Array.make n 1. in
  let acc = ref 0. in
  let rec visit v =
    List.iter
      (fun c ->
        survive.(c) <- survive.(v) *. (1. -. rates.(c));
        if Net.Tree.is_leaf tree c then acc := !acc +. (1. -. survive.(c)) else visit c)
      (Net.Tree.children tree v)
  in
  visit 0;
  !acc *. float_of_int n_packets

(* A crude but stable string hash to derive per-row default seeds. *)
let hash_name name =
  let h = ref 1469598103934665603L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 1099511628211L)
    name;
  !h

let rate_cap = 0.6

(* Find the weight scale making the expected loss total hit the target.
   Expected losses are monotone increasing in the scale, so bisect. *)
let calibrate_scale ?(expect = expected_losses) tree ~weights ~n_packets ~target =
  let rates_for s = Array.map (fun w -> Float.min rate_cap (s *. w)) weights in
  let expected s = expect tree ~rates:(rates_for s) ~n_packets in
  let rec grow hi = if expected hi >= target || hi > 1e6 then hi else grow (hi *. 2.) in
  let hi = grow 1. in
  let rec bisect lo hi iters =
    if iters = 0 then (lo +. hi) /. 2.
    else begin
      let mid = (lo +. hi) /. 2. in
      if expected mid < target then bisect mid hi (iters - 1) else bisect lo mid (iters - 1)
    end
  in
  bisect 0. hi 60

let simulate_links tree ~rng ~rates ~bursts ~n_packets =
  let n = Net.Tree.n_nodes tree in
  let link_bad = Array.make n (Bitset.create 0) in
  for l = 1 to n - 1 do
    let model = Gilbert.of_marginal ~loss_rate:rates.(l) ~mean_burst:bursts.(l) in
    link_bad.(l) <- Gilbert.run model (Sim.Rng.split rng) n_packets
  done;
  link_bad

(* A packet is lost by a receiver iff any link on its path from the
   source was Bad at that step: per-receiver loss = union of link_bad
   over the path. Accumulated top-down — each node unions its own link
   into a copy of its parent's running union — so the whole matrix is
   O(n) bitset operations instead of one root walk per receiver
   (quadratic on deep trees). Unions are order-insensitive, so the
   bits are identical to the former per-receiver walk. *)
let loss_matrix tree ~link_bad ~n_packets =
  let n = Net.Tree.n_nodes tree in
  let path_bad = Array.make n (Bitset.create 0) in
  path_bad.(0) <- Bitset.create n_packets;
  let rec visit v =
    List.iter
      (fun c ->
        let bits = Bitset.copy path_bad.(v) in
        Bitset.union_into ~dst:bits link_bad.(c);
        path_bad.(c) <- bits;
        visit c)
      (Net.Tree.children tree v)
  in
  visit 0;
  Array.map (fun node -> path_bad.(node)) (Net.Tree.receivers tree)

let realized_losses loss = Array.fold_left (fun acc b -> acc + Bitset.count b) 0 loss

(* Receiver-leaf counts below every link, in one post-order pass
   (integer counts are exact, so this replaces the former per-link
   [subtree_receivers] scan — O(n^2) overall — everywhere). *)
let receivers_below_all tree =
  let n = Net.Tree.n_nodes tree in
  let counts = Array.make n 0 in
  let rec visit v =
    let own = if Net.Tree.is_leaf tree v && v <> 0 then 1 else 0 in
    counts.(v) <-
      List.fold_left (fun acc c -> acc + visit c) own (Net.Tree.children tree v);
    counts.(v)
  in
  ignore (visit 0);
  counts

(* Everything [synthesize] draws before link simulation, factored out
   so the streaming variant consumes the rng identically: same seed +
   same row ⇒ same tree, weights, bursts, and rng position. The field
   order below mirrors the draw order; do not reorder the draws. *)
type plan = {
  p_tree : Net.Tree.t;
  p_weights : float array;
  p_bursts : float array;
  p_target : float;
  p_expect : Net.Tree.t -> rates:float array -> n_packets:int -> float;
  p_rng : Sim.Rng.t; (* positioned exactly where simulate_links reads it *)
  p_n_packets : int;
  p_period : float;
}

let plan ?seed ?n_packets (row : Meta.row) =
  let seed = match seed with Some s -> s | None -> hash_name row.name in
  let rng = Sim.Rng.create seed in
  let n_packets = match n_packets with Some n -> n | None -> row.n_packets in
  let target =
    float_of_int row.n_losses *. float_of_int n_packets /. float_of_int row.n_packets
  in
  let family = Scale.family_of_name row.name in
  let tree =
    match family with
    | None -> Topology_gen.generate ~rng ~n_receivers:row.n_receivers ~depth:row.tree_depth
    | Some (Scale.Bounded_fanout { fanout }) ->
        Topology_gen.bounded_fanout ~rng ~n_receivers:row.n_receivers ~fanout
    | Some (Scale.Star_of_stars { clusters }) ->
        Topology_gen.star_of_stars ~rng ~n_receivers:row.n_receivers ~clusters
    | Some Scale.Deep_chain -> Topology_gen.deep_chain ~rng ~n_receivers:row.n_receivers
    | Some (Scale.Rotating_hot _ | Scale.Phase_shift _) ->
        invalid_arg "Generator.plan: adversarial rows are synthesized by synthesize_adversarial"
  in
  let n = Net.Tree.n_nodes tree in
  (* Relative loss weights: every link lossy a little, a few "hot"
     links lossy a lot. Yajnik et al. observe that most MBone loss
     concentrates on a small number of links; the hot/background ratio
     here makes hot links carry the bulk of the loss, which is the
     locality CESRM's cache rides on. *)
  (* Scale families shrink the background weight by three orders of
     magnitude: across 10^4 links the trace-sized background
     (0.01–0.12 per link) would swallow the whole calibrated budget,
     smearing losses thinly over every link — no locality, every loss
     a fresh singleton event. Yajnik-style concentration (and the
     locality CESRM's cache needs) requires the hot links to carry the
     bulk. *)
  let bg_lo, bg_hi = match family with None -> (0.01, 0.12) | Some _ -> (1e-5, 1e-4) in
  let weights = Array.init n (fun l -> if l = 0 then 0. else Sim.Rng.log_uniform rng bg_lo bg_hi) in
  (* Yajnik et al. find most MBone losses are seen by one or a few
     receivers, with occasional backbone events seen by many. Hot links
     are therefore drawn mostly from the edge (small receiver
     subtrees), plus one or two interior links for the shared events. *)
  let below = receivers_below_all tree in
  let links_with pred =
    Array.of_list (List.filter pred (Array.to_list (Net.Tree.links tree)))
  in
  let edge_pool = links_with (fun l -> below.(l) <= 2) in
  let interior_pool = links_with (fun l -> below.(l) >= 3) in
  let heat l = weights.(l) <- weights.(l) +. Sim.Rng.log_uniform rng 0.8 2.5 in
  (* Trace-sized rows grow the hot-link count with the group; scale
     rows pin it to a handful so the (capped) loss budget concentrates
     into repeated events on the same links — the locality that makes
     CESRM's expedited path matter and keeps each recovery exchange
     from being a one-off global flood. *)
  let n_edge_hot =
    match family with None -> max 2 (row.n_receivers / 2) | Some _ -> 6
  in
  for _ = 1 to n_edge_hot do
    if Array.length edge_pool > 0 then heat (Sim.Rng.pick rng edge_pool)
  done;
  (* At scale an interior hot link means a loss event shared by
     thousands of receivers — an O(n) recovery exchange each time — so
     scale scenarios keep only a couple (the shared events CESRM's
     cache rides on) where the trace-sized rows grow with the group. *)
  let n_interior_hot =
    match family with None -> 1 + (row.n_receivers / 10) | Some _ -> 2
  in
  for _ = 1 to n_interior_hot do
    if Array.length interior_pool > 0 then begin
      let l = Sim.Rng.pick rng interior_pool in
      weights.(l) <- weights.(l) +. Sim.Rng.log_uniform rng 0.3 1.0
    end
  done;
  let bursts = Array.init n (fun l -> if l = 0 then 1. else Sim.Rng.uniform rng 1.2 4.0) in
  let expect = match family with None -> expected_losses | Some _ -> expected_losses_topdown in
  {
    p_tree = tree;
    p_weights = weights;
    p_bursts = bursts;
    p_target = target;
    p_expect = expect;
    p_rng = rng;
    p_n_packets = n_packets;
    p_period = float_of_int row.period_ms /. 1000.;
  }

(* -- adversarial cache-thrash families --------------------------------

   [rh] and [ps] do not draw Yajnik-style weights or Gilbert chains:
   their point is a loss locality that MOVES, so the schedule is built
   directly — windowed Bernoulli loss on explicitly chosen links — and
   only the per-link drop rates are calibrated against the row's loss
   budget (analytically, then by a bisection against the realized
   count). *)

(* Deepest-first ancestor test: does [link]'s path to the root pass
   through [anc]? Links are named by their child node. *)
let link_under tree ~anc link =
  let rec up v = v = anc || (v <> 0 && up (Net.Tree.parent tree v)) in
  up link

(* The per-packet schedule of an adversarial family: which links are
   active for packet [seq] (1-based) and at what relative weight. *)
type adversarial_schedule = {
  sched_links : int list; (* every link that is ever active, ascending *)
  sched_active : seq:int -> (int * float) list; (* (link, weight) *)
  sched_weight_packets : float; (* sum over packets of active weights x receivers below *)
}

let adversarial_schedule family tree ~n_packets =
  let below = receivers_below_all tree in
  let links = Array.to_list (Net.Tree.links tree) in
  let interior =
    List.sort
      (fun a b -> compare (below.(b), a) (below.(a), b))
      (List.filter (fun l -> below.(l) >= 3) links)
  in
  match family with
  | Scale.Rotating_hot { window; pool } ->
      (* The hot link migrates round-robin through the [pool] largest
         interior subtrees every [window] packets. *)
      let pool_links =
        List.filteri (fun i _ -> i < pool) interior |> List.sort compare |> Array.of_list
      in
      let k = Array.length pool_links in
      if k = 0 then invalid_arg "Generator: rotating-hot needs an interior link";
      let active ~seq = [ (pool_links.((seq - 1) / window mod k), 1.) ] in
      let wp = ref 0. in
      for seq = 1 to n_packets do
        List.iter (fun (l, w) -> wp := !wp +. (w *. float_of_int below.(l))) (active ~seq)
      done;
      {
        sched_links = Array.to_list pool_links;
        sched_active = active;
        sched_weight_packets = !wp;
      }
  | Scale.Phase_shift { window } ->
      (* U: the interior link whose receiver count is closest to 32 —
         big enough that a U loss is a shared event mass-failing the
         edge-phase pairs below it, small enough that the loss budget
         buys several U events per run. Edge phases activate every
         receiver edge under U. *)
      let u =
        match
          List.sort
            (fun a b -> compare (abs (below.(a) - 32), a) (abs (below.(b) - 32), b))
            interior
        with
        | u :: _ -> u
        | [] -> invalid_arg "Generator: phase-shift needs an interior link"
      in
      let edges =
        List.filter (fun l -> below.(l) = 1 && l <> u && link_under tree ~anc:u l) links
      in
      let n_edges = max 1 (List.length edges) in
      (* Weights split the loss budget evenly between the two phase
         kinds: each U-phase packet carries weight 1 on U, each
         edge-phase packet spreads the same aggregate weight over the
         edges (each edge has one receiver below, U has [below u]). *)
      let u_w = 1. /. float_of_int below.(u) in
      let e_w = 1. /. float_of_int n_edges in
      let active ~seq =
        if (seq - 1) / window mod 2 = 0 then [ (u, u_w) ]
        else List.map (fun e -> (e, e_w)) edges
      in
      let wp = ref 0. in
      for seq = 1 to n_packets do
        List.iter (fun (l, w) -> wp := !wp +. (w *. float_of_int below.(l))) (active ~seq)
      done;
      {
        sched_links = List.sort compare (u :: edges);
        sched_active = active;
        sched_weight_packets = !wp;
      }
  | _ -> invalid_arg "Generator.adversarial_schedule: not an adversarial family"

(* Simulate one attempt of the windowed Bernoulli schedule: per active
   link (ascending, one rng split each — the deterministic order the
   correction loop replays), an independent draw for every packet in
   the link's active windows. [rate_of w] maps a schedule weight to a
   drop probability. *)
let simulate_adversarial tree ~sched ~rng ~rate_of ~n_packets =
  let n = Net.Tree.n_nodes tree in
  let link_bad = Array.init n (fun _ -> Bitset.create n_packets) in
  let active_rate = Array.make n 0. in
  List.iter
    (fun l ->
      let link_rng = Sim.Rng.split rng in
      for seq = 1 to n_packets do
        List.iter (fun (al, w) -> if al = l then active_rate.(l) <- rate_of w) (sched.sched_active ~seq);
        let r = if List.mem_assoc l (sched.sched_active ~seq) then active_rate.(l) else 0. in
        if r > 0. && Sim.Rng.bernoulli link_rng r then Bitset.set link_bad.(l) (seq - 1)
      done)
    sched.sched_links;
  link_bad

let synthesize_adversarial ?seed ?n_packets family (row : Meta.row) =
  let seed = match seed with Some s -> s | None -> hash_name row.name in
  let rng = Sim.Rng.create seed in
  let n_packets = match n_packets with Some n -> n | None -> row.n_packets in
  let target =
    float_of_int row.n_losses *. float_of_int n_packets /. float_of_int row.n_packets
  in
  let tree =
    Topology_gen.bounded_fanout ~rng ~n_receivers:row.n_receivers ~fanout:Scale.default_fanout
  in
  let sched = adversarial_schedule family tree ~n_packets in
  (* Analytic base rate: expected losses = base x sched_weight_packets. *)
  let base = target /. Float.max 1e-9 sched.sched_weight_packets in
  (* Correct the analytic base rate against the realized count. Every
     probe replays a COPY of the rng (the per-link splits are the
     deterministic thing being replayed), so realized(c) is a fixed
     monotone step function of the global factor and a bisection
     converges — simulating on the advancing rng would draw a fresh
     sample each attempt and oscillate on these clumpy schedules. The
     steps can still be coarse (a bad packet on a hot interior link is
     a whole-subtree clump), so the bisection keeps the step nearest
     the target rather than demanding tolerance. *)
  let rate_for c w = Float.min rate_cap (base *. c *. w) in
  let attempt c =
    let probe = Sim.Rng.copy rng in
    let link_bad = simulate_adversarial tree ~sched ~rng:probe ~rate_of:(rate_for c) ~n_packets in
    let loss = loss_matrix tree ~link_bad ~n_packets in
    (link_bad, loss, float_of_int (realized_losses loss))
  in
  let best = ref (1., Float.infinity) in
  let note c r =
    let d = Float.abs (r -. target) in
    if d < snd !best then best := (c, d)
  in
  let _, _, r1 = attempt 1. in
  note 1. r1;
  if Float.abs (r1 -. target) /. Float.max 1. target > 0.03 then begin
    let rec bracket hi iters =
      let _, _, r = attempt hi in
      note hi r;
      if r >= target || iters = 0 then hi else bracket (hi *. 4.) (iters - 1)
    in
    let lo, hi = if r1 < target then (1., bracket 4. 8) else (0., 1.) in
    let rec bisect lo hi iters =
      if iters > 0 then begin
        let mid = (lo +. hi) /. 2. in
        let _, _, r = attempt mid in
        note mid r;
        if r < target then bisect mid hi (iters - 1) else bisect lo mid (iters - 1)
      end
    in
    bisect lo hi 16
  end;
  let c = fst !best in
  let rate_of = rate_for c in
  let link_bad, loss, _ = attempt c in
  let period = float_of_int row.period_ms /. 1000. in
  let trace = Trace.create ~name:row.name ~tree ~period ~n_packets ~loss in
  let n = Net.Tree.n_nodes tree in
  (* Reported per-link rate: the link's peak active drop probability
     (0 for links the schedule never touches); burstiness is 1 — the
     draws are independent Bernoulli. *)
  let link_rates =
    Array.init n (fun l ->
        if List.mem l sched.sched_links then rate_of 1. else 0.)
  in
  { trace; link_bad; link_rates; link_bursts = Array.make n 1. }

let synthesize ?seed ?n_packets (row : Meta.row) =
  match Scale.family_of_name row.name with
  | Some ((Scale.Rotating_hot _ | Scale.Phase_shift _) as family) ->
      synthesize_adversarial ?seed ?n_packets family row
  | _ ->
  let { p_tree = tree; p_weights = weights; p_bursts = bursts; p_target = target;
        p_expect = expect; p_rng = rng; p_n_packets = n_packets; p_period = period } =
    plan ?seed ?n_packets row
  in
  (* Calibrate, simulate, then correct the scale against the realized
     count (burstiness adds variance) and resimulate, a few times. *)
  let rec attempt iter scale_correction =
    let scale = calibrate_scale ~expect tree ~weights ~n_packets ~target *. scale_correction in
    let rates = Array.map (fun w -> Float.min rate_cap (scale *. w)) weights in
    let link_bad = simulate_links tree ~rng ~rates ~bursts ~n_packets in
    let loss = loss_matrix tree ~link_bad ~n_packets in
    let realized = realized_losses loss in
    let err = (float_of_int realized -. target) /. Float.max 1. target in
    if Float.abs err <= 0.03 || iter >= 4 then (rates, link_bad, loss)
    else attempt (iter + 1) (scale_correction *. (target /. Float.max 1. (float_of_int realized)))
  in
  let rates, link_bad, loss = attempt 1 1.0 in
  let trace = Trace.create ~name:row.name ~tree ~period ~n_packets ~loss in
  { trace; link_bad; link_rates = rates; link_bursts = bursts }

type streaming = {
  s_trace : Trace.t;
  s_loss : Stream_loss.t;
  s_rates : float array;
  s_bursts : float array;
}

(* How many prefix packets the streaming calibration's sampled
   correction pass simulates. Bounded so a million-packet leg still
   starts in effectively O(links); big enough that the prefix's
   binomial noise (~1/sqrt(prefix losses)) sits inside the 3%
   correction tolerance for the standard scale rows. *)
let streaming_correction_prefix = 2000

(* The streaming variant shares the plan draws verbatim, then
   calibrates analytically and corrects the scale against a sampled
   prefix: each correction attempt simulates the first
   [streaming_correction_prefix] packets on a COPY of the rng — the
   copy replays exactly the per-link splits [Stream_loss.create] will
   later consume, so the prefix bits are the stream's own first bits
   under the attempted rates. The rng itself is consumed by nothing
   but the final [Stream_loss.create], keeping the run a pure function
   of (row, seed). When the analytic calibration is already within the
   3% tolerance (the bounded-fanout and star rows) the first attempt
   accepts and the rates — hence the stream's bits — are identical to
   the uncorrected path; deep chains, whose top-down expectation
   systematically undershoots the realized count (every loss high in
   the chain shadows the draws below it), get the same realized-count
   correction the eager path has always had. *)
let synthesize_streaming ?seed ?n_packets (row : Meta.row) =
  (match Scale.family_of_name row.name with
  | Some f when not (Scale.supports_streaming f) ->
      invalid_arg
        (Printf.sprintf
           "Generator.synthesize_streaming: %s is an adversarial cache-thrash family \
            (eager-only)"
           row.Meta.name)
  | _ -> ());
  let { p_tree = tree; p_weights = weights; p_bursts = bursts; p_target = target;
        p_expect = expect; p_rng = rng; p_n_packets = n_packets; p_period = period } =
    plan ?seed ?n_packets row
  in
  let scale0 = calibrate_scale ~expect tree ~weights ~n_packets ~target in
  let n_sim = min n_packets streaming_correction_prefix in
  let prefix_target = target *. float_of_int n_sim /. float_of_int n_packets in
  let below = receivers_below_all tree in
  let rates_for ?(edge = 1.) c =
    Array.mapi
      (fun l w ->
        let m = if below.(l) <= 2 then edge else 1. in
        Float.min rate_cap (scale0 *. c *. m *. w))
      weights
  in
  (* Every probe replays a COPY of the rng, so realized(·) is a fixed,
     monotone step function of the knobs — which is what lets a
     bisection converge where a multiplicative correction against
     fresh draws would chase its own variance. Two stages, because the
     steps come in very different sizes: a global factor first (its
     steps can be huge — on a deep chain one Bad run high in the chain
     is a whole-subtree clump of losses, so the tolerance window can
     fall between two steps), then a top-up factor on the receiver
     edges only (below ≤ 2), whose Bad runs are 1–4 losses each — fine
     enough to land within tolerance. *)
  let realized_for ?edge c =
    let probe = Sim.Rng.copy rng in
    let link_bad =
      simulate_links tree ~rng:probe ~rates:(rates_for ?edge c) ~bursts ~n_packets:n_sim
    in
    float_of_int (realized_losses (loss_matrix tree ~link_bad ~n_packets:n_sim))
  in
  let within r = Float.abs (r -. prefix_target) /. Float.max 1. prefix_target <= 0.03 in
  let rates =
    if prefix_target < 1. then rates_for 1.
    else begin
      let r1 = realized_for 1. in
      if within r1 then rates_for 1. (* bits identical to the uncorrected path *)
      else begin
        (* Stage 1: the largest global factor whose realization does
           not overshoot (the under side — stage 2 can only add). *)
        let lo = ref (if r1 <= prefix_target then 1. else 0.) in
        let note c r = if r <= prefix_target && c > !lo then lo := c in
        note 1. r1;
        let rec bracket hi iters =
          let r = realized_for hi in
          note hi r;
          if r >= prefix_target || iters = 0 then hi else bracket (hi *. 4.) (iters - 1)
        in
        let hi = if r1 < prefix_target then bracket 4. 8 else 1. in
        let rec bisect lo_c hi_c iters =
          if iters = 0 then ()
          else begin
            let mid = (lo_c +. hi_c) /. 2. in
            let r = realized_for mid in
            note mid r;
            if r < prefix_target then bisect mid hi_c (iters - 1)
            else bisect lo_c mid (iters - 1)
          end
        in
        bisect !lo hi 16;
        let c = !lo in
        let r_lo = realized_for c in
        if within r_lo then rates_for c
        else begin
          (* Stage 2: close the remaining deficit on the edges. *)
          let rec e_bracket hi iters =
            if realized_for ~edge:hi c >= prefix_target || iters = 0 then hi
            else e_bracket (hi *. 4.) (iters - 1)
          in
          let e_hi = e_bracket 4. 8 in
          let best = ref (1., Float.abs (r_lo -. prefix_target)) in
          let e_note m r =
            let d = Float.abs (r -. prefix_target) in
            if d < snd !best then best := (m, d)
          in
          e_note e_hi (realized_for ~edge:e_hi c);
          let rec e_bisect lo_m hi_m iters =
            if iters = 0 then ()
            else begin
              let mid = (lo_m +. hi_m) /. 2. in
              let r = realized_for ~edge:mid c in
              e_note mid r;
              if within r then ()
              else if r < prefix_target then e_bisect mid hi_m (iters - 1)
              else e_bisect lo_m mid (iters - 1)
            end
          in
          e_bisect 1. e_hi 20;
          rates_for ~edge:(fst !best) c
        end
      end
    end
  in
  let s_loss = Stream_loss.create ~tree ~rates ~bursts ~rng ~n_packets () in
  let s_trace = Trace.create_streaming ~name:row.name ~tree ~period ~n_packets in
  { s_trace; s_loss; s_rates = rates; s_bursts = bursts }
