(* Sharded execution of one run: conservative PDES over forked workers.

   The model is replicated-network / partitioned-hosts (DESIGN.md §13).
   Every worker builds the serial run's model in shard mode
   ([Run_types.build ~shard]): the complete network, protocol hosts
   only for the members its shard owns ([Proto.deploy ~owned]), and
   the global event schedule restricted to those members. The
   source's paced data stream is statically replicated — every shard
   walks it locally at the same simulation times — while every other
   origin cast (requests, replies, sessions) is buffered as a
   [Net.Network.emit] and replayed on the other shards at conservative
   barriers. RNG parity is by construction: workers draw the same seed,
   the same splits in the same order (non-owned members burn a dummy
   split), so every shard's view of delays, drops and timers is
   bit-identical to the serial run's.

   The coordinator never simulates. It forks the workers, then loops
   the classic conservative barrier protocol with lookahead [L] (the
   minimum cut-link delay, [Net.Partition.lookahead]): collect every
   worker's next pending event time, lower-bound any unexecuted event
   anywhere by [G] (also covering just-collected emits, whose earliest
   remote effect is [e_at +. L]), grant the window [.., G +. L), and
   redistribute the emits. At the end it merges the per-worker pieces
   and hands them to the serial runner's accounting
   ([Run_types.finish]), so the result is the exact one the serial
   runner produces. *)

module Pst = Sim.Pdes.Stats

type to_worker =
  | Window of { w_barrier : float; w_emits : Net.Network.emit list }
  | Finish of { f_emits : Net.Network.emit list }
      (* emits whose earliest remote effect lies beyond the horizon
         still have to be walked on every shard — their link crossings
         count and the primary's tap stream must include them *)

(* Everything a worker ships home. *)
(* The serial engine fires same-time deliveries FIFO by schedule
   order; a record's walk rank (Network.delivery_rank: cast key +
   in-walk position) is that order's cross-shard reconstruction. *)
type walk_rank = (float * int * int * int) option

type worker_out = {
  wr_counters : Stats.Counters.t;
  wr_records : (Stats.Recovery.record * walk_rank) list;  (* chronological *)
  wr_cost : Net.Cost.t;
  wr_detected : int;
  wr_forgiven : int;  (* pending losses forgiven by departures of owned members *)
  wr_checker : Audit.part;  (* the stream's violations on the primary shard only *)
  wr_clock : float;  (* last executed event time *)
  wr_delivered : int;
  wr_churn : (int * int) option;  (* the network's membership counts *)
  wr_events : int;
}

type from_worker =
  | Window_done of { wd_emits : Net.Network.emit list; wd_next : float; wd_clock : float }
  | Done of worker_out

(* Total order on origin casts: time, then sender, then the per-shard
   monotone emit counter. Same-(at, from) casts always come from one
   shard's counter, so the order is deterministic; cross-sender ties at
   one instant cannot arise from the continuous-time timers. *)
let emit_order (a : Net.Network.emit) (b : Net.Network.emit) =
  match Float.compare a.Net.Network.e_at b.Net.Network.e_at with
  | 0 -> (
      match compare a.Net.Network.e_from b.Net.Network.e_from with
      | 0 -> compare a.Net.Network.e_idx b.Net.Network.e_idx
      | c -> c)
  | c -> c

(* One shard's event loop, running in a forked child: the serial
   run's model built in shard mode ([Run_types.build ~shard]) — same
   construction order, same RNG splits — with [Sim.Engine.run] replaced
   by the barrier-window loop. Only the primary shard, owner of the
   source, has the complete tap stream, so it alone feeds its detached
   checker the stream; every worker's checker hooks its own members. *)
let worker_body ~chan ~me ~partition ~setup ~fault_plan ~protocol ~trace ~loss_model =
  let m =
    Run_types.build ~shard:{ Run_types.partition; me } ?fault_plan ~setup protocol trace loss_model
  in
  let observe = me = partition.Net.Partition.owner.(0) in
  let network = m.network and engine = m.engine in
  (* Tag every recovery with the delivery rank of the walk that
     produced it, at add time — the only moment the network still
     knows which cast is firing. *)
  let tagged_records = ref [] in
  Stats.Recovery.set_observer m.recoveries (fun r ->
      tagged_records := (r, Net.Network.delivery_rank network) :: !tagged_records);
  (* The primary accumulates the global tap stream — remote emits plus
     its own origin and replicated casts — and feeds it, sorted, to the
     checker once complete. Its packet rules are a pure stream fold
     over (at, from, packet), so deferred feeding is equivalent to the
     serial run's live tap. *)
  let obs = ref [] in
  let note es = if observe then obs := List.rev_append es !obs in
  let next_of () = match Sim.Engine.next_time engine with Some t -> t | None -> infinity in
  Ipc.Chan.send chan
    (Window_done { wd_emits = []; wd_next = next_of (); wd_clock = Sim.Engine.now engine });
  let rec loop () =
    match (Ipc.Chan.recv chan : to_worker) with
    | Window { w_barrier; w_emits } ->
        List.iter (Net.Network.apply_emit network) w_emits;
        note w_emits;
        let next = Sim.Pdes.run_window engine ~barrier:w_barrier ~horizon:m.horizon in
        let emits = Net.Network.take_emits network in
        if observe then note (Net.Network.take_observations network);
        Ipc.Chan.send chan
          (Window_done { wd_emits = emits; wd_next = next; wd_clock = Sim.Engine.now engine });
        loop ()
    | Finish { f_emits } ->
        List.iter (Net.Network.apply_emit network) f_emits;
        note f_emits;
        if observe then begin
          note (Net.Network.take_observations network);
          List.iter
            (fun (e : Net.Network.emit) ->
              Audit.observe m.audit ~at:e.e_at ~from:e.e_from e.e_packet)
            (List.stable_sort emit_order !obs)
        end;
        Ipc.Chan.send chan
          (Done
             {
               wr_counters = Net.Network.counters network;
               wr_records = List.rev !tagged_records;
               wr_cost = Net.Network.cost network;
               wr_detected = m.detected ();
               wr_forgiven = m.forgiven ();
               wr_checker = Audit.part m.audit;
               wr_clock = Sim.Engine.now engine;
               wr_delivered = Net.Network.packets_delivered network;
               wr_churn = Net.Network.churn_counts network;
               wr_events = Sim.Engine.events_fired engine;
             })
  in
  loop ()

let run ~(partition : Net.Partition.t) ~delay ?registry ?fault_plan ~(setup : Run_types.setup)
    protocol trace loss_model =
  (match protocol with
  | Run_types.Lms_protocol -> invalid_arg "Parallel.run: LMS subcasts are not shardable"
  | _ -> ());
  let k = partition.n_shards in
  let lookahead = partition.lookahead in
  let tree = Mtrace.Trace.tree trace in
  let n_packets = Mtrace.Trace.n_packets trace in
  let period = Mtrace.Trace.period trace in
  let horizon = Run_types.horizon ~setup ~n_packets ~period in
  let workers =
    Array.init k (fun me ->
        Ipc.Chan.fork ~child:(fun chan ->
            worker_body ~chan ~me ~partition ~setup ~fault_plan ~protocol ~trace ~loss_model))
  in
  let stats = Pst.create () in
  let nexts = Array.make k infinity in
  let clocks = Array.make k 0. in
  (* (origin shard, emit) collected since the last distribution,
     newest first. *)
  let pending = ref [] in
  let recv_round () =
    Array.iteri
      (fun i (chan, _) ->
        match (Ipc.Chan.recv chan : from_worker) with
        | Window_done { wd_emits; wd_next; wd_clock } ->
            nexts.(i) <- wd_next;
            clocks.(i) <- wd_clock;
            List.iter (fun e -> pending := (i, e) :: !pending) wd_emits
        | Done _ -> assert false)
      workers
  in
  (* Each emit goes to every shard but its origin (the origin already
     executed the cast). Sorting fixes the replay schedule order, so a
     sharded run is deterministic regardless of worker timing. *)
  let distribute outgoing make =
    let outgoing = List.stable_sort (fun (_, a) (_, b) -> emit_order a b) (List.rev outgoing) in
    Array.iteri
      (fun i (chan, _) ->
        Ipc.Chan.send chan
          (make (List.filter_map (fun (o, e) -> if o = i then None else Some e) outgoing)))
      workers;
    List.length outgoing
  in
  recv_round ();
  (* the setup round: workers report their first pending event *)
  let rec sync () =
    let emit_horizons =
      List.map (fun (_, e) -> e.Net.Network.e_at +. lookahead) !pending
    in
    let g = Array.fold_left Float.min infinity nexts in
    let g = List.fold_left Float.min g emit_horizons in
    if g > horizon then ()
    else begin
      let barrier = Sim.Pdes.next_barrier ~lookahead ~nexts:(Array.to_list nexts) ~emit_horizons in
      let outgoing = !pending in
      pending := [];
      let n_cross = distribute outgoing (fun w_emits -> Window { w_barrier = barrier; w_emits }) in
      stats.Pst.windows <- stats.Pst.windows + 1;
      if n_cross = 0 then stats.Pst.null_windows <- stats.Pst.null_windows + 1;
      stats.Pst.cross_packets <- stats.Pst.cross_packets + n_cross;
      recv_round ();
      sync ()
    end
  in
  sync ();
  let n_cross = distribute !pending (fun f_emits -> Finish { f_emits }) in
  stats.Pst.cross_packets <- stats.Pst.cross_packets + n_cross;
  pending := [];
  let outs =
    Array.map
      (fun (chan, pid) ->
        let out =
          match (Ipc.Chan.recv chan : from_worker) with
          | Done out -> out
          | Window_done _ -> assert false
        in
        Ipc.Chan.close chan;
        Ipc.Chan.reap pid;
        out)
      workers
  in
  let outl = Array.to_list outs in
  let fold1 f extract =
    match List.map extract outl with
    | [] -> assert false (* k >= 2 *)
    | first :: rest -> List.fold_left f first rest
  in
  let counters = fold1 Stats.Counters.merge (fun o -> o.wr_counters) in
  let cost = fold1 Net.Cost.merge (fun o -> o.wr_cost) in
  let sum extract = List.fold_left (fun acc o -> acc + extract o) 0 outl in
  (* Re-add the merged recovery records in the serial insertion order —
     chronological by repair time, same-time records by their walk
     rank (the serial engine's FIFO schedule order) — so downstream
     latency summaries and the histogram feed fold the same floats in
     the same order. *)
  let rtts = Run_types.source_rtts ~tree ~delay in
  let recoveries = Stats.Recovery.create () in
  Option.iter (fun reg -> Run_types.feed_recovery_hists reg ~tree ~rtts recoveries) registry;
  List.concat_map (fun o -> o.wr_records) outl
  |> List.stable_sort
       (fun ((a : Stats.Recovery.record), (ra : walk_rank)) ((b : Stats.Recovery.record), rb) ->
         match Float.compare a.recovered_at b.recovered_at with
         | 0 -> compare ra rb
         | c -> c)
  |> List.iter (fun (r, _) -> Stats.Recovery.add recoveries r);
  (* The global liveness check runs here, where all shards' pending
     losses are in hand, at the global last-event clock — exactly the
     engine time a serial run's checker finishes at. *)
  let final_clock = Array.fold_left Float.max 0. clocks in
  let final_clock = Array.fold_left (fun a (o : worker_out) -> Float.max a o.wr_clock) final_clock outs in
  let checker = Audit.merge ~at:final_clock (List.map (fun o -> o.wr_checker) outl) in
  Option.iter
    (fun reg ->
      Obs.Registry.incr ~by:(sum (fun o -> o.wr_events)) reg "sim/events_fired";
      (* Every worker compiles the whole plan, so any worker's
         membership counts are the run's. *)
      Net.Network.publish_totals reg cost
        ~delivered:(sum (fun o -> o.wr_delivered))
        ~churn:outs.(0).wr_churn;
      let max_shard_events =
        List.fold_left (fun m (o : worker_out) -> max m o.wr_events) 0 outl
      in
      Pst.publish ~max_shard_events stats ~shards:k ~lookahead reg)
    registry;
  Run_types.finish ?registry ~faulted:(Option.is_some fault_plan) ~setup ~rtts ~tally:counters
    ~recoveries ~cost ~detected:(sum (fun o -> o.wr_detected))
    ~forgiven:(sum (fun o -> o.wr_forgiven))
    ~retirement:None checker protocol trace
