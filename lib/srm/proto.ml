type 'h group = {
  network : Net.Network.t;
  n_packets : int;
  period : float;
  hosts : (int * 'h) list;
  srm : 'h -> Host.t;
  recoveries : Stats.Recovery.t;
}

type t = Host.t group

let deploy_with ?owned ~create ~on_packet ~srm ~network ~n_packets ~period () =
  let tree = Net.Network.tree network in
  let recoveries = Stats.Recovery.create () in
  let owned = match owned with Some f -> f | None -> fun _ -> true in
  let member node =
    if owned node then begin
      let host = create ~self:node ~recoveries in
      Net.Network.on_receive network node (on_packet host);
      Some (node, host)
    end
    else begin
      (* A shard deploys hosts only for its own members but must keep
         the engine's split sequence identical to the full deployment:
         every member consumes exactly one root split, in deploy
         order, so owned hosts draw the same generators everywhere. *)
      ignore (Sim.Rng.split (Sim.Engine.rng (Net.Network.engine network)));
      None
    end
  in
  let nodes = 0 :: Array.to_list (Net.Tree.receivers tree) in
  { network; n_packets; period; hosts = List.filter_map member nodes; srm; recoveries }

let deploy ?owned ?domain ~network ~params ~n_packets ~period () =
  deploy_with ?owned ~network ~n_packets ~period ~on_packet:Host.on_packet ~srm:Fun.id
    ~create:(fun ~self ~recoveries ->
      Host.create ?domain ~network ~self ~params ~n_packets ~period ~recoveries ())
    ()

let host t node = List.assoc node t.hosts

let members t = t.hosts

let srm_members t = List.map (fun (node, h) -> (node, t.srm h)) t.hosts

let counters t = Net.Network.counters t.network

let recoveries t = t.recoveries

let network t = t.network

let add_stream ?(send_jitter = 0.) ?(streaming = false) t ~src ~n_packets ~period ~start_at =
  (* A streamed producer is only byte-identical to the eager loop when
     sends cannot reorder: each firing arms its successor, so jitter
     beyond one period would need a past-time clamp that the eager
     schedule does not apply. *)
  if streaming && send_jitter > period then
    invalid_arg
      (Printf.sprintf
         "Srm.Proto.add_stream: streamed sends need send jitter within one period (%g s > %g s)"
         send_jitter period);
  let engine = Net.Network.engine t.network in
  let origin = Option.map t.srm (List.assoc_opt src t.hosts) in
  (* Passed as [?src]: a [~src] at the call would box a fresh option
     on every send. *)
  let src_opt = Some src in
  let jitter_rng = Sim.Rng.split (Sim.Engine.rng engine) in
  Sim.Stream.schedule engine ~streaming ~n:(min n_packets t.n_packets)
    ~at:(fun seq ->
      (* Optional per-packet jitter models upstream reordering: with
         jitter beyond one period, packets can overtake and receivers
         see transient gaps — the situation REORDER-DELAY exists for. *)
      let jitter = if send_jitter <= 0. then 0. else Sim.Rng.float jitter_rng send_jitter in
      start_at +. (float_of_int (seq - 1) *. period) +. jitter)
    ~fire:(fun seq ->
      (match origin with Some h -> Host.note_sent ?src:src_opt h ~seq | None -> ());
      Net.Network.multicast t.network ~from:src
        { Net.Packet.sender = src; payload = Net.Packet.Data { seq } })

let start ?send_jitter ?streaming t ~warmup ~tail =
  let session_until = warmup +. (float_of_int t.n_packets *. t.period) +. tail in
  List.iter (fun (_, h) -> Host.start (t.srm h) ~session_until) t.hosts;
  add_stream ?send_jitter ?streaming t ~src:0 ~n_packets:t.n_packets ~period:t.period
    ~start_at:warmup
