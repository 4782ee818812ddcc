type t = {
  network : Net.Network.t;
  n_packets : int;
  period : float;
  hosts : (int * Host.t) list;
  repliers : int array;
  refresh_period : float;
  recoveries : Stats.Recovery.t;
}

let deploy ~network ~n_packets ~period ?(refresh_period = 10.) () =
  let tree = Net.Network.tree network in
  let recoveries = Stats.Recovery.create () in
  let repliers = Routing.designate tree ~alive:(fun r -> Net.Network.is_enabled network r) in
  let route ~from = Routing.route tree ~repliers ~from in
  let member node =
    let host = Host.create ~network ~self:node ~n_packets ~route ~recoveries in
    Net.Network.on_receive network node (Host.on_packet host);
    (node, host)
  in
  let nodes = 0 :: Array.to_list (Net.Tree.receivers tree) in
  {
    network;
    n_packets;
    period;
    hosts = List.map member nodes;
    repliers;
    refresh_period;
    recoveries;
  }

let host t node = List.assoc node t.hosts

let members t = t.hosts

let counters t = Net.Network.counters t.network

let recoveries t = t.recoveries

let network t = t.network

let detected t = List.fold_left (fun acc (_, h) -> acc + Host.detected_losses h) 0 t.hosts

(* Refresh the soft replier state in place so hosts' [route] closures
   observe it immediately. *)
let refresh t =
  let fresh =
    Routing.designate (Net.Network.tree t.network) ~alive:(fun r ->
        Net.Network.is_enabled t.network r)
  in
  Array.blit fresh 0 t.repliers 0 (Array.length fresh)

let start ?(streaming = false) t ~warmup ~tail =
  let engine = Net.Network.engine t.network in
  let clock = Sim.Engine.clock engine in
  let horizon = warmup +. (float_of_int t.n_packets *. t.period) +. tail in
  let source = host t 0 in
  (* LMS sends on an unjittered grid, so the streamed producer is
     always exact (see [Sim.Stream]). *)
  Sim.Stream.schedule engine ~streaming ~n:t.n_packets
    ~at:(fun seq -> warmup +. (float_of_int (seq - 1) *. t.period))
    ~fire:(fun seq ->
      Host.note_sent source ~seq;
      Net.Network.multicast t.network ~from:0
        { Net.Packet.sender = 0; payload = Net.Packet.Data { seq } });
  (* Source heartbeat for tail-loss detection. *)
  let rec heartbeat () =
    if clock.now <= horizon then begin
      Net.Network.multicast t.network ~from:0
        {
          Net.Packet.sender = 0;
          payload =
            Net.Packet.Session
              {
                origin = 0;
                sent_at = clock.now;
                max_seqs = (match Host.max_seq source with 0 -> [] | m -> [ (0, m) ]);
                echoes = [];
              };
        };
      ignore (Sim.Engine.schedule engine ~after:1.0 heartbeat)
    end
  in
  ignore (Sim.Engine.schedule engine ~after:1.0 heartbeat);
  (* Soft-state replier refresh. *)
  let rec refresher () =
    if clock.now <= horizon then begin
      refresh t;
      ignore (Sim.Engine.schedule engine ~after:t.refresh_period refresher)
    end
  in
  ignore (Sim.Engine.schedule engine ~after:t.refresh_period refresher)
