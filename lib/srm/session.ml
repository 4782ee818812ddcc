type heard = { mutable h_ts : float; mutable h_at : float }

type t = {
  network : Net.Network.t;
  clock : Sim.Engine.clock; (* the engine's, read unboxed per session event *)
  self : int;
  period : float;
  rng : Sim.Rng.t;
  get_max_seqs : unit -> (int * int) list;
  on_max_seq : src:int -> int -> unit;
  oracle : (int -> float) option;
      (* authoritative fallback distance (scale runs): consulted when
         no measured estimate exists, see [distance_or] *)
  (* Peer state is sparse: a host only materializes entries for peers
     it has actually exchanged session traffic with. The former dense
     per-node float arrays were three words per (host, node) pair —
     quadratic across the group, gigabytes at 10^4 members. [dists]
     is never evicted (estimates are few: only peers that echoed us);
     [heard] holds every peer heard, which at scale is the source
     alone (only it sends sessions there). *)
  dists : (int, float) Hashtbl.t;
  heard : (int, heard) Hashtbl.t;
  mutable heard_order : int list; (* most-recently-first-heard *)
}

let create ?oracle ~network ~self ~period ~rng ~get_max_seqs ~on_max_seq () =
  {
    network;
    clock = Sim.Engine.clock (Net.Network.engine network);
    self;
    period;
    rng;
    get_max_seqs;
    on_max_seq;
    oracle;
    dists = Hashtbl.create 16;
    heard = Hashtbl.create 16;
    heard_order = [];
  }

let engine t = Net.Network.engine t.network

(* Echo order within a session message is immaterial: session packets
   are 0-bit control traffic and receivers only look up their own
   entry, so neither timing nor behavior depends on list order. *)
let send t =
  let echo acc peer =
    match Hashtbl.find_opt t.heard peer with
    | None -> acc
    | Some h ->
        { Net.Packet.echo_member = peer; echo_ts = h.h_ts; echo_delay = t.clock.now -. h.h_at }
        :: acc
  in
  let echoes = List.fold_left echo [] t.heard_order in
  Net.Network.multicast t.network ~from:t.self
    {
      Net.Packet.sender = t.self;
      payload =
        Net.Packet.Session
          { origin = t.self; sent_at = t.clock.now; max_seqs = t.get_max_seqs (); echoes };
    }

let start t ~until =
  let offset = Sim.Rng.float t.rng t.period in
  let rec tick () =
    if t.clock.now <= until then begin
      send t;
      ignore (Sim.Engine.schedule (engine t) ~after:t.period tick)
    end
  in
  ignore (Sim.Engine.schedule (engine t) ~after:offset tick)

(* The clock is read where it is stored, never held in a local: a float
   local passed to a function or captured by a closure is boxed at each
   such use. *)
let note_heard t origin ~sent_at =
  match Hashtbl.find_opt t.heard origin with
  | Some h ->
      h.h_ts <- sent_at;
      h.h_at <- t.clock.now
  | None ->
      t.heard_order <- origin :: t.heard_order;
      Hashtbl.replace t.heard origin { h_ts = sent_at; h_at = t.clock.now }

let on_packet t (p : Net.Packet.t) =
  match p.payload with
  | Net.Packet.Session { origin; sent_at; max_seqs; echoes } when origin <> t.self ->
      note_heard t origin ~sent_at;
      List.iter
        (fun { Net.Packet.echo_member; echo_ts; echo_delay } ->
          if echo_member = t.self then begin
            let rtt = t.clock.now -. echo_ts -. echo_delay in
            if rtt >= 0. then Hashtbl.replace t.dists origin (rtt /. 2.)
          end)
        echoes;
      List.iter (fun (src, m) -> if m > 0 then t.on_max_seq ~src m) max_seqs
  | _ -> ()

let distance_or t peer ~default =
  match Hashtbl.find t.dists peer with
  | d -> d
  | exception Not_found -> (
      match t.oracle with Some f -> f peer | None -> default)

let reset t =
  Hashtbl.reset t.dists;
  Hashtbl.reset t.heard;
  t.heard_order <- []

(* A peer left the group: its distance estimate and heard state are
   stale (it will return, if ever, with fresh timestamps and possibly a
   different path). *)
let forget_peer t peer =
  Hashtbl.remove t.dists peer;
  Hashtbl.remove t.heard peer;
  t.heard_order <- List.filter (fun p -> p <> peer) t.heard_order

let known_peers t =
  List.sort compare (Hashtbl.fold (fun peer _ acc -> peer :: acc) t.dists [])
