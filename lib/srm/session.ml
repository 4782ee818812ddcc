type heard = { mutable h_ts : float; mutable h_at : float }

type t = {
  network : Net.Network.t;
  clock : Sim.Engine.clock; (* the engine's, read unboxed per session event *)
  self : int;
  period : float;
  rng : Sim.Rng.t;
  get_max_seqs : unit -> (int * int) list;
  on_max_seq : src:int -> int -> unit;
  on_send : unit -> unit;
  echo_limit : int option;
  oracle : (int -> float) option;
      (* authoritative fallback distance (scale runs): consulted when
         no measured estimate exists, see [distance_or] *)
  (* Peer state is sparse: a host only materializes entries for peers
     it has actually exchanged session traffic with. The former dense
     per-node float arrays were three words per (host, node) pair —
     quadratic across the group, gigabytes at 10^4 members. [dists]
     is never evicted (estimates are few: only peers that echoed us);
     [heard] is unbounded in unlimited-echo mode (trace-sized groups,
     where every peer is heard anyway) and bounded by a FIFO ring of
     distinct peers when [echo_limit] is set. *)
  dists : (int, float) Hashtbl.t;
  heard : (int, heard) Hashtbl.t;
  mutable heard_order : int list; (* unlimited mode: most-recently-first-heard *)
  ring : int array; (* limited mode: distinct heard peers, -1 = empty slot *)
  mutable ring_pos : int; (* next eviction slot *)
  mutable echo_cursor : int; (* round-robin start of the next echo batch *)
}

let create ?echo_limit ?oracle ~network ~self ~period ~rng ~get_max_seqs ~on_max_seq ~on_send () =
  (match echo_limit with
  | Some k when k <= 0 -> invalid_arg "Session.create: echo_limit must be positive"
  | _ -> ());
  let ring_size = match echo_limit with None -> 0 | Some k -> Int.max (4 * k) 128 in
  {
    network;
    clock = Sim.Engine.clock (Net.Network.engine network);
    self;
    period;
    rng;
    get_max_seqs;
    on_max_seq;
    on_send;
    echo_limit;
    oracle;
    dists = Hashtbl.create 16;
    heard = Hashtbl.create 16;
    heard_order = [];
    ring = Array.make ring_size (-1);
    ring_pos = 0;
    echo_cursor = 0;
  }

let engine t = Net.Network.engine t.network

(* Echo order within a session message is immaterial: session packets
   are 0-bit control traffic and receivers only look up their own
   entry, so neither timing nor behavior depends on list order. *)
let send t =
  let echo peer acc =
    match Hashtbl.find_opt t.heard peer with
    | None -> acc
    | Some h ->
        { Net.Packet.echo_member = peer; echo_ts = h.h_ts; echo_delay = t.clock.now -. h.h_at }
        :: acc
  in
  let echoes =
    match t.echo_limit with
    | None -> List.fold_left (fun acc peer -> echo peer acc) [] t.heard_order
    | Some k ->
        (* Rotate a cursor over the ring so successive messages echo
           different peers: every tracked peer is echoed within
           ceil(ring/k) messages, which is what lets distance
           estimation still converge group-wide under the cap. *)
        let cap = Array.length t.ring in
        let acc = ref [] in
        let taken = ref 0 in
        let scanned = ref 0 in
        while !taken < k && !scanned < cap do
          let peer = t.ring.((t.echo_cursor + !scanned) mod cap) in
          incr scanned;
          if peer >= 0 then begin
            acc := echo peer !acc;
            incr taken
          end
        done;
        t.echo_cursor <- (t.echo_cursor + !scanned) mod cap;
        !acc
  in
  t.on_send ();
  Net.Network.multicast t.network ~from:t.self
    {
      Net.Packet.sender = t.self;
      payload =
        Net.Packet.Session
          { origin = t.self; sent_at = t.clock.now; max_seqs = t.get_max_seqs (); echoes };
    }

let start ?jitter t ~until =
  let jitter = match jitter with Some j -> j | None -> t.period in
  let offset = if jitter <= 0. then 0. else Sim.Rng.float t.rng jitter in
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
      (match t.echo_limit with
      | None -> t.heard_order <- origin :: t.heard_order
      | Some _ ->
          let victim = t.ring.(t.ring_pos) in
          if victim >= 0 then Hashtbl.remove t.heard victim;
          t.ring.(t.ring_pos) <- origin;
          t.ring_pos <- (t.ring_pos + 1) mod Array.length t.ring);
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

let distance t peer = Hashtbl.find_opt t.dists peer

let distance_or t peer ~default =
  match Hashtbl.find t.dists peer with
  | d -> d
  | exception Not_found -> (
      match t.oracle with Some f -> f peer | None -> default)

let distance_exn t peer =
  match Hashtbl.find t.dists peer with
  | d -> d
  | exception Not_found ->
      failwith (Printf.sprintf "Session.distance_exn: no estimate for peer %d" peer)

let reset t =
  Hashtbl.reset t.dists;
  Hashtbl.reset t.heard;
  t.heard_order <- [];
  Array.fill t.ring 0 (Array.length t.ring) (-1);
  t.ring_pos <- 0;
  t.echo_cursor <- 0

(* A peer left the group: its distance estimate and heard state are
   stale (it will return, if ever, with fresh timestamps and possibly a
   different path). Ring slots are blanked in place — the cursor and
   eviction position are left alone so surviving peers keep their
   echo-rotation order. *)
let forget_peer t peer =
  Hashtbl.remove t.dists peer;
  Hashtbl.remove t.heard peer;
  t.heard_order <- List.filter (fun p -> p <> peer) t.heard_order;
  Array.iteri (fun i p -> if p = peer then t.ring.(i) <- -1) t.ring

let known_peers t =
  List.sort compare (Hashtbl.fold (fun peer _ acc -> peer :: acc) t.dists [])
