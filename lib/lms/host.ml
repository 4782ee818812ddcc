type retry_state = { mutable attempt : int; mutable timer : Sim.Engine.timer }

type t = {
  network : Net.Network.t;
  clock : Sim.Engine.clock; (* the engine's; [now] reads it unboxed *)
  self : int;
  n_packets : int;
  rng : Sim.Rng.t;
  route : from:int -> (int * int) option;
  window : Srm.Window.t; (* node 0's stream, the only one LMS runs *)
  detect_info : (int, float) Hashtbl.t; (* by seq *)
  retries : (int, retry_state) Hashtbl.t; (* by seq *)
  mutable n_detected : int;
  counters : Stats.Counters.t;
  recoveries : Stats.Recovery.t;
}

let max_forward_ttl = 24

let engine t = Net.Network.engine t.network

let now t = t.clock.now

let self t = t.self

let has_packet t ~seq = seq >= 1 && seq <= t.n_packets && Srm.Window.mem t.window ~seq

let detected_losses t = t.n_detected

let max_seq t = Srm.Window.max_seq t.window

let create ~network ~self ~n_packets ~route ~counters ~recoveries =
  {
    network;
    clock = Sim.Engine.clock (Net.Network.engine network);
    self;
    n_packets;
    rng = Sim.Rng.split (Sim.Engine.rng (Net.Network.engine network));
    route;
    window = Srm.Window.create ~n_packets;
    detect_info = Hashtbl.create 64;
    retries = Hashtbl.create 64;
    n_detected = 0;
    counters;
    recoveries;
  }

(* --- requests -------------------------------------------------------- *)

let send_request t seq =
  match t.route ~from:t.self with
  | None -> ()
  | Some (turning_point, replier) ->
      Stats.Counters.bump t.counters ~node:t.self Stats.Counters.Exp_rqst;
      let packet =
        {
          Net.Packet.sender = t.self;
          payload =
            Net.Packet.Exp_request
              {
                src = 0;
                seq;
                requestor = t.self;
                d_qs = 0.;
                replier;
                turning_point = Some turning_point;
              };
        }
      in
      if replier = 0 || replier = t.self then
        (* walk reached the source (or degenerate self-route) *)
        Net.Network.unicast t.network ~from:t.self ~dst:0 packet
      else Net.Network.unicast t.network ~from:t.self ~dst:replier packet

let rec arm_retry t seq st =
  (* LMS has no suppression to wait for: retry on a timeout scaled by
     the round trip to the source, doubling each attempt. *)
  let d = Net.Network.dist t.network 0 t.self in
  let timeout = Float.max (4. *. d) 0.2 *. Float.of_int (1 lsl min st.attempt 16) in
  st.timer <-
    Sim.Engine.schedule (engine t) ~after:timeout (fun () ->
        if not (has_packet t ~seq) then begin
          st.attempt <- st.attempt + 1;
          send_request t seq;
          arm_retry t seq st
        end)

let detect_loss t seq =
  if not (has_packet t ~seq || Hashtbl.mem t.retries seq) then begin
    if not (Hashtbl.mem t.detect_info seq) then begin
      Hashtbl.replace t.detect_info seq (now t);
      t.n_detected <- t.n_detected + 1
    end;
    let st = { attempt = 0; timer = Sim.Engine.no_timer } in
    Hashtbl.replace t.retries seq st;
    (* small jitter so co-detecting receivers do not fire in lockstep *)
    ignore
      (Sim.Engine.schedule (engine t) ~after:(Sim.Rng.float t.rng 0.005) (fun () ->
           if not (has_packet t ~seq) then begin
             send_request t seq;
             arm_retry t seq st
           end))
  end

let seq_exists t m =
  let w = t.window in
  if m > Srm.Window.max_seq w then begin
    let first = Srm.Window.max_seq w + 1 in
    Srm.Window.note_max_seq w (min m t.n_packets);
    for seq = first to Srm.Window.max_seq w do
      if not (has_packet t ~seq) then detect_loss t seq
    done
  end

let obtain t seq ~repaired =
  if not (has_packet t ~seq) then begin
    Srm.Window.add t.window ~seq;
    (match Hashtbl.find_opt t.retries seq with
    | Some st ->
        Sim.Engine.cancel (engine t) st.timer;
        Hashtbl.remove t.retries seq
    | None -> ());
    match Hashtbl.find_opt t.detect_info seq with
    | Some detected_at ->
        Stats.Recovery.add t.recoveries
          {
            Stats.Recovery.node = t.self;
            src = 0;
            seq;
            detected_at;
            recovered_at = now t;
            rounds = 0;
            expedited = false;
            repaired;
          }
    | None -> ()
  end

let note_sent t ~seq =
  if seq >= 1 && seq <= t.n_packets then begin
    Srm.Window.add t.window ~seq;
    Srm.Window.note_max_seq t.window seq
  end

let delivered_prefix t = Srm.Window.prefix t.window

(* Steady-state retirement (see [Srm.Host.retire_below]): everything
   at or below the clamped horizon is delivered, so its retry entry is
   gone already ([obtain] removes it) and only the detection-time table
   needs sweeping alongside the window shift. *)
let retire_below t ~upto =
  Srm.Window.retire_below t.window ~upto;
  let base = Srm.Window.base t.window in
  let dead =
    Hashtbl.fold (fun seq _ acc -> if seq <= base then seq :: acc else acc) t.detect_info []
  in
  List.iter (Hashtbl.remove t.detect_info) dead

let publish_metrics t registry =
  Obs.Registry.incr ~by:t.n_detected registry "lms/losses_detected";
  Obs.Registry.incr ~by:(Hashtbl.length t.retries) registry "lms/retries_open_at_end";
  Hashtbl.iter
    (fun _ (st : retry_state) ->
      Obs.Registry.observe registry "lms/retry_attempts" (float_of_int st.attempt))
    t.retries

(* --- replier side ----------------------------------------------------- *)

let answer t ~seq ~requestor ~turning_point ~ttl =
  if has_packet t ~seq then begin
    Stats.Counters.bump t.counters ~node:t.self Stats.Counters.Exp_repl;
    let reply =
      {
        Net.Packet.sender = t.self;
        payload =
          Net.Packet.Reply
            {
              src = 0;
              seq;
              requestor;
              d_qs = 0.;
              replier = t.self;
              d_rq = 0.;
              expedited = false;
              turning_point = Some turning_point;
            };
      }
    in
    match turning_point with
    | tp when tp = t.self || ttl < 0 -> Net.Network.multicast t.network ~from:t.self reply
    | tp -> Net.Network.relayed_subcast t.network ~from:t.self ~via:tp reply
  end
  else if ttl > 0 then begin
    (* We share the loss: escape the lossy subtree by re-forwarding
       from our own position, keeping the original requestor. *)
    match t.route ~from:t.self with
    | None -> ()
    | Some (turning_point, replier) ->
        Stats.Counters.bump t.counters ~node:t.self Stats.Counters.Exp_rqst;
        Net.Network.unicast t.network ~from:t.self
          ~dst:(if replier = 0 then 0 else replier)
          {
            Net.Packet.sender = t.self;
            payload =
              Net.Packet.Exp_request
                {
                  src = 0;
                  seq;
                  requestor;
                  d_qs = float_of_int (ttl - 1);
                  replier;
                  turning_point = Some turning_point;
                };
          }
  end

let on_packet t (p : Net.Packet.t) =
  match p.payload with
  | Net.Packet.Data { seq } ->
      seq_exists t (seq - 1);
      obtain t seq ~repaired:false;
      Srm.Window.note_max_seq t.window seq
  | Net.Packet.Exp_request { src = _; seq; requestor; d_qs; replier = _; turning_point } ->
      let ttl =
        (* the TTL rides the (otherwise unused) d_qs annotation *)
        if d_qs > 0. then int_of_float d_qs else max_forward_ttl
      in
      let turning_point = Option.value turning_point ~default:t.self in
      if requestor <> t.self then answer t ~seq ~requestor ~turning_point ~ttl
  | Net.Packet.Reply { seq; _ } ->
      seq_exists t seq;
      obtain t seq ~repaired:true
  | Net.Packet.Session { max_seqs; _ } ->
      (* source heartbeat: announced packets may still be in flight;
         wait out one source-path delay before declaring losses *)
      List.iter
        (fun (_src, m) ->
          if m > max_seq t then begin
            let grace = Net.Network.dist t.network 0 t.self +. 0.05 in
            ignore (Sim.Engine.schedule (engine t) ~after:grace (fun () -> seq_exists t m))
          end)
        max_seqs
  | Net.Packet.Request _ -> ()
