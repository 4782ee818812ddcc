type violation = { at : float; rule : string; detail : string }

type t = {
  network : Net.Network.t;
  clock : Sim.Engine.clock; (* the engine's; [now] reads it unboxed *)
  expect_in_order : bool;
  max_exp_per_loss : int;
  mutable finalized : bool;
  mutable seen : int;
  mutable violations : violation list;
  max_data_seq : (int, int) Hashtbl.t; (* per stream source *)
  retired_floor : (int, int) Hashtbl.t; (* per source: seqs <= floor retired *)
  requested : (int * int, unit) Hashtbl.t; (* (src, seq) with a request *)
  data_sent_at : (int * int, float) Hashtbl.t;
  exp_requests : (int * int * int, int) Hashtbl.t; (* (host, src, seq) -> count *)
  requests : (int * int * int, int) Hashtbl.t; (* (host, src, seq) -> mc request count *)
}

let now t = t.clock.now

let flag t ~at rule detail = t.violations <- { at; rule; detail } :: t.violations

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let max_seq_of t src = Option.value ~default:0 (Hashtbl.find_opt t.max_data_seq src)

let floor_of t src = Option.value ~default:0 (Hashtbl.find_opt t.retired_floor src)

(* The observation core takes the send time explicitly: a serial run's
   tap passes the engine clock, while a sharded run feeds the merged
   cross-shard tap stream after the fact, in timestamp order. *)
let observe t ~at ~from (p : Net.Packet.t) =
  let flag = flag ~at in
  t.seen <- t.seen + 1;
  match p.payload with
  | Net.Packet.Data { seq } ->
      (* any member may source a stream; its own sends are the stream *)
      let src = from in
      if t.expect_in_order && seq <> max_seq_of t src + 1 then
        flag t "data-well-formed"
          (Printf.sprintf "source %d sent seq %d after %d" src seq (max_seq_of t src));
      Hashtbl.replace t.max_data_seq src (max (max_seq_of t src) seq);
      if Hashtbl.mem t.data_sent_at (src, seq) then
        flag t "data-well-formed" (Printf.sprintf "source %d seq %d sent twice" src seq)
      else Hashtbl.replace t.data_sent_at (src, seq) at
  (* Seqs at or below a source's retired floor are past their stability
     horizon: their bookkeeping has been dropped, so the per-packet
     invariants can no longer be evaluated (and late requests for them
     are legitimate — replies still serve retired packets). Their
     history was checked before retirement. *)
  | Net.Packet.Request { src; seq; requestor; round = _; _ } when seq > floor_of t src ->
      if seq > max_seq_of t src then
        flag t "request-subject-exists"
          (Printf.sprintf "host %d requested unsent src %d seq %d" requestor src seq);
      Hashtbl.replace t.requested (src, seq) ();
      bump t.requests (requestor, src, seq);
      let n = Hashtbl.find t.requests (requestor, src, seq) in
      if n > Srm.Params.max_rounds + 1 then
        flag t "request-rounds-bounded"
          (Printf.sprintf "host %d sent %d requests for seq %d" requestor n seq)
  | Net.Packet.Exp_request { src; seq; requestor; _ } when seq > floor_of t src ->
      if seq > max_seq_of t src then
        flag t "request-subject-exists"
          (Printf.sprintf "host %d expedited unsent src %d seq %d" requestor src seq);
      Hashtbl.replace t.requested (src, seq) ();
      bump t.exp_requests (requestor, src, seq)
  | Net.Packet.Reply { src; seq; replier; _ } when seq > floor_of t src ->
      if not (Hashtbl.mem t.requested (src, seq)) then
        flag t "reply-has-cause"
          (Printf.sprintf "host %d replied to unrequested src %d seq %d" replier src seq);
      (match Hashtbl.find_opt t.data_sent_at (src, seq) with
      | Some sent when sent <= at -> ()
      | _ ->
          flag t "replier-plausible"
            (Printf.sprintf "host %d retransmitted src %d seq %d before the original send"
               replier src seq))
  | Net.Packet.Request _ | Net.Packet.Exp_request _ | Net.Packet.Reply _ -> ()
  | Net.Packet.Session _ -> ()

(* Drop bookkeeping for all seqs at or below [upto] on every source,
   first running the end-of-run expedited-singleton check over the
   retiring entries so nothing escapes it. Keeps the auditor's memory
   proportional to the live window on streaming runs. *)
let retire_below t ~upto =
  let retiring src seq = seq <= upto && seq > floor_of t src in
  Hashtbl.iter
    (fun (host, src, seq) n ->
      if retiring src seq && n > t.max_exp_per_loss then
        flag t ~at:(now t) "expedited-singleton"
          (Printf.sprintf "host %d sent %d expedited requests for seq %d" host n seq))
    t.exp_requests;
  let sweep2 table =
    let dead =
      Hashtbl.fold (fun ((src, seq) as k) _ acc -> if retiring src seq then k :: acc else acc)
        table []
    in
    List.iter (Hashtbl.remove table) dead
  in
  let sweep3 table =
    let dead =
      Hashtbl.fold
        (fun ((_, src, seq) as k) _ acc -> if retiring src seq then k :: acc else acc)
        table []
    in
    List.iter (Hashtbl.remove table) dead
  in
  sweep2 t.requested;
  sweep2 t.data_sent_at;
  sweep3 t.exp_requests;
  sweep3 t.requests;
  Hashtbl.iter
    (fun src max_seq ->
      (* never lift the floor past what the source actually sent:
         requests for genuinely unsent seqs must keep getting flagged *)
      let upto = min upto max_seq in
      if upto > floor_of t src then Hashtbl.replace t.retired_floor src upto)
    t.max_data_seq

let finalize_checks t =
  if not t.finalized then begin
    t.finalized <- true;
    Hashtbl.iter
      (fun (host, _src, seq) n ->
        if n > t.max_exp_per_loss then
          flag t ~at:(now t) "expedited-singleton"
            (Printf.sprintf "host %d sent %d expedited requests for seq %d" host n seq))
      t.exp_requests
  end

(* LMS retries legitimately resend expedited requests (pass a higher
   [max_exp_per_loss]); CESRM's REORDER-DELAY timer is unique per loss,
   so its runs are audited with the strict default of 1. *)
let create ?(expect_in_order = true) ?(max_exp_per_loss = 1) network =
  {
    network;
    clock = Sim.Engine.clock (Net.Network.engine network);
    expect_in_order;
    max_exp_per_loss;
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

let attach ?expect_in_order ?max_exp_per_loss network =
  let t = create ?expect_in_order ?max_exp_per_loss network in
  Net.Network.add_tap network (fun ~from p ->
      observe t ~at:(now t) ~from p);
  t

let violations t =
  finalize_checks t;
  List.rev t.violations

let packets_seen t = t.seen

let pp_violation ppf v = Format.fprintf ppf "[%.4f] %s: %s" v.at v.rule v.detail

let check t =
  match violations t with
  | [] -> ()
  | vs ->
      failwith
        (Printf.sprintf "protocol audit failed (%d violations): %s" (List.length vs)
           (String.concat "; "
              (List.map (fun v -> Format.asprintf "%a" pp_violation v) vs)))
