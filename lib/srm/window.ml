type t = {
  n_packets : int; (* growth cap: the stream's length *)
  mutable received : Bytes.t; (* 0 = missing, 1 = have *)
  mutable base : int; (* floor: seqs <= base read as delivered *)
  mutable prefix : int; (* contiguous delivered prefix *)
  mutable max_seq : int;
}

(* Streams start with a bounded window so a million-packet run never
   materializes the full per-receiver bitmap; short runs reach
   [n_packets] immediately and allocate exactly what they used to. *)
let initial_window = 4096

let create ~n_packets =
  {
    n_packets;
    received = Bytes.make (min n_packets initial_window) '\000';
    base = 0;
    prefix = 0;
    max_seq = 0;
  }

let base w = w.base

let prefix w = w.prefix

let max_seq w = w.max_seq

let note_max_seq w seq = if seq > w.max_seq then w.max_seq <- seq

let mem w ~seq =
  seq <= w.base
  ||
  let i = seq - w.base - 1 in
  i < Bytes.length w.received && Bytes.get w.received i = '\001'

let rec advance_prefix w len =
  let i = w.prefix - w.base in
  if i < len && Bytes.get w.received i = '\001' then begin
    w.prefix <- w.prefix + 1;
    advance_prefix w len
  end

let add w ~seq =
  if seq > w.base then begin
    let i = seq - w.base - 1 in
    let len = Bytes.length w.received in
    let len =
      if i >= len then begin
        let len' = min (w.n_packets - w.base) (max (i + 1) (max (2 * len) 64)) in
        let b = Bytes.make len' '\000' in
        Bytes.blit w.received 0 b 0 len;
        w.received <- b;
        len'
      end
      else len
    in
    Bytes.set w.received i '\001';
    if seq = w.prefix + 1 then advance_prefix w len
  end

(* Raise the floor to [upto], sliding the live bytes down so each
   still covers its own seq. *)
let shift w upto =
  let len = Bytes.length w.received in
  let d = upto - w.base in
  if d >= len then Bytes.fill w.received 0 len '\000'
  else begin
    Bytes.blit w.received d w.received 0 (len - d);
    Bytes.fill w.received (len - d) d '\000'
  end;
  w.base <- upto

let retire_below w ~upto =
  let upto = min upto w.prefix in
  if upto > w.base then shift w upto

let baseline w ~upto =
  if upto > w.base then begin
    shift w upto;
    if upto > w.prefix then begin
      w.prefix <- upto;
      advance_prefix w (Bytes.length w.received)
    end
  end;
  note_max_seq w upto
