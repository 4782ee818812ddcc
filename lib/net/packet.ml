type echo = { echo_member : int; echo_ts : float; echo_delay : float }

type payload =
  | Data of { seq : int }
  | Request of { src : int; seq : int; requestor : int; d_qs : float; round : int }
  | Reply of {
      src : int;
      seq : int;
      requestor : int;
      d_qs : float;
      replier : int;
      d_rq : float;
      expedited : bool;
      turning_point : int option;
    }
  | Exp_request of {
      src : int;
      seq : int;
      requestor : int;
      d_qs : float;
      replier : int;
      turning_point : int option;
    }
  | Session of { origin : int; sent_at : float; max_seqs : (int * int) list; echoes : echo list }

type t = { sender : int; payload : payload }

let data_bits = 8 * 1024

let size_bits t =
  match t.payload with
  | Data _ | Reply _ -> data_bits
  | Request _ | Exp_request _ | Session _ -> 0

let seq t =
  match t.payload with
  | Data { seq } -> Some seq
  | Request { seq; _ } -> Some seq
  | Reply { seq; _ } -> Some seq
  | Exp_request { seq; _ } -> Some seq
  | Session _ -> None

let describe t =
  match t.payload with
  | Data { seq } -> Printf.sprintf "DATA(%d) from %d" seq t.sender
  | Request { seq; requestor; round; _ } ->
      Printf.sprintf "RQST(%d) by %d round %d" seq requestor round
  | Reply { seq; replier; expedited; _ } ->
      Printf.sprintf "%s(%d) by %d" (if expedited then "EREPL" else "REPL") seq replier
  | Exp_request { seq; requestor; replier; _ } ->
      Printf.sprintf "ERQST(%d) %d->%d" seq requestor replier
  | Session { origin; max_seqs; _ } ->
      Printf.sprintf "SESS from %d max [%s]" origin
        (String.concat ";" (List.map (fun (s, m) -> Printf.sprintf "%d:%d" s m) max_seqs))
