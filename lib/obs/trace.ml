type kind =
  | Loss_detected
  | Request_sent
  | Reply_sent
  | Exp_request_sent
  | Exp_reply_sent
  | Recovered_expedited
  | Recovered_fallback
  | Data_sent
  | Session_sent

let kind_index = function
  | Loss_detected -> 0
  | Request_sent -> 1
  | Reply_sent -> 2
  | Exp_request_sent -> 3
  | Exp_reply_sent -> 4
  | Recovered_expedited -> 5
  | Recovered_fallback -> 6
  | Data_sent -> 7
  | Session_sent -> 8

let kind_of_index = function
  | 0 -> Loss_detected
  | 1 -> Request_sent
  | 2 -> Reply_sent
  | 3 -> Exp_request_sent
  | 4 -> Exp_reply_sent
  | 5 -> Recovered_expedited
  | 6 -> Recovered_fallback
  | 7 -> Data_sent
  | _ -> Session_sent

let kind_name = function
  | Loss_detected -> "loss-detected"
  | Request_sent -> "request-sent"
  | Reply_sent -> "reply-sent"
  | Exp_request_sent -> "exp-request-sent"
  | Exp_reply_sent -> "exp-reply-sent"
  | Recovered_expedited -> "recovered-expedited"
  | Recovered_fallback -> "recovered-fallback"
  | Data_sent -> "data-sent"
  | Session_sent -> "session-sent"

(* Parallel unboxed arrays, one slot per event: float arrays are flat
   (no boxing) and the three small ints of a record pack into one
   tagged int, so [record] performs four stores and no allocation. *)
type t = {
  capacity : int;
  times : float array;
  nodes : int array;
  streams : int array;
  keys : int array;
  kinds : int array;
  mutable head : int; (* next write position *)
  mutable len : int;
  mutable recorded : int;
  mutable on : bool;
}

let create ?(capacity = 65536) () =
  let capacity = max 16 capacity in
  {
    capacity;
    times = Array.make capacity 0.;
    nodes = Array.make capacity 0;
    streams = Array.make capacity 0;
    keys = Array.make capacity 0;
    kinds = Array.make capacity 0;
    head = 0;
    len = 0;
    recorded = 0;
    on = true;
  }

let set_enabled t flag = t.on <- flag

let record t ~at ~node ~stream ~key kind =
  if t.on then begin
    let i = t.head in
    t.times.(i) <- at;
    t.nodes.(i) <- node;
    t.streams.(i) <- stream;
    t.keys.(i) <- key;
    t.kinds.(i) <- kind_index kind;
    t.head <- (if i + 1 = t.capacity then 0 else i + 1);
    if t.len < t.capacity then t.len <- t.len + 1;
    t.recorded <- t.recorded + 1
  end

let recorded t = t.recorded

let dropped t = t.recorded - t.len

let length t = t.len

let iter t f =
  let start = (t.head - t.len + t.capacity) mod t.capacity in
  for j = 0 to t.len - 1 do
    let i = (start + j) mod t.capacity in
    f ~at:t.times.(i) ~node:t.nodes.(i) ~stream:t.streams.(i) ~key:t.keys.(i)
      (kind_of_index t.kinds.(i))
  done

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.recorded <- 0

(* --- Chrome trace-event export -------------------------------------- *)

let us at = Json.Num (1e6 *. at)

let event ~name ~ph ~at ~node ~stream ~key ?dur () =
  Json.Obj
    (("name", Json.Str name)
     :: ("cat", Json.Str "cesrm")
     :: ("ph", Json.Str ph)
     :: ("ts", us at)
     :: (match dur with Some d -> [ ("dur", us d) ] | None -> [])
    @ (if ph = "i" then [ ("s", Json.Str "t") ] else [])
    @ [
        ("pid", Json.int node);
        ("tid", Json.int stream);
        ("args", Json.Obj [ ("key", Json.int key) ]);
      ])

let to_chrome_json t =
  let events = ref [] in
  let push e = events := e :: !events in
  (* Open detections, keyed (node, key) -> detection time, for span
     reconstruction; a Recovered_* closes the span. *)
  let detects : (int * int, float) Hashtbl.t = Hashtbl.create 256 in
  iter t (fun ~at ~node ~stream ~key kind ->
      (match kind with
      | Loss_detected -> Hashtbl.replace detects (node, key) at
      | Recovered_expedited | Recovered_fallback -> (
          match Hashtbl.find_opt detects (node, key) with
          | Some t0 ->
              Hashtbl.remove detects (node, key);
              let name =
                if kind = Recovered_expedited then "recovery expedited" else "recovery fallback"
              in
              push (event ~name ~ph:"X" ~at:t0 ~node ~stream ~key ~dur:(at -. t0) ())
          | None -> ())
      | _ -> ());
      push (event ~name:(kind_name kind) ~ph:"i" ~at ~node ~stream ~key ()));
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.rev !events));
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj
          [
            ("recorded", Json.int t.recorded);
            ("dropped", Json.int (dropped t));
            ("source", Json.Str "cesrm Obs.Trace");
          ] );
    ]

let export_chrome t ~file = Json.save (to_chrome_json t) ~file
