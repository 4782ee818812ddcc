type record = {
  node : int;
  src : int;
  seq : int;
  detected_at : float;
  recovered_at : float;
  rounds : int;
  expedited : bool;
  repaired : bool;
}

let latency r = r.recovered_at -. r.detected_at

type t = {
  mutable records : record list;
  mutable n : int;
  mutable observer : (record -> unit) option;
  mutable keep_records : bool;
  (* Online latency summary, maintained on every [add]: in steady
     (records-off) mode it is all that remains of the latency stream —
     exact moments plus a sketch for percentiles, O(1) memory. *)
  online : Summary.t;
  (* Per-loss recovery spans, for the makespan figure: packed
     (src, seq) -> (earliest detection, latest recovery) over every
     member that lost the packet. Live entries are folded on demand;
     steady-state retirement flushes them into [span_online] so the
     table stays bounded by the recovery window. *)
  spans : (int * int, float * float) Hashtbl.t;
  span_online : Summary.t;
}

let create () =
  {
    records = [];
    n = 0;
    observer = None;
    keep_records = true;
    online = Summary.create ~keep_samples:false ();
    spans = Hashtbl.create 64;
    span_online = Summary.create ~keep_samples:false ();
  }

(* Steady-state mode: stop retaining per-loss records (and drop any
   already held) — [count] and the default [latency_summary] keep
   working from the online accumulators. *)
let drop_records t =
  t.keep_records <- false;
  t.records <- []

let retains_records t = t.keep_records

let add t r =
  if t.keep_records then t.records <- r :: t.records;
  t.n <- t.n + 1;
  Summary.add t.online (latency r);
  (* Spans count only repair-delivered recoveries: a detection closed
     by the original data packet finally arriving (the stream outpaced
     by its own session advertisements on deep paths) measures the
     transport, not the recovery protocol, and would put an identical
     floor under every protocol's makespan. *)
  (if r.repaired then
     let key = (r.src, r.seq) in
     let det, rec_ =
       match Hashtbl.find_opt t.spans key with
       | None -> (r.detected_at, r.recovered_at)
       | Some (det, rec_) ->
           (Float.min det r.detected_at, Float.max rec_ r.recovered_at)
     in
     Hashtbl.replace t.spans key (det, rec_));
  match t.observer with Some f -> f r | None -> ()

let set_observer t f = t.observer <- Some f

let count t = t.n

let records t = List.rev t.records

let for_node t node = List.filter (fun r -> r.node = node) (records t)

let latency_summary ?normalize ?filter t =
  match (normalize, filter, t.keep_records) with
  | None, None, false -> t.online
  | _ ->
      let normalize = Option.value normalize ~default:(fun _ -> 1.) in
      let filter = Option.value filter ~default:(fun _ -> true) in
      let s = Summary.create () in
      List.iter (fun r -> if filter r then Summary.add s (latency r /. normalize r)) t.records;
      s

(* Steady-state retirement: a (src, seq) at or below the stability
   horizon can gain no further records — every member has delivered
   it — so its span is final. Flush such spans into the online summary
   (in deterministic key order) and drop the table entries, keeping the
   table bounded by the recovery window over a million-packet run. *)
let retire_spans t ~upto =
  let keys =
    Hashtbl.fold (fun ((_, seq) as k) _ acc -> if seq <= upto then k :: acc else acc) t.spans []
  in
  let keys = List.sort compare keys in
  List.iter
    (fun k ->
      let det, rec_ = Hashtbl.find t.spans k in
      Summary.add t.span_online (rec_ -. det);
      Hashtbl.remove t.spans k)
    keys

(* The makespan figure: one observation per lost packet — the time
   from the loss's earliest detection anywhere to its latest recovery
   anywhere (the last receiver's recovery time). Spans already retired
   come from the online sketch; live ones are folded in key order. *)
let makespan_summary t =
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.spans []) in
  let live = Summary.create () in
  List.iter
    (fun k ->
      let det, rec_ = Hashtbl.find t.spans k in
      Summary.add live (rec_ -. det))
    keys;
  if Summary.count t.span_online = 0 then live else Summary.merge t.span_online live

let makespan t =
  let s = makespan_summary t in
  if Summary.count s = 0 then 0. else Summary.max s
