type entry = {
  seq : int;
  requestor : int;
  d_qs : float;
  replier : int;
  d_rq : float;
  turning_point : int option;
}

let recovery_delay e = e.d_qs +. (2. *. e.d_rq)

(* What an empty cell holds, so the arrays keep no dropped tuple alive. *)
let vacant =
  { seq = min_int; requestor = -1; d_qs = 0.; replier = -1; d_rq = 0.; turning_point = None }

type t = {
  capacity : int;
  scheme : Retention.scheme;
  (* Cells [0, size) in ranking order: [Recent] and [Hotspot] keep
     them sorted by seq descending (the seed order), [Lru] most
     recently used first. [used] is each cell's last use (digest,
     improvement or acted-on choice), which only [Lru] reads. *)
  entries : entry array;
  used : float array;
  mutable size : int;
  (* Hotspot only: (requestor, replier) -> (score, last bump time). *)
  pair_heat : (int * int, float * float) Hashtbl.t;
  mutable evictions : int; (* capacity-driven removals *)
  mutable hits : int; (* choices acted on (see [touch]) *)
}

let create ?(retention = Retention.Recent) ~capacity () =
  if capacity < 1 then invalid_arg "Cache.create: capacity >= 1 required";
  {
    capacity;
    scheme = retention;
    entries = Array.make capacity vacant;
    used = Array.make capacity 0.;
    size = 0;
    pair_heat = Hashtbl.create 8;
    evictions = 0;
    hits = 0;
  }

let size t = t.size

let evictions t = t.evictions

let hits t = t.hits

(* The cell holding [seq], or -1. *)
let index t seq =
  let i = ref 0 in
  while !i < t.size && t.entries.(!i).seq <> seq do
    incr i
  done;
  if !i = t.size then -1 else !i

(* The cell a new [seq] takes in seq-descending order. *)
let seq_position t seq =
  let i = ref 0 in
  while !i < t.size && t.entries.(!i).seq > seq do
    incr i
  done;
  !i

let remove_at t i =
  let last = t.size - 1 in
  Array.blit t.entries (i + 1) t.entries i (last - i);
  Array.blit t.used (i + 1) t.used i (last - i);
  t.entries.(last) <- vacant;
  t.size <- last

let insert_at t i e ~now =
  Array.blit t.entries i t.entries (i + 1) (t.size - i);
  Array.blit t.used i t.used (i + 1) (t.size - i);
  t.entries.(i) <- e;
  t.used.(i) <- now;
  t.size <- t.size + 1

let evict t i =
  t.evictions <- t.evictions + 1;
  remove_at t i

let pair_key e = (e.requestor, e.replier)

(* Current hotspot score of a pair: the stored score decayed by the
   time elapsed since its last bump. Relative order between two pairs
   is invariant under pure time passage (both decay by the same
   factor), so ranking only moves when a digest bumps a pair. *)
let heat t ~now key =
  match Hashtbl.find_opt t.pair_heat key with
  | None -> 0.
  | Some (score, last) ->
      let half_life =
        match t.scheme with Retention.Hotspot hl -> hl | _ -> infinity
      in
      score *. Float.exp (-.Float.log 2. *. Float.max 0. (now -. last) /. half_life)

let bump_heat t ~now key =
  let score = heat t ~now key in
  Hashtbl.replace t.pair_heat key (score +. 1., now)

let entries ?(now = 0.) t =
  let es = Array.to_list (Array.sub t.entries 0 t.size) in
  match t.scheme with
  | Retention.Hotspot _ ->
      List.stable_sort
        (fun a b -> compare (heat t ~now (pair_key b)) (heat t ~now (pair_key a)))
        es
  | Retention.Recent | Retention.Lru -> es

let anywhere (_ : int) = true

(* Cells [i, size) in ranking order: the first live local pair, else
   the first live one ([fallback], -1 while none). *)
let rec first_live t ~live ~local i fallback =
  if i = t.size then if fallback < 0 then raise Not_found else t.entries.(fallback)
  else
    let replier = t.entries.(i).replier in
    if not (live replier) then first_live t ~live ~local (i + 1) fallback
    else if local replier then t.entries.(i)
    else first_live t ~live ~local (i + 1) (if fallback < 0 then i else fallback)

(* The hottest live local pair, else the hottest live one; a strict
   [>] keeps the earlier (higher-seq) cell on equal heat, as a stable
   sort of the cells by heat would. *)
let hottest_live t ~now ~live ~local =
  let best = ref (-1) and best_heat = ref neg_infinity in
  let any = ref (-1) and any_heat = ref neg_infinity in
  for i = 0 to t.size - 1 do
    let e = t.entries.(i) in
    if live e.replier then begin
      let h = heat t ~now (pair_key e) in
      if h > !any_heat then begin
        any := i;
        any_heat := h
      end;
      if h > !best_heat && local e.replier then begin
        best := i;
        best_heat := h
      end
    end
  done;
  if !best >= 0 then t.entries.(!best)
  else if !any >= 0 then t.entries.(!any)
  else raise Not_found

let choose ?(now = 0.) ?(local = anywhere) ~live t =
  match t.scheme with
  | Retention.Recent | Retention.Lru -> first_live t ~live ~local 0 (-1)
  | Retention.Hotspot _ -> hottest_live t ~now ~live ~local

let find t ~seq =
  let i = index t seq in
  if i < 0 then None else Some t.entries.(i)

let clear t =
  Array.fill t.entries 0 t.size vacant;
  t.size <- 0;
  Hashtbl.reset t.pair_heat

let expire_replier t ~replier =
  let kept = ref 0 in
  for i = 0 to t.size - 1 do
    if t.entries.(i).replier <> replier then begin
      t.entries.(!kept) <- t.entries.(i);
      t.used.(!kept) <- t.used.(i);
      incr kept
    end
  done;
  Array.fill t.entries !kept (t.size - !kept) vacant;
  t.size <- !kept

(* A digest for a cached seq: the tuple is replaced only when strictly
   better, under every scheme. *)
let improve t i e =
  if recovery_delay e < recovery_delay t.entries.(i) then begin
    t.entries.(i) <- e;
    `Updated
  end
  else `Ignored

(* The seed scheme, bit-for-bit: same-seq tuples replaced only when
   strictly better, eviction by least-recent seq (the last cell),
   stale seqs ignored on a full cache. *)
let note_reply_recent t ~now e =
  let i = index t e.seq in
  if i >= 0 then improve t i e
  else
    let full = t.size >= t.capacity in
    if full && e.seq < t.entries.(t.size - 1).seq then `Ignored
    else begin
      if full then evict t (t.size - 1);
      insert_at t (seq_position t e.seq) e ~now;
      `Inserted
    end

(* The eviction victim of [Lru] and [Hotspot]: the least recently used
   cell, or the coldest pair's, ties toward the lower seq. *)
let victim t ~now =
  let hot = match t.scheme with Retention.Hotspot _ -> true | _ -> false in
  let v = ref 0 in
  for i = 1 to t.size - 1 do
    let k = if hot then heat t ~now (pair_key t.entries.(i)) else t.used.(i) in
    let kv = if hot then heat t ~now (pair_key t.entries.(!v)) else t.used.(!v) in
    if k < kv || (k = kv && t.entries.(i).seq < t.entries.(!v).seq) then v := i
  done;
  !v

(* True-LRU: any digest for a cached seq is a use (hit refreshes
   recency — the qcheck law), the tuple itself still only improves when
   strictly better; new seqs always enter (even stale ones — use
   recency, not packet recency, decides retention), evicting the least
   recently used cell when full. *)
let note_reply_lru t ~now e =
  let i = index t e.seq in
  if i >= 0 then begin
    let verdict = improve t i e in
    let e = t.entries.(i) in
    remove_at t i;
    insert_at t 0 e ~now;
    verdict
  end
  else begin
    if t.size >= t.capacity then evict t (victim t ~now);
    insert_at t 0 e ~now;
    `Inserted
  end

(* Hotspot: every digest bumps the pair's decayed score; eviction
   drops the coldest pair's tuple (ties toward the oldest seq), and new
   seqs always enter — pair heat, not packet recency, decides
   retention. *)
let note_reply_hotspot t ~now e =
  bump_heat t ~now (pair_key e);
  let i = index t e.seq in
  if i >= 0 then improve t i e
  else begin
    if t.size >= t.capacity then evict t (victim t ~now);
    insert_at t (seq_position t e.seq) e ~now;
    `Inserted
  end

let note_reply ?(now = 0.) t e =
  match t.scheme with
  | Retention.Recent -> note_reply_recent t ~now e
  | Retention.Lru -> note_reply_lru t ~now e
  | Retention.Hotspot _ -> note_reply_hotspot t ~now e

let touch ?(now = 0.) t ~seq =
  t.hits <- t.hits + 1;
  match t.scheme with
  | Retention.Lru ->
      let i = index t seq in
      if i >= 0 then begin
        let e = t.entries.(i) in
        remove_at t i;
        insert_at t 0 e ~now
      end
  | Retention.Recent | Retention.Hotspot _ -> ()
