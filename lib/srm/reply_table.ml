(* Open addressing with linear probing over power-of-two capacities,
   at most half full. Deletion shifts the rest of the probe chain back
   instead of leaving tombstones, so a lookup stops at the first empty
   slot and a table that churns keys never fills up with dead ones.
   Before it grows, the table drops the rows its owner calls
   disposable, and it grows only if that left it more than a quarter
   full: the next purge is then at least a quarter of the capacity of
   inserts away, so purging stays amortized O(1) per insert. *)

type t = {
  mutable keys : int array;
  mutable timer : Sim.Engine.timer array;
  mutable requestor : int array;
  mutable round : int array;
  mutable d_qs : float array;
  mutable delay_norm : float array;
  mutable abstain : float array;
  mutable replied : float array;
  mutable count : int;
  mutable shift : int; (* 63 - log2 capacity *)
  initial_bits : int;
  disposable : t -> int -> bool;
}

let empty = -1

let make_arrays t bits =
  let cap = 1 lsl bits in
  t.keys <- Array.make cap empty;
  t.timer <- Array.make cap Sim.Engine.no_timer;
  t.requestor <- Array.make cap 0;
  t.round <- Array.make cap 0;
  t.d_qs <- Array.make cap 0.;
  t.delay_norm <- Array.make cap 0.;
  t.abstain <- Array.make cap Float.nan;
  t.replied <- Array.make cap Float.nan;
  t.shift <- 63 - bits

let create ~disposable n =
  let bits = ref 3 in
  while 1 lsl !bits < 2 * n do
    incr bits
  done;
  let t =
    {
      keys = [||];
      timer = [||];
      requestor = [||];
      round = [||];
      d_qs = [||];
      delay_norm = [||];
      abstain = [||];
      replied = [||];
      count = 0;
      shift = 0;
      initial_bits = !bits;
      disposable;
    }
  in
  make_arrays t !bits;
  t

(* Fibonacci hashing: the top bits of [key * 2^63/phi]. Packed keys of
   one stream are consecutive ints; the multiply spreads them over the
   whole table. *)
let[@inline] home t key = (key * 0x4F1BBCDCBFA53E0B) lsr t.shift

let find t key =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (home t key) in
  while keys.(!i) <> key && keys.(!i) <> empty do
    i := (!i + 1) land mask
  done;
  if keys.(!i) = key then !i else -1

(* First empty slot on [key]'s probe chain; [key] must be absent. *)
let free_slot t key =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (home t key) in
  while keys.(!i) <> empty do
    i := (!i + 1) land mask
  done;
  !i

let grow t =
  (* A copy of the record keeps the old arrays while [t] gets new ones. *)
  let old = { t with keys = t.keys } in
  make_arrays t (63 - t.shift + 1);
  for r = 0 to Array.length old.keys - 1 do
    let key = old.keys.(r) in
    if key <> empty then begin
      let i = free_slot t key in
      t.keys.(i) <- key;
      t.timer.(i) <- old.timer.(r);
      t.requestor.(i) <- old.requestor.(r);
      t.round.(i) <- old.round.(r);
      t.d_qs.(i) <- old.d_qs.(r);
      t.delay_norm.(i) <- old.delay_norm.(r);
      t.abstain.(i) <- old.abstain.(r);
      t.replied.(i) <- old.replied.(r)
    end
  done

let move t ~src ~dst =
  t.keys.(dst) <- t.keys.(src);
  t.timer.(dst) <- t.timer.(src);
  t.requestor.(dst) <- t.requestor.(src);
  t.round.(dst) <- t.round.(src);
  t.d_qs.(dst) <- t.d_qs.(src);
  t.delay_norm.(dst) <- t.delay_norm.(src);
  t.abstain.(dst) <- t.abstain.(src);
  t.replied.(dst) <- t.replied.(src)

(* Backward-shift deletion: walk the chain after the hole and pull back
   every entry whose home does not lie cyclically in (hole, j] — it
   would no longer be reachable across the hole. The hole moves to the
   pulled entry's old slot, and the walk ends at an empty slot. *)
let remove_slot t r =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let hole = ref r and j = ref ((r + 1) land mask) in
  while keys.(!j) <> empty do
    let h = home t keys.(!j) in
    let reachable = if !hole < !j then !hole < h && h <= !j else !hole < h || h <= !j in
    if not reachable then begin
      move t ~src:!j ~dst:!hole;
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  keys.(!hole) <- empty;
  t.count <- t.count - 1

let remove t key =
  let r = find t key in
  if r >= 0 then remove_slot t r

(* The scan starts just after an empty slot, so every probe chain lies
   in one contiguous stretch of the scan, and a deletion pulls back only
   entries not yet visited, into the current slot or later ones: the
   current slot is examined again after a deletion, and each entry is
   offered to [keep] exactly once. *)
let filter t keep =
  if t.count > 0 then begin
    let keys = t.keys in
    let cap = Array.length keys in
    let start = ref 0 in
    while keys.(!start) <> empty do
      incr start
    done;
    let i = ref ((!start + 1) land (cap - 1)) and left = ref (cap - 1) in
    while !left > 0 do
      if keys.(!i) <> empty && not (keep !i) then remove_slot t !i
      else begin
        i := (!i + 1) land (cap - 1);
        decr left
      end
    done
  end

let add t key =
  let r = find t key in
  if r >= 0 then r
  else begin
    if 2 * (t.count + 1) > Array.length t.keys then begin
      filter t (fun r -> not (t.disposable t r));
      if 4 * (t.count + 1) > Array.length t.keys then grow t
    end;
    let i = free_slot t key in
    t.keys.(i) <- key;
    t.timer.(i) <- Sim.Engine.no_timer;
    t.requestor.(i) <- 0;
    t.round.(i) <- 0;
    t.d_qs.(i) <- 0.;
    t.delay_norm.(i) <- 0.;
    t.abstain.(i) <- Float.nan;
    t.replied.(i) <- Float.nan;
    t.count <- t.count + 1;
    i
  end

let iter t f =
  let keys = t.keys in
  for r = 0 to Array.length keys - 1 do
    if keys.(r) <> empty then f r
  done

let reset t =
  make_arrays t t.initial_bits;
  t.count <- 0
