(* The 64-bit state lives unboxed in an 8-byte buffer. An [int64]
   record field points to a boxed custom block, so storing the new
   state would allocate a 24-byte box on every draw; a [Bytes] store
   writes the raw bits in place. Little-endian on every host, so the
   byte layout is fixed. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] get t = Bytes.get_int64_le t 0

let[@inline] set t x = Bytes.set_int64_le t 0 x

let create seed =
  let t = Bytes.create 8 in
  set t seed;
  t

let copy = Bytes.copy

(* SplitMix64 output function (Steele, Lea & Flood 2014). [mix],
   [bits64] and [unit_float] inline into their callers here, so the
   intermediate [int64] values stay in registers. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] bits64 t =
  let s = Int64.add (get t) golden_gamma in
  set t s;
  mix s

let split t = create (bits64 t)

(* The i-th substream seed is what the i-th [split] of a generator
   seeded with [base] would be created from — a pure function of
   (base, i), so shard seeds do not depend on which shards a worker
   happens to execute, or in what order. *)
let substream base i =
  if i < 0 then invalid_arg "Rng.substream: negative index";
  let r = create base in
  let rec go k = if k = 0 then bits64 r else (ignore (bits64 r); go (k - 1)) in
  go i

(* The top 53 bits, an immediate int: every float draw scales it, so a
   caller that does its own scaling gets the draw without a box. *)
let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)

(* Top 53 bits give a uniform float in [0,1). Both conversions are
   exact below 2^53. *)
let[@inline] unit_float t = Float.of_int (bits53 t) *. 0x1p-53

let float t b =
  assert (b > 0.);
  unit_float t *. b

let uniform t lo hi =
  if hi <= lo then lo else lo +. (unit_float t *. (hi -. lo))

let int t n =
  assert (n > 0);
  (* Rejection-free for our purposes: modulo bias is < 2^-40 for any n
     we use (n << 2^63). *)
  let x = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem x (Int64.of_int n))

let bernoulli t p = unit_float t < p

let exponential t mean =
  let u = unit_float t in
  (* u = 0 would give infinity; nudge. *)
  let u = if u <= 0. then 0x1p-53 else u in
  -.mean *. log u

let log_uniform t lo hi =
  assert (lo > 0. && hi > 0.);
  exp (uniform t (log lo) (log hi))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
