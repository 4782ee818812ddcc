(* Bucket layout: bucket 0 collects observations <= 0; bucket
   [1 + (e - o_min) * sub + si] covers
   [2^(e-1) * (1 + si/sub), 2^(e-1) * (1 + (si+1)/sub)), i.e. octave
   [2^(e-1), 2^e) split into [sub] equal-width sub-buckets. [frexp]
   yields the octave and mantissa directly, so recording is a handful
   of float ops and one array increment. *)

let o_min = -40 (* values below ~9.1e-13 clamp into the first octave *)

let o_max = 40 (* values above ~1.1e12 clamp into the last octave *)

type t = {
  sub : int;
  counts : int array;
  mutable n : int;
  mutable nans : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
}

let n_octaves = o_max - o_min + 1

(* Largest power of two <= [requested], clamped to [1, 256]. *)
let normalize_sub requested =
  let clamped = Stdlib.min 256 (Stdlib.max 1 requested) in
  let rec down p = if p <= clamped then p else down (p / 2) in
  down 256

let create ?(sub_buckets = 16) () =
  let sub = normalize_sub sub_buckets in
  {
    sub;
    counts = Array.make (1 + (n_octaves * sub)) 0;
    n = 0;
    nans = 0;
    sum = 0.;
    minv = infinity;
    maxv = neg_infinity;
  }

let sub_buckets t = t.sub

let count t = t.n

let nan_count t = t.nans

let sum t = t.sum

let mean t = if t.n = 0 then 0. else t.sum /. float_of_int t.n

let min t = t.minv

let max t = t.maxv

let index_of t v =
  if v <= 0. then 0
  else begin
    let m, e = Float.frexp v in
    if e < o_min then 1
    else if e > o_max then Array.length t.counts - 1
    else begin
      let si = int_of_float ((m -. 0.5) *. 2. *. float_of_int t.sub) in
      let si = if si >= t.sub then t.sub - 1 else if si < 0 then 0 else si in
      1 + ((e - o_min) * t.sub) + si
    end
  end

(* Bounds of bucket [idx >= 1]; the zero bucket is [0, 0]. *)
let bounds t idx =
  if idx = 0 then (0., 0.)
  else begin
    let e = o_min + ((idx - 1) / t.sub) and si = (idx - 1) mod t.sub in
    let base = Float.ldexp 1.0 (e - 1) in
    let w = base /. float_of_int t.sub in
    (base +. (w *. float_of_int si), base +. (w *. float_of_int (si + 1)))
  end

let representative t idx =
  if idx = 0 then 0.
  else begin
    let lo, hi = bounds t idx in
    0.5 *. (lo +. hi)
  end

let add t v =
  if Float.is_nan v then t.nans <- t.nans + 1
  else begin
    t.counts.(index_of t v) <- t.counts.(index_of t v) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. v;
    if v < t.minv then t.minv <- v;
    if v > t.maxv then t.maxv <- v
  end

let quantile t q =
  if Float.is_nan q then invalid_arg "Hist.quantile: q is NaN"
  else if t.n = 0 then Float.nan
  else if q <= 0. then t.minv
  else if q >= 1. then t.maxv
  else begin
    (* Nearest-rank: the smallest bucket whose cumulative count reaches
       ceil(q * n). The representative is clamped to the exact observed
       range so extreme quantiles cannot leave it. *)
    let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
    let idx = ref 0 and cum = ref 0 in
    while !cum < rank do
      cum := !cum + t.counts.(!idx);
      if !cum < rank then incr idx
    done;
    Float.min t.maxv (Float.max t.minv (representative t !idx))
  end

let p50 t = quantile t 0.5

let p90 t = quantile t 0.9

let p99 t = quantile t 0.99

let p999 t = quantile t 0.999

let merge a b =
  if a.sub <> b.sub then invalid_arg "Hist.merge: sub_buckets mismatch";
  let t = create ~sub_buckets:a.sub () in
  for i = 0 to Array.length t.counts - 1 do
    t.counts.(i) <- a.counts.(i) + b.counts.(i)
  done;
  t.n <- a.n + b.n;
  t.nans <- a.nans + b.nans;
  t.sum <- a.sum +. b.sum;
  t.minv <- Float.min a.minv b.minv;
  t.maxv <- Float.max a.maxv b.maxv;
  t

let iter_buckets t f =
  Array.iteri
    (fun idx c ->
      if c > 0 then begin
        let lo, hi = bounds t idx in
        f ~lo ~hi ~count:c
      end)
    t.counts

(* The JSON form carries the derived summary fields (for humans and
   Diff) and the sparse (index, count) bucket pairs; the empty
   histogram's infinite min/max are encoded as null. *)
let to_json t =
  let finite_or_null v = if Float.is_finite v then Json.Num v else Json.Null in
  let buckets =
    Array.to_list t.counts
    |> List.mapi (fun idx c -> (idx, c))
    |> List.filter (fun (_, c) -> c > 0)
    |> List.map (fun (idx, c) -> Json.Arr [ Json.int idx; Json.int c ])
  in
  Json.Obj
    [
      ("sub_buckets", Json.int t.sub);
      ("count", Json.int t.n);
      ("nan_count", Json.int t.nans);
      ("sum", Json.Num t.sum);
      ("min", finite_or_null t.minv);
      ("max", finite_or_null t.maxv);
      ("mean", Json.Num (mean t));
      ("p50", finite_or_null (p50 t));
      ("p90", finite_or_null (p90 t));
      ("p99", finite_or_null (p99 t));
      ("p999", finite_or_null (p999 t));
      ("buckets", Json.Arr buckets);
    ]
