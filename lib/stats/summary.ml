type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable minv : float;
  mutable maxv : float;
  mutable total : float;
  samples : Vec.t option;
  mutable sketch : Obs.Hist.t option;
      (* log-bucketed backing when samples are not retained, so
         percentiles degrade to bounded-error approximations instead of
         raising; [samples = None] iff [sketch = Some _] *)
}

let create ?(keep_samples = true) () =
  {
    n = 0;
    mean = 0.;
    m2 = 0.;
    minv = infinity;
    maxv = neg_infinity;
    total = 0.;
    samples = (if keep_samples then Some (Vec.create ()) else None);
    sketch = (if keep_samples then None else Some (Obs.Hist.create ()));
  }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.minv then t.minv <- x;
  if x > t.maxv then t.maxv <- x;
  t.total <- t.total +. x;
  (match t.sketch with None -> () | Some h -> Obs.Hist.add h x);
  match t.samples with None -> () | Some d -> Vec.add d x

let count t = t.n

let mean t = if t.n = 0 then 0. else t.mean

let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)

let min t = t.minv

let max t = t.maxv

let total t = t.total

let percentile t q =
  if Float.is_nan q then invalid_arg "Summary.percentile: q is NaN"
  else if q < 0. || q > 1. then invalid_arg "Summary.percentile: q in [0,1]"
  else if t.n = 0 then Float.nan
  else
    let rank = int_of_float (Float.round (q *. float_of_int (t.n - 1))) in
    match (t.samples, t.sketch) with
    | Some d, _ ->
        (* Exact nearest-rank over the retained samples; duplicates are
           just adjacent equal ranks, q = 0 / 1 are the extremes. *)
        let a = Vec.to_array d in
        Array.sort Float.compare a;
        a.(rank)
    | None, Some h ->
        (* The same rank through the sketch's nearest rank [ceil (q' n)]:
           q' = (rank + 1/2) / n lands on it with no rounding edge; the
           extreme ranks are the exact extremes. *)
        if rank = 0 then t.minv else if rank = t.n - 1 then t.maxv
        else Obs.Hist.quantile h ((float_of_int rank +. 0.5) /. float_of_int t.n)
    | None, None -> invalid_arg "Summary.percentile: samples not retained"

let merge a b =
  let keep = a.samples <> None && b.samples <> None in
  let t = create ~keep_samples:keep () in
  let absorb s =
    match s.samples with
    | Some d -> Vec.iter (fun x -> add t x) d
    | None ->
        (* Moment-only merge: replay is impossible, so merge moments
           directly (Chan et al. parallel update) and the sketches. *)
        let n1 = float_of_int t.n and n2 = float_of_int s.n in
        if s.n > 0 then begin
          let delta = s.mean -. t.mean in
          let n = n1 +. n2 in
          t.mean <- t.mean +. (delta *. n2 /. n);
          t.m2 <- t.m2 +. s.m2 +. (delta *. delta *. n1 *. n2 /. n);
          t.n <- t.n + s.n;
          t.total <- t.total +. s.total;
          if s.minv < t.minv then t.minv <- s.minv;
          if s.maxv > t.maxv then t.maxv <- s.maxv;
          match (t.sketch, s.sketch) with
          | Some th, Some sh -> t.sketch <- Some (Obs.Hist.merge th sh)
          | _ -> ()
        end
  in
  absorb a;
  absorb b;
  t
