let hist_json h =
  let buckets = ref [] in
  Hist.iter_buckets h (fun ~lo ~hi ~count ->
      buckets := Json.Arr [ Json.Num lo; Json.Num hi; Json.int count ] :: !buckets);
  Json.Obj
    [
      ("count", Json.int (Hist.count h));
      ("sum", Json.Num (Hist.sum h));
      ("mean", Json.Num (Hist.mean h));
      ("min", Json.Num (if Hist.count h = 0 then Float.nan else Hist.min h));
      ("max", Json.Num (if Hist.count h = 0 then Float.nan else Hist.max h));
      ("p50", Json.Num (Hist.p50 h));
      ("p90", Json.Num (Hist.p90 h));
      ("p99", Json.Num (Hist.p99 h));
      ("p999", Json.Num (Hist.p999 h));
      ("buckets", Json.Arr (List.rev !buckets));
    ]

let to_json ?(meta = []) registry =
  let metrics = ref [] in
  Registry.iter registry (fun name value ->
      let v =
        match value with
        | Registry.Counter n -> Json.int n
        | Registry.Gauge x -> Json.Num x
        | Registry.Histogram h -> hist_json h
      in
      metrics := (name, v) :: !metrics);
  Json.Obj
    ((if meta = [] then [] else [ ("meta", Json.Obj meta) ])
    @ [ ("metrics", Json.Obj (List.rev !metrics)) ])

let save ?meta registry ~file = Json.save ~pretty:true (to_json ?meta registry) ~file
