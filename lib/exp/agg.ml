let int_field name cell =
  match Obs.Json.member name cell with
  | Some (Obs.Json.Num x) -> int_of_float x
  | _ -> 0

let sum_field name cells = List.fold_left (fun acc c -> acc + int_field name c) 0 cells

(* Sum one named sub-object of ints (counters, cost) across cells,
   keyed by the first cell's field order. *)
let sum_object field cells =
  let keys =
    match cells with
    | first :: _ -> (
        match Obs.Json.member field first with
        | Some (Obs.Json.Obj fields) -> List.map fst fields
        | _ -> [])
    | [] -> []
  in
  Obs.Json.Obj
    (List.map
       (fun key ->
         let total =
           List.fold_left
             (fun acc cell ->
               match Option.bind (Obs.Json.member field cell) (Obs.Json.member key) with
               | Some (Obs.Json.Num x) -> acc + int_of_float x
               | _ -> acc)
             0 cells
         in
         (key, Obs.Json.int total))
       keys)

let merged_hists cells =
  Obs.Json.Obj
    (List.map
       (fun name ->
         let merged =
           List.fold_left
             (fun acc cell ->
               match Option.bind (Obs.Json.member "hists" cell) (Obs.Json.member name) with
               | Some hj -> (
                   match Obs.Hist.of_json hj with
                   | Ok h -> Obs.Hist.merge acc h
                   | Error msg -> failwith ("Agg.finalize: " ^ msg))
               | None -> acc)
             (Obs.Hist.create ()) cells
         in
         (name, Obs.Hist.to_json merged))
       Shard.hist_names)

let finalize ?(meta = []) spec cells =
  let cells = Array.to_list cells in
  let strip_hists = function
    | Obs.Json.Obj fields -> Obs.Json.Obj (List.filter (fun (k, _) -> k <> "hists") fields)
    | other -> other
  in
  let exp_requests = sum_field "exp_requests" cells in
  let exp_replies = sum_field "exp_replies" cells in
  let totals =
    Obs.Json.Obj
      [
        ("cells", Obs.Json.int (List.length cells));
        ("detected", Obs.Json.int (sum_field "detected" cells));
        ("recovered", Obs.Json.int (sum_field "recovered" cells));
        ("unrecovered", Obs.Json.int (sum_field "unrecovered" cells));
        ("audit_violations", Obs.Json.int (sum_field "audit_violations" cells));
        ("oracle_violations", Obs.Json.int (sum_field "oracle_violations" cells));
        ("exp_requests", Obs.Json.int exp_requests);
        ("exp_replies", Obs.Json.int exp_replies);
        ( "exp_success_pct",
          if exp_requests = 0 then Obs.Json.Null
          else Obs.Json.Num (100. *. float_of_int exp_replies /. float_of_int exp_requests) );
        ("counters", sum_object "counters" cells);
        ("cost", sum_object "cost" cells);
      ]
  in
  Obs.Json.Obj
    [
      ( "meta",
        Obs.Json.Obj
          ((("schema", Obs.Json.Str "cesrm-sweep/1") :: meta)
          @ [ ("spec", Spec.to_json spec) ]) );
      ("cells", Obs.Json.Arr (List.map strip_hists cells));
      ("totals", totals);
      ("hists", merged_hists cells);
    ]
