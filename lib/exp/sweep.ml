(* The sum over the cell rows of the int at [path] (a field, or a
   field of a sub-object); a row without it adds 0. *)
let sum rows path =
  List.fold_left
    (fun acc row ->
      match List.fold_left (fun j key -> Option.bind j (Obs.Json.member key)) (Some row) path with
      | Some (Obs.Json.Num x) -> acc + int_of_float x
      | _ -> acc)
    0 rows

(* The artifact, folded in shard-index order: the cell rows
   concatenated, their counts summed (a sub-object of ints key by key,
   in the first row's key order) and their histograms merged —
   exactly, since merging adds bucket counts. *)
let finalize ~meta spec (shards : Shard.t list) =
  let open Obs.Json in
  let rows = List.map (fun (s : Shard.t) -> s.row) shards in
  let total field = (field, int (sum rows [ field ])) in
  let sum_object field =
    let keys =
      match Option.bind (List.nth_opt rows 0) (member field) with
      | Some (Obj fields) -> List.map fst fields
      | _ -> []
    in
    (field, Obj (List.map (fun key -> (key, int (sum rows [ field; key ]))) keys))
  in
  let exp_requests = sum rows [ "exp_requests" ] and exp_replies = sum rows [ "exp_replies" ] in
  let merged name =
    List.fold_left
      (fun acc (s : Shard.t) -> Obs.Hist.merge acc (List.assoc name s.hists))
      (Obs.Hist.create ()) shards
  in
  Obj
    [
      ("meta", Obj ((("schema", Str "cesrm-sweep/1") :: meta) @ [ ("spec", Spec.to_json spec) ]));
      ("cells", Arr rows);
      ( "totals",
        Obj
          [
            ("cells", int (List.length rows));
            total "detected";
            total "recovered";
            total "unrecovered";
            total "audit_violations";
            total "oracle_violations";
            ("exp_requests", int exp_requests);
            ("exp_replies", int exp_replies);
            ( "exp_success_pct",
              if exp_requests = 0 then Null
              else Num (100. *. float_of_int exp_replies /. float_of_int exp_requests) );
            sum_object "counters";
            sum_object "cost";
          ] );
      ( "hists",
        Obj (List.map (fun name -> (name, Obs.Hist.to_json (merged name))) Shard.hist_names) );
    ]

let run ?jobs ?shards ?on_result ?meta spec =
  let cells = Spec.cells spec in
  let results =
    Pool.map ?jobs ?on_result (fun i -> Shard.run ?shards spec cells.(i)) (Array.length cells)
  in
  (* Auto-detected parallelism is the one machine-dependent run input;
     record what [--jobs 0] resolved to, but only then — explicit job
     counts keep the artifact a pure function of the spec, which the
     byte-identity tests and cram laws compare on. *)
  let meta =
    match jobs with
    | Some 0 ->
        Option.value ~default:[] meta
        @ [
            ( "jobs",
              Obs.Json.Obj
                [
                  ("requested", Obs.Json.int 0);
                  ("detected", Obs.Json.int (Pool.resolve_jobs jobs));
                ] );
          ]
    | _ -> Option.value ~default:[] meta
  in
  finalize ~meta spec (Array.to_list results)
