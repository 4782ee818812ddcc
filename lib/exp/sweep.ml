let run ?jobs ?shards ?on_result ?meta spec =
  let cells = Spec.cells spec in
  let results =
    Pool.map ?jobs ?on_result
      (fun i -> Shard.run_string ?shards spec cells.(i))
      (Array.length cells)
    |> Array.mapi (fun index s ->
           match Obs.Json.parse s with
           | Ok json -> json
           | Error msg -> failwith (Printf.sprintf "Sweep.run: shard %d: %s" index msg))
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
  Agg.finalize ~meta spec results
