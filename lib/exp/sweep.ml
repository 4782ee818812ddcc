let run ?jobs ?shards ?on_result ?meta spec =
  let cells = Spec.cells spec in
  let agg = Agg.create spec in
  let results =
    Pool.map ?jobs ?on_result
      (fun i -> Shard.run_string ?shards spec cells.(i))
      (Array.length cells)
  in
  Array.iteri
    (fun index s ->
      match Agg.add_string agg ~index s with
      | Ok () -> ()
      | Error msg -> failwith (Printf.sprintf "Sweep.run: shard %d: %s" index msg))
    results;
  (* Auto-detected parallelism is the one machine-dependent run input;
     record what [--jobs 0] resolved to, but only then — explicit job
     counts keep the artifact a pure function of the spec, which the
     byte-identity tests and CI compare on. *)
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
  Agg.finalize ~meta agg
