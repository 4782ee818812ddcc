module Stats = struct
  type t = {
    mutable windows : int;
    mutable null_windows : int;
    mutable cross_packets : int;
  }

  let create () = { windows = 0; null_windows = 0; cross_packets = 0 }

  let publish ?max_shard_events t ~shards ~lookahead registry =
    Obs.Registry.incr ~by:t.windows registry "pdes/windows";
    Obs.Registry.incr ~by:t.null_windows registry "pdes/null_messages";
    Obs.Registry.incr ~by:t.cross_packets registry "pdes/cross_shard_packets";
    Obs.Registry.set_gauge registry "pdes/shards" (float_of_int shards);
    Obs.Registry.set_gauge registry "pdes/lookahead_s" lookahead;
    Option.iter
      (fun m -> Obs.Registry.incr ~by:m registry "pdes/max_shard_events")
      max_shard_events
end

let next_barrier ~lookahead ~nexts ~emit_horizons =
  let g = List.fold_left Float.min infinity nexts in
  let g = List.fold_left Float.min g emit_horizons in
  g +. lookahead

let run_window engine ~barrier ~horizon =
  let rec go () =
    match Engine.next_time engine with
    | None -> infinity
    | Some t when t >= barrier || t > horizon -> t
    | Some _ ->
        ignore (Engine.step engine);
        go ()
  in
  go ()
