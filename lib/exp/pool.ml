let available = not Sys.win32

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* [jobs = 0] (from [--jobs 0] / [shards = 0]) means "auto-detect from
   the machine"; explicit requests are clamped to at least one. *)
let resolve_jobs = function
  | None | Some 0 -> default_jobs ()
  | Some j -> max 1 j

let no_progress ~index:_ ~done_:_ ~total:_ = ()

let shard_failed i reason = failwith (Printf.sprintf "Pool: shard %d failed: %s" i reason)

let raised e = "f raised: " ^ Printexc.to_string e

(* A worker answers every index it is sent with [Ok (f i)], or with
   [Error] carrying the printed exception if [f] raised. It serves
   until the parent kills it. *)
let serve f chan =
  while true do
    let i : int = Ipc.Chan.recv chan in
    Ipc.Chan.send chan (match f i with v -> Ok v | exception e -> Error (raised e))
  done

type worker = {
  chan : Ipc.Chan.t;
  pid : int;
  mutable shard : int;  (* the index in flight; -1 when idle *)
}

let parallel_map ~jobs ~on_result f n =
  let results = Array.make n None in
  let workers = ref [] and next = ref 0 and done_ = ref 0 in
  let dispatch w =
    if !next < n then begin
      w.shard <- !next;
      incr next;
      try Ipc.Chan.send w.chan w.shard
      with Sys_error _ -> shard_failed w.shard "worker process died"
    end
  in
  let receive w =
    let i = w.shard in
    match Ipc.Chan.recv w.chan with
    | Ok v ->
        results.(i) <- Some v;
        w.shard <- -1;
        incr done_;
        on_result ~index:i ~done_:!done_ ~total:n;
        dispatch w
    | Error reason -> shard_failed i reason
    | exception (End_of_file | Failure _ | Sys_error _) -> shard_failed i "worker process died"
  in
  (* Shards are pure, so nothing a worker holds between shards is worth
     keeping: success and failure tear down the same way. *)
  let stop w =
    (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
    Ipc.Chan.close w.chan;
    Ipc.Chan.reap w.pid
  in
  let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      List.iter stop !workers;
      Sys.set_signal Sys.sigpipe prev_sigpipe)
    (fun () ->
      for _ = 1 to min jobs n do
        let chan, pid = Ipc.Chan.fork ~child:(serve f) in
        let w = { chan; pid; shard = -1 } in
        workers := w :: !workers;
        dispatch w
      done;
      while !done_ < n do
        (* Each busy worker has one reply in flight, so its channel's
           buffer is empty and [select] on the descriptor sees it. *)
        let busy = List.filter (fun w -> w.shard >= 0) !workers in
        match Unix.select (List.map (fun w -> Ipc.Chan.fd w.chan) busy) [] [] (-1.) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | readable, _, _ ->
            List.iter (fun w -> if List.mem (Ipc.Chan.fd w.chan) readable then receive w) busy
      done;
      Array.map Option.get results)

(* The same shards in index order, in this process, under the same
   failure contract. *)
let serial_map ~on_result f n =
  Array.init n (fun i ->
      let r = try f i with e -> shard_failed i (raised e) in
      on_result ~index:i ~done_:(i + 1) ~total:n;
      r)

let map ?jobs ?(on_result = no_progress) f n =
  if n < 0 then invalid_arg "Pool.map: negative n";
  let jobs = resolve_jobs jobs in
  if (not available) || jobs <= 1 || n <= 1 then serial_map ~on_result f n
  else parallel_map ~jobs ~on_result f n
