let available = not Sys.win32

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* [jobs = 0] (from [--jobs 0] / [shards = 0]) means "auto-detect from
   the machine"; explicit requests are clamped to at least one. *)
let resolve_jobs = function
  | None -> default_jobs ()
  | Some 0 -> default_jobs ()
  | Some j -> max 1 j

(* -- worker side ----------------------------------------------------- *)

(* One result frame per shard: a "ok <len>\n" / "er <len>\n" header
   followed by <len> payload bytes. "er" carries the printed exception
   of an [f] that raised — the worker itself survives and keeps
   serving; only the shard attempt failed. *)
let worker_loop f cmd_rd res_wr =
  let ic = Unix.in_channel_of_descr cmd_rd in
  let oc = Unix.out_channel_of_descr res_wr in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | "q" -> ()
    | line ->
        let idx = int_of_string (String.trim line) in
        let tag, payload =
          match f idx with
          | s -> ("ok", s)
          | exception e -> ("er", Printexc.to_string e)
        in
        Ipc.Frame.write oc ~tag payload;
        loop ()
  in
  loop ();
  (* _exit: the parent's at_exit handlers (and its buffered output,
     flushed above before fork) must not run again in the child. *)
  Unix._exit 0

(* -- parent side ----------------------------------------------------- *)

type worker = {
  pid : int;
  cmd : Unix.file_descr;  (* parent -> worker: shard indices *)
  res : Unix.file_descr;  (* worker -> parent: result frames *)
  buf : Ipc.Frame.buf;  (* partially received frames *)
  mutable shard : int option;  (* in-flight shard *)
  mutable deadline : float;  (* wall-clock kill time; infinity = none *)
}

let spawn f =
  let cmd_rd, cmd_wr = Unix.pipe () in
  let res_rd, res_wr = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close cmd_wr;
      Unix.close res_rd;
      worker_loop f cmd_rd res_wr
  | pid ->
      Unix.close cmd_rd;
      Unix.close res_wr;
      {
        pid;
        cmd = cmd_wr;
        res = res_rd;
        buf = Ipc.Frame.create_buf ();
        shard = None;
        deadline = infinity;
      }

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let take_frames w = Ipc.Frame.take w.buf

let parallel_map ~jobs ~timeout ~retries ~on_result f n =
  let results = Array.make n "" in
  let attempts = Array.make n 0 in
  let pending = Queue.create () in
  for i = 0 to n - 1 do
    Queue.add i pending
  done;
  let done_count = ref 0 in
  let workers = ref [] in
  let failure = ref None in
  let fail msg = if !failure = None then failure := Some msg in
  (* A shard attempt ended without a result (worker crash, timeout kill,
     or an exception frame): re-enqueue within the retry budget. *)
  let shard_failed i reason =
    if attempts.(i) > retries then
      fail
        (Printf.sprintf "Pool: shard %d failed after %d attempt(s): %s" i attempts.(i) reason)
    else Queue.add i pending
  in
  let remove_worker w =
    workers := List.filter (fun w' -> w'.pid <> w.pid) !workers;
    close_quietly w.cmd;
    close_quietly w.res
  in
  (* Forcibly retire a worker (timeout or teardown). *)
  let kill_worker w reason =
    (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap w.pid;
    remove_worker w;
    Option.iter (fun i -> shard_failed i reason) w.shard
  in
  (* The worker's result pipe hit EOF: it exited (e.g. a shard that
     called [exit]) or was killed externally. *)
  let worker_died w =
    reap w.pid;
    remove_worker w;
    Option.iter (fun i -> shard_failed i "worker process died") w.shard
  in
  let dispatch w =
    match Queue.take_opt pending with
    | None -> ()
    | Some i ->
        attempts.(i) <- attempts.(i) + 1;
        let line = string_of_int i ^ "\n" in
        (match Unix.write_substring w.cmd line 0 (String.length line) with
        | _ ->
            w.shard <- Some i;
            w.deadline <-
              (match timeout with None -> infinity | Some t -> Unix.gettimeofday () +. t)
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
            (* The worker is already gone; give the shard attempt back
               (it never started) and let the EOF path reap it. *)
            attempts.(i) <- attempts.(i) - 1;
            Queue.add i pending)
  in
  let handle_frame w (tag, payload) =
    match w.shard with
    | None -> fail (Printf.sprintf "Pool: unexpected frame from worker %d" w.pid)
    | Some i ->
        w.shard <- None;
        w.deadline <- infinity;
        if tag = "ok" then begin
          results.(i) <- payload;
          incr done_count;
          on_result ~index:i ~done_:!done_count ~total:n
        end
        else shard_failed i ("f raised: " ^ payload)
  in
  let spawn_up_to target =
    while List.length !workers < target && !failure = None do
      match spawn f with
      | w -> workers := w :: !workers
      | exception Unix.Unix_error (e, _, _) ->
          if !workers = [] then fail ("Pool: fork failed: " ^ Unix.error_message e)
          else (* degraded but alive: keep going with fewer workers *) raise Exit
    done
  in
  let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      (* Teardown: idle workers get a quit command and exit on their
         own; anything still busy (failure path) is killed. *)
      List.iter
        (fun w ->
          if w.shard = None then begin
            (try ignore (Unix.write_substring w.cmd "q\n" 0 2) with Unix.Unix_error _ -> ());
            close_quietly w.cmd;
            close_quietly w.res;
            reap w.pid
          end
          else begin
            (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
            close_quietly w.cmd;
            close_quietly w.res;
            reap w.pid
          end)
        !workers;
      workers := [];
      ignore (Sys.signal Sys.sigpipe prev_sigpipe))
    (fun () ->
      let target = min jobs n in
      (try spawn_up_to target with Exit -> ());
      let chunk = Bytes.create 65536 in
      while !done_count < n && !failure = None do
        (* Keep the pool at strength: deaths may have thinned it. *)
        if !workers = [] then (try spawn_up_to target with Exit -> ());
        if !workers = [] then fail "Pool: no live workers"
        else begin
          (* Kill pass before dispatch: a timed-out shard re-enqueued
             here must reach an idle worker in this same iteration, or
             an otherwise-idle pool would select forever with nothing
             in flight. *)
          let now = Unix.gettimeofday () in
          List.iter (fun w -> if w.deadline <= now then kill_worker w "timeout") !workers;
          List.iter (fun w -> if w.shard = None then dispatch w) !workers;
          let live = !workers in
          if live <> [] && !failure = None then begin
            let next_deadline =
              List.fold_left (fun acc w -> Float.min acc w.deadline) infinity live
            in
            let select_timeout =
              if next_deadline = infinity then -1.
              else Float.max 0.01 (next_deadline -. Unix.gettimeofday ())
            in
            match Unix.select (List.map (fun w -> w.res) live) [] [] select_timeout with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | readable, _, _ ->
                List.iter
                  (fun w ->
                    if List.mem w.res readable then begin
                      match Unix.read w.res chunk 0 (Bytes.length chunk) with
                      | 0 -> worker_died w
                      | k ->
                          Ipc.Frame.add w.buf chunk k;
                          List.iter (handle_frame w) (take_frames w)
                      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                    end)
                  live
          end
        end
      done;
      match !failure with Some msg -> failwith msg | None -> results)

let no_progress ~index:_ ~done_:_ ~total:_ = ()

(* Serial fallback: same shards, same order, no processes, and the
   parallel path's contract — an [f] that raises is retried within the
   same budget, then reported as the same [Failure]. *)
let serial_map ~retries ~on_result f n =
  Array.init n (fun i ->
      let rec attempt k =
        try f i with
        | e when k > retries ->
            let e = Printexc.to_string e in
            failwith (Printf.sprintf "Pool: shard %d failed after %d attempt(s): f raised: %s" i k e)
        | _ -> attempt (k + 1)
      in
      let r = attempt 1 in
      on_result ~index:i ~done_:(i + 1) ~total:n;
      r)

let map ?jobs ?timeout ?(retries = 1) ?(on_result = no_progress) f n =
  if n < 0 then invalid_arg "Pool.map: negative n";
  let jobs = resolve_jobs jobs in
  if n = 0 then [||]
  else if (not available) || jobs <= 1 || n <= 1 then serial_map ~retries ~on_result f n
  else parallel_map ~jobs ~timeout ~retries ~on_result f n

let marshal_map ?jobs ?timeout ?(retries = 1) f n =
  let jobs = resolve_jobs jobs in
  if (not available) || jobs <= 1 || n <= 1 then serial_map ~retries ~on_result:no_progress f n
  else begin
    (* Closures are safe to marshal here: a forked worker shares the
       parent's code image, so code pointers stay valid. *)
    let enc i = Marshal.to_string (f i) [ Marshal.Closures ] in
    Array.map (fun s -> Marshal.from_string s 0) (map ~jobs ?timeout ~retries enc n)
  end
