module Chan = struct
  type t = { ic : in_channel; oc : out_channel }

  let of_fds ~read ~write =
    { ic = Unix.in_channel_of_descr read; oc = Unix.out_channel_of_descr write }

  (* Closures are safe to marshal: both ends of every channel are a
     process and its fork, which share one code image. *)
  let send t v =
    Marshal.to_channel t.oc v [ Marshal.Closures ];
    flush t.oc

  let recv t = Marshal.from_channel t.ic

  let fd t = Unix.descr_of_in_channel t.ic

  let close t =
    (try close_in_noerr t.ic with _ -> ());
    try close_out_noerr t.oc with _ -> ()

  let fork ~child =
    let down_rd, down_wr = Unix.pipe ~cloexec:false () in
    let up_rd, up_wr = Unix.pipe ~cloexec:false () in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        Unix.close down_wr;
        Unix.close up_rd;
        let chan = of_fds ~read:down_rd ~write:up_wr in
        (try child chan
         with e ->
           prerr_endline ("Ipc.Chan worker: " ^ Printexc.to_string e);
           flush stderr;
           Unix._exit 1);
        (* _exit: the parent's at_exit handlers (and its buffered
           output, flushed above before fork) must not run again in the
           child. *)
        Unix._exit 0
    | pid ->
        Unix.close down_rd;
        Unix.close up_wr;
        (of_fds ~read:up_rd ~write:down_wr, pid)

  let reap pid =
    let rec go () =
      match Unix.waitpid [] pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    go ()
end
