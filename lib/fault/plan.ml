type event =
  | Link_down of { link : int; from_ : float; until : float }
  | Link_jitter of { link : int; from_ : float; until : float; max_jitter : float }
  | Link_dup of { link : int; from_ : float; until : float }
  | Crash of { node : int; at : float; restart_at : float option }
  | Join of { node : int; at : float }
  | Leave of { node : int; at : float }
  | Rejoin of { node : int; at : float }

type t = { name : string; events : event list }

let make ?(name = "anonymous") events = { name; events }

let n_events t = List.length t.events

let has_churn t =
  List.exists
    (function Join _ | Leave _ | Rejoin _ -> true | _ -> false)
    t.events

(* Nodes a [Join] event excludes from the group at time 0 — the late
   joiners. The runner seeds the oracle's membership timeline with
   them before the engine starts. *)
let initial_absentees t =
  List.sort_uniq compare
    (List.filter_map (function Join { node; _ } -> Some node | _ -> None) t.events)

(* --- validation ---------------------------------------------------- *)

let check_window ~what ~from_ ~until =
  if not (from_ >= 0. && from_ < until) then
    Error (Printf.sprintf "%s: window [%g, %g) is not ordered with non-negative start" what from_ until)
  else Ok ()

let check_link ~tree ~what link =
  if link >= 1 && link < Net.Tree.n_nodes tree then Ok ()
  else Error (Printf.sprintf "%s: %d does not name a tree link" what link)

let validate_event ~tree = function
  | Link_down { link; from_; until } ->
      let ( let* ) = Result.bind in
      let* () = check_link ~tree ~what:"link_down" link in
      check_window ~what:"link_down" ~from_ ~until
  | Link_jitter { link; from_; until; max_jitter } ->
      let ( let* ) = Result.bind in
      let* () = check_link ~tree ~what:"link_jitter" link in
      let* () = check_window ~what:"link_jitter" ~from_ ~until in
      if max_jitter > 0. then Ok () else Error "link_jitter: max_jitter must be positive"
  | Link_dup { link; from_; until } ->
      let ( let* ) = Result.bind in
      let* () = check_link ~tree ~what:"link_dup" link in
      check_window ~what:"link_dup" ~from_ ~until
  | Crash { node; at; restart_at } ->
      if not (node >= 1 && node < Net.Tree.n_nodes tree && Net.Tree.is_leaf tree node) then
        Error (Printf.sprintf "crash: node %d is not a receiver (routers cannot crash)" node)
      else if at < 0. then Error "crash: time must be non-negative"
      else begin
        match restart_at with
        | Some r when r <= at -> Error "crash: restart_at must be after at"
        | _ -> Ok ()
      end
  | Join _ | Leave _ | Rejoin _ ->
      (* handled (with the cross-event rejoin check) in [validate] *)
      Ok ()

let check_member_event ~tree ~what ~node ~at =
  if not (node >= 1 && node < Net.Tree.n_nodes tree && Net.Tree.is_leaf tree node) then
    Error
      (Printf.sprintf "%s: node %d is not a receiver (only leaf members churn)" what node)
  else if at < 0. then Error (Printf.sprintf "%s: time must be non-negative" what)
  else Ok ()

let validate ~tree t =
  let validate_churn e =
    match e with
    | Join { node; at } -> check_member_event ~tree ~what:"join" ~node ~at
    | Leave { node; at } -> check_member_event ~tree ~what:"leave" ~node ~at
    | Rejoin { node; at } -> (
        let ( let* ) = Result.bind in
        let* () = check_member_event ~tree ~what:"rejoin" ~node ~at in
        (* A rejoin restores a membership an earlier leave dropped; a
           rejoin with no prior leave would silently be a no-op, which
           is a plan bug worth rejecting. *)
        let has_prior_leave =
          List.exists
            (function Leave { node = n; at = a } -> n = node && a < at | _ -> false)
            t.events
        in
        if has_prior_leave then Ok ()
        else
          Error
            (Printf.sprintf "rejoin: node %d has no leave before t=%g to rejoin from" node at))
    | _ -> validate_event ~tree e
  in
  let rec go = function
    | [] -> Ok t
    | e :: rest -> ( match validate_churn e with Ok () -> go rest | Error _ as err -> err)
  in
  match go t.events with
  | Ok _ as ok -> ok
  | Error msg -> Error (Printf.sprintf "plan %S: %s" t.name msg)

(* --- compilation ---------------------------------------------------- *)

let compile ~network ?(on_restart = fun ~node:_ -> ()) ?(on_join = fun ~node:_ -> ())
    ?(on_leave = fun ~node:_ -> ()) t =
  (match validate ~tree:(Net.Network.tree network) t with
  | Ok _ -> ()
  | Error msg -> invalid_arg (Printf.sprintf "Fault.Plan.compile: %s" msg));
  let engine = Net.Network.engine network in
  (* Late joiners start outside the group: excluded at compile time
     (a starting condition, not a churn transition — [~count:false]),
     restored by their Join timer below. *)
  List.iter
    (fun node -> Net.Network.set_member ~count:false network node false)
    (initial_absentees t);
  List.iter
    (fun event ->
      match event with
      | Link_down { link; from_; until } -> Net.Network.add_link_down network ~link ~from_ ~until
      | Link_jitter { link; from_; until; max_jitter } ->
          Net.Network.add_link_jitter network ~link ~from_ ~until ~max_jitter
      | Link_dup { link; from_; until } -> Net.Network.add_link_dup network ~link ~from_ ~until
      | Crash { node; at; restart_at } ->
          ignore
            (Sim.Engine.schedule_at engine ~at (fun () ->
                 Net.Network.set_enabled network node false));
          Option.iter
            (fun at ->
              ignore
                (Sim.Engine.schedule_at engine ~at (fun () ->
                     Net.Network.set_enabled network node true;
                     on_restart ~node)))
            restart_at
      | Join { node; at } | Rejoin { node; at } ->
          ignore
            (Sim.Engine.schedule_at engine ~at (fun () ->
                 Net.Network.set_member network node true;
                 on_join ~node))
      | Leave { node; at } ->
          ignore
            (Sim.Engine.schedule_at engine ~at (fun () ->
                 Net.Network.set_member network node false;
                 on_leave ~node)))
    t.events

(* --- serialization -------------------------------------------------- *)

let event_to_json event =
  let open Obs.Json in
  match event with
  | Link_down { link; from_; until } ->
      Obj [ ("kind", Str "link_down"); ("link", int link); ("from", Num from_); ("until", Num until) ]
  | Link_jitter { link; from_; until; max_jitter } ->
      Obj
        [
          ("kind", Str "link_jitter");
          ("link", int link);
          ("from", Num from_);
          ("until", Num until);
          ("max_jitter", Num max_jitter);
        ]
  | Link_dup { link; from_; until } ->
      Obj [ ("kind", Str "link_dup"); ("link", int link); ("from", Num from_); ("until", Num until) ]
  | Crash { node; at; restart_at } ->
      Obj
        [
          ("kind", Str "crash");
          ("node", int node);
          ("at", Num at);
          ("restart_at", (match restart_at with None -> Null | Some r -> Num r));
        ]
  | Join { node; at } -> Obj [ ("kind", Str "join"); ("node", int node); ("at", Num at) ]
  | Leave { node; at } -> Obj [ ("kind", Str "leave"); ("node", int node); ("at", Num at) ]
  | Rejoin { node; at } -> Obj [ ("kind", Str "rejoin"); ("node", int node); ("at", Num at) ]

let to_json t =
  let open Obs.Json in
  Obj [ ("name", Str t.name); ("events", Arr (List.map event_to_json t.events)) ]

let event_of_json json =
  let open Obs.Json in
  let ( let* ) = Result.bind in
  let num field =
    match member field json with
    | Some (Num x) -> Ok x
    | _ -> Error (Printf.sprintf "event %s: expected a number" field)
  in
  let int_field field =
    let* x = num field in
    if Float.is_integer x then Ok (int_of_float x)
    else Error (Printf.sprintf "event %s: expected an integer" field)
  in
  match member "kind" json with
  | Some (Str "link_down") ->
      let* link = int_field "link" in
      let* from_ = num "from" in
      let* until = num "until" in
      Ok (Link_down { link; from_; until })
  | Some (Str "link_jitter") ->
      let* link = int_field "link" in
      let* from_ = num "from" in
      let* until = num "until" in
      let* max_jitter = num "max_jitter" in
      Ok (Link_jitter { link; from_; until; max_jitter })
  | Some (Str "link_dup") ->
      let* link = int_field "link" in
      let* from_ = num "from" in
      let* until = num "until" in
      Ok (Link_dup { link; from_; until })
  | Some (Str "crash") ->
      let* node = int_field "node" in
      let* at = num "at" in
      let* restart_at =
        match member "restart_at" json with
        | Some Null | None -> Ok None
        | Some (Num r) -> Ok (Some r)
        | Some _ -> Error "event restart_at: expected a number or null"
      in
      Ok (Crash { node; at; restart_at })
  | Some (Str "join") ->
      let* node = int_field "node" in
      let* at = num "at" in
      Ok (Join { node; at })
  | Some (Str "leave") ->
      let* node = int_field "node" in
      let* at = num "at" in
      Ok (Leave { node; at })
  | Some (Str "rejoin") ->
      let* node = int_field "node" in
      let* at = num "at" in
      Ok (Rejoin { node; at })
  | Some (Str kind) -> Error (Printf.sprintf "unknown fault event kind %S" kind)
  | _ -> Error "event: missing kind"

let of_json json =
  let open Obs.Json in
  let ( let* ) = Result.bind in
  let* name =
    match member "name" json with
    | Some (Str s) -> Ok s
    | None -> Ok "anonymous"
    | Some _ -> Error "name: expected a string"
  in
  let* events =
    match member "events" json with
    | Some (Arr items) ->
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            let* e = event_of_json item in
            Ok (e :: acc))
          items (Ok [])
    | _ -> Error "events: expected an array"
  in
  Ok { name; events }

let save t ~file = Obs.Json.save ~pretty:true (to_json t) ~file

let load file =
  match Obs.Json.parse_file file with
  | Error _ as err -> err
  | Ok json -> of_json json

(* --- churn schedules -------------------------------------------------- *)

(* Declarative membership schedules are generated with a private LCG
   (PCG-style multiplier), never [Random] or the engine RNG: a plan is
   data, so the same arguments must produce the same events on every
   shard and every process — churned runs stay pure functions of
   (trace, seed, plan). *)
let lcg_stream seed =
  let state = ref (Int64.logor seed 1L) in
  fun () ->
    state := Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
    let bits = Int64.to_int (Int64.shift_right_logical !state 11) in
    float_of_int bits /. 9007199254740992.

let late_joiners ~nodes ~at ~spread =
  if at < 0. || spread < 0. then invalid_arg "Fault.Plan.late_joiners: negative time";
  let n = List.length nodes in
  List.mapi
    (fun i node ->
      let frac = if n <= 1 then 0. else float_of_int i /. float_of_int (n - 1) in
      Join { node; at = at +. (frac *. spread) })
    nodes

let flash_crowd ~nodes ~at =
  if at < 0. then invalid_arg "Fault.Plan.flash_crowd: negative time";
  List.map (fun node -> Join { node; at }) nodes

let steady_churn ~nodes ~from_ ~until ~rate ~half_life ?(seed = 0x9E3779B97F4A7C15L) () =
  if nodes = [] then invalid_arg "Fault.Plan.steady_churn: empty node pool";
  if not (from_ >= 0. && until > from_) then
    invalid_arg "Fault.Plan.steady_churn: window must satisfy 0 <= from_ < until";
  if rate <= 0. then invalid_arg "Fault.Plan.steady_churn: rate must be positive";
  if half_life <= 0. then invalid_arg "Fault.Plan.steady_churn: half_life must be positive";
  let u = lcg_stream seed in
  let pool = Array.of_list nodes in
  let n = Array.length pool in
  let absent_until = Hashtbl.create 8 in
  let events = ref [] in
  let t = ref from_ in
  let running = ref true in
  while !running do
    (* exponential inter-departure gaps with mean 1/rate *)
    t := !t +. (-.log (1. -. u ()) /. rate);
    if !t >= until then running := false
    else begin
      (* pick a currently-present node, scanning from a sampled start
         so the choice is uniform-ish but the loop stays total even
         when everyone is absent *)
      let start = int_of_float (u () *. float_of_int n) in
      let pick = ref (-1) in
      for k = 0 to n - 1 do
        if !pick < 0 then begin
          let node = pool.((start + k) mod n) in
          let absent =
            match Hashtbl.find_opt absent_until node with Some r -> r > !t | None -> false
          in
          if not absent then pick := node
        end
      done;
      if !pick >= 0 then begin
        let node = !pick in
        (* absence with median [half_life] (exponential), floored so
           the rejoin is strictly after the leave *)
        let away = Float.max 1e-6 (half_life *. (-.log (1. -. u ())) /. Float.log 2.) in
        Hashtbl.replace absent_until node (!t +. away);
        events := Rejoin { node; at = !t +. away } :: Leave { node; at = !t } :: !events
      end
    end
  done;
  List.rev !events

(* --- canned plans ---------------------------------------------------- *)

let canned_names = [ "partition-heal"; "link-flap"; "crash-replier"; "jitter-reorder"; "dup-burst" ]

let churn_names = [ "churn-late"; "churn-flash"; "churn-steady" ]

(* Deterministic topology probes: the deepest receiver (the natural
   requestor — longest source path), the shallowest receiver (the
   natural replier — closest to the source), and the root child whose
   subtree is largest (the heaviest branch to partition). Ties break
   toward smaller ids. *)
let deepest_receiver tree =
  Array.fold_left
    (fun best r -> if Net.Tree.depth tree r > Net.Tree.depth tree best then r else best)
    (Net.Tree.receivers tree).(0) (Net.Tree.receivers tree)

let shallowest_receiver tree =
  Array.fold_left
    (fun best r -> if Net.Tree.depth tree r < Net.Tree.depth tree best then r else best)
    (Net.Tree.receivers tree).(0) (Net.Tree.receivers tree)

let heaviest_branch tree =
  match Net.Tree.children tree 0 with
  | [] -> invalid_arg "Fault.Plan.canned: root has no children"
  | first :: _ as cs ->
      List.fold_left
        (fun best c ->
          if
            List.length (Net.Tree.subtree_nodes tree c)
            > List.length (Net.Tree.subtree_nodes tree best)
          then c
          else best)
        first cs

(* Up to [k] receivers spread evenly across the receiver array (which
   orders shallow and deep members alike), capped at half the group —
   so canned churn plans never empty the group; the empty-group edge
   has its own dedicated regression plan in the tests. *)
let churn_pool tree k =
  let rs = Net.Tree.receivers tree in
  let n = Array.length rs in
  let k = max 1 (min k (max 1 (n / 2))) in
  List.init k (fun i -> rs.(i * n / k))

let canned ~tree ~warmup ~duration name =
  let w = warmup and d = duration in
  let at f = w +. (f *. d) in
  match name with
  | "partition-heal" ->
      (* An outage of the link above the heaviest branch cuts its whole
         subtree off in both directions, so the subtree recovers among
         itself (SRM local recovery) until the link heals. *)
      Some
        (make ~name [ Link_down { link = heaviest_branch tree; from_ = at 0.25; until = at 0.5 } ])
  | "link-flap" ->
      let link = deepest_receiver tree in
      Some
        (make ~name
           [
             Link_down { link; from_ = at 0.2; until = at 0.25 };
             Link_down { link; from_ = at 0.4; until = at 0.45 };
             Link_down { link; from_ = at 0.6; until = at 0.65 };
           ])
  | "crash-replier" ->
      Some
        (make ~name
           [
             Crash
               { node = shallowest_receiver tree; at = at 0.3; restart_at = Some (at 0.6) };
           ])
  | "jitter-reorder" ->
      Some
        (make ~name
           [
             Link_jitter
               { link = deepest_receiver tree; from_ = at 0.2; until = at 0.8; max_jitter = 0.05 };
             Link_jitter
               { link = heaviest_branch tree; from_ = at 0.3; until = at 0.7; max_jitter = 0.02 };
           ])
  | "dup-burst" ->
      Some
        (make ~name
           [
             Link_dup { link = deepest_receiver tree; from_ = at 0.3; until = at 0.6 };
             Link_dup { link = heaviest_branch tree; from_ = at 0.3; until = at 0.6 };
           ])
  | "churn-late" ->
      (* The deepest members arrive only a quarter into the data phase:
         they must not be charged for anything sent before they joined,
         and must recover everything after. *)
      Some
        (make ~name
           (late_joiners ~nodes:(churn_pool tree 3) ~at:(at 0.25) ~spread:(0.1 *. d)))
  | "churn-flash" ->
      (* A flash crowd: a batch of members joins at the same instant,
         mid-stream, all with empty soft state. *)
      Some (make ~name (flash_crowd ~nodes:(churn_pool tree 8) ~at:(at 0.3)))
  | "churn-steady" ->
      (* Sustained leave/rejoin churn across the middle of the data
         phase: ~4 departures, absences with a median of 8% of the
         phase. Includes the shallowest receivers — the natural CESRM
         repliers — so cached-pair invalidation is exercised. *)
      Some
        (make ~name
           (steady_churn ~nodes:(churn_pool tree 6) ~from_:(at 0.15) ~until:(at 0.75)
              ~rate:(4. /. (0.6 *. d))
              ~half_life:(0.08 *. d) ()))
  | _ -> None
