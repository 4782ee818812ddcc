type protocol_spec =
  | Srm
  | Cesrm of { policy : Cesrm.Policy.t; retention : Cesrm.Retention.t; router_assist : bool }
  | Lms

let protocol_name = function
  | Srm -> "srm"
  | Lms -> "lms"
  | Cesrm { policy; retention; router_assist } ->
      (* The retention segment is omitted when default, so every
         pre-retention artifact name round-trips unchanged. *)
      Printf.sprintf "cesrm:%s%s%s" (Cesrm.Policy.name policy)
        (if Cesrm.Retention.is_default retention then ""
         else "@" ^ Cesrm.Retention.name retention)
        (if router_assist then "+ra" else "")

let protocol_of_name s =
  match s with
  | "srm" -> Ok Srm
  | "lms" -> Ok Lms
  | _ when s = "cesrm" || String.length s > 6 && String.sub s 0 6 = "cesrm:" ->
      let rest = if s = "cesrm" then "" else String.sub s 6 (String.length s - 6) in
      let rest, router_assist =
        match String.length rest with
        | n when n >= 3 && String.sub rest (n - 3) 3 = "+ra" -> (String.sub rest 0 (n - 3), true)
        | _ -> (rest, false)
      in
      let policy_part, retention_part =
        match String.index_opt rest '@' with
        | Some i ->
            (String.sub rest 0 i, Some (String.sub rest (i + 1) (String.length rest - i - 1)))
        | None -> (rest, None)
      in
      let ( let* ) = Result.bind in
      let* retention =
        match retention_part with
        | None -> Ok Cesrm.Retention.default
        | Some r -> (
            match Cesrm.Retention.of_name r with
            | Some retention -> Ok retention
            | None ->
                Error
                  (Printf.sprintf "unknown CESRM cache policy %S (expected %s)" r
                     Cesrm.Retention.names_doc))
      in
      let* policy =
        if policy_part = "" then Ok Cesrm.Host.default_config.Cesrm.Host.policy
        else begin
          match Cesrm.Policy.of_name policy_part with
          | Some policy -> Ok policy
          | None -> Error (Printf.sprintf "unknown CESRM policy %S" policy_part)
        end
      in
      Ok (Cesrm { policy; retention; router_assist })
  | _ ->
      Error
        (Printf.sprintf "unknown protocol %S (expected srm, cesrm[:policy][@retention][+ra] or lms)"
           s)

let runner_protocol = function
  | Srm -> Harness.Runner.Srm_protocol
  | Lms -> Harness.Runner.Lms_protocol
  | Cesrm { policy; retention; router_assist } ->
      Harness.Runner.Cesrm_protocol
        { Cesrm.Host.default_config with policy; retention; router_assist }

type t = {
  name : string;
  traces : string list;
  protocols : protocol_spec list;
  base_seed : int64;
  n_seeds : int;
  n_packets : int option;
  link_delay_ms : float;
  lossy_recovery : bool;
  faults : string list;
  domains : Rdomain.spec option;
}

let default =
  {
    name = "featured";
    traces = List.map (fun r -> r.Mtrace.Meta.name) Mtrace.Meta.featured;
    protocols =
      [
        Srm;
        Cesrm
          {
            policy = Cesrm.Host.default_config.Cesrm.Host.policy;
            retention = Cesrm.Retention.default;
            router_assist = Cesrm.Host.default_config.Cesrm.Host.router_assist;
          };
      ];
    base_seed = 42L;
    n_seeds = 1;
    n_packets = None;
    link_delay_ms = 20.;
    lossy_recovery = false;
    faults = [];
    domains = None;
  }

let fault_names = ("none" :: Fault.Plan.canned_names) @ Fault.Plan.churn_names

let validate t =
  let unknown =
    List.filter
      (fun n ->
        Mtrace.Scale.parse n = None
        && not (List.exists (fun r -> r.Mtrace.Meta.name = n) Mtrace.Meta.all))
      t.traces
  in
  if t.traces = [] then Error "spec has no traces"
  else if unknown <> [] then
    Error (Printf.sprintf "unknown trace(s): %s" (String.concat ", " unknown))
  else if t.protocols = [] then Error "spec has no protocols"
  else if t.n_seeds <= 0 then Error "n_seeds must be positive"
  else if (match t.n_packets with Some n -> n <= 0 | None -> false) then
    Error "n_packets must be positive"
  else if not (t.link_delay_ms > 0.) then Error "link_delay_ms must be positive"
  else if (match t.domains with Some (Rdomain.Max_members k) -> k < 1 | _ -> false) then
    Error "domains: the member bound must be positive"
  else begin
    (* Every cell's lever combination, checked before any cell runs. *)
    let rejected p fault =
      Harness.Runner.rejected ~faulted:(fault <> "none") ~domains:t.domains (runner_protocol p)
      |> Option.map (Printf.sprintf "%s/%s: %s" (protocol_name p) fault)
    in
    let faults = if t.faults = [] then [ "none" ] else t.faults in
    match List.filter (fun f -> not (List.mem f fault_names)) t.faults with
    | [] -> (
        match List.concat_map (fun p -> List.filter_map (rejected p) faults) t.protocols with
        | [] -> Ok t
        | reasons -> Error ("rejected: " ^ String.concat "; " reasons))
    | unknown ->
        Error
          (Printf.sprintf "unknown fault plan(s): %s (expected %s)"
             (String.concat ", " unknown)
             (String.concat ", " fault_names))
  end

type cell = {
  index : int;
  trace : string;
  protocol : protocol_spec;
  seed_index : int;
  seed : int64;
  fault : string option;
}

let cells t =
  let traces = Array.of_list t.traces and protocols = Array.of_list t.protocols in
  let faults = Array.of_list t.faults in
  (* The faults axis is innermost-but-one (protocols stay innermost);
     with no axis the enumeration, labels and derived seeds reduce
     exactly to the pre-faults scheme. Seeds are derived per
     (trace, seed_index) — NOT per fault — so every fault variant of a
     cell replays the identical trace and schedule, which is what makes
     cross-fault (and SRM-vs-CESRM-under-faults) comparisons paired. *)
  let n_faults = max 1 (Array.length faults) in
  let n_groups = Array.length traces * t.n_seeds * n_faults in
  Array.init (n_groups * Array.length protocols) (fun index ->
      let group = index / Array.length protocols in
      let protocol = protocols.(index mod Array.length protocols) in
      let trace_index = group / (t.n_seeds * n_faults) in
      let rem = group mod (t.n_seeds * n_faults) in
      let seed_index = rem / n_faults in
      let fault =
        if Array.length faults = 0 then None else Some faults.(rem mod n_faults)
      in
      {
        index;
        trace = traces.(trace_index);
        protocol;
        seed_index;
        seed = Sim.Rng.substream t.base_seed ((trace_index * t.n_seeds) + seed_index);
        fault;
      })

let cell_label c =
  Printf.sprintf "%s/%s/s%d%s" c.trace (protocol_name c.protocol) c.seed_index
    (match c.fault with None -> "" | Some f -> "/" ^ f)

let to_json t =
  let open Obs.Json in
  Obj
    ([
      ("name", Str t.name);
      ("traces", Arr (List.map (fun n -> Str n) t.traces));
      ("protocols", Arr (List.map (fun p -> Str (protocol_name p)) t.protocols));
      ("base_seed", Str (Int64.to_string t.base_seed));
      ("n_seeds", int t.n_seeds);
      ("n_packets", (match t.n_packets with None -> Null | Some n -> int n));
      ("link_delay_ms", Num t.link_delay_ms);
      ("lossy_recovery", Bool t.lossy_recovery);
      ("faults", Arr (List.map (fun f -> Str f) t.faults));
    ]
    (* omitted when flat, so flat artifacts keep their bytes *)
    @ match t.domains with
    | None -> []
    | Some Rdomain.Auto -> [ ("domains", Str "auto") ]
    | Some (Rdomain.Max_members k) -> [ ("domains", int k) ])

let of_json json =
  let open Obs.Json in
  let ( let* ) = Result.bind in
  let str_list field =
    match member field json with
    | Some (Arr items) ->
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            match item with
            | Str s -> Ok (s :: acc)
            | _ -> Error (Printf.sprintf "%s: expected an array of strings" field))
          items (Ok [])
    | _ -> Error (Printf.sprintf "%s: expected an array of strings" field)
  in
  let* name =
    match member "name" json with
    | Some (Str s) -> Ok s
    | None -> Ok "sweep"
    | Some _ -> Error "name: expected a string"
  in
  let* traces = str_list "traces" in
  let* protocol_names = str_list "protocols" in
  let* protocols =
    List.fold_right
      (fun n acc ->
        let* acc = acc in
        let* p = protocol_of_name n in
        Ok (p :: acc))
      protocol_names (Ok [])
  in
  let* base_seed =
    match member "base_seed" json with
    | Some (Str s) -> (
        match Int64.of_string_opt s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "base_seed: %S is not an int64" s))
    | Some (Num x) when Float.is_integer x -> Ok (Int64.of_float x)
    | None -> Ok 42L
    | Some _ -> Error "base_seed: expected a decimal string"
  in
  let int_field field ~default =
    match member field json with
    | Some (Num x) when Float.is_integer x -> Ok (int_of_float x)
    | None -> Ok default
    | Some _ -> Error (Printf.sprintf "%s: expected an integer" field)
  in
  let* n_seeds = int_field "n_seeds" ~default:1 in
  let* n_packets =
    match member "n_packets" json with
    | Some (Num x) when Float.is_integer x -> Ok (Some (int_of_float x))
    | Some Null | None -> Ok None
    | Some _ -> Error "n_packets: expected an integer or null"
  in
  let* link_delay_ms =
    match member "link_delay_ms" json with
    | Some (Num x) -> Ok x
    | None -> Ok 20.
    | Some _ -> Error "link_delay_ms: expected a number"
  in
  let* lossy_recovery =
    match member "lossy_recovery" json with
    | Some (Bool b) -> Ok b
    | None -> Ok false
    | Some _ -> Error "lossy_recovery: expected a boolean"
  in
  let* faults = match member "faults" json with None -> Ok [] | Some _ -> str_list "faults" in
  let* domains =
    match member "domains" json with
    | None -> Ok None
    | Some (Str "auto") -> Ok (Some Rdomain.Auto)
    | Some (Num x) when Float.is_integer x -> Ok (Some (Rdomain.Max_members (int_of_float x)))
    | Some _ -> Error "domains: expected \"auto\" or an integer"
  in
  validate
    {
      name;
      traces;
      protocols;
      base_seed;
      n_seeds;
      n_packets;
      link_delay_ms;
      lossy_recovery;
      faults;
      domains;
    }
