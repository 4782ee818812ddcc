type thresholds = { rel : float; abs : float }

let default_thresholds = { rel = 0.10; abs = 1e-9 }

type entry = {
  path : string;
  base : float option;
  current : float option;
  delta : float;
  ratio : float;
  flagged : bool;
}

let join prefix k = if prefix = "" then k else prefix ^ "/" ^ k

(* Arrays whose elements all carry a string "name" field are keyed by
   name (the shape of the scale report's scenarios and legs), so
   entries pair up across runs even if their order changed. *)
let array_keys items =
  let named =
    List.map
      (fun item ->
        match Json.member "name" item with Some (Json.Str s) -> Some s | _ -> None)
      items
  in
  if items <> [] && List.for_all Option.is_some named then
    List.map Option.get named
  else List.mapi (fun i _ -> string_of_int i) items

let flatten json =
  let acc = ref [] in
  let rec go prefix = function
    | Json.Num x -> acc := (prefix, x) :: !acc
    | Json.Obj fields ->
        List.iter
          (fun (k, v) -> if k <> "machine" && k <> "meta" then go (join prefix k) v)
          fields
    | Json.Arr items ->
        List.iter2 (fun k item -> go (join prefix k) item) (array_keys items) items
    | Json.Null | Json.Bool _ | Json.Str _ -> ()
  in
  go "" json;
  List.rev !acc

let diff ?(thresholds = default_thresholds) ~base ~current () =
  let b = flatten base and c = flatten current in
  let keys = ref [] in
  let tbl_b = Hashtbl.create 64 and tbl_c = Hashtbl.create 64 in
  let load tbl kvs =
    List.iter
      (fun (k, v) ->
        if not (Hashtbl.mem tbl_b k || Hashtbl.mem tbl_c k) then keys := k :: !keys;
        if not (Hashtbl.mem tbl k) then Hashtbl.replace tbl k v)
      kvs
  in
  load tbl_b b;
  load tbl_c c;
  List.map
    (fun path ->
      let base = Hashtbl.find_opt tbl_b path and current = Hashtbl.find_opt tbl_c path in
      match (base, current) with
      | Some bv, Some cv ->
          let delta = cv -. bv in
          let ratio = delta /. Float.max (Float.abs bv) thresholds.abs in
          let flagged =
            Float.abs delta > thresholds.abs && Float.abs ratio > thresholds.rel
          in
          { path; base; current; delta; ratio; flagged }
      | _ -> { path; base; current; delta = Float.nan; ratio = Float.nan; flagged = true })
    (List.sort String.compare !keys)

let flagged entries = List.filter (fun e -> e.flagged) entries

let render ?(only_flagged = true) entries =
  let buf = Buffer.create 512 in
  let shown = if only_flagged then flagged entries else entries in
  let cell = function None -> "-" | Some v -> Printf.sprintf "%.6g" v in
  if shown <> [] then begin
    let width =
      List.fold_left (fun acc e -> Stdlib.max acc (String.length e.path)) 4 shown
    in
    Buffer.add_string buf
      (Printf.sprintf "%-*s %14s %14s %14s %9s\n" width "path" "base" "current" "delta"
         "rel");
    List.iter
      (fun e ->
        let delta, rel =
          if Float.is_nan e.delta then
            ((if e.base = None then "added" else "removed"), "-")
          else
            ( Printf.sprintf "%+.6g" e.delta,
              (* A ~zero baseline makes the ratio meaningless. *)
              if Float.abs e.ratio > 1e4 then "-"
              else Printf.sprintf "%+.1f%%" (100. *. e.ratio) )
        in
        Buffer.add_string buf
          (Printf.sprintf "%-*s %14s %14s %14s %9s%s\n" width e.path (cell e.base)
             (cell e.current) delta rel
             (if e.flagged then "  !" else "")))
      shown
  end;
  let n_flagged = List.length (flagged entries) in
  Buffer.add_string buf
    (if n_flagged = 0 then
       Printf.sprintf "no deltas beyond thresholds (%d metrics compared)\n"
         (List.length entries)
     else
       Printf.sprintf "%d of %d metrics beyond thresholds\n" n_flagged
         (List.length entries));
  Buffer.contents buf
