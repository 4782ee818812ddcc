type scheme =
  | Recent
  | Lru
  | Hotspot of float

type t = { scheme : scheme; capacity : int option }

let default_half_life = 1.0

let default = { scheme = Recent; capacity = None }

let scheme_label = function Recent -> "recent" | Lru -> "lru" | Hotspot _ -> "hotspot"

(* The canonical name round-trips through [of_name]; the half-life is
   printed only when it differs from the default, so the default
   scheme's name is the bare ["recent"] everywhere (sweep artifacts,
   bench legs) and pre-existing labels never change. *)
let name t =
  let base =
    match t.scheme with
    | Recent -> "recent"
    | Lru -> "lru"
    | Hotspot hl when hl = default_half_life -> "hotspot"
    | Hotspot hl -> Printf.sprintf "hotspot=%g" hl
  in
  match t.capacity with None -> base | Some k -> Printf.sprintf "%s:%d" base k

let of_name s =
  let ( let* ) = Option.bind in
  let base, capacity =
    match String.index_opt s ':' with
    | None -> (s, Ok None)
    | Some i ->
        let k = String.sub s (i + 1) (String.length s - i - 1) in
        ( String.sub s 0 i,
          match int_of_string_opt k with
          | Some k when k >= 1 -> Ok (Some k)
          | _ -> Error () )
  in
  let scheme_name, param =
    match String.index_opt base '=' with
    | None -> (base, None)
    | Some i ->
        ( String.sub base 0 i,
          Some (String.sub base (i + 1) (String.length base - i - 1)) )
  in
  let* capacity = Result.to_option capacity in
  let* scheme =
    match (scheme_name, param) with
    | "recent", None -> Some Recent
    | "lru", None -> Some Lru
    | "hotspot", None -> Some (Hotspot default_half_life)
    | "hotspot", Some p -> (
        match float_of_string_opt p with Some hl when hl > 0. -> Some (Hotspot hl) | _ -> None)
    | _ -> None
  in
  Some { scheme; capacity }

let is_default t = t = default

let all_names = [ "recent"; "lru"; "hotspot"; "hotspot=inf" ]

let names_doc =
  "recent (default), lru, hotspot[=half_life_s] (hotspot=inf ranks by frequency); append :K \
   to cap the cache at K entries (e.g. recent:1)"
