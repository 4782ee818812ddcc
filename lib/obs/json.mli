(** A minimal JSON tree, printer and parser.

    Just enough JSON for the observability pipeline — metric reports,
    Chrome trace-event files and the bench timing files that
    {!Diff} compares — without pulling a JSON library into the
    dependency cone. Numbers are floats (ints print without a
    fractional part); object key order is preserved. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t
(** [Num] of an integer. *)

val to_string : ?pretty:bool -> t -> string
(** [pretty] (default false) indents objects and arrays. *)

val save : ?pretty:bool -> t -> file:string -> unit

val parse : string -> (t, string) result
(** Strict parse of one JSON document (trailing whitespace allowed).
    The error string carries the byte offset of the failure. *)

val parse_file : string -> (t, string) result
(** [Error] if the file cannot be read or does not parse. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] otherwise. *)

val to_float : t -> float option
(** The number in a [Num]; [None] otherwise. *)
