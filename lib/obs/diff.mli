(** Run-to-run regression diffing over metric / bench JSON files.

    Both documents are flattened to ["a/b/c"]-style paths at their
    numeric leaves (arrays of named objects — e.g. the scale report's
    legs — are keyed by their ["name"] field, other array elements by
    index) and compared pairwise. Nothing under an object member named
    ["machine"] or ["meta"] is compared: those hold the machine-dependent
    numbers (wall time, allocation, events/sec) and the run's own
    parameters, which stay in the document without ever gating a
    diff. A pair is {e flagged}
    when its absolute delta exceeds [abs] {b and} its delta relative
    to the baseline exceeds [rel]; paths present on only one side are
    always flagged. The comparison is direction-agnostic — the report
    shows signed deltas and the caller decides which direction is the
    regression. *)

type thresholds = { rel : float; abs : float }

val default_thresholds : thresholds
(** [rel = 0.10] (10%), [abs = 1e-9]. *)

type entry = {
  path : string;
  base : float option;  (** [None]: the path is new in [current] *)
  current : float option;  (** [None]: the path disappeared *)
  delta : float;  (** [current - base]; NaN when either side is missing *)
  ratio : float;  (** [delta / max(|base|, abs)]; NaN when missing *)
  flagged : bool;
}

val flatten : Json.t -> (string * float) list
(** The compared numeric leaves (none under ["machine"] or ["meta"]),
    in document order. *)

val diff : ?thresholds:thresholds -> base:Json.t -> current:Json.t -> unit -> entry list
(** All compared paths in name order, flagged or not. *)

val flagged : entry list -> entry list

val render : ?only_flagged:bool -> entry list -> string
(** A text table (path, base, current, delta, relative delta) followed
    by a one-line summary; with [only_flagged] (default true) only
    flagged rows are listed. *)
