type kind = Rqst | Exp_rqst | Repl | Exp_repl | Sess

let kind_index = function
  | Rqst -> 0
  | Exp_rqst -> 1
  | Repl -> 2
  | Exp_repl -> 3
  | Sess -> 4

let all_kinds = [ Rqst; Exp_rqst; Repl; Exp_repl; Sess ]

let kind_name = function
  | Rqst -> "RQST"
  | Exp_rqst -> "ERQST"
  | Repl -> "REPL"
  | Exp_repl -> "EREPL"
  | Sess -> "SESS"

type t = int array array

let create ~n_nodes = Array.make_matrix n_nodes (List.length all_kinds) 0

let bump t ~node kind = t.(node).(kind_index kind) <- t.(node).(kind_index kind) + 1

let get t ~node kind = t.(node).(kind_index kind)

let total t kind = Array.fold_left (fun acc row -> acc + row.(kind_index kind)) 0 t

let n_nodes t = Array.length t

let merge a b =
  if Array.length a <> Array.length b then invalid_arg "Counters.merge: n_nodes mismatch";
  Array.init (Array.length a) (fun node -> Array.map2 ( + ) a.(node) b.(node))
