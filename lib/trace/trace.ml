type t = {
  name : string;
  tree : Net.Tree.t;
  period : float;
  n_packets : int;
  loss : Bitset.t array; (* empty when [streaming] *)
  streaming : bool;
  node_to_index : (int, int) Hashtbl.t;
}

let index_receivers tree =
  let node_to_index = Hashtbl.create 16 in
  Array.iteri (fun i node -> Hashtbl.replace node_to_index node i) (Net.Tree.receivers tree);
  node_to_index

let create ~name ~tree ~period ~n_packets ~loss =
  let receivers = Net.Tree.receivers tree in
  if Array.length loss <> Array.length receivers then
    invalid_arg "Trace.create: one loss bitset per receiver required";
  Array.iter
    (fun b -> if Bitset.length b <> n_packets then invalid_arg "Trace.create: bitset length")
    loss;
  if period <= 0. then invalid_arg "Trace.create: period must be positive";
  { name; tree; period; n_packets; loss; streaming = false; node_to_index = index_receivers tree }

(* A streaming trace carries the topology and schedule but no
   materialized loss matrix — per-receiver bits never exist; losses
   are produced lazily by a [Stream_loss.t] driving the network's drop
   predicate. Anything asking for materialized bits raises. *)
let create_streaming ~name ~tree ~period ~n_packets =
  if period <= 0. then invalid_arg "Trace.create_streaming: period must be positive";
  { name; tree; period; n_packets; loss = [||]; streaming = true; node_to_index = index_receivers tree }

let streaming t = t.streaming

let require_bits t fn =
  if t.streaming then invalid_arg (fn ^ ": streaming trace has no materialized loss")

let name t = t.name

let tree t = t.tree

let period t = t.period

let n_packets t = t.n_packets

let n_receivers t = Array.length (Net.Tree.receivers t.tree)

let receiver_nodes t = Net.Tree.receivers t.tree

let receiver_index t ~node =
  match Hashtbl.find_opt t.node_to_index node with
  | Some i -> i
  | None -> raise Not_found

let lost t ~rcvr ~seq =
  require_bits t "Trace.lost";
  Bitset.get t.loss.(rcvr) (seq - 1)

let lost_node t ~node ~seq = lost t ~rcvr:(receiver_index t ~node) ~seq

let loss_bits t ~rcvr =
  require_bits t "Trace.loss_bits";
  t.loss.(rcvr)

let total_losses t = Array.fold_left (fun acc b -> acc + Bitset.count b) 0 t.loss

let loss_pattern t ~seq =
  let pat = ref [] in
  for r = n_receivers t - 1 downto 0 do
    if lost t ~rcvr:r ~seq then pat := r :: !pat
  done;
  !pat

let lossy_packets t =
  let acc = ref [] in
  for seq = t.n_packets downto 1 do
    let rec any r = r < n_receivers t && (lost t ~rcvr:r ~seq || any (r + 1)) in
    if any 0 then acc := seq :: !acc
  done;
  !acc

let truncate t n =
  require_bits t "Trace.truncate";
  if n >= t.n_packets then t
  else begin
    let clip b =
      let nb = Bitset.create n in
      for i = 0 to n - 1 do
        if Bitset.get b i then Bitset.set nb i
      done;
      nb
    in
    create ~name:t.name ~tree:t.tree ~period:t.period ~n_packets:n ~loss:(Array.map clip t.loss)
  end

let summary t =
  if t.streaming then
    Printf.sprintf "%s: %d receivers, depth %d, %d packets, streaming loss" t.name
      (n_receivers t) (Net.Tree.height t.tree) t.n_packets
  else
    Printf.sprintf "%s: %d receivers, depth %d, %d packets, %d losses (%.2f%%)" t.name
      (n_receivers t) (Net.Tree.height t.tree) t.n_packets (total_losses t)
      (100. *. float_of_int (total_losses t)
      /. (float_of_int t.n_packets *. float_of_int (n_receivers t)))
