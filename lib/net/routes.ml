type t = {
  parent : int array;
  depth : int array;
  nodes : int array;
  prevs : int array;
  skips : int array;
  pos : int array;
}

let create tree =
  let n = Tree.n_nodes tree in
  let parent = Array.init n (Tree.parent tree) in
  let nodes = Array.make n 0 in
  let skips = Array.make n 0 in
  let pos = Array.make n 0 in
  let idx = ref 0 in
  let rec visit v =
    let i = !idx in
    incr idx;
    nodes.(i) <- v;
    pos.(v) <- i;
    List.iter visit (Tree.children tree v);
    skips.(i) <- !idx - i
  in
  visit 0;
  {
    parent;
    depth = Array.init n (Tree.depth tree);
    nodes;
    prevs = Array.map (fun v -> parent.(v)) nodes;
    skips;
    pos;
  }

let subtree_size t v = t.skips.(t.pos.(v))

(* A child's subtree follows its previous sibling's, so the children
   are the entries reached by hopping whole subtrees from [v]'s first. *)
let children t v =
  let stop = t.pos.(v) + subtree_size t v in
  let rec collect i acc =
    if i >= stop then List.rev acc else collect (i + t.skips.(i)) (t.nodes.(i) :: acc)
  in
  Array.of_list (collect (t.pos.(v) + 1) [])

let neighbors t v = if v = 0 then children t v else Array.append [| t.parent.(v) |] (children t v)
