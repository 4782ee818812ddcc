(* Bottom-up size-bounded clustering of the multicast tree into
   recovery domains. See the interface for the model; the invariants
   the recovery path relies on are established here:

   - every domain is a connected subtree region containing its root;
   - a node's path to its domain root stays inside the domain;
   - a domain root's parent node belongs to the parent domain;
   - the root domain contains node 0 (the source).

   Closing a domain assigns its root's entire still-unassigned subtree,
   and an assigned node's whole subtree is always already assigned, so
   the "skip assigned branches" pruning in [close_at] is exact. *)

type t = {
  max_members : int;
  dom_of : int array; (* node -> domain id *)
  roots : int array; (* domain -> root node *)
  parents : int array; (* domain -> parent domain; -1 for the root domain *)
  repliers : int array; (* domain -> designated replier node *)
  levels : int array; (* domain -> depth in the domain tree *)
  sizes : int array; (* domain -> member count *)
  chains : int array array; (* domain -> [| self; parent; ...; root domain |] *)
  replier_flags : bool array; (* node -> is some domain's designated replier *)
}

type spec = Auto | Max_members of int

let auto_members ~n_members = max 8 (int_of_float (sqrt (float_of_int (max 1 n_members))))

let spec_members ~n_members = function
  | Auto -> auto_members ~n_members
  | Max_members k -> k

let build ~tree ~members ~max_members =
  if max_members < 1 then invalid_arg "Rdomain.build: max_members must be >= 1";
  let n = Net.Tree.n_nodes tree in
  let is_member = Array.make n false in
  Array.iter
    (fun m ->
      if m < 0 || m >= n then invalid_arg "Rdomain.build: member id out of range";
      is_member.(m) <- true)
    members;
  let dom_of = Array.make n (-1) in
  let roots = ref [] and n_domains = ref 0 in
  let close_at v =
    let id = !n_domains in
    incr n_domains;
    roots := v :: !roots;
    let stack = ref [ v ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | u :: rest ->
          stack := rest;
          if dom_of.(u) = -1 then begin
            dom_of.(u) <- id;
            List.iter (fun c -> stack := c :: !stack) (Net.Tree.children tree u)
          end
    done
  in
  (* Deepest-first sweep (ties broken by id for determinism): when a
     node is visited, every child's open-region member count is final,
     so the node packs child regions into its own — smallest first,
     ties by id, so one oversized branch cannot starve the rest into
     singleton domains — and closes the ones that no longer fit. An
     open count therefore never exceeds [max_members - 1], and every
     closed domain holds at most [max_members] members: a child closes
     with its own open count, and the root domain closes with the
     final open accumulation at the source. *)
  let order = Array.init n (fun v -> v) in
  Array.sort
    (fun a b ->
      let da = Net.Tree.depth tree a and db = Net.Tree.depth tree b in
      if da <> db then compare db da else compare a b)
    order;
  let cnt = Array.make n 0 in
  Array.iter
    (fun v ->
      let acc = ref (if is_member.(v) then 1 else 0) in
      let opens = List.filter (fun c -> dom_of.(c) = -1) (Net.Tree.children tree v) in
      let opens =
        List.sort
          (fun a b -> if cnt.(a) <> cnt.(b) then compare cnt.(a) cnt.(b) else compare a b)
          opens
      in
      (* A memberless child region is free to absorb — closing it would
         mint a domain with no member to elect as replier. *)
      List.iter
        (fun c ->
          if cnt.(c) = 0 || !acc + cnt.(c) < max_members then acc := !acc + cnt.(c)
          else close_at c)
        opens;
      cnt.(v) <- !acc)
    order;
  (* Whatever remains open — always at least the source — is the root
     domain, closed at node 0 and numbered last. *)
  close_at 0;
  let nd = !n_domains in
  let roots = Array.of_list (List.rev !roots) in
  let parents =
    Array.map (fun r -> if r = 0 then -1 else dom_of.(Net.Tree.parent tree r)) roots
  in
  let levels = Array.make nd (-1) in
  let rec level_of d =
    if levels.(d) >= 0 then levels.(d)
    else begin
      let l = if parents.(d) = -1 then 0 else 1 + level_of parents.(d) in
      levels.(d) <- l;
      l
    end
  in
  for d = 0 to nd - 1 do
    ignore (level_of d)
  done;
  let chains =
    Array.init nd (fun d ->
        let c = Array.make (levels.(d) + 1) d in
        let cur = ref d in
        for i = 1 to levels.(d) do
          cur := parents.(!cur);
          c.(i) <- !cur
        done;
        c)
  in
  let sizes = Array.make nd 0 in
  let repliers = Array.make nd (-1) in
  let best_depth = Array.make nd max_int in
  Array.iter
    (fun m ->
      let d = dom_of.(m) in
      sizes.(d) <- sizes.(d) + 1;
      let dep = Net.Tree.depth tree m in
      if dep < best_depth.(d) || (dep = best_depth.(d) && m < repliers.(d)) then begin
        best_depth.(d) <- dep;
        repliers.(d) <- m
      end)
    members;
  (* A memberless domain cannot arise from closing (only regions with
     at least one member close) but guard the root domain anyway. *)
  Array.iteri (fun d r -> if r = -1 then repliers.(d) <- roots.(d)) repliers;
  let replier_flags = Array.make n false in
  Array.iter (fun r -> if r >= 0 && r < n then replier_flags.(r) <- true) repliers;
  { max_members; dom_of; roots; parents; repliers; levels; sizes; chains; replier_flags }

let of_tree ~tree spec =
  let members = Array.append [| 0 |] (Net.Tree.receivers tree) in
  build ~tree ~members
    ~max_members:(spec_members ~n_members:(Array.length members) spec)

let max_members t = t.max_members

let n_domains t = Array.length t.roots

let dom_of t v = t.dom_of.(v)

let root_of t d = t.roots.(d)

let parent_of t d = t.parents.(d)

let replier t d = t.repliers.(d)

let is_replier t v = t.replier_flags.(v)

let level t d = t.levels.(d)

let size t d = t.sizes.(d)

let max_level t ~dom = Array.length t.chains.(dom) - 1

let[@inline] clamp t ~dom level = min level (Array.length t.chains.(dom) - 1)

let scope_domain t ~dom ~level = t.chains.(dom).(clamp t ~dom level)

let scope_root t ~dom ~level = t.roots.(scope_domain t ~dom ~level)

(* A domain [d] lies on [dom]'s chain iff the chain entry at their
   level difference is [d] — O(1), no per-node chain scan. *)
let in_scope t ~dom ~level node =
  let lvl = clamp t ~dom level in
  let d = t.dom_of.(node) in
  let i = t.levels.(dom) - t.levels.(d) in
  i >= 0 && i <= lvl && t.chains.(dom).(i) = d

let request_target t ~node ~level =
  let dom = t.dom_of.(node) in
  let chain = t.chains.(dom) in
  let len = Array.length chain in
  let rec pick i =
    if i >= len then 0
    else
      let r = t.repliers.(chain.(i)) in
      if r <> node then r else pick (i + 1)
  in
  pick (clamp t ~dom level)
