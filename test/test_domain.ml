(* Rdomain: hierarchical recovery-domain clustering invariants.

   The clustering is pure topology, so everything here is checked
   structurally: regions are connected rooted subtrees, member bounds
   hold, escalation chains terminate at the root domain, and the scope
   predicate is ancestry-closed inside the scope root's subtree — the
   property a scoped [Net.Network.subcast] relies on for O(1) pruning. *)

let check = Alcotest.check

(*      0
        |
        1
       / \
      2   5
     / \   \
    3   4   6
           / \
          7   8   *)
let sample_tree () = Net.Tree.of_parents [| -1; 0; 1; 2; 2; 1; 5; 6; 6 |]

let test_build_basic () =
  let tree = sample_tree () in
  let d = Rdomain.build ~tree ~members:[| 0; 3; 4; 7; 8 |] ~max_members:2 in
  check Alcotest.bool "several domains" true (Rdomain.n_domains d > 1);
  (* Every node is assigned, and each domain root's parent belongs to
     the parent domain. *)
  for v = 0 to Net.Tree.n_nodes tree - 1 do
    let dom = Rdomain.dom_of d v in
    check Alcotest.bool "dom id in range" true (dom >= 0 && dom < Rdomain.n_domains d);
    let root = Rdomain.root_of d dom in
    check Alcotest.int "root is in its own domain" dom (Rdomain.dom_of d root);
    if root <> 0 then
      check Alcotest.int "root's parent in parent domain" (Rdomain.parent_of d dom)
        (Rdomain.dom_of d (Net.Tree.parent tree root))
  done;
  (* The root domain holds the source and is its own replier's home. *)
  let root_dom = Rdomain.dom_of d 0 in
  check Alcotest.int "root domain level" 0 (Rdomain.level d root_dom);
  check Alcotest.int "root domain parent" (-1) (Rdomain.parent_of d root_dom);
  check Alcotest.int "root domain replier is the source" 0 (Rdomain.replier d root_dom)

let test_spec_members () =
  check Alcotest.int "auto small group" 8 (Rdomain.auto_members ~n_members:9);
  check Alcotest.int "auto 1024" 32 (Rdomain.auto_members ~n_members:1024);
  check Alcotest.int "auto resolves" 32 (Rdomain.spec_members ~n_members:1024 Rdomain.Auto);
  check Alcotest.int "explicit resolves" 5
    (Rdomain.spec_members ~n_members:1024 (Rdomain.Max_members 5))

let test_bad_args () =
  let tree = sample_tree () in
  Alcotest.check_raises "max_members 0" (Invalid_argument "Rdomain.build: max_members must be >= 1")
    (fun () -> ignore (Rdomain.build ~tree ~members:[| 0; 3 |] ~max_members:0))

(* Random topologies from the scale generator families. *)
let gen_tree =
  QCheck.Gen.(
    let* seed = int_range 1 100_000 in
    let* fam = int_range 0 2 in
    let* n_receivers = int_range 8 120 in
    let rng = Sim.Rng.create (Int64.of_int seed) in
    let tree =
      match fam with
      | 0 -> Mtrace.Topology_gen.bounded_fanout ~rng ~n_receivers ~fanout:4
      | 1 ->
          Mtrace.Topology_gen.star_of_stars ~rng ~n_receivers
            ~clusters:(max 2 (int_of_float (sqrt (float_of_int n_receivers))))
      | _ -> Mtrace.Topology_gen.deep_chain ~rng ~n_receivers
    in
    let* max_members = int_range 1 24 in
    return (tree, max_members))

let arb_tree =
  QCheck.make gen_tree ~print:(fun (tree, m) ->
      Printf.sprintf "tree(n=%d, height=%d), max_members=%d" (Net.Tree.n_nodes tree)
        (Net.Tree.height tree) m)

let prop_regions =
  QCheck.Test.make ~name:"rdomain: regions are bounded connected rooted subtrees" ~count:100
    arb_tree
    (fun (tree, max_members) ->
      let d = Rdomain.of_tree ~tree (Rdomain.Max_members max_members) in
      let n = Net.Tree.n_nodes tree in
      let ok = ref true in
      for v = 0 to n - 1 do
        let dom = Rdomain.dom_of d v in
        (* Walking parent-ward from any node stays inside its domain
           until the domain root — the region is a connected rooted
           subtree. *)
        let rec walk u =
          if u = Rdomain.root_of d dom then ()
          else begin
            if Rdomain.dom_of d u <> dom then ok := false;
            walk (Net.Tree.parent tree u)
          end
        in
        walk v
      done;
      (* Member bound, and domain sizes add up to the member count. *)
      let members = ref 0 in
      for dom = 0 to Rdomain.n_domains d - 1 do
        let size = Rdomain.size d dom in
        if size > max_members then ok := false;
        members := !members + size
      done;
      if !members <> 1 + Net.Tree.n_receivers tree then ok := false;
      !ok)

let prop_chain =
  QCheck.Test.make ~name:"rdomain: escalation chain climbs to the root domain" ~count:100
    arb_tree
    (fun (tree, max_members) ->
      let d = Rdomain.of_tree ~tree (Rdomain.Max_members max_members) in
      let ok = ref true in
      for dom = 0 to Rdomain.n_domains d - 1 do
        let lvl = Rdomain.level d dom in
        let parent = Rdomain.parent_of d dom in
        if dom = Rdomain.dom_of d 0 then begin
          if lvl <> 0 || parent <> -1 then ok := false
        end
        else if parent < 0 || Rdomain.level d parent <> lvl - 1 then ok := false;
        if Rdomain.max_level d ~dom <> lvl then ok := false;
        (* scope_domain walks the chain and clamps at the root domain. *)
        if Rdomain.scope_domain d ~dom ~level:lvl <> Rdomain.dom_of d 0 then ok := false;
        if Rdomain.scope_domain d ~dom ~level:(lvl + 5) <> Rdomain.dom_of d 0 then
          ok := false;
        if Rdomain.scope_domain d ~dom ~level:0 <> dom then ok := false
      done;
      !ok)

let prop_scope =
  QCheck.Test.make ~name:"rdomain: in_scope matches chain membership and is ancestry-closed"
    ~count:60 arb_tree
    (fun (tree, max_members) ->
      let d = Rdomain.of_tree ~tree (Rdomain.Max_members max_members) in
      let n = Net.Tree.n_nodes tree in
      let ok = ref true in
      for dom = 0 to Rdomain.n_domains d - 1 do
        for level = 0 to min 3 (Rdomain.max_level d ~dom) do
          (* Reference: the chain prefix as an explicit domain set. *)
          let chain = Array.make (Rdomain.n_domains d) false in
          let rec fill dm l =
            chain.(dm) <- true;
            if l > 0 && Rdomain.parent_of d dm >= 0 then fill (Rdomain.parent_of d dm) (l - 1)
          in
          fill dom level;
          let sroot = Rdomain.scope_root d ~dom ~level in
          for v = 0 to n - 1 do
            let expect = chain.(Rdomain.dom_of d v) in
            if Rdomain.in_scope d ~dom ~level v <> expect then ok := false;
            (* Ancestry closure inside the scope root's subtree: an
               in-scope node's parent is in scope too, until sroot. *)
            if expect && v <> sroot then
              if not (Rdomain.in_scope d ~dom ~level (Net.Tree.parent tree v)) then
                ok := false
          done
        done
      done;
      !ok)

let prop_repliers =
  QCheck.Test.make ~name:"rdomain: designated repliers are closest members, targets ascend"
    ~count:100 arb_tree
    (fun (tree, max_members) ->
      let d = Rdomain.of_tree ~tree (Rdomain.Max_members max_members) in
      let is_member v = v = 0 || Net.Tree.is_leaf tree v in
      let ok = ref true in
      for dom = 0 to Rdomain.n_domains d - 1 do
        let r = Rdomain.replier d dom in
        if Rdomain.dom_of d r <> dom || not (is_member r) then ok := false;
        if not (Rdomain.is_replier d r) then ok := false;
        (* No member of the domain sits strictly closer to the source. *)
        for v = 0 to Net.Tree.n_nodes tree - 1 do
          if
            is_member v
            && Rdomain.dom_of d v = dom
            && Net.Tree.depth tree v < Net.Tree.depth tree r
          then ok := false
        done
      done;
      (* A requestor never aims its timer at itself: the target skips
         up the chain, falling back to the source. *)
      for v = 0 to Net.Tree.n_nodes tree - 1 do
        if is_member v then
          for level = 0 to min 3 (Rdomain.max_level d ~dom:(Rdomain.dom_of d v)) do
            let tgt = Rdomain.request_target d ~node:v ~level in
            if tgt = v && v <> 0 then ok := false
          done
      done;
      !ok)

let () =
  Alcotest.run "domain"
    [
      ( "rdomain",
        [
          Alcotest.test_case "build basic" `Quick test_build_basic;
          Alcotest.test_case "spec members" `Quick test_spec_members;
          Alcotest.test_case "bad args" `Quick test_bad_args;
          QCheck_alcotest.to_alcotest prop_regions;
          QCheck_alcotest.to_alcotest prop_chain;
          QCheck_alcotest.to_alcotest prop_scope;
          QCheck_alcotest.to_alcotest prop_repliers;
        ] );
    ]
