(* Tests for CESRM: the requestor/replier cache, its retention schemes
   and pair choice, the expedited recovery scheme, fallback behaviour,
   and the router-assisted variant. *)

let check = Alcotest.check

let qcheck = QCheck_alcotest.to_alcotest

let entry ?(seq = 1) ?(requestor = 1) ?(d_qs = 0.1) ?(replier = 2) ?(d_rq = 0.05) ?tp () =
  { Cesrm.Cache.seq; requestor; d_qs; replier; d_rq; turning_point = tp }

let everyone (_ : int) = true

(* [Cesrm.Cache.choose] as an option; by default every replier is live. *)
let choose ?now ?local ?(live = everyone) c =
  match Cesrm.Cache.choose ?now ?local ~live c with e -> Some e | exception Not_found -> None

(* --- Cache ------------------------------------------------------------- *)

let test_cache_insert_and_recency () =
  let c = Cesrm.Cache.create ~capacity:3 () in
  check Alcotest.int "empty" 0 (Cesrm.Cache.size c);
  check Alcotest.bool "no pair" true (choose c = None);
  ignore (Cesrm.Cache.note_reply c (entry ~seq:5 ()));
  ignore (Cesrm.Cache.note_reply c (entry ~seq:9 ()));
  ignore (Cesrm.Cache.note_reply c (entry ~seq:7 ()));
  check Alcotest.int "size" 3 (Cesrm.Cache.size c);
  check Alcotest.(option int) "most recent is highest seq" (Some 9)
    (Option.map (fun (e : Cesrm.Cache.entry) -> e.seq) (choose c))

let test_cache_eviction () =
  let c = Cesrm.Cache.create ~capacity:2 () in
  ignore (Cesrm.Cache.note_reply c (entry ~seq:5 ()));
  ignore (Cesrm.Cache.note_reply c (entry ~seq:9 ()));
  check Alcotest.bool "full insert evicts least recent" true
    (Cesrm.Cache.note_reply c (entry ~seq:7 ()) = `Inserted);
  check Alcotest.bool "5 evicted" true (Cesrm.Cache.find c ~seq:5 = None);
  check Alcotest.bool "stale packet ignored when full" true
    (Cesrm.Cache.note_reply c (entry ~seq:3 ()) = `Ignored);
  check Alcotest.int "size stays at capacity" 2 (Cesrm.Cache.size c)

let test_cache_optimal_update () =
  let c = Cesrm.Cache.create ~capacity:4 () in
  ignore (Cesrm.Cache.note_reply c (entry ~seq:5 ~requestor:1 ~d_qs:0.1 ~d_rq:0.05 ()));
  (* Worse pair (larger d_qs + 2 d_rq) is ignored. *)
  check Alcotest.bool "worse ignored" true
    (Cesrm.Cache.note_reply c (entry ~seq:5 ~requestor:2 ~d_qs:0.2 ~d_rq:0.05 ()) = `Ignored);
  (* Better pair replaces. *)
  check Alcotest.bool "better updates" true
    (Cesrm.Cache.note_reply c (entry ~seq:5 ~requestor:3 ~d_qs:0.05 ~d_rq:0.01 ()) = `Updated);
  check Alcotest.(option int) "updated requestor" (Some 3)
    (Option.map
       (fun (e : Cesrm.Cache.entry) -> e.requestor)
       (Cesrm.Cache.find c ~seq:5))

let test_cache_recovery_delay () =
  check (Alcotest.float 1e-9) "d_qs + 2 d_rq" 0.2
    (Cesrm.Cache.recovery_delay (entry ~d_qs:0.1 ~d_rq:0.05 ()))

(* The paper's most-frequent pair is the hotspot ranking without decay:
   the score then counts digests. *)
let test_cache_most_frequent () =
  let c = Cesrm.Cache.create ~retention:(Cesrm.Retention.Hotspot infinity) ~capacity:8 () in
  ignore (Cesrm.Cache.note_reply c (entry ~seq:1 ~requestor:1 ~replier:2 ()));
  ignore (Cesrm.Cache.note_reply c (entry ~seq:2 ~requestor:3 ~replier:4 ()));
  ignore (Cesrm.Cache.note_reply c (entry ~seq:3 ~requestor:1 ~replier:2 ()));
  ignore (Cesrm.Cache.note_reply c (entry ~seq:4 ~requestor:1 ~replier:2 ()));
  check Alcotest.(option (pair int int)) "dominant pair" (Some (1, 2))
    (Option.map
       (fun (e : Cesrm.Cache.entry) -> (e.requestor, e.replier))
       (choose ~now:50. c));
  (* the representative tuple is the most recent one of that pair *)
  check Alcotest.(option int) "representative is most recent" (Some 4)
    (Option.map (fun (e : Cesrm.Cache.entry) -> e.seq) (choose ~now:50. c))

(* [Gc.minor_words] counts young allocation exactly (and, unboxed,
   allocates nothing itself). *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let replier_one r = r = 1

(* Prebuilt, as the host keeps its domain predicate: passing
   [~local:f] would allocate the [Some]. *)
let odd_domain = Some (fun r -> r land 1 = 1)

(* Under the default scheme a choice on a populated cache and a digest
   the cache ignores (a worse tuple for a cached seq, a stale seq on a
   full cache) walk the cells in place: nothing is allocated. *)
let test_recent_alloc () =
  let c = Cesrm.Cache.create ~capacity:16 () in
  for seq = 1 to 16 do
    ignore (Cesrm.Cache.note_reply c (entry ~seq ~replier:(seq mod 4) ()))
  done;
  let worse = entry ~seq:8 ~d_qs:1. () and stale = entry ~seq:0 () in
  check Alcotest.bool "worse tuple ignored" true (Cesrm.Cache.note_reply c worse = `Ignored);
  check Alcotest.bool "stale seq ignored" true (Cesrm.Cache.note_reply c stale = `Ignored);
  check Alcotest.(option int) "first live pair" (Some 13)
    (Option.map (fun (e : Cesrm.Cache.entry) -> e.seq) (choose ~live:replier_one c));
  let n = 10_000 in
  let choices () =
    for _ = 1 to n do
      ignore (Cesrm.Cache.choose ~live:replier_one c);
      ignore (Cesrm.Cache.choose ?local:odd_domain ~live:everyone c)
    done
  and digests () =
    for _ = 1 to n do
      ignore (Cesrm.Cache.note_reply c worse);
      ignore (Cesrm.Cache.note_reply c stale)
    done
  in
  let per_call f = (minor_words f -. minor_words ignore) /. float_of_int (2 * n) in
  let choice = per_call choices and digest = per_call digests in
  if choice > 0. then Alcotest.failf "a choice allocated %.1f words" choice;
  if digest > 0. then Alcotest.failf "an ignored digest allocated %.1f words" digest

let test_cache_validation () =
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Cache.create: capacity >= 1 required") (fun () ->
      ignore (Cesrm.Cache.create ~capacity:0 ()))

let prop_cache_bounded_and_sorted =
  QCheck.Test.make ~name:"cache: size bounded, entries sorted by recency" ~count:200
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(int_range 0 50) (int_range 1 100)))
    (fun (capacity, seqs) ->
      let c = Cesrm.Cache.create ~capacity () in
      List.iter (fun seq -> ignore (Cesrm.Cache.note_reply c (entry ~seq ()))) seqs;
      let es = Cesrm.Cache.entries c in
      Cesrm.Cache.size c <= capacity
      && List.sort (fun (a : Cesrm.Cache.entry) b -> compare b.seq a.seq) es = es)

(* --- Retention laws ----------------------------------------------------- *)

(* Random cache programs over a tiny op language. Virtual time is the
   op index scaled, so every op has a distinct, increasing timestamp —
   which makes the use-order and expiry laws exact. *)
type cache_op = Op_note of int * int | Op_touch of int

let ops_gen =
  QCheck.Gen.(
    list_size (int_range 0 60)
      (map2
         (fun is_note seq -> if is_note then Op_note (seq, seq mod 5) else Op_touch seq)
         bool (int_range 1 20)))

let ops_arb = QCheck.make ~print:(fun _ -> "<ops>") ops_gen

let op_time i = 0.1 *. float_of_int i

let run_ops c ops =
  List.iteri
    (fun i op ->
      let now = op_time i in
      match op with
      | Op_note (seq, pair) ->
          ignore
            (Cesrm.Cache.note_reply ~now c (entry ~seq ~requestor:(100 + pair) ~replier:(200 + pair) ()))
      | Op_touch seq -> Cesrm.Cache.touch ~now c ~seq)
    ops

let prop_lru_use_order =
  QCheck.Test.make ~name:"retention: LRU entries ordered by last use" ~count:300
    QCheck.(pair (int_range 1 6) ops_arb)
    (fun (capacity, ops) ->
      let c = Cesrm.Cache.create ~retention:Cesrm.Retention.Lru ~capacity () in
      (* Reference last-use times: a digest for a seq that stays or
         enters is a use; so is a touch of a present seq. Evicted seqs
         re-noted later just get a fresher time. *)
      let last_use = Hashtbl.create 16 in
      List.iteri
        (fun i op ->
          let now = op_time i in
          (match op with
          | Op_note (seq, pair) ->
              ignore
                (Cesrm.Cache.note_reply ~now c
                   (entry ~seq ~requestor:(100 + pair) ~replier:(200 + pair) ()));
              Hashtbl.replace last_use seq now
          | Op_touch seq ->
              if Cesrm.Cache.find c ~seq <> None then Hashtbl.replace last_use seq now;
              Cesrm.Cache.touch ~now c ~seq);
          ())
        ops;
      let seqs = List.map (fun (e : Cesrm.Cache.entry) -> e.seq) (Cesrm.Cache.entries c) in
      let uses = List.map (Hashtbl.find last_use) seqs in
      Cesrm.Cache.size c <= capacity
      && List.sort (fun a b -> compare b a) uses = uses)

let prop_hotspot_ordering =
  QCheck.Test.make ~name:"retention: hotspot order time-invariant, bump never demotes"
    ~count:300
    QCheck.(pair (int_range 1 6) ops_arb)
    (fun (capacity, ops) ->
      let c =
        Cesrm.Cache.create ~retention:(Cesrm.Retention.Hotspot 1.) ~capacity ()
      in
      run_ops c ops;
      let t1 = op_time (List.length ops) in
      let order_at now =
        List.map (fun (e : Cesrm.Cache.entry) -> e.seq) (Cesrm.Cache.entries ~now c)
      in
      (* Pure time passage decays every pair by the same factor, so the
         ranking cannot move between bumps. *)
      let invariant = order_at t1 = order_at (t1 +. 7.9) in
      match Cesrm.Cache.entries ~now:t1 c with
      | [] -> invariant
      | es ->
          (* Re-digesting a cached tuple bumps its pair's score and
             changes nothing else, so its rank can only improve. *)
          let victim = List.nth es (List.length es - 1) in
          let rank seq l =
            let rec go i = function
              | [] -> max_int
              | (e : Cesrm.Cache.entry) :: tl -> if e.seq = seq then i else go (i + 1) tl
            in
            go 0 l
          in
          let before = rank victim.seq es in
          ignore (Cesrm.Cache.note_reply ~now:(t1 +. 0.05) c victim);
          let after = rank victim.seq (Cesrm.Cache.entries ~now:(t1 +. 0.05) c) in
          invariant && after <= before)

let test_retention_names () =
  List.iter
    (fun n ->
      match Cesrm.Retention.of_name n with
      | None -> Alcotest.failf "%S must parse" n
      | Some r -> check Alcotest.string "canonical" n (Cesrm.Retention.name r))
    ([ "recent"; "recent:1"; "lru"; "lru:4"; "hotspot"; "hotspot=0.5"; "hotspot=0.5:8";
       "hotspot=inf"; "hotspot=inf:4" ]
    @ Cesrm.Retention.all_names);
  check Alcotest.bool "hotspot=inf never decays" true
    (Cesrm.Retention.of_name "hotspot=inf"
    = Some { Cesrm.Retention.scheme = Cesrm.Retention.Hotspot infinity; capacity = None });
  check Alcotest.bool "default is default" true
    (Cesrm.Retention.is_default Cesrm.Retention.default);
  check Alcotest.bool "capacity override is not default" false
    (Cesrm.Retention.is_default { Cesrm.Retention.default with capacity = Some 1 });
  List.iter
    (fun bad -> check Alcotest.bool bad true (Cesrm.Retention.of_name bad = None))
    [ ""; "nope"; "recent:0"; "recent:-1"; "recent=1"; "lru=2"; "ttl"; "hotspot=0";
      "hotspot=x"; "hotspot=-1"; "lru:" ]

(* Reference implementation of the seed retention algorithm (a bare
   sorted assoc list), run in lockstep with the default cache on random
   note programs — the differential law pinning the refactor. *)
let prop_default_matches_reference =
  let note_ref capacity entries (e : Cesrm.Cache.entry) =
    match List.find_opt (fun (x : Cesrm.Cache.entry) -> x.seq = e.seq) entries with
    | Some existing ->
        if Cesrm.Cache.recovery_delay e < Cesrm.Cache.recovery_delay existing then
          ( List.map (fun (x : Cesrm.Cache.entry) -> if x.seq = e.seq then e else x) entries,
            `Updated )
        else (entries, `Ignored)
    | None ->
        let full = List.length entries >= capacity in
        let least =
          List.fold_left (fun acc (x : Cesrm.Cache.entry) -> min acc x.seq) max_int entries
        in
        if full && e.seq < least then (entries, `Ignored)
        else
          let kept =
            if full then List.filter (fun (x : Cesrm.Cache.entry) -> x.seq <> least) entries
            else entries
          in
          ( List.sort (fun (a : Cesrm.Cache.entry) b -> compare b.seq a.seq) (e :: kept),
            `Inserted )
  in
  QCheck.Test.make ~name:"retention: default scheme == seed reference (differential)"
    ~count:500
    QCheck.(
      pair (int_range 1 4)
        (list_of_size Gen.(int_range 0 50)
           (pair (int_range 1 12) (pair (int_range 1 9) (int_range 1 9)))))
    (fun (capacity, notes) ->
      let c = Cesrm.Cache.create ~capacity () in
      let reference = ref [] in
      List.for_all
        (fun (seq, (q, r)) ->
          let e = entry ~seq ~requestor:q ~d_qs:(float_of_int q /. 10.) ~replier:r
                    ~d_rq:(float_of_int r /. 100.) () in
          let verdict = Cesrm.Cache.note_reply c e in
          let reference', verdict' = note_ref capacity !reference e in
          reference := reference';
          verdict = verdict'
          && Cesrm.Cache.entries c = !reference
          && choose c = (match !reference with [] -> None | x :: _ -> Some x))
        notes)

(* --- Pair choice ------------------------------------------------------------ *)

let scheme_cache name ~capacity =
  let r = Option.get (Cesrm.Retention.of_name name) in
  Cesrm.Cache.create ~retention:r.Cesrm.Retention.scheme ~capacity ()

(* Each scheme's best-ranked pair: the highest seq under recent, the
   last used under lru, the hottest pair under hotspot and the most
   digested pair under hotspot=inf. *)
let test_policy_choices () =
  let requestor_of ?now c = Option.map (fun (e : Cesrm.Cache.entry) -> e.requestor) (choose ?now c) in
  let fill name =
    let c = scheme_cache name ~capacity:8 in
    check Alcotest.bool (name ^ ": empty cache yields nothing") true (choose c = None);
    ignore (Cesrm.Cache.note_reply ~now:1. c (entry ~seq:1 ~requestor:1 ~replier:2 ()));
    ignore (Cesrm.Cache.note_reply ~now:2. c (entry ~seq:2 ~requestor:1 ~replier:2 ()));
    ignore (Cesrm.Cache.note_reply ~now:3. c (entry ~seq:3 ~requestor:5 ~replier:6 ()));
    c
  in
  check Alcotest.(option int) "recent picks seq 3" (Some 5) (requestor_of (fill "recent"));
  let lru = fill "lru" in
  check Alcotest.(option int) "lru picks the last digest" (Some 5) (requestor_of lru);
  Cesrm.Cache.touch ~now:4. lru ~seq:1;
  check Alcotest.(option int) "lru picks the last use" (Some 1) (requestor_of lru);
  check Alcotest.(option int) "hotspot=inf picks the most frequent pair" (Some 1)
    (requestor_of ~now:3. (fill "hotspot=inf"));
  (* With a 0.1 s half-life the pair (1, 2) has decayed below the
     fresh (5, 6) by t = 3 s. *)
  check Alcotest.(option int) "hotspot picks the hottest pair" (Some 5)
    (requestor_of ~now:3. (fill "hotspot=0.1"))

(* The choice is the ranking's first live entry, or with [local] its
   first live local entry ahead of the first live one, under every
   scheme and on any digest/use history. *)
let prop_choice_first_live =
  QCheck.Test.make ~name:"choice: the ranking's first live (local) pair" ~count:300
    QCheck.(
      quad (int_range 0 3) (int_range 1 6) ops_arb (pair (int_range 0 31) (int_range 0 31)))
    (fun (scheme, capacity, ops, (dead_mask, local_mask)) ->
      let name = List.nth [ "recent"; "lru"; "hotspot"; "hotspot=inf" ] scheme in
      let c = scheme_cache name ~capacity in
      run_ops c ops;
      let now = op_time (List.length ops) in
      (* repliers are 200 + (seq mod 5) *)
      let bit mask replier = mask land (1 lsl (replier - 200)) <> 0 in
      let live r = not (bit dead_mask r) and local r = bit local_mask r in
      let ranked = Cesrm.Cache.entries ~now c in
      let first p = List.find_opt (fun (e : Cesrm.Cache.entry) -> p e.replier) ranked in
      let expected =
        match first (fun r -> live r && local r) with Some _ as e -> e | None -> first live
      in
      choose ~now ~live c = first live && choose ~now ~local ~live c = expected)

(* --- Host behaviour -------------------------------------------------------- *)

(* 0 - 1 - 3 (rcvr)
       \ 4 (rcvr)
     2 - 5 (rcvr)  *)
let sample_tree () = Net.Tree.of_parents [| -1; 0; 0; 1; 1; 2 |]

let run_cesrm ?(config = Cesrm.Host.default_config) ?(tree = sample_tree ()) ?(drops = [])
    ?(seed_cache = fun _ -> ()) ~n_packets () =
  let engine = Sim.Engine.create ~seed:77L () in
  let network = Net.Network.create ~engine ~tree ~link_delay:0.02 () in
  Net.Network.set_drop network (fun ~link ~down (p : Net.Packet.t) ->
      match p.payload with
      | Net.Packet.Data { seq } -> down && List.mem (seq, link) drops
      | _ -> false);
  let proto =
    Cesrm.Proto.deploy ~config ~network ~params:Srm.Params.default ~n_packets ~period:0.05 ()
  in
  seed_cache proto;
  Cesrm.Proto.start proto ~warmup:5.0 ~tail:15.0;
  Sim.Engine.run ~until:120.0 engine;
  proto

let test_repeat_loss_goes_expedited () =
  (* Receiver 3 loses packets 5 and then 20 on its own link. The first
     is repaired by SRM (populating the cache with requestor = 3); the
     second must be repaired expeditiously, and faster. *)
  let proto = run_cesrm ~drops:[ (5, 3); (20, 3) ] ~n_packets:30 () in
  let recs = Stats.Recovery.records (Cesrm.Proto.recoveries proto) in
  check Alcotest.int "two recoveries" 2 (List.length recs);
  let find seq = List.find (fun (r : Stats.Recovery.record) -> r.seq = seq) recs in
  let first = find 5 and second = find 20 in
  check Alcotest.bool "first is SRM" false first.expedited;
  check Alcotest.bool "second is expedited" true second.expedited;
  check Alcotest.bool "expedited is faster" true
    (Stats.Recovery.latency second < Stats.Recovery.latency first);
  check Alcotest.int "one expedited request" 1 (Cesrm.Proto.expedited_requests proto);
  check Alcotest.int "one expedited reply" 1 (Cesrm.Proto.expedited_replies proto)

let test_expedited_suppresses_srm_request () =
  let proto = run_cesrm ~drops:[ (5, 3); (20, 3) ] ~n_packets:30 () in
  (* The second loss recovers before receiver 3's SRM request timer
     (>= C1·d = 80 ms) fires, so only the first loss produced a
     multicast request. *)
  check Alcotest.int "single multicast request overall" 1
    (Stats.Counters.total (Cesrm.Proto.counters proto) Stats.Counters.Rqst)

let test_failed_expedited_falls_back () =
  (* Seed receiver 3's cache so it expedites to replier 4 — but the
     loss is shared with 4 (dropped on link 1), so the expedited
     request must fail and SRM must still repair everyone. *)
  let seed_cache proto =
    let host = Cesrm.Proto.host proto 3 in
    ignore
      (Cesrm.Cache.note_reply (Cesrm.Host.cache host)
         (entry ~seq:1 ~requestor:3 ~d_qs:0.04 ~replier:4 ~d_rq:0.04 ()))
  in
  let proto = run_cesrm ~drops:[ (8, 1) ] ~seed_cache ~n_packets:20 () in
  let recs = Stats.Recovery.records (Cesrm.Proto.recoveries proto) in
  check Alcotest.int "both sharers recovered" 2 (List.length recs);
  check Alcotest.bool "expedited request was sent" true
    (Cesrm.Proto.expedited_requests proto >= 1);
  check Alcotest.int "no expedited reply (replier shares loss)" 0
    (Cesrm.Proto.expedited_replies proto);
  List.iter
    (fun (r : Stats.Recovery.record) ->
      check Alcotest.bool "recovered via SRM" false r.expedited)
    recs

let test_only_cached_requestor_expedites () =
  (* Receiver 5's cache names 3 as the requestor; receiver 5 must not
     send an expedited request for its own loss. *)
  let seed_cache proto =
    let host = Cesrm.Proto.host proto 5 in
    ignore
      (Cesrm.Cache.note_reply (Cesrm.Host.cache host)
         (entry ~seq:1 ~requestor:3 ~d_qs:0.04 ~replier:0 ~d_rq:0.04 ()))
  in
  let proto = run_cesrm ~drops:[ (8, 5) ] ~seed_cache ~n_packets:20 () in
  check Alcotest.int "no expedited request" 0 (Cesrm.Proto.expedited_requests proto);
  check Alcotest.int "still recovered" 1
    (Stats.Recovery.count (Cesrm.Proto.recoveries proto))

let test_reorder_delay_cancels_expedited () =
  (* With a reorder delay far larger than SRM recovery, the expedited
     request is always cancelled by the packet's arrival. *)
  let config = { Cesrm.Host.default_config with reorder_delay = 5.0 } in
  let proto = run_cesrm ~config ~drops:[ (5, 3); (20, 3) ] ~n_packets:30 () in
  check Alcotest.int "expedited request cancelled" 0 (Cesrm.Proto.expedited_requests proto);
  check Alcotest.int "both recovered by SRM" 2
    (Stats.Recovery.count (Cesrm.Proto.recoveries proto))

let test_expedited_recovery_latency_bound () =
  (* Eq. (2): expedited latency <= REORDER_DELAY + RTT(q, r) + tx. *)
  let proto = run_cesrm ~drops:[ (5, 3); (20, 3) ] ~n_packets:30 () in
  let network = Cesrm.Proto.network proto in
  let r = List.find (fun (r : Stats.Recovery.record) -> r.expedited)
      (Stats.Recovery.records (Cesrm.Proto.recoveries proto)) in
  (* The replier is within the group, at most RTT(3, farthest). *)
  let worst_rtt =
    List.fold_left
      (fun acc (node, _) -> Float.max acc (Net.Network.rtt network 3 node))
      (Net.Network.rtt network 3 0)
      (Cesrm.Proto.members proto)
  in
  let tx_slack = 8. *. 8192. /. 1.5e6 in
  check Alcotest.bool "Eq.(2) bound" true
    (Stats.Recovery.latency r <= worst_rtt +. tx_slack)

let test_router_assist_reduces_exposure () =
  (* A deep branch whose receivers are closer to each other than to the
     source: the sibling wins the reply race, so the cached turning
     point sits below the root and subcast can shrink exposure.
     0 - 1 - 2 - {3,4 rcvr};  0 - 5 - {6,7 rcvr} *)
  let tree = Net.Tree.of_parents [| -1; 0; 1; 2; 2; 0; 5; 5 |] in
  let config = { Cesrm.Host.default_config with router_assist = true } in
  let plain = run_cesrm ~tree ~drops:[ (5, 3); (20, 3); (25, 3) ] ~n_packets:30 () in
  let assisted = run_cesrm ~tree ~config ~drops:[ (5, 3); (20, 3); (25, 3) ] ~n_packets:30 () in
  check Alcotest.int "assisted still recovers everything" 0
    (let detected =
       List.fold_left
         (fun acc (_, h) -> acc + Srm.Host.detected_losses (Cesrm.Host.srm h))
         0 (Cesrm.Proto.members assisted)
     in
     detected - Stats.Recovery.count (Cesrm.Proto.recoveries assisted));
  let exposure proto =
    Net.Cost.total_crossings (Net.Network.cost (Cesrm.Proto.network proto)) Net.Cost.Exp_reply
  in
  check Alcotest.bool "expedited replies happened in both" true
    (Cesrm.Proto.expedited_replies plain >= 1 && Cesrm.Proto.expedited_replies assisted >= 1);
  check Alcotest.bool "subcast exposure is smaller" true (exposure assisted < exposure plain)

(* --- churn-safe cache state (replier departures) ---------------------- *)

let test_invalidate_replier () =
  let engine = Sim.Engine.create ~seed:77L () in
  let network = Net.Network.create ~engine ~tree:(sample_tree ()) ~link_delay:0.02 () in
  let proto =
    Cesrm.Proto.deploy ~network ~params:Srm.Params.default ~n_packets:5 ~period:0.05 ()
  in
  let host = Cesrm.Proto.host proto 3 in
  let cache = Cesrm.Host.cache host in
  ignore (Cesrm.Cache.note_reply cache (entry ~seq:1 ~requestor:3 ~replier:4 ()));
  ignore (Cesrm.Cache.note_reply cache (entry ~seq:2 ~requestor:3 ~replier:5 ()));
  ignore (Cesrm.Cache.note_reply cache (entry ~seq:3 ~requestor:3 ~replier:4 ()));
  check Alcotest.int "nothing invalidated yet" 0 (Cesrm.Host.cache_invalidations host);
  Cesrm.Host.invalidate_replier host ~replier:4;
  check Alcotest.int "only the survivor's entry remains" 1 (Cesrm.Cache.size cache);
  check Alcotest.int "both departed-replier entries counted" 2
    (Cesrm.Host.cache_invalidations host);
  check Alcotest.bool "the departed replier is presumed dead" true
    (Cesrm.Host.replier_dead host ~replier:4);
  check Alcotest.bool "the survivor is not" false (Cesrm.Host.replier_dead host ~replier:5);
  (* idempotent: a second invalidation has nothing left to expire *)
  Cesrm.Host.invalidate_replier host ~replier:4;
  check Alcotest.int "no double counting" 2 (Cesrm.Host.cache_invalidations host);
  (* a reply heard from a rejoined replier revives it (the ordinary
     presumed-dead revival path) *)
  Cesrm.Host.revive_replier host ~replier:4;
  check Alcotest.bool "rejoin revives via a heard reply" false
    (Cesrm.Host.replier_dead host ~replier:4)

(* The SRM host's lifecycle drives the CESRM state layered on it: a
   caller that retires, forgets a peer on, or restarts the SRM host
   alone still sweeps, invalidates or empties the expedited state. *)
let test_srm_lifecycle_drives_cesrm () =
  let engine = Sim.Engine.create ~seed:77L () in
  let network = Net.Network.create ~engine ~tree:(sample_tree ()) ~link_delay:0.02 () in
  let proto =
    Cesrm.Proto.deploy ~network ~params:Srm.Params.default ~n_packets:5 ~period:0.05 ()
  in
  let host = Cesrm.Proto.host proto 3 in
  let srm = Cesrm.Host.srm host in
  let cache = Cesrm.Host.cache host in
  ignore (Cesrm.Cache.note_reply cache (entry ~seq:1 ~requestor:3 ~replier:5 ()));
  ignore (Cesrm.Cache.note_reply cache (entry ~seq:2 ~requestor:3 ~replier:4 ()));
  ignore (Cesrm.Cache.note_reply cache (entry ~seq:3 ~requestor:3 ~replier:5 ()));
  let outstanding () =
    let reg = Obs.Registry.create () in
    Cesrm.Host.publish_metrics host reg;
    Option.value ~default:0 (Obs.Registry.counter_value reg "cesrm/exp_outstanding_at_end")
  in
  (* Packet 5 lands with 1..4 missing: each loss is expedited to the
     most recent pair's replier, which does not have them either. *)
  Cesrm.Host.on_packet host { Net.Packet.sender = 0; payload = Net.Packet.Data { seq = 5 } };
  Sim.Engine.run ~until:0.01 engine;
  check Alcotest.int "four expedited recoveries outstanding" 4 (outstanding ());
  (* 1 and 2 become available without a delivery event, then retire. *)
  Srm.Host.note_sent srm ~seq:1;
  Srm.Host.note_sent srm ~seq:2;
  Srm.Host.retire_below srm ~upto:2;
  check Alcotest.int "retirement swept the retired packets' entries" 2 (outstanding ());
  Srm.Host.forget_peer srm 4;
  check Alcotest.int "the pair naming the departed peer is dropped" 2 (Cesrm.Cache.size cache);
  check Alcotest.bool "the departed peer is presumed dead" true
    (Cesrm.Host.replier_dead host ~replier:4);
  Srm.Host.restart_recovery srm;
  check Alcotest.int "a restart empties the cache" 0 (Cesrm.Cache.size cache);
  check Alcotest.int "and drops the outstanding recoveries" 0 (outstanding ())

let test_multi_source_streams () =
  (* Two concurrent streams — the root and receiver 5 both transmit —
     with losses in each; recovery state and caches are per source
     (paper Section 3.1). *)
  let tree = sample_tree () in
  let engine = Sim.Engine.create ~seed:77L () in
  let network = Net.Network.create ~engine ~tree ~link_delay:0.02 () in
  Net.Network.set_drop network (fun ~link ~down (p : Net.Packet.t) ->
      match (p.payload, p.sender) with
      | Net.Packet.Data { seq }, 0 -> down && link = 3 && (seq = 5 || seq = 20)
      (* receiver 5's stream climbs to the root before descending, so
         its packets also cross link 4 downward toward receiver 4 *)
      | Net.Packet.Data { seq }, 5 -> down && link = 4 && (seq = 7 || seq = 21)
      | _ -> false);
  let proto =
    Cesrm.Proto.deploy ~network ~params:Srm.Params.default ~n_packets:30 ~period:0.05 ()
  in
  Cesrm.Proto.start proto ~warmup:5.0 ~tail:15.0;
  Cesrm.Proto.add_stream proto ~src:5 ~n_packets:30 ~period:0.05 ~start_at:5.0;
  Sim.Engine.run ~until:120.0 engine;
  let recs = Stats.Recovery.records (Cesrm.Proto.recoveries proto) in
  let by_src src = List.filter (fun (r : Stats.Recovery.record) -> r.src = src) recs in
  check Alcotest.int "stream 0 losses recovered" 2 (List.length (by_src 0));
  check Alcotest.int "stream 5 losses recovered" 2 (List.length (by_src 5));
  (* The two caches on receiver 3 are independent objects. *)
  let host3 = Cesrm.Proto.host proto 3 in
  check Alcotest.bool "per-source caches are distinct" true
    (Cesrm.Host.cache ~src:0 host3 != Cesrm.Host.cache ~src:5 host3);
  (* Receiver 3 lost packets from stream 0; receiver 4 from stream 5.
     Their caches reflect only their own streams' recoveries. *)
  check Alcotest.bool "stream-0 cache populated on 3" true
    (Cesrm.Cache.size (Cesrm.Host.cache ~src:0 host3) > 0)

let test_multi_source_repeat_expedited () =
  (* Repeated losses within the second stream also go expedited. *)
  let tree = sample_tree () in
  let engine = Sim.Engine.create ~seed:78L () in
  let network = Net.Network.create ~engine ~tree ~link_delay:0.02 () in
  Net.Network.set_drop network (fun ~link ~down (p : Net.Packet.t) ->
      match (p.payload, p.sender) with
      | Net.Packet.Data { seq }, 5 -> down && link = 4 && (seq = 5 || seq = 20)
      | _ -> false);
  let proto =
    Cesrm.Proto.deploy ~network ~params:Srm.Params.default ~n_packets:30 ~period:0.05 ()
  in
  Cesrm.Proto.start proto ~warmup:5.0 ~tail:15.0;
  Cesrm.Proto.add_stream proto ~src:5 ~n_packets:30 ~period:0.05 ~start_at:5.0;
  Sim.Engine.run ~until:120.0 engine;
  let recs = Stats.Recovery.records (Cesrm.Proto.recoveries proto) in
  let second =
    List.find (fun (r : Stats.Recovery.record) -> r.src = 5 && r.seq = 20) recs
  in
  check Alcotest.bool "repeat loss in stream 5 expedited" true second.expedited

let test_cesrm_beats_srm_on_trace () =
  let gen = Mtrace.Generator.synthesize ~n_packets:1500 (Mtrace.Meta.nth 4) in
  let att = Harness.Runner.attribution_of_trace gen.trace in
  let srm = Harness.Runner.run_model Harness.Runner.Srm_protocol gen.trace (Harness.Runner.Attributed att) in
  let cesrm =
    Harness.Runner.run_model (Harness.Runner.Cesrm_protocol Cesrm.Host.default_config) gen.trace (Harness.Runner.Attributed att)
  in
  check Alcotest.int "srm complete" 0 srm.unrecovered;
  check Alcotest.int "cesrm complete" 0 cesrm.unrecovered;
  let mean res = Stats.Summary.mean (Stats.Recovery.latency_summary res.Harness.Runner.recoveries) in
  check Alcotest.bool "cesrm mean latency lower" true (mean cesrm < mean srm);
  check Alcotest.bool "cesrm sends fewer retransmissions" true
    (Net.Cost.retransmission_overhead cesrm.cost < Net.Cost.retransmission_overhead srm.cost)

let () =
  Alcotest.run "cesrm"
    [
      ( "cache",
        [
          Alcotest.test_case "insert and recency" `Quick test_cache_insert_and_recency;
          Alcotest.test_case "eviction" `Quick test_cache_eviction;
          Alcotest.test_case "optimal update" `Quick test_cache_optimal_update;
          Alcotest.test_case "recovery delay" `Quick test_cache_recovery_delay;
          Alcotest.test_case "most frequent" `Quick test_cache_most_frequent;
          Alcotest.test_case "validation" `Quick test_cache_validation;
          Alcotest.test_case "recent choice and ignored digest allocate nothing" `Quick
            test_recent_alloc;
          qcheck prop_cache_bounded_and_sorted;
        ] );
      ( "retention",
        [
          Alcotest.test_case "names round-trip" `Quick test_retention_names;
          qcheck prop_lru_use_order;
          qcheck prop_hotspot_ordering;
          qcheck prop_default_matches_reference;
        ] );
      ( "policy",
        [
          Alcotest.test_case "choices" `Quick test_policy_choices;
          qcheck prop_choice_first_live;
        ] );
      ( "host",
        [
          Alcotest.test_case "repeat loss goes expedited" `Quick test_repeat_loss_goes_expedited;
          Alcotest.test_case "expedited suppresses SRM" `Quick
            test_expedited_suppresses_srm_request;
          Alcotest.test_case "failed expedited falls back" `Quick test_failed_expedited_falls_back;
          Alcotest.test_case "only cached requestor expedites" `Quick
            test_only_cached_requestor_expedites;
          Alcotest.test_case "reorder delay cancels" `Quick test_reorder_delay_cancels_expedited;
          Alcotest.test_case "Eq.(2) latency bound" `Quick test_expedited_recovery_latency_bound;
          Alcotest.test_case "router assist exposure" `Quick test_router_assist_reduces_exposure;
        ] );
      ( "churn",
        [
          Alcotest.test_case "invalidate departed replier" `Quick test_invalidate_replier;
          Alcotest.test_case "SRM lifecycle drives CESRM state" `Quick
            test_srm_lifecycle_drives_cesrm;
        ] );
      ( "multi-source",
        [
          Alcotest.test_case "two streams" `Quick test_multi_source_streams;
          Alcotest.test_case "repeat expedited" `Quick test_multi_source_repeat_expedited;
        ] );
      ( "integration",
        [ Alcotest.test_case "cesrm beats srm" `Quick test_cesrm_beats_srm_on_trace ] );
    ]
