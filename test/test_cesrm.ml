(* Tests for CESRM: the requestor/replier cache, selection policies,
   the expedited recovery scheme, fallback behaviour, and the
   router-assisted variant. *)

let check = Alcotest.check

let qcheck = QCheck_alcotest.to_alcotest

let entry ?(seq = 1) ?(requestor = 1) ?(d_qs = 0.1) ?(replier = 2) ?(d_rq = 0.05) ?tp () =
  { Cesrm.Cache.seq; requestor; d_qs; replier; d_rq; turning_point = tp }

(* --- Cache ------------------------------------------------------------- *)

let test_cache_insert_and_recency () =
  let c = Cesrm.Cache.create ~capacity:3 () in
  check Alcotest.int "empty" 0 (Cesrm.Cache.size c);
  check Alcotest.bool "no most recent" true (Cesrm.Cache.most_recent c = None);
  ignore (Cesrm.Cache.note_reply c (entry ~seq:5 ()));
  ignore (Cesrm.Cache.note_reply c (entry ~seq:9 ()));
  ignore (Cesrm.Cache.note_reply c (entry ~seq:7 ()));
  check Alcotest.int "size" 3 (Cesrm.Cache.size c);
  check Alcotest.(option int) "most recent is highest seq" (Some 9)
    (Option.map (fun (e : Cesrm.Cache.entry) -> e.seq) (Cesrm.Cache.most_recent c))

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

let test_cache_most_frequent () =
  let c = Cesrm.Cache.create ~capacity:8 () in
  ignore (Cesrm.Cache.note_reply c (entry ~seq:1 ~requestor:1 ~replier:2 ()));
  ignore (Cesrm.Cache.note_reply c (entry ~seq:2 ~requestor:3 ~replier:4 ()));
  ignore (Cesrm.Cache.note_reply c (entry ~seq:3 ~requestor:1 ~replier:2 ()));
  ignore (Cesrm.Cache.note_reply c (entry ~seq:4 ~requestor:1 ~replier:2 ()));
  check Alcotest.(option (pair int int)) "dominant pair" (Some (1, 2))
    (Option.map
       (fun (e : Cesrm.Cache.entry) -> (e.requestor, e.replier))
       (Cesrm.Cache.most_frequent c));
  (* the representative tuple is the most recent one of that pair *)
  check Alcotest.(option int) "representative is most recent" (Some 4)
    (Option.map (fun (e : Cesrm.Cache.entry) -> e.seq) (Cesrm.Cache.most_frequent c))

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

let prop_ttl_expiry =
  QCheck.Test.make ~name:"retention: no TTL entry outlives the horizon" ~count:300
    QCheck.(triple (int_range 1 6) (int_range 1 40) (int_range 0 100))
    (fun (capacity, n, extra) ->
      let horizon = 1.5 in
      let c = Cesrm.Cache.create ~retention:(Cesrm.Retention.Ttl horizon) ~capacity () in
      (* Distinct seqs at distinct times, so each entry's age at the
         final lookup is exactly [t_final - its note time]. *)
      for i = 1 to n do
        ignore (Cesrm.Cache.note_reply ~now:(op_time i) c (entry ~seq:i ()))
      done;
      let t_final = op_time n +. (0.05 *. float_of_int extra) in
      let survivors = Cesrm.Cache.entries ~now:t_final c in
      List.for_all
        (fun (e : Cesrm.Cache.entry) -> t_final -. op_time e.seq <= horizon)
        survivors
      && Cesrm.Cache.expiries c + List.length survivors
         >= min n capacity - Cesrm.Cache.evictions c)

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
    ([ "recent"; "recent:1"; "lru"; "lru:4"; "ttl"; "ttl=2.5"; "ttl=2.5:8"; "hotspot";
       "hotspot=0.5" ]
    @ Cesrm.Retention.all_names);
  check Alcotest.bool "default is default" true
    (Cesrm.Retention.is_default Cesrm.Retention.default);
  check Alcotest.bool "capacity override is not default" false
    (Cesrm.Retention.is_default { Cesrm.Retention.default with capacity = Some 1 });
  List.iter
    (fun bad -> check Alcotest.bool bad true (Cesrm.Retention.of_name bad = None))
    [ ""; "nope"; "recent:0"; "recent:-1"; "ttl=0"; "ttl=x"; "hotspot=-1"; "lru:" ]

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
          && Cesrm.Cache.most_recent c
             = (match !reference with [] -> None | x :: _ -> Some x))
        notes)

(* --- Policy -------------------------------------------------------------- *)

let test_policy_names () =
  check Alcotest.int "four policies" 4 (List.length Cesrm.Policy.all);
  List.iter
    (fun p ->
      check Alcotest.bool "roundtrip" true (Cesrm.Policy.of_name (Cesrm.Policy.name p) = Some p))
    Cesrm.Policy.all;
  check Alcotest.bool "unknown name" true (Cesrm.Policy.of_name "nope" = None)

let test_policy_choices () =
  let c = Cesrm.Cache.create ~capacity:8 () in
  check Alcotest.bool "empty cache yields nothing" true
    (Cesrm.Policy.choose Cesrm.Policy.Most_recent c = None);
  ignore (Cesrm.Cache.note_reply c (entry ~seq:1 ~requestor:1 ~replier:2 ()));
  ignore (Cesrm.Cache.note_reply c (entry ~seq:2 ~requestor:1 ~replier:2 ()));
  ignore (Cesrm.Cache.note_reply c (entry ~seq:3 ~requestor:5 ~replier:6 ()));
  check Alcotest.(option int) "most recent picks seq 3" (Some 5)
    (Option.map
       (fun (e : Cesrm.Cache.entry) -> e.requestor)
       (Cesrm.Policy.choose Cesrm.Policy.Most_recent c));
  check Alcotest.(option int) "most frequent picks (1,2)" (Some 1)
    (Option.map
       (fun (e : Cesrm.Cache.entry) -> e.requestor)
       (Cesrm.Policy.choose Cesrm.Policy.Most_frequent c));
  check Alcotest.bool "hybrid picks something" true
    (Cesrm.Policy.choose Cesrm.Policy.Frequency_weighted_recent c <> None)

let test_policy_success_biased () =
  let c = Cesrm.Cache.create ~capacity:8 () in
  ignore (Cesrm.Cache.note_reply c (entry ~seq:1 ~requestor:1 ~replier:2 ()));
  ignore (Cesrm.Cache.note_reply c (entry ~seq:2 ~requestor:1 ~replier:9 ()));
  (* With the optimistic default score, recency wins: replier 9. *)
  check Alcotest.(option int) "optimistic = most recent" (Some 9)
    (Option.map
       (fun (e : Cesrm.Cache.entry) -> e.replier)
       (Cesrm.Policy.choose Cesrm.Policy.Success_biased c));
  (* When replier 9 has been failing, the policy skips to replier 2. *)
  let score ~replier = if replier = 9 then 0.1 else 1. in
  check Alcotest.(option int) "failing replier is skipped" (Some 2)
    (Option.map
       (fun (e : Cesrm.Cache.entry) -> e.replier)
       (Cesrm.Policy.choose ~score Cesrm.Policy.Success_biased c));
  (* When everyone fails, fall back to plain recency. *)
  let all_bad ~replier:_ = 0. in
  check Alcotest.(option int) "all failing -> most recent" (Some 9)
    (Option.map
       (fun (e : Cesrm.Cache.entry) -> e.replier)
       (Cesrm.Policy.choose ~score:all_bad Cesrm.Policy.Success_biased c))

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
          qcheck prop_cache_bounded_and_sorted;
        ] );
      ( "retention",
        [
          Alcotest.test_case "names round-trip" `Quick test_retention_names;
          qcheck prop_lru_use_order;
          qcheck prop_ttl_expiry;
          qcheck prop_hotspot_ordering;
          qcheck prop_default_matches_reference;
        ] );
      ( "policy",
        [
          Alcotest.test_case "names" `Quick test_policy_names;
          Alcotest.test_case "choices" `Quick test_policy_choices;
          Alcotest.test_case "success-biased" `Quick test_policy_success_biased;
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
        [ Alcotest.test_case "invalidate departed replier" `Quick test_invalidate_replier ] );
      ( "multi-source",
        [
          Alcotest.test_case "two streams" `Quick test_multi_source_streams;
          Alcotest.test_case "repeat expedited" `Quick test_multi_source_repeat_expedited;
        ] );
      ( "integration",
        [ Alcotest.test_case "cesrm beats srm" `Quick test_cesrm_beats_srm_on_trace ] );
    ]
