(* The observability layer: histogram laws, JSON round-trips, diff
   threshold logic, the trace ring, and the guard that matters most —
   attaching a tracer + registry to a run leaves the protocol outcome
   bit-identical. *)

let check = Alcotest.check

let qcheck t = QCheck_alcotest.to_alcotest t

(* -- Hist ----------------------------------------------------------- *)

let test_hist_empty () =
  let h = Obs.Hist.create () in
  check Alcotest.int "count" 0 (Obs.Hist.count h);
  Alcotest.(check bool) "quantile nan" true (Float.is_nan (Obs.Hist.quantile h 0.5));
  Alcotest.check_raises "nan q" (Invalid_argument "Hist.quantile: q is NaN") (fun () ->
      ignore (Obs.Hist.quantile h Float.nan))

let test_hist_basic () =
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.add h) [ 0.010; 0.020; 0.040; 0.080; 0.160 ];
  check Alcotest.int "count" 5 (Obs.Hist.count h);
  check (Alcotest.float 1e-9) "min exact" 0.010 (Obs.Hist.min h);
  check (Alcotest.float 1e-9) "max exact" 0.160 (Obs.Hist.max h);
  check (Alcotest.float 1e-9) "q0 is min" 0.010 (Obs.Hist.quantile h 0.);
  check (Alcotest.float 1e-9) "q1 is max" 0.160 (Obs.Hist.quantile h 1.);
  (* median within the relative error bound *)
  Alcotest.(check bool) "median near 0.04" true
    (Float.abs (Obs.Hist.p50 h -. 0.040) <= 0.040 /. 16.);
  Obs.Hist.add h Float.nan;
  check Alcotest.int "nan separate" 1 (Obs.Hist.nan_count h);
  check Alcotest.int "nan not counted" 5 (Obs.Hist.count h)

let test_hist_zero_and_negative () =
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.add h) [ -1.; 0.; 2. ];
  check (Alcotest.float 1e-9) "min" (-1.) (Obs.Hist.min h);
  check (Alcotest.float 1e-9) "q0" (-1.) (Obs.Hist.quantile h 0.);
  check (Alcotest.float 1e-9) "q1" 2. (Obs.Hist.quantile h 1.)

let pos_values =
  (* positive, spanning many octaves but inside the covered range *)
  QCheck.(list_of_size Gen.(1 -- 60) (map (fun x -> Float.exp x) (float_range (-13.) 13.)))

let exact_quantile values q =
  (* the same nearest-rank definition Hist uses: rank ceil(q*n), 1-based *)
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if q <= 0. then a.(0)
  else if q >= 1. then a.(n - 1)
  else a.(Stdlib.max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let prop_hist_error_bound =
  QCheck.Test.make ~name:"hist quantile within relative error bound" ~count:200
    QCheck.(pair pos_values (float_range 0. 1.))
    (fun (values, q) ->
      let h = Obs.Hist.create () in
      List.iter (Obs.Hist.add h) values;
      let approx = Obs.Hist.quantile h q in
      let exact = exact_quantile values q in
      Float.abs (approx -. exact)
      <= (exact /. float_of_int (Obs.Hist.sub_buckets h)) +. 1e-12)

let prop_hist_monotone =
  QCheck.Test.make ~name:"hist quantiles monotone in q" ~count:200
    QCheck.(triple pos_values (float_range 0. 1.) (float_range 0. 1.))
    (fun (values, q1, q2) ->
      let h = Obs.Hist.create () in
      List.iter (Obs.Hist.add h) values;
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Obs.Hist.quantile h lo <= Obs.Hist.quantile h hi)

let prop_hist_merge_commutes =
  QCheck.Test.make ~name:"hist merge commutes" ~count:200
    QCheck.(pair pos_values pos_values)
    (fun (xs, ys) ->
      let mk vs =
        let h = Obs.Hist.create () in
        List.iter (Obs.Hist.add h) vs;
        h
      in
      let ab = Obs.Hist.merge (mk xs) (mk ys) and ba = Obs.Hist.merge (mk ys) (mk xs) in
      Obs.Hist.count ab = Obs.Hist.count ba
      && Obs.Hist.min ab = Obs.Hist.min ba
      && Obs.Hist.max ab = Obs.Hist.max ba
      && List.for_all
           (fun q -> Obs.Hist.quantile ab q = Obs.Hist.quantile ba q)
           [ 0.; 0.25; 0.5; 0.9; 0.99; 1. ])

(* The aggregation correctness backbone (lib/exp merges per-shard
   histograms): merge must form a commutative monoid with the empty
   histogram as identity, and the JSON transport form must reconstruct
   a histogram that is indistinguishable from the original. *)

let mk_hist vs =
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.add h) vs;
  h

let hist_json h = Obs.Json.to_string (Obs.Hist.to_json h)

let prop_hist_merge_identity =
  QCheck.Test.make ~name:"hist merge identity (empty)" ~count:200 pos_values (fun xs ->
      let h = mk_hist xs in
      hist_json (Obs.Hist.merge h (Obs.Hist.create ())) = hist_json h
      && hist_json (Obs.Hist.merge (Obs.Hist.create ()) h) = hist_json h)

let prop_hist_merge_assoc =
  QCheck.Test.make ~name:"hist merge associates" ~count:200
    QCheck.(triple pos_values pos_values pos_values)
    (fun (xs, ys, zs) ->
      let a = mk_hist xs and b = mk_hist ys and c = mk_hist zs in
      let l = Obs.Hist.merge (Obs.Hist.merge a b) c
      and r = Obs.Hist.merge a (Obs.Hist.merge b c) in
      (* Bucket counts, extrema and quantiles are exactly associative;
         the running sum is float addition, associative only up to
         rounding. *)
      Obs.Hist.count l = Obs.Hist.count r
      && Obs.Hist.min l = Obs.Hist.min r
      && Obs.Hist.max l = Obs.Hist.max r
      && Float.abs (Obs.Hist.sum l -. Obs.Hist.sum r) <= 1e-9 *. Float.abs (Obs.Hist.sum l)
      && List.for_all
           (fun q -> Obs.Hist.quantile l q = Obs.Hist.quantile r q)
           [ 0.; 0.25; 0.5; 0.9; 0.99; 1. ])

let test_hist_merge_mismatch () =
  let a = Obs.Hist.create ~sub_buckets:8 () and b = Obs.Hist.create ~sub_buckets:32 () in
  Alcotest.check_raises "sub_buckets mismatch"
    (Invalid_argument "Hist.merge: sub_buckets mismatch") (fun () ->
      ignore (Obs.Hist.merge a b))

(* -- Json ------------------------------------------------------------ *)

let test_json_roundtrip () =
  let doc =
    Obs.Json.(
      Obj
        [
          ("s", Str "a \"quoted\"\nline\twith \\ and unicode \xe2\x9c\x93");
          ("n", Num 0.1);
          ("i", int (-42));
          ("big", Num 1.7976931348623157e308);
          ("tiny", Num 5e-324);
          ("null", Null);
          ("bools", Arr [ Bool true; Bool false ]);
          ("nested", Obj [ ("empty_arr", Arr []); ("empty_obj", Obj []) ]);
        ])
  in
  match Obs.Json.parse (Obs.Json.to_string ~pretty:true doc) with
  | Error msg -> Alcotest.failf "reparse: %s" msg
  | Ok doc' -> Alcotest.(check bool) "round-trip" true (doc = doc')

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"\\x\""; "1 2"; "{\"a\" 1}" ]

let test_json_escapes () =
  match Obs.Json.parse {|{"u":"\u0041\u00e9","e":"\b\f\n\r\t\/\\\""}|} with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok doc ->
      (match Obs.Json.member "u" doc with
      | Some (Obs.Json.Str s) -> check Alcotest.string "unicode" "A\xc3\xa9" s
      | _ -> Alcotest.fail "u missing");
      (match Obs.Json.member "e" doc with
      | Some (Obs.Json.Str s) -> check Alcotest.string "escapes" "\b\012\n\r\t/\\\"" s
      | _ -> Alcotest.fail "e missing")

(* -- Registry + Report ----------------------------------------------- *)

let test_registry () =
  let r = Obs.Registry.create () in
  Alcotest.(check bool) "empty" true (Obs.Registry.is_empty r);
  Obs.Registry.incr r "a/count";
  Obs.Registry.incr ~by:4 r "a/count";
  check (Alcotest.option Alcotest.int) "counter" (Some 5) (Obs.Registry.counter_value r "a/count");
  Obs.Registry.add_gauge r "a/g" 1.5;
  Obs.Registry.add_gauge r "a/g" 1.0;
  check (Alcotest.option (Alcotest.float 1e-9)) "gauge" (Some 2.5) (Obs.Registry.gauge_value r "a/g");
  Obs.Registry.observe r "a/h" 0.25;
  check Alcotest.int "hist via name" 1 (Obs.Hist.count (Obs.Registry.hist r "a/h"));
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Obs.Registry: a/count is registered with another type") (fun () ->
      Obs.Registry.set_gauge r "a/count" 1.);
  (* report JSON carries all three kinds and reparses *)
  let json = Obs.Report.to_json ~meta:[ ("who", Obs.Json.Str "test") ] r in
  match Obs.Json.parse (Obs.Json.to_string json) with
  | Error msg -> Alcotest.failf "report reparse: %s" msg
  | Ok doc ->
      let flat = Obs.Diff.flatten doc in
      Alcotest.(check bool) "counter leaf" true (List.mem_assoc "metrics/a/count" flat);
      Alcotest.(check bool) "hist p50 leaf" true (List.mem_assoc "metrics/a/h/p50" flat)

(* -- Diff ------------------------------------------------------------- *)

let num_doc kvs = Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Num v)) kvs)

let test_diff_flags () =
  let base = num_doc [ ("a", 100.); ("b", 1.); ("gone", 3.) ] in
  let current = num_doc [ ("a", 125.); ("b", 1.05); ("new", 7.) ] in
  let entries = Obs.Diff.diff ~base ~current () in
  let flagged = List.map (fun e -> e.Obs.Diff.path) (Obs.Diff.flagged entries) in
  (* a: +25% beyond rel=10%; b: +5% within; gone/new always flagged *)
  Alcotest.(check (list string)) "flagged paths" [ "a"; "gone"; "new" ] flagged;
  let b = List.find (fun e -> e.Obs.Diff.path = "b") entries in
  Alcotest.(check bool) "b unflagged" false b.Obs.Diff.flagged;
  check (Alcotest.float 1e-9) "b delta" 0.05 b.Obs.Diff.delta

let test_diff_array_by_name () =
  let doc v =
    Obs.Json.(
      Obj
        [
          ( "sections",
            Arr
              [
                Obj [ ("name", Str "smoke"); ("wall_s", Num v) ];
                Obj [ ("name", Str "fig1"); ("wall_s", Num 2.) ];
              ] );
        ])
  in
  (* same entries, different order: still pairs up by name *)
  let reordered =
    Obs.Json.(
      Obj
        [
          ( "sections",
            Arr
              [
                Obj [ ("name", Str "fig1"); ("wall_s", Num 2.) ];
                Obj [ ("name", Str "smoke"); ("wall_s", Num 1.) ];
              ] );
        ])
  in
  Alcotest.(check (list string)) "reorder is a no-op" []
    (List.map
       (fun e -> e.Obs.Diff.path)
       (Obs.Diff.flagged (Obs.Diff.diff ~base:(doc 1.) ~current:reordered ())));
  let flagged = Obs.Diff.flagged (Obs.Diff.diff ~base:(doc 1.) ~current:(doc 2.) ()) in
  Alcotest.(check (list string)) "wall_s regression flagged" [ "sections/smoke/wall_s" ]
    (List.map (fun e -> e.Obs.Diff.path) flagged)

let test_diff_skips_machine_and_meta () =
  let doc ~wall ~packets ~detected =
    Obs.Json.(
      Obj
        [
          ("meta", Obj [ ("packets", Num packets) ]);
          ("machine", Obj [ ("total_wall_s", Num wall) ]);
          ( "legs",
            Arr
              [
                Obj
                  [
                    ("name", Str "srm");
                    ("detected", Num detected);
                    ("machine", Obj [ ("wall_s", Num wall) ]);
                  ];
              ] );
        ])
  in
  let thresholds = { Obs.Diff.rel = 0.; abs = 0. } in
  let base = doc ~wall:1. ~packets:200. ~detected:7. in
  let entries =
    Obs.Diff.diff ~thresholds ~base ~current:(doc ~wall:9. ~packets:300. ~detected:7.) ()
  in
  Alcotest.(check (list string)) "only the counter is compared" [ "legs/srm/detected" ]
    (List.map (fun e -> e.Obs.Diff.path) entries);
  Alcotest.(check (list string)) "nothing flagged" []
    (List.map (fun e -> e.Obs.Diff.path) (Obs.Diff.flagged entries));
  let flagged =
    Obs.Diff.flagged
      (Obs.Diff.diff ~thresholds ~base ~current:(doc ~wall:1. ~packets:200. ~detected:8.) ())
  in
  Alcotest.(check (list string)) "a counter change is flagged" [ "legs/srm/detected" ]
    (List.map (fun e -> e.Obs.Diff.path) flagged)

let prop_diff_threshold =
  (* flagged iff |delta| > abs AND |delta| / max(|base|, abs) > rel *)
  QCheck.Test.make ~name:"diff threshold logic" ~count:500
    QCheck.(triple (float_range (-100.) 100.) (float_range (-100.) 100.) (float_range 0.01 1.))
    (fun (bv, cv, rel) ->
      let thresholds = { Obs.Diff.rel; abs = 1e-6 } in
      let entries =
        Obs.Diff.diff ~thresholds ~base:(num_doc [ ("x", bv) ]) ~current:(num_doc [ ("x", cv) ]) ()
      in
      match entries with
      | [ e ] ->
          let delta = cv -. bv in
          let expect =
            Float.abs delta > 1e-6 && Float.abs (delta /. Float.max (Float.abs bv) 1e-6) > rel
          in
          e.Obs.Diff.flagged = expect
      | _ -> false)

(* -- Trace ring -------------------------------------------------------- *)

let test_trace_ring () =
  let t = Obs.Trace.create ~capacity:16 () in
  for i = 1 to 21 do
    Obs.Trace.record t ~at:(float_of_int i) ~node:1 ~stream:0 ~key:i Obs.Trace.Data_sent
  done;
  check Alcotest.int "recorded" 21 (Obs.Trace.recorded t);
  check Alcotest.int "length capped" 16 (Obs.Trace.length t);
  check Alcotest.int "dropped" 5 (Obs.Trace.dropped t);
  let first = ref None in
  Obs.Trace.iter t (fun ~at ~node:_ ~stream:_ ~key:_ _ ->
      if !first = None then first := Some at);
  check (Alcotest.option (Alcotest.float 1e-9)) "oldest survivor" (Some 6.) !first;
  Obs.Trace.set_enabled t false;
  Obs.Trace.record t ~at:99. ~node:1 ~stream:0 ~key:0 Obs.Trace.Data_sent;
  check Alcotest.int "disabled ignores" 21 (Obs.Trace.recorded t);
  Obs.Trace.clear t;
  check Alcotest.int "cleared" 0 (Obs.Trace.length t)

let test_trace_chrome_export () =
  let t = Obs.Trace.create () in
  let key = 7 in
  Obs.Trace.record t ~at:1.0 ~node:3 ~stream:0 ~key Obs.Trace.Loss_detected;
  Obs.Trace.record t ~at:1.25 ~node:3 ~stream:0 ~key Obs.Trace.Recovered_expedited;
  let doc = Obs.Trace.to_chrome_json t in
  (* reparse what export writes, then look for the reconstructed span *)
  match Obs.Json.parse (Obs.Json.to_string doc) with
  | Error msg -> Alcotest.failf "chrome json: %s" msg
  | Ok doc -> (
      match Obs.Json.member "traceEvents" doc with
      | Some (Obs.Json.Arr events) ->
          let span =
            List.find_opt
              (fun e ->
                Obs.Json.member "ph" e = Some (Obs.Json.Str "X")
                && Obs.Json.member "name" e = Some (Obs.Json.Str "recovery expedited"))
              events
          in
          (match span with
          | None -> Alcotest.fail "no recovery span"
          | Some e ->
              let dur = Option.bind (Obs.Json.member "dur" e) Obs.Json.to_float in
              check (Alcotest.option (Alcotest.float 1e-6)) "span dur us" (Some 250_000.) dur)
      | _ -> Alcotest.fail "no traceEvents")

(* -- determinism guard ------------------------------------------------- *)

let fingerprint (r : Harness.Runner.result) =
  let total k = Stats.Counters.total r.counters k in
  let lat_sum =
    List.fold_left
      (fun acc rec_ -> acc +. Stats.Recovery.latency rec_)
      0.
      (Stats.Recovery.records r.recoveries)
  in
  Printf.sprintf "rqst=%d exp_rqst=%d repl=%d exp_repl=%d detected=%d recoveries=%d lat_sum=%.17g"
    (total Stats.Counters.Rqst) (total Stats.Counters.Exp_rqst) (total Stats.Counters.Repl)
    (total Stats.Counters.Exp_repl) r.detected
    (Stats.Recovery.count r.recoveries)
    lat_sum

let test_tracing_is_observational () =
  let gen = Mtrace.Generator.synthesize ~n_packets:200 (Mtrace.Meta.nth 4) in
  let att = Harness.Runner.attribution_of_trace gen.trace in
  let proto = Harness.Runner.Cesrm_protocol Cesrm.Host.default_config in
  let plain = Harness.Runner.run_model proto gen.trace (Harness.Runner.Attributed att) in
  let tracer = Obs.Trace.create () in
  let registry = Obs.Registry.create () in
  let traced = Harness.Runner.run_model ~tracer ~registry proto gen.trace (Harness.Runner.Attributed att) in
  check Alcotest.string "fingerprints identical" (fingerprint plain) (fingerprint traced);
  Alcotest.(check bool) "trace non-empty" true (Obs.Trace.recorded tracer > 0);
  Alcotest.(check bool) "registry populated" false (Obs.Registry.is_empty registry);
  check (Alcotest.option Alcotest.int) "losses counted" (Some traced.detected)
    (Obs.Registry.counter_value registry "srm/losses_detected")

let () =
  Alcotest.run "obs"
    [
      ( "hist",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "basic" `Quick test_hist_basic;
          Alcotest.test_case "zero and negative" `Quick test_hist_zero_and_negative;
          Alcotest.test_case "merge mismatch" `Quick test_hist_merge_mismatch;
          qcheck prop_hist_error_bound;
          qcheck prop_hist_monotone;
          qcheck prop_hist_merge_commutes;
          qcheck prop_hist_merge_identity;
          qcheck prop_hist_merge_assoc;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
        ] );
      ("registry", [ Alcotest.test_case "counters gauges hists" `Quick test_registry ]);
      ( "diff",
        [
          Alcotest.test_case "flags" `Quick test_diff_flags;
          Alcotest.test_case "arrays by name" `Quick test_diff_array_by_name;
          Alcotest.test_case "machine and meta are never compared" `Quick
            test_diff_skips_machine_and_meta;
          qcheck prop_diff_threshold;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring" `Quick test_trace_ring;
          Alcotest.test_case "chrome export" `Quick test_trace_chrome_export;
        ] );
      ( "guard",
        [ Alcotest.test_case "tracing is observational" `Quick test_tracing_is_observational ] );
    ]
