(* Tests for the stats library: summaries, vectors, recovery records,
   counters, table rendering. *)

let check = Alcotest.check

let qcheck = QCheck_alcotest.to_alcotest

(* --- Vec --------------------------------------------------------------- *)

let test_vec () =
  let v = Stats.Vec.create () in
  check Alcotest.int "empty" 0 (Stats.Vec.length v);
  for i = 1 to 100 do
    Stats.Vec.add v (float_of_int i)
  done;
  check Alcotest.int "length" 100 (Stats.Vec.length v);
  check (Alcotest.float 1e-9) "get" 37. (Stats.Vec.get v 36);
  check Alcotest.int "to_array" 100 (Array.length (Stats.Vec.to_array v));
  Alcotest.check_raises "bounds" (Invalid_argument "Vec.get") (fun () ->
      ignore (Stats.Vec.get v 100))

(* --- Summary ------------------------------------------------------------ *)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  check Alcotest.int "count" 0 (Stats.Summary.count s);
  check (Alcotest.float 1e-9) "mean 0" 0. (Stats.Summary.mean s);
  check (Alcotest.float 1e-9) "variance 0" 0. (Stats.Summary.variance s)

let test_summary_moments () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.Summary.mean s);
  check (Alcotest.float 1e-6) "sample variance" (32. /. 7.) (Stats.Summary.variance s);
  check (Alcotest.float 1e-9) "min" 2. (Stats.Summary.min s);
  check (Alcotest.float 1e-9) "max" 9. (Stats.Summary.max s);
  check (Alcotest.float 1e-9) "total" 40. (Stats.Summary.total s)

let test_summary_percentile () =
  let s = Stats.Summary.create () in
  for i = 1 to 101 do
    Stats.Summary.add s (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "median" 51. (Stats.Summary.percentile s 0.5);
  check (Alcotest.float 1e-9) "p0" 1. (Stats.Summary.percentile s 0.);
  check (Alcotest.float 1e-9) "p100" 101. (Stats.Summary.percentile s 1.0);
  (* Without retained samples, percentiles come from the histogram
     sketch: bounded relative error, exact at the extremes. *)
  let no_samples = Stats.Summary.create ~keep_samples:false () in
  for i = 1 to 101 do
    Stats.Summary.add no_samples (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "sketch p0 exact" 1. (Stats.Summary.percentile no_samples 0.);
  check (Alcotest.float 1e-9) "sketch p100 exact" 101.
    (Stats.Summary.percentile no_samples 1.0);
  let approx = Stats.Summary.percentile no_samples 0.5 in
  Alcotest.(check bool) "sketch median within bound" true (Float.abs (approx -. 51.) <= 51. /. 16.)

(* The sketch answers at the retained samples' rank, round(q (n-1)),
   not at its own nearest rank ceil(q n): with one outlier in 60
   samples, p99 is the bulk's value, not the outlier's. *)
let test_summary_sketch_rank () =
  let kept = Stats.Summary.create () and sketched = Stats.Summary.create ~keep_samples:false () in
  for i = 1 to 60 do
    let x = if i = 60 then 10. else 1. +. (float_of_int i /. 1000.) in
    Stats.Summary.add kept x;
    Stats.Summary.add sketched x
  done;
  List.iter
    (fun q ->
      let exact = Stats.Summary.percentile kept q in
      let approx = Stats.Summary.percentile sketched q in
      Alcotest.(check bool)
        (Printf.sprintf "p%g %.4f within the bucket bound of %.4f" (100. *. q) approx exact)
        true
        (Float.abs (approx -. exact) <= exact /. 16.))
    [ 0.01; 0.25; 0.5; 0.9; 0.99 ];
  check (Alcotest.float 1e-9) "rank n-1 is the exact max" 10.
    (Stats.Summary.percentile sketched 0.999)

let test_summary_percentile_edges () =
  (* Boundary behaviour pinned: empty -> nan, NaN q / out-of-range q ->
     Invalid_argument, single sample -> that sample for every q,
     duplicate-heavy input -> the duplicated value. *)
  let empty = Stats.Summary.create () in
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.Summary.percentile empty 0.5));
  let one = Stats.Summary.create () in
  Stats.Summary.add one 7.25;
  List.iter
    (fun q -> check (Alcotest.float 1e-9) "single sample" 7.25 (Stats.Summary.percentile one q))
    [ 0.; 0.25; 0.5; 0.99; 1. ];
  let dups = Stats.Summary.create () in
  for _ = 1 to 98 do
    Stats.Summary.add dups 3.
  done;
  Stats.Summary.add dups 1.;
  Stats.Summary.add dups 9.;
  check (Alcotest.float 1e-9) "duplicate-heavy median" 3. (Stats.Summary.percentile dups 0.5);
  check (Alcotest.float 1e-9) "duplicate-heavy p05" 3. (Stats.Summary.percentile dups 0.05);
  check (Alcotest.float 1e-9) "duplicate-heavy p0" 1. (Stats.Summary.percentile dups 0.);
  check (Alcotest.float 1e-9) "duplicate-heavy p100" 9. (Stats.Summary.percentile dups 1.);
  Alcotest.check_raises "nan q" (Invalid_argument "Summary.percentile: q is NaN") (fun () ->
      ignore (Stats.Summary.percentile dups Float.nan));
  Alcotest.check_raises "q out of range" (Invalid_argument "Summary.percentile: q in [0,1]")
    (fun () -> ignore (Stats.Summary.percentile dups 1.5))

let test_summary_merge () =
  let a = Stats.Summary.create () and b = Stats.Summary.create () in
  List.iter (Stats.Summary.add a) [ 1.; 2.; 3. ];
  List.iter (Stats.Summary.add b) [ 4.; 5. ];
  let m = Stats.Summary.merge a b in
  check Alcotest.int "count" 5 (Stats.Summary.count m);
  check (Alcotest.float 1e-9) "mean" 3. (Stats.Summary.mean m);
  (* moment-only merge *)
  let c = Stats.Summary.create ~keep_samples:false () in
  List.iter (Stats.Summary.add c) [ 4.; 5. ];
  let m2 = Stats.Summary.merge a c in
  check Alcotest.int "count moment merge" 5 (Stats.Summary.count m2);
  check (Alcotest.float 1e-9) "mean moment merge" 3. (Stats.Summary.mean m2)

let prop_summary_matches_naive =
  QCheck.Test.make ~name:"summary: streaming mean/var match naive" ~count:300
    QCheck.(list_of_size Gen.(int_range 2 50) (float_range (-100.) 100.))
    (fun xs ->
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.add s) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0. xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs /. (n -. 1.)
      in
      Float.abs (mean -. Stats.Summary.mean s) < 1e-6
      && Float.abs (var -. Stats.Summary.variance s) < 1e-5)

(* --- Recovery ------------------------------------------------------------ *)

let rec_record ?(node = 1) ?(seq = 1) ?(det = 0.) ?(rec_ = 1.) ?(expedited = false)
    ?(repaired = true) () =
  {
    Stats.Recovery.node;
    src = 0;
    seq;
    detected_at = det;
    recovered_at = rec_;
    rounds = 1;
    expedited;
    repaired;
  }

let test_recovery_collector () =
  let c = Stats.Recovery.create () in
  Stats.Recovery.add c (rec_record ~node:1 ~seq:1 ~det:0. ~rec_:2. ());
  Stats.Recovery.add c (rec_record ~node:2 ~seq:1 ~det:0. ~rec_:4. ~expedited:true ());
  Stats.Recovery.add c (rec_record ~node:1 ~seq:2 ~det:1. ~rec_:2. ());
  check Alcotest.int "count" 3 (Stats.Recovery.count c);
  check Alcotest.int "for_node" 2 (List.length (Stats.Recovery.for_node c 1));
  let s = Stats.Recovery.latency_summary c in
  check (Alcotest.float 1e-9) "mean latency" (7. /. 3.) (Stats.Summary.mean s);
  let exp_only =
    Stats.Recovery.latency_summary c ~filter:(fun r -> r.Stats.Recovery.expedited)
  in
  check Alcotest.int "filtered" 1 (Stats.Summary.count exp_only);
  let norm =
    Stats.Recovery.latency_summary c ~normalize:(fun _ -> 2.) ~filter:(fun r -> r.node = 1)
  in
  check (Alcotest.float 1e-9) "normalized" 0.75 (Stats.Summary.mean norm)

(* --- Counters -------------------------------------------------------------- *)

let test_counters () =
  let c = Stats.Counters.create ~n_nodes:4 in
  Stats.Counters.bump c ~node:2 Stats.Counters.Rqst;
  Stats.Counters.bump c ~node:2 Stats.Counters.Rqst;
  Stats.Counters.bump c ~node:3 Stats.Counters.Exp_repl;
  check Alcotest.int "get" 2 (Stats.Counters.get c ~node:2 Stats.Counters.Rqst);
  check Alcotest.int "other zero" 0 (Stats.Counters.get c ~node:1 Stats.Counters.Rqst);
  check Alcotest.int "total" 2 (Stats.Counters.total c Stats.Counters.Rqst);
  check Alcotest.int "erepl total" 1 (Stats.Counters.total c Stats.Counters.Exp_repl);
  check Alcotest.int "five kinds" 5 (List.length Stats.Counters.all_kinds)

let test_counters_merge () =
  let a = Stats.Counters.create ~n_nodes:3 and b = Stats.Counters.create ~n_nodes:3 in
  Stats.Counters.bump a ~node:1 Stats.Counters.Rqst;
  Stats.Counters.bump a ~node:2 Stats.Counters.Sess;
  Stats.Counters.bump b ~node:1 Stats.Counters.Rqst;
  Stats.Counters.bump b ~node:1 Stats.Counters.Repl;
  let m = Stats.Counters.merge a b in
  check Alcotest.int "per-node sum" 2 (Stats.Counters.get m ~node:1 Stats.Counters.Rqst);
  check Alcotest.int "one-sided" 1 (Stats.Counters.get m ~node:1 Stats.Counters.Repl);
  check Alcotest.int "sess kept" 1 (Stats.Counters.total m Stats.Counters.Sess);
  check Alcotest.int "n_nodes" 3 (Stats.Counters.n_nodes m);
  (* inputs untouched *)
  check Alcotest.int "a unchanged" 1 (Stats.Counters.total a Stats.Counters.Rqst);
  Alcotest.check_raises "shape mismatch" (Invalid_argument "Counters.merge: n_nodes mismatch")
    (fun () -> ignore (Stats.Counters.merge a (Stats.Counters.create ~n_nodes:2)))

(* --- Table ----------------------------------------------------------------- *)

let test_table_render () =
  let out =
    Stats.Table.render ~header:[ "name"; "value" ] ~rows:[ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  check Alcotest.bool "contains header" true
    (String.length out > 0
    &&
    let lines = String.split_on_char '\n' out in
    List.exists (fun l -> String.length l >= 4 && String.sub l 0 4 = "name") lines);
  (* all data rows aligned: the columns of 'value' line up *)
  let lines = String.split_on_char '\n' out in
  check Alcotest.int "line count (header + sep + 2 rows + trailing)" 5 (List.length lines)

let test_table_bar () =
  check Alcotest.string "full bar" "##########" (Stats.Table.bar ~width:10 ~max_value:1. 1.);
  check Alcotest.string "half bar" "#####" (Stats.Table.bar ~width:10 ~max_value:1. 0.5);
  check Alcotest.string "clamped" "##########" (Stats.Table.bar ~width:10 ~max_value:1. 7.);
  check Alcotest.string "zero" "" (Stats.Table.bar ~width:10 ~max_value:1. 0.)

let test_table_bar_chart () =
  let out =
    Stats.Table.bar_chart ~title:"demo" ~labels:[ "a"; "b" ]
      ~series:[ ("s1", [ 1.; 2. ]); ("s2", [ 2.; 1. ]) ]
      ()
  in
  check Alcotest.bool "mentions series" true
    (String.length out > 10
    && String.split_on_char '\n' out
       |> List.exists (fun l ->
              String.length l > 2
              && String.index_opt l '#' <> None))

let () =
  Alcotest.run "stats"
    [
      ("vec", [ Alcotest.test_case "basic" `Quick test_vec ]);
      ( "summary",
        [
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "moments" `Quick test_summary_moments;
          Alcotest.test_case "percentile" `Quick test_summary_percentile;
          Alcotest.test_case "percentile edges" `Quick test_summary_percentile_edges;
          Alcotest.test_case "merge" `Quick test_summary_merge;
          qcheck prop_summary_matches_naive;
          Alcotest.test_case "sketch percentile rank" `Quick test_summary_sketch_rank;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "collector" `Quick test_recovery_collector;
        ] );
      ( "counters",
        [
          Alcotest.test_case "basic" `Quick test_counters;
          Alcotest.test_case "merge" `Quick test_counters_merge;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "bar" `Quick test_table_bar;
          Alcotest.test_case "bar chart" `Quick test_table_bar_chart;
        ] );
    ]
