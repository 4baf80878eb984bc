(* Unit tests for the benchmark's own helpers: order statistics, the
   tail-percentile rule, open-loop accounting, span self times, the
   JSON result schema, and the metric table against BENCHMARK.json
   (whose path is the first argument). *)

open Gistbench

let feq = Alcotest.float 1e-12

let quartiles () =
  (* Reference values: Python's statistics.quantiles(xs, n=4). *)
  let check xs (a, b, c) =
    let q1, q2, q3 = Summary.quartiles xs in
    Alcotest.check feq "q1" a q1;
    Alcotest.check feq "q2" b q2;
    Alcotest.check feq "q3" c q3
  in
  check [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] (2.75, 5.5, 8.25);
  check [ 3.5; 1.25; 9.0 ] (1.25, 3.5, 9.0);
  check [ 5.; 1.; 4.; 2.; 3. ] (1.5, 3.0, 4.5);
  check [ 2.0; 7.0 ] (0.75, 4.5, 8.25);
  check [ 4.0 ] (4.0, 4.0, 4.0)

let median () =
  Alcotest.check feq "odd" 3. (Summary.median [ 5.; 1.; 3. ]);
  Alcotest.check feq "even" 2.5 (Summary.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Summary.median: no samples") (fun () ->
      ignore (Summary.median []))

let tail_rule () =
  let pct n = Summary.tail_permille n in
  Alcotest.(check (option int)) "19 samples: none" None (pct 19);
  Alcotest.(check (option int)) "20 samples: p50" (Some 500) (pct 20);
  Alcotest.(check (option int)) "39 samples: p50" (Some 500) (pct 39);
  Alcotest.(check (option int)) "40 samples: p75" (Some 750) (pct 40);
  Alcotest.(check (option int)) "100 samples: p90" (Some 900) (pct 100);
  Alcotest.(check (option int)) "199 samples: p90" (Some 900) (pct 199);
  Alcotest.(check (option int)) "200 samples: p95" (Some 950) (pct 200);
  Alcotest.(check (option int)) "1000 samples: p99" (Some 990) (pct 1000);
  Alcotest.(check (option int)) "10000 samples: p99.9" (Some 999) (pct 10000);
  (* Every choice leaves at least ten samples strictly above its rank. *)
  for n = 20 to 3000 do
    match pct n with
    | None -> Alcotest.fail "no percentile at n >= 20"
    | Some p ->
      let a = Array.init n float_of_int in
      let v = Summary.nearest_rank a p in
      let beyond = Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 a in
      if beyond < 10 then Alcotest.failf "n=%d p=%d leaves %d beyond" n p beyond
  done;
  let s = Summary.summarize (List.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (option (float 0.))) "p90 of 1..100" (Some 90.) s.tail;
  Alcotest.(check (option (float 0.))) "tail_pct" (Some 90.) s.tail_pct;
  Alcotest.(check int) "n" 100 s.n

let openloop_schedule () =
  let start_ns = 1_000_000_000 and rate = 4.0 in
  Alcotest.(check int) "arrival 0 due at start" start_ns (Openloop.due_ns ~start_ns ~rate 0);
  Alcotest.(check int) "arrival 3" (start_ns + 750_000_000) (Openloop.due_ns ~start_ns ~rate 3);
  let due now_ns = Openloop.due_count ~start_ns ~rate ~total:10 ~now_ns in
  Alcotest.(check int) "before start" 0 (due (start_ns - 1));
  Alcotest.(check int) "at start" 1 (due start_ns);
  Alcotest.(check int) "just before the second" 1 (due (start_ns + 249_999_999));
  Alcotest.(check int) "exactly at the second" 2 (due (start_ns + 250_000_000));
  Alcotest.(check int) "capped at total" 10 (due (start_ns + 100_000_000_000))

let openloop_ledger () =
  let l = Openloop.ledger ~limit_s:1.0 in
  let s = 1_000_000_000 in
  (* Sent late: lateness is recorded, and the latency still runs from
     the due time, not from when the generator got round to it. *)
  Openloop.submitted l ~due_ns:0 ~sent_ns:(s / 2);
  Openloop.completed l ~due_ns:0 ~harvest_ns:(s * 3 / 4) ~ok:true;
  Openloop.submitted l ~due_ns:s ~sent_ns:s;
  Openloop.completed l ~due_ns:s ~harvest_ns:(s * 3) ~ok:true;
  Openloop.submitted l ~due_ns:(2 * s) ~sent_ns:(2 * s);
  Openloop.refused l;
  Openloop.submitted l ~due_ns:(3 * s) ~sent_ns:(3 * s);
  Openloop.completed l ~due_ns:(3 * s) ~harvest_ns:(3 * s) ~ok:false;
  Openloop.submitted l ~due_ns:(4 * s) ~sent_ns:(4 * s);
  Openloop.coalesced l;
  Alcotest.(check int) "attempted" 5 (Openloop.attempted l);
  Alcotest.(check (list (float 1e-9))) "ttd from due time" [ 0.75; 2.0 ] (Openloop.ttd_s l);
  Alcotest.(check int) "late" 1 (Openloop.late_count l);
  Alcotest.(check int) "failed" 1 (Openloop.failed_count l);
  Alcotest.(check int) "refused" 1 (Openloop.refused_count l);
  Alcotest.(check int) "coalesced" 1 (Openloop.coalesced_count l);
  Alcotest.check (Alcotest.float 1e-9) "generator lateness" 0.5 (Openloop.late_max_s l);
  (* late + refused + failed; a coalesced answer is not a miss *)
  Alcotest.check (Alcotest.float 1e-9) "miss ratio" 0.6 (Openloop.miss_ratio l)

let trace_self_times () =
  let tr = Trace.create () in
  let root = Trace.add tr ~name:"root" ~id:"a" ~parent:(-1) ~start_ns:0 ~stop_ns:100 in
  ignore (Trace.add tr ~name:"work" ~id:"a" ~parent:root ~start_ns:10 ~stop_ns:40);
  (* Two children that overlap, as pool tasks on two domains do: their
     union (50..90) is what the parent loses. *)
  let map = Trace.add tr ~name:"map" ~id:"a" ~parent:root ~start_ns:50 ~stop_ns:95 in
  ignore (Trace.add tr ~name:"task" ~id:"1" ~parent:map ~start_ns:50 ~stop_ns:80);
  ignore (Trace.add tr ~name:"task" ~id:"2" ~parent:map ~start_ns:60 ~stop_ns:90);
  let rows = Trace.by_name tr in
  let ns s = int_of_float (Float.round (s *. 1e9)) in
  let count, total, self = Trace.lookup rows "root" in
  Alcotest.(check (list int)) "root" [ 1; 100; 25 ] [ count; ns total; ns self ];
  let _, total, self = Trace.lookup rows "map" in
  Alcotest.(check (list int)) "map" [ 45; 5 ] [ ns total; ns self ];
  let count, total, self = Trace.lookup rows "task" in
  Alcotest.(check (list int)) "task" [ 2; 60; 60 ] [ count; ns total; ns self ];
  Alcotest.(check (list int)) "absent layer" [ 0 ] (let c, _, _ = Trace.lookup rows "none" in [ c ]);
  let nested = Trace.create () in
  let v = Trace.span nested ~name:"outer" ~id:"x" (fun () -> Trace.span nested ~name:"inner" ~id:"x" (fun () -> 7)) in
  Alcotest.(check int) "span returns" 7 v;
  Alcotest.(check int) "two spans" 2 (Trace.length nested);
  Alcotest.(check int) "closed" (-1) (Trace.current nested)

let json_roundtrip () =
  let v =
    Json.Object
      [ ("a", Json.Int 3); ("b", Json.Float 0.1); ("c", Json.List [ Json.Bool true; Json.Null ]);
        ("d", Json.String "q\"\\\n") ]
  in
  Alcotest.(check bool) "round trip" true (Json.parse (Json.to_string v) = Ok v);
  Alcotest.(check bool) "floats keep every digit" true
    (Json.parse (Json.to_string (Json.Float 0.30000000000000004)) = Ok (Json.Float 0.30000000000000004));
  Alcotest.(check bool) "trailing garbage" true (Result.is_error (Json.parse "{} x"));
  Alcotest.(check bool) "unterminated" true (Result.is_error (Json.parse "{\"a\":"))

let expected = [ ("latency_ms", "ms"); ("setup_s", "s") ]

let good =
  {|{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}, "setup_s": {"value": 0.8127, "unit": "s"}}}|}

let schema () =
  let ok s = Result.is_ok (Schema.check_result ~expected s) in
  Alcotest.(check bool) "valid line" true (ok good);
  Alcotest.(check bool) "emitted line" true
    (ok
       (Json.to_string
          (Schema.result_json ~correct:false ~attempted:3 ~failed:3
             [ ("latency_ms", 2.5, "ms"); ("setup_s", 1.0, "s") ])));
  let bad =
    [
      ("missing metric", {|{"correct": true, "attempted": 1, "failed": 0, "metrics": {"setup_s": {"value": 1, "unit": "s"}}}|});
      ("extra key", {|{"correct": true, "attempted": 1, "failed": 0, "extra": 1, "metrics": {"latency_ms": {"value": 1, "unit": "ms"}, "setup_s": {"value": 1, "unit": "s"}}}|});
      ("wrong unit", {|{"correct": true, "attempted": 1, "failed": 0, "metrics": {"latency_ms": {"value": 1, "unit": "s"}, "setup_s": {"value": 1, "unit": "s"}}}|});
      ("null value", {|{"correct": true, "attempted": 1, "failed": 0, "metrics": {"latency_ms": {"value": null, "unit": "ms"}, "setup_s": {"value": 1, "unit": "s"}}}|});
      ("nothing attempted", {|{"correct": true, "attempted": 0, "failed": 0, "metrics": {"latency_ms": {"value": 1, "unit": "ms"}, "setup_s": {"value": 1, "unit": "s"}}}|});
      ("failed above attempted", {|{"correct": true, "attempted": 1, "failed": 2, "metrics": {"latency_ms": {"value": 1, "unit": "ms"}, "setup_s": {"value": 1, "unit": "s"}}}|});
      ("fractional count", {|{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {"latency_ms": {"value": 1, "unit": "ms"}, "setup_s": {"value": 1, "unit": "s"}}}|});
      ("not json", "correct");
    ]
  in
  List.iter (fun (what, s) -> Alcotest.(check bool) what false (ok s)) bad;
  let s = Schema.summary_json ~unit_:"s" (Summary.summarize [ 1.; 2.; 3. ]) in
  Alcotest.(check bool) "summary" true (Result.is_ok (Schema.check_summary s));
  Alcotest.(check bool) "summary out of order" true
    (Result.is_error
       (Schema.check_summary
          (Json.Object
             [ ("median", Json.Float 1.); ("q1", Json.Float 2.); ("q3", Json.Float 3.);
               ("tail", Json.Null); ("tail_pct", Json.Null); ("n", Json.Int 3);
               ("unit", Json.String "s") ])))

(* The OCaml metric table and BENCHMARK.json must agree exactly. *)
let declared () =
  let path = Sys.argv.(1) in
  let text = In_channel.with_open_text path In_channel.input_all in
  let doc = match Json.parse text with Ok v -> v | Error e -> Alcotest.fail e in
  let metrics key =
    match Json.member key doc with
    | Some (Json.List l) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m, Json.member "better" m) with
          | Some (Json.String n), Some (Json.String u), Some (Json.String b) -> (n, u, b)
          | _ -> Alcotest.fail ("malformed metric in " ^ key))
        l
    | _ -> Alcotest.fail ("no " ^ key)
  in
  let ours l = List.map (fun (m : Decl.metric) -> (m.name, m.unit_, Decl.better_label m.better)) l in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end_to_end" (ours Decl.end_to_end) (metrics "end_to_end");
  Alcotest.check triple "per_layer" (ours Decl.per_layer) (metrics "per_layer");
  let workloads =
    match Json.member "workloads" doc with
    | Some (Json.List l) ->
      List.map (fun w -> match Json.member "name" w with Some (Json.String n) -> n | _ -> "") l
    | _ -> []
  in
  Alcotest.(check (list string)) "workloads" Decl.workloads workloads;
  (match Json.member "end_to_end" doc with
   | Some (Json.List l) ->
     let bound m = match Json.member "bound" m with Some (Json.Float b) -> b | _ -> nan in
     let setup = List.find (fun m -> Json.member "name" m = Some (Json.String "setup_s")) l in
     List.iter
       (fun m ->
         let b = bound m in
         if not (b > 0. && b <= 0.25 && b <= bound setup) then
           Alcotest.fail "bounds must lie in (0, 0.25], setup_s's the largest")
       l
   | _ -> ())

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "gistbench"
    [
      ( "summary",
        [
          Alcotest.test_case "quartiles match Python" `Quick quartiles;
          Alcotest.test_case "median" `Quick median;
          Alcotest.test_case "tail percentile rule" `Quick tail_rule;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "schedule" `Quick openloop_schedule;
          Alcotest.test_case "due-time latency and misses" `Quick openloop_ledger;
        ] );
      ("trace", [ Alcotest.test_case "self times" `Quick trace_self_times ]);
      ( "schema",
        [
          Alcotest.test_case "json round trip" `Quick json_roundtrip;
          Alcotest.test_case "result line" `Quick schema;
          Alcotest.test_case "declared metrics match BENCHMARK.json" `Quick declared;
        ] );
    ]
