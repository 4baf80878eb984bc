(* Intel PT simulator tests: the central property is the encode/decode
   round trip -- what the decoder reconstructs from the packet stream
   must equal what each thread actually executed while tracing was on. *)

open Tsupport.Programs
module I = Exec.Interp

(* Run [program] under full tracing and compare each thread's decoded
   sequence with the interpreter's ground truth. *)
let round_trip ?(args = []) ?(seed = 1) program =
  let counters = Exec.Cost.create () in
  let pt = Hw.Pt.create counters in
  let hooks = Instrument.Runtime.full_tracing_hooks ~pt in
  let res =
    Exec.Interp.run ~hooks ~counters ~record_gt:true program
      (I.workload ~args seed)
  in
  Hw.Pt.finish pt;
  (res, Tsupport.Decode.all pt program)

let check_round_trip ?(args = []) ?(seed = 1) name program =
  Alcotest.test_case name `Quick (fun () ->
      let res, decoded = round_trip ~args ~seed program in
      (match res.I.outcome with
       | I.Failed rep ->
         Alcotest.failf "program failed: %s" (Exec.Failure.report_to_string rep)
       | I.Success -> ());
      let truth = per_thread_executed res in
      List.iter
        (fun (tid, expected) ->
          match List.assoc_opt tid decoded with
          | None -> Alcotest.failf "no stream for thread %d" tid
          | Some (d : Hw.Pt.decoded) ->
            Alcotest.(check (list int))
              (Printf.sprintf "thread %d" tid)
              expected d.d_iids)
        truth)

let round_trips =
  [
    check_round_trip "straight-line code" ~args:[ Exec.Value.VInt 5 ] straight;
    check_round_trip "diamond, taken arm" ~args:[ Exec.Value.VInt 5 ] diamond;
    check_round_trip "diamond, fallthrough arm" ~args:[ Exec.Value.VInt (-5) ]
      diamond;
    check_round_trip "loop" ~args:[ Exec.Value.VInt 13 ] loop_sum;
    check_round_trip "calls and returns" ~args:[ Exec.Value.VInt 4 ] call_chain;
    check_round_trip "recursion" ~args:[ Exec.Value.VInt 7 ] factorial;
    check_round_trip "multithreaded (locked counter)"
      ~args:[ Exec.Value.VInt 4 ] (counter ~locked:true);
  ]

let qcheck_round_trip =
  QCheck.Test.make ~name:"round trip over random seeds and workloads"
    ~count:60
    QCheck.(pair (int_bound 5000) (int_range 1 5))
    (fun (seed, n) ->
      let program = counter ~locked:true in
      let res, decoded = round_trip ~args:[ Exec.Value.VInt n ] ~seed program in
      res.I.outcome = I.Success
      && List.for_all
           (fun (tid, expected) ->
             match List.assoc_opt tid decoded with
             | None -> expected = []
             | Some (d : Hw.Pt.decoded) -> d.d_iids = expected)
           (per_thread_executed res))

let branch_outcomes =
  Alcotest.test_case "decoded branch outcomes match ground truth" `Quick
    (fun () ->
      let outcomes = ref [] in
      let counters = Exec.Cost.create () in
      let pt = Hw.Pt.create counters in
      let hooks = Instrument.Runtime.full_tracing_hooks ~pt in
      let base_branch = hooks.branch in
      hooks.branch <-
        (fun ~tid ~instr ~taken ->
          outcomes := (instr.Ir.Types.iid, taken) :: !outcomes;
          base_branch ~tid ~instr ~taken);
      let _ =
        Exec.Interp.run ~hooks ~counters loop_sum
          (I.workload ~args:[ Exec.Value.VInt 6 ] 3)
      in
      Hw.Pt.finish pt;
      let d = Tsupport.Decode.stream loop_sum (Hw.Pt.packets_of pt 0) in
      Alcotest.(check (list (pair int bool)))
        "outcomes" (List.rev !outcomes) d.d_branches)

let packets =
  [
    Alcotest.test_case "trace volume is accounted in bytes" `Quick (fun () ->
        let res, _ = round_trip ~args:[ Exec.Value.VInt 10 ] loop_sum in
        ignore res;
        ());
    Alcotest.test_case "TNT bits are grouped into at most 8-bit packets"
      `Quick (fun () ->
        let counters = Exec.Cost.create () in
        let pt = Hw.Pt.create counters in
        let hooks = Instrument.Runtime.full_tracing_hooks ~pt in
        let _ =
          Exec.Interp.run ~hooks ~counters loop_sum
            (I.workload ~args:[ Exec.Value.VInt 30 ] 3)
        in
        Hw.Pt.finish pt;
        List.iter
          (function
            | Hw.Pt.TNT bits ->
              if List.length bits > 8 then Alcotest.fail "oversized TNT"
            | _ -> ())
          (Hw.Pt.packets_of pt 0));
    Alcotest.test_case "disable/enable produce PGD/PGE pairs" `Quick (fun () ->
        let counters = Exec.Cost.create () in
        let pt = Hw.Pt.create counters in
        Hw.Pt.enable pt ~tid:0 ~pc:1;
        Hw.Pt.on_branch pt ~tid:0 ~taken:true;
        Hw.Pt.disable pt ~tid:0 ~pc:3;
        Hw.Pt.enable pt ~tid:0 ~pc:5;
        Hw.Pt.disable pt ~tid:0 ~pc:7;
        match Hw.Pt.packets_of pt 0 with
        | [ PGE 1; TNT [ true ]; PGD 3; PGE 5; PGD 7 ] -> ()
        | ps -> Alcotest.failf "unexpected packets (%d)" (List.length ps));
    Alcotest.test_case "enable is idempotent" `Quick (fun () ->
        let counters = Exec.Cost.create () in
        let pt = Hw.Pt.create counters in
        Hw.Pt.enable pt ~tid:0 ~pc:1;
        Hw.Pt.enable pt ~tid:0 ~pc:2;
        Hw.Pt.disable pt ~tid:0 ~pc:3;
        Alcotest.(check int) "packets" 2
          (List.length (Hw.Pt.packets_of pt 0)));
    Alcotest.test_case "per-thread streams are independent" `Quick (fun () ->
        let res, decoded =
          round_trip ~args:[ Exec.Value.VInt 3 ] (counter ~locked:true)
        in
        ignore res;
        Alcotest.(check bool) "three streams" true (List.length decoded >= 3));
    Alcotest.test_case "crash truncation: decode stops at the last pc" `Quick
      (fun () ->
        let counters = Exec.Cost.create () in
        let pt = Hw.Pt.create counters in
        let hooks = Instrument.Runtime.full_tracing_hooks ~pt in
        let res =
          Exec.Interp.run ~hooks ~counters uaf (I.workload 1)
        in
        Hw.Pt.finish pt;
        let d = Tsupport.Decode.stream uaf (Hw.Pt.packets_of pt 0) in
        (match res.I.outcome with
         | I.Failed rep ->
           (* everything up to (excluding) the crash pc is decodable *)
           Alcotest.(check bool) "prefix decoded" true
             (List.length d.d_iids >= 2);
           Alcotest.(check bool) "crash pc not beyond" true
             (List.for_all (fun i -> i <= rep.pc) d.d_iids)
         | I.Success -> Alcotest.fail "expected crash"));
  ]

(* The recorder's stream table is indexed by tid and grows on demand:
   touching tids out of order and past its initial capacity must leave
   [all_tids] sorted and complete, create no stream for an untouched
   tid, and [finish] must close each still-enabled stream with a PGD
   at its last noted pc. *)
let stream_table =
  Alcotest.test_case "stream table: non-monotone tids past capacity" `Quick
    (fun () ->
      let counters = Exec.Cost.create () in
      let r = Hw.Pt.create counters in
      Hw.Pt.on_branch r ~tid:0 ~taken:false (* touched, never traced *);
      Hw.Pt.enable r ~tid:17 ~pc:5;
      Hw.Pt.note_pc r ~tid:17 ~pc:6;
      Hw.Pt.on_branch r ~tid:17 ~taken:true;
      Hw.Pt.note_pc r ~tid:17 ~pc:7;
      Hw.Pt.enable r ~tid:3 ~pc:11;
      Hw.Pt.disable r ~tid:3 ~pc:12;
      Hw.Pt.enable r ~tid:40 ~pc:20;
      Hw.Pt.note_pc r ~tid:40 ~pc:21;
      Alcotest.(check (list int)) "sorted, complete" [ 0; 3; 17; 40 ]
        (Hw.Pt.all_tids r);
      Hw.Pt.finish r;
      Alcotest.(check (list int)) "finish adds no stream" [ 0; 3; 17; 40 ]
        (Hw.Pt.all_tids r);
      let pk tid = Hw.Pt.packets_of r tid in
      Alcotest.(check bool) "tid 0: nothing traced" true (pk 0 = []);
      Alcotest.(check bool) "tid 3: closed by its own disable" true
        (pk 3 = Hw.Pt.[ PGE 11; PGD 12 ]);
      Alcotest.(check bool) "tid 17: flushed, PGD at the last pc" true
        (pk 17 = Hw.Pt.[ PGE 5; TNT [ true ]; PGD 7 ]);
      Alcotest.(check bool) "tid 40: PGD at the last pc" true
        (pk 40 = Hw.Pt.[ PGE 20; PGD 21 ]);
      List.iter
        (fun tid ->
          Alcotest.(check bool)
            (Printf.sprintf "tid %d closed" tid)
            false (Hw.Pt.enabled r tid))
        [ 0; 3; 17; 40 ];
      Alcotest.(check int) "toggles (finish closes without one)" 4
        counters.pt_toggles;
      Alcotest.(check (list int)) "reads add no stream" [ 0; 3; 17; 40 ]
        (Hw.Pt.all_tids r))

(* Damaged streams: whatever a fault does to the ring, the checked
   decoder must return a typed error or a clean prefix — never an
   out-of-bounds access and never an exception. *)

let healthy_packets ?(args = [ Exec.Value.VInt 4 ]) ?(seed = 1) program =
  let counters = Exec.Cost.create () in
  let pt = Hw.Pt.create counters in
  let hooks = Instrument.Runtime.full_tracing_hooks ~pt in
  let _ = Exec.Interp.run ~hooks ~counters program (I.workload ~args seed) in
  Hw.Pt.finish pt;
  Hw.Pt.packets_of pt 0

(* iids are 1-based: the exclusive bound is max iid + 1. *)
let iid_bound program =
  1
  + List.fold_left
      (fun m (i : Ir.Types.instr) -> max m i.iid)
      0
      (Ir.Program.all_instrs program)

let in_bounds program (d : Hw.Pt.decoded) =
  let n = iid_bound program in
  List.for_all (fun i -> i >= 0 && i < n) d.d_iids
  && List.for_all (fun (i, _) -> i >= 0 && i < n) d.d_branches

let damaged =
  [
    Alcotest.test_case "truncated stream: typed error or clean prefix" `Quick
      (fun () ->
        let program = loop_sum in
        let pkts = healthy_packets program in
        let full = Tsupport.Decode.stream program pkts in
        for salt = 0 to 40 do
          let cut = Faults.Tamper.truncate_packets ~salt pkts in
          let d, err = Hw.Pt.decode_checked program cut in
          Alcotest.(check bool) "bounds" true (in_bounds program d);
          Alcotest.(check bool) "prefix of the full decode" true
            (List.length d.d_iids <= List.length full.d_iids
            && List.for_all2
                 (fun a b -> a = b)
                 d.d_iids
                 (List.filteri
                    (fun i _ -> i < List.length d.d_iids)
                    full.d_iids));
          (* a cut that does not land on a packet boundary of meaning
             is flagged; a clean-prefix cut may decode silently *)
          match err with
          | Some e -> ignore (Hw.Pt.error_to_string e)
          | None -> ()
        done);
    Alcotest.test_case "mid-stream truncation is flagged as Truncated" `Quick
      (fun () ->
        let program = loop_sum in
        let pkts = healthy_packets program in
        (* drop just the terminator: decodes but cannot be complete *)
        let n = List.length pkts in
        let cut = List.filteri (fun i _ -> i < n - 1) pkts in
        match Hw.Pt.decode_checked program cut with
        | _, Some Hw.Pt.Truncated -> ()
        | _, Some e ->
          Alcotest.failf "expected Truncated, got %s" (Hw.Pt.error_to_string e)
        | _, None -> Alcotest.fail "truncation went unnoticed");
    Alcotest.test_case "corrupted stream: never out of bounds, never raises"
      `Quick (fun () ->
        let program = loop_sum in
        let pkts = healthy_packets program in
        let n_instrs = iid_bound program in
        for salt = 0 to 60 do
          let bad = Faults.Tamper.corrupt_packets ~salt ~n_instrs pkts in
          let d, _err = Hw.Pt.decode_checked program bad in
          Alcotest.(check bool) "bounds" true (in_bounds program d)
        done);
    Alcotest.test_case "an out-of-range transfer target is typed" `Quick
      (fun () ->
        let program = straight in
        let n = iid_bound program in
        match
          Hw.Pt.decode_checked program Hw.Pt.[ PGE (n + 5); PGD (-2) ]
        with
        | _, Some (Hw.Pt.Bad_target pc) ->
          Alcotest.(check int) "the bogus pc" (n + 5) pc
        | _, Some e ->
          Alcotest.failf "expected Bad_target, got %s"
            (Hw.Pt.error_to_string e)
        | _, None -> Alcotest.fail "bad target went unnoticed");
    Alcotest.test_case
      "empty stream is Empty_stream, distinct from truncation" `Quick
      (fun () ->
        (* An empty stream is its own condition — drops must not be
           booked as corruption by fleet-health counters. *)
        let d, err = Hw.Pt.decode_checked straight [] in
        Alcotest.(check (list int)) "no iids" [] d.d_iids;
        Alcotest.(check bool)
          "Empty_stream, not Truncated" true
          (err = Some Hw.Pt.Empty_stream);
        (* The byte codec makes the same distinction: zero bytes are a
           dropped ring, while a well-formed empty ring is clean. *)
        (match Hw.Pt.Wire.decode "" with
         | [], Some Hw.Pt.Empty_stream -> ()
         | _ -> Alcotest.fail "empty bytes should be Empty_stream");
        match Hw.Pt.Wire.decode (Hw.Pt.Wire.encode []) with
        | [], None -> ()
        | _ -> Alcotest.fail "a well-formed empty ring is not a fault");
  ]

let qcheck_damaged =
  QCheck.Test.make
    ~name:"decode_checked is total over truncations and corruptions"
    ~count:120
    QCheck.(pair (int_bound 10_000) bool)
    (fun (salt, truncate) ->
      let program = counter ~locked:true in
      let pkts = healthy_packets ~args:[ Exec.Value.VInt 3 ] program in
      let n_instrs = iid_bound program in
      let bad =
        if truncate then Faults.Tamper.truncate_packets ~salt pkts
        else Faults.Tamper.corrupt_packets ~salt ~n_instrs pkts
      in
      let d, _err = Hw.Pt.decode_checked program bad in
      in_bounds program d)

(* The binary wire codec: encoding a packed stream and decoding the
   bytes must reproduce the packet list exactly, and damaged bytes
   must never crash the decoder or escape undetected when truncated. *)

let qcheck_wire_round_trip =
  QCheck.Test.make ~name:"wire bytes round-trip the packet stream"
    ~count:120
    QCheck.(pair (int_bound 5000) (int_range 1 5))
    (fun (seed, n) ->
      let program = counter ~locked:true in
      let pkts = healthy_packets ~args:[ Exec.Value.VInt n ] ~seed program in
      match Hw.Pt.Wire.decode (Hw.Pt.Wire.encode pkts) with
      | pkts', None -> pkts' = pkts
      | _, Some _ -> false)

let qcheck_wire_truncation =
  QCheck.Test.make
    ~name:"any wire truncation is detected (never a silent prefix)"
    ~count:120
    QCheck.(int_bound 10_000)
    (fun salt ->
      let program = counter ~locked:true in
      let pkts = healthy_packets ~args:[ Exec.Value.VInt 3 ] program in
      let bytes = Hw.Pt.Wire.encode pkts in
      let cut = Faults.Tamper.truncate_wire ~salt bytes in
      String.length cut < String.length bytes
      && snd (Hw.Pt.Wire.decode cut) <> None)

let qcheck_wire_damage_total =
  QCheck.Test.make
    ~name:"wire decode and decode_checked are total over byte damage"
    ~count:120
    QCheck.(pair (int_bound 10_000) bool)
    (fun (salt, flip) ->
      let program = counter ~locked:true in
      let pkts = healthy_packets ~args:[ Exec.Value.VInt 3 ] program in
      let n_instrs = iid_bound program in
      let bytes = Hw.Pt.Wire.encode pkts in
      let bad =
        if flip then Faults.Tamper.flip_wire_byte ~salt bytes
        else Faults.Tamper.corrupt_wire_packets ~salt ~n_instrs bytes
      in
      let pkts', _err = Hw.Pt.Wire.decode bad in
      let d, _err = Hw.Pt.decode_checked program pkts' in
      in_bounds program d)

let () =
  Alcotest.run "pt"
    [
      ("round-trip", round_trips);
      ("round-trip-qcheck", [ QCheck_alcotest.to_alcotest qcheck_round_trip ]);
      ("branch-outcomes", [ branch_outcomes ]);
      ("packets", packets);
      ("stream-table", [ stream_table ]);
      ("damaged", damaged);
      ("damaged-qcheck", [ QCheck_alcotest.to_alcotest qcheck_damaged ]);
      ( "wire-qcheck",
        [
          QCheck_alcotest.to_alcotest qcheck_wire_round_trip;
          QCheck_alcotest.to_alcotest qcheck_wire_truncation;
          QCheck_alcotest.to_alcotest qcheck_wire_damage_total;
        ] );
    ]
