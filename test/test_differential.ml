(* Differential testing of the two execution engines.

   [Exec.Interp] runs the lowered form ([Ir.Lowered], PR 2);
   [Exec.Refinterp] preserves the original engine that interprets
   [Ir.Types.program] directly.  The lowering pass is only a valid
   optimisation if the two are bit-identical on every observable:
   outcome (including the full failure report), printed output, step
   count, the ground-truth access and execution logs, every cost
   counter, and the PT packet streams produced under full tracing.
   This suite asserts exactly that over the whole Bugbase -- whose
   entries exercise every failure kind, locks, spawns and preemption --
   plus generated random programs, across several scheduling seeds. *)

module I = Exec.Interp

let seeds = [ 0; 1; 2; 7; 42 ]

let check_counters name (a : Exec.Cost.t) (b : Exec.Cost.t) =
  let ck field x y = Alcotest.(check int) (name ^ ": " ^ field) x y in
  ck "instrs" a.instrs b.instrs;
  ck "branches" a.branches b.branches;
  ck "mem_accesses" a.mem_accesses b.mem_accesses;
  ck "sched_switches" a.sched_switches b.sched_switches;
  ck "pt_packets" a.pt_packets b.pt_packets;
  ck "pt_bytes" a.pt_bytes b.pt_bytes;
  ck "pt_toggles" a.pt_toggles b.pt_toggles;
  ck "wp_traps" a.wp_traps b.wp_traps;
  ck "wp_arms" a.wp_arms b.wp_arms;
  ck "rr_events" a.rr_events b.rr_events;
  ck "sw_trace_events" a.sw_trace_events b.sw_trace_events

let outcome_str = function
  | I.Success -> "success"
  | I.Failed r -> Exec.Failure.report_to_string r

(* Run [program] on both engines with identical parameters and assert
   every observable equal.  When [trace] is set, both runs record full
   PT streams and those must match packet for packet too. *)
let check_engines ?(trace = false) name ?preempt_prob program workload =
  let run engine =
    let counters = Exec.Cost.create () in
    let pt = if trace then Some (Hw.Pt.create counters) else None in
    let hooks =
      match pt with
      | Some pt -> Instrument.Runtime.full_tracing_hooks ~pt
      | None -> I.no_hooks ()
    in
    let res =
      engine ~hooks ~counters ?preempt_prob ~record_gt:true program workload
    in
    Option.iter Hw.Pt.finish pt;
    let packets =
      match pt with
      | None -> []
      | Some pt ->
        List.map (fun tid -> (tid, Hw.Pt.packets_of pt tid)) (Hw.Pt.all_tids pt)
    in
    (res, counters, packets)
  in
  let r_ref, c_ref, p_ref =
    run (fun ~hooks ~counters ?preempt_prob ~record_gt p w ->
        Exec.Refinterp.run ~hooks ~counters ?preempt_prob ~record_gt p w)
  in
  let r_low, c_low, p_low =
    run (fun ~hooks ~counters ?preempt_prob ~record_gt p w ->
        I.run ~hooks ~counters ?preempt_prob ~record_gt p w)
  in
  Alcotest.(check string)
    (name ^ ": outcome")
    (outcome_str r_ref.I.outcome)
    (outcome_str r_low.I.outcome);
  Alcotest.(check bool)
    (name ^ ": outcome (full report)")
    true
    (r_ref.I.outcome = r_low.I.outcome);
  Alcotest.(check (list string)) (name ^ ": output") r_ref.I.output r_low.I.output;
  Alcotest.(check int) (name ^ ": steps") r_ref.I.steps r_low.I.steps;
  Alcotest.(check bool)
    (name ^ ": access log")
    true
    (r_ref.I.accesses = r_low.I.accesses);
  Alcotest.(check bool)
    (name ^ ": executed log")
    true
    (r_ref.I.executed = r_low.I.executed);
  check_counters name c_ref c_low;
  if trace then
    Alcotest.(check bool)
      (name ^ ": PT packet streams")
      true (p_ref = p_low)

(* ------------------------------------------------------------------ *)
(* Every Bugbase entry, several seeds, bare and under full tracing. *)

let bugbase_cases =
  List.map
    (fun (bug : Bugbase.Common.t) ->
      Alcotest.test_case
        (Printf.sprintf "%s across %d seeds" bug.name (List.length seeds))
        `Quick
        (fun () ->
          List.iter
            (fun seed ->
              let name = Printf.sprintf "%s/seed %d" bug.name seed in
              let w = bug.workload_of seed in
              check_engines name ~preempt_prob:bug.preempt_prob bug.program w;
              check_engines ~trace:true (name ^ "/traced")
                ~preempt_prob:bug.preempt_prob bug.program w)
            seeds))
    Bugbase.Registry.all

(* ------------------------------------------------------------------ *)
(* Generated random programs: single-threaded and racy two-worker. *)

let gen_cases =
  [
    Alcotest.test_case "random single-thread programs" `Quick (fun () ->
        List.iter
          (fun pseed ->
            let program = Fuzz.Gen.random pseed in
            List.iter
              (fun seed ->
                check_engines
                  (Printf.sprintf "gen %d/seed %d" pseed seed)
                  program
                  (I.workload ~args:[ Exec.Value.VInt (pseed + seed) ] seed))
              seeds)
          [ 3; 17; 99; 256 ]);
    Alcotest.test_case "random multithreaded programs, traced" `Quick
      (fun () ->
        List.iter
          (fun pseed ->
            let program = Fuzz.Gen.random_threaded pseed in
            List.iter
              (fun seed ->
                check_engines ~trace:true
                  (Printf.sprintf "gen-mt %d/seed %d" pseed seed)
                  program
                  (I.workload ~args:[ Exec.Value.VInt 3 ] seed))
              seeds)
          [ 5; 21; 77 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Plan-driven hooks: the production path.  Each Bugbase bug's sigma0
   and 2*sigma0 plans (slice prefix -> placement) run on both engines
   under [Instrument.Runtime.hooks], whose [pre_instr] fires only at
   the plan's sites.  Clients split the watchpoint targets into two
   rotation groups, and one more run takes the PTWRITE path.  Asserted
   equal: outcome, every thread's PT ring bytes, the watchpoint trap
   log and every cost counter. *)

let plan_seeds = [ 0; 7; 42 ]

let two_groups targets =
  let half = max 1 ((List.length targets + 1) / 2) in
  Gist.Server.wp_groups ~wp_capacity:half targets

let check_plan_engines name ~preempt_prob ~data_via_pt ~sites ~wp_allowed
    program workload =
  let run engine =
    let counters = Exec.Cost.create () in
    let pt = Hw.Pt.create counters in
    let wp = Hw.Watchpoint.create counters in
    let hooks =
      Instrument.Runtime.hooks ~data_via_pt ~sites ~pt ~wp ~wp_allowed
    in
    let res : I.result = engine ~hooks ~counters program workload in
    Hw.Pt.finish pt;
    let rings =
      List.map (fun tid -> (tid, Hw.Pt.wire_of pt tid)) (Hw.Pt.all_tids pt)
    in
    (res.I.outcome, rings, Hw.Watchpoint.traps wp, counters)
  in
  let o_ref, rings_ref, traps_ref, c_ref =
    run (fun ~hooks ~counters p w ->
        Exec.Refinterp.run ~hooks ~counters ~preempt_prob p w)
  in
  let o_low, rings_low, traps_low, c_low =
    run (fun ~hooks ~counters p w -> I.run ~hooks ~counters ~preempt_prob p w)
  in
  Alcotest.(check bool) (name ^ ": outcome") true (o_ref = o_low);
  Alcotest.(check (list (pair int string)))
    (name ^ ": PT rings") rings_ref rings_low;
  Alcotest.(check bool) (name ^ ": watchpoint traps") true
    (traps_ref = traps_low);
  check_counters name c_ref c_low

let plan_cases =
  List.map
    (fun (bug : Bugbase.Common.t) ->
      Alcotest.test_case
        (Printf.sprintf "%s: sigma0 and 2*sigma0 plans" bug.name)
        `Quick (fun () ->
          let _, failure = Option.get (Bugbase.Common.find_target_failure bug) in
          let slice = Slicing.Slicer.compute bug.program failure in
          let sigma0 = Gist.Config.default.Gist.Config.sigma0 in
          List.iter
            (fun sigma ->
              let plan =
                Instrument.Place.compute bug.program
                  (Slicing.Slicer.take slice sigma)
              in
              let sites = Instrument.Plan.sites plan in
              let targets = plan.Instrument.Plan.wp_targets in
              let modes =
                List.mapi
                  (fun g group -> (Printf.sprintf "group %d" g, false, group))
                  (two_groups targets)
                @ [ ("ptwrite", true, []) ]
              in
              List.iter
                (fun seed ->
                  List.iter
                    (fun (mode, data_via_pt, wp_allowed) ->
                      check_plan_engines
                        (Printf.sprintf "%s/sigma %d/%s/seed %d" bug.name sigma
                           mode seed)
                        ~preempt_prob:bug.preempt_prob ~data_via_pt ~sites
                        ~wp_allowed bug.program (bug.workload_of seed))
                    modes)
                plan_seeds)
            [ sigma0; 2 * sigma0 ]))
    Bugbase.Registry.all

(* ------------------------------------------------------------------ *)
(* Site gating is unobservable: a client run whose [pre_instr] fires
   only at the plan's sites reports exactly what the same run reports
   with the mask emptied, so [pre_instr] fires before every
   instruction.  Covers the Bugbase under each bug's sigma0 plan and
   50 generated bugs under a plan tracking every third instruction, at
   scheduling seeds 7, 42 and 99. *)

let gating_seeds = [ 7; 42; 99 ]

let check_gating name ~preempt_prob ~plan program workload =
  let sites = Instrument.Plan.sites plan in
  let plan_id = Instrument.Plan.id plan in
  let report sites =
    let r =
      Gist.Client.run_sites ~preempt_prob ~sites
        ~wp_allowed:plan.Instrument.Plan.wp_targets program workload
    in
    let bytes =
      Gist.Protocol.Encode.encode
        (Gist.Protocol.Encode.arena ())
        ~client:0 ~plan_id r
    in
    (r, bytes)
  in
  let g, g_bytes = report sites in
  let u, u_bytes =
    report { sites with Instrument.Plan.site_mask = [||] }
  in
  let open Gist.Client in
  Alcotest.(check bool) (name ^ ": outcome") true (g.r_outcome = u.r_outcome);
  Alcotest.(check (list (pair int (list int))))
    (name ^ ": executed") u.r_executed g.r_executed;
  Alcotest.(check (list (pair int bool)))
    (name ^ ": branches") u.r_branches g.r_branches;
  Alcotest.(check bool) (name ^ ": traps") true (g.r_traps = u.r_traps);
  check_counters name u.r_counters g.r_counters;
  Alcotest.(check bool) (name ^ ": pt errors") true
    (g.r_pt_errors = u.r_pt_errors);
  Alcotest.(check int) (name ^ ": steps") u.r_steps g.r_steps;
  Alcotest.(check string) (name ^ ": wire bytes") u_bytes g_bytes

let gating_cases =
  [
    Alcotest.test_case "Bugbase under sigma0 plans" `Quick (fun () ->
        List.iter
          (fun (bug : Bugbase.Common.t) ->
            let _, failure =
              Option.get (Bugbase.Common.find_target_failure bug)
            in
            let plan =
              Instrument.Place.compute bug.program
                (Slicing.Slicer.take
                   (Slicing.Slicer.compute bug.program failure)
                   Gist.Config.default.Gist.Config.sigma0)
            in
            List.iter
              (fun seed ->
                check_gating
                  (Printf.sprintf "%s/seed %d" bug.name seed)
                  ~preempt_prob:bug.preempt_prob ~plan bug.program
                  (bug.workload_of seed))
              gating_seeds)
          Bugbase.Registry.all);
    Alcotest.test_case "50 generated bugs" `Quick (fun () ->
        let patterns = Array.of_list Fuzz.Gen.all_patterns in
        for i = 0 to 49 do
          let case =
            Fuzz.Gen.generate patterns.(i mod Array.length patterns) (1000 + i)
          in
          let program = case.Fuzz.Gen.c_program in
          let tracked =
            Ir.Program.all_instrs program
            |> List.filteri (fun k _ -> k mod 3 = 0)
            |> List.map (fun (x : Ir.Types.instr) -> x.iid)
          in
          let plan = Instrument.Place.compute program tracked in
          List.iter
            (fun seed ->
              check_gating
                (Printf.sprintf "%s/seed %d" case.Fuzz.Gen.c_name seed)
                ~preempt_prob:case.Fuzz.Gen.c_preempt ~plan program
                (Fuzz.Gen.workload_of case seed))
            gating_seeds
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Unknown labels are a load-time [Lower_error], not a runtime crash. *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* [Ir.Program.make] rejects unknown labels itself, so a program
   containing one can only be hand-assembled behind its back -- which
   is exactly the hole the old engine's runtime [Type_error "unknown
   label ..."] in [goto] covered.  The lowering pass must close it at
   load time instead. *)
(* Hand-rolled program records that bypass [Program.make]'s validation:
   the lowering pass must reject these on its own, at lowering time,
   wherever the bad name hides. *)
let bad_funcs ?(main = "main") funcs =
  let open Ir.Types in
  let counter = ref 0 in
  let funcs =
    List.map
      (fun (fname, params, blocks) ->
        let blocks =
          Array.of_list
            (List.map
               (fun (label, kinds) ->
                 let instrs =
                   Array.of_list
                     (List.map
                        (fun kind ->
                          incr counter;
                          {
                            iid = !counter;
                            kind;
                            loc = { file = "bad.c"; line = !counter };
                            text = "";
                          })
                        kinds)
                 in
                 { label; instrs })
               blocks)
        in
        { fname; params; blocks })
      funcs
  in
  let by_iid = Hashtbl.create 16 in
  List.iter
    (fun f ->
      Array.iteri
        (fun bi b ->
          Array.iteri
            (fun k ins ->
              Hashtbl.replace by_iid ins.iid
                (ins, { p_func = f.fname; p_block = bi; p_index = k }))
            b.instrs)
        f.blocks)
    funcs;
  let func_tbl = Hashtbl.create 4 in
  List.iter (fun f -> Hashtbl.replace func_tbl f.fname f) funcs;
  { globals = []; funcs; main; by_iid; func_tbl; n_instrs = !counter }

let bad_program kinds = bad_funcs [ ("main", [], [ ("entry", kinds) ]) ]

let expect_lower_error ~sub bad =
  match Ir.Lowered.lower bad with
  | exception Ir.Lowered.Lower_error msg ->
    if not (contains ~sub msg) then
      Alcotest.failf "message %S does not mention %S" msg sub
  | _ -> Alcotest.fail "expected Lower_error"

let lower_errors =
  [
    Alcotest.test_case "jump to unknown label fails at lowering time"
      `Quick (fun () ->
        let bad = bad_program [ Ir.Types.Jmp "nowhere" ] in
        match Ir.Lowered.lower bad with
        | exception Ir.Lowered.Lower_error msg ->
          Alcotest.(check bool)
            "message names the label" true
            (contains ~sub:"nowhere" msg && contains ~sub:"label" msg)
        | _ -> Alcotest.fail "expected Lower_error");
    Alcotest.test_case "running such a program raises before execution"
      `Quick (fun () ->
        let bad =
          bad_program
            Ir.Types.
              [
                Assign ("x", Mov (Imm 1));
                Branch (Reg "x", "gone", "entry");
              ]
        in
        match I.run bad (I.workload 0) with
        | exception Ir.Lowered.Lower_error _ -> ()
        | _ -> Alcotest.fail "expected Lower_error from run");
    Alcotest.test_case "branch with an unknown then-label" `Quick (fun () ->
        expect_lower_error ~sub:"nowhere"
          (bad_program
             Ir.Types.
               [
                 Assign ("x", Mov (Imm 1));
                 Branch (Reg "x", "nowhere", "entry");
               ]));
    Alcotest.test_case "branch with an unknown else-label" `Quick (fun () ->
        expect_lower_error ~sub:"nowhere"
          (bad_program
             Ir.Types.
               [
                 Assign ("x", Mov (Imm 1));
                 Branch (Reg "x", "entry", "nowhere");
               ]));
    Alcotest.test_case "bad label behind a jump chain" `Quick (fun () ->
        (* entry -> mid -> (bad): the bad jump sits in a block only
           reachable through another jump. *)
        expect_lower_error ~sub:"nowhere"
          (bad_funcs
             Ir.Types.
               [
                 ( "main", [],
                   [
                     ("entry", [ Jmp "mid" ]);
                     ("mid", [ Jmp "nowhere" ]);
                   ] );
               ]));
    Alcotest.test_case "bad label behind a branch arm" `Quick (fun () ->
        expect_lower_error ~sub:"nowhere"
          (bad_funcs
             Ir.Types.
               [
                 ( "main", [],
                   [
                     ( "entry",
                       [
                         Assign ("c", Mov (Imm 0));
                         Branch (Reg "c", "t", "f");
                       ] );
                     ("t", [ Jmp "nowhere" ]);
                     ("f", [ Ret None ]);
                   ] );
               ]));
    Alcotest.test_case "bad label in an unreachable block" `Quick (fun () ->
        (* no control flow reaches [dead], but lowering is eager *)
        expect_lower_error ~sub:"nowhere"
          (bad_funcs
             Ir.Types.
               [
                 ( "main", [],
                   [
                     ("entry", [ Ret None ]);
                     ("dead", [ Jmp "nowhere" ]);
                   ] );
               ]));
    Alcotest.test_case "bad label in a spawned thread routine" `Quick
      (fun () ->
        (* the routine is entered only indirectly, through Spawn *)
        expect_lower_error ~sub:"wnowhere"
          (bad_funcs
             Ir.Types.
               [
                 ( "main", [],
                   [
                     ( "entry",
                       [
                         Spawn ("t", "worker", []);
                         Join (Reg "t");
                         Ret None;
                       ] );
                   ] );
                 ( "worker", [],
                   [
                     ("entry", [ Jmp "wnowhere" ]);
                     ("w2", [ Ret None ]);
                   ] );
               ]));
    Alcotest.test_case "spawn of an undefined routine" `Quick (fun () ->
        expect_lower_error ~sub:"ghost"
          (bad_program
             Ir.Types.[ Spawn ("t", "ghost", []); Ret None ]));
    Alcotest.test_case "call to an undefined function" `Quick (fun () ->
        expect_lower_error ~sub:"ghost"
          (bad_program
             Ir.Types.[ Call (Some "x", "ghost", []); Ret None ]));
    Alcotest.test_case "unknown global" `Quick (fun () ->
        expect_lower_error ~sub:"gmissing"
          (bad_program
             Ir.Types.[ Load_global ("x", "gmissing"); Ret None ]));
    Alcotest.test_case "unknown builtin" `Quick (fun () ->
        expect_lower_error ~sub:"frobnicate"
          (bad_program
             Ir.Types.[ Builtin (None, "frobnicate", []); Ret None ]));
    Alcotest.test_case "undefined main function" `Quick (fun () ->
        expect_lower_error ~sub:"nomain"
          (bad_funcs ~main:"nomain"
             Ir.Types.[ ("main", [], [ ("entry", [ Ret None ]) ]) ]));
  ]

let () =
  Alcotest.run "differential"
    [
      ("bugbase", bugbase_cases);
      ("generated", gen_cases);
      ("plan-hooks", plan_cases);
      ("site-gating", gating_cases);
      ("lower-errors", lower_errors);
    ]
