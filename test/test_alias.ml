(* Alias analysis tests: points-to facts, flow through globals, and the
   slice-size cost of alias-based matching (the paper's §3.1 argument
   for alias-free slicing plus watchpoint discovery). *)

open Ir.Types
module A = Slicing.Alias

let alias_prog =
  let module B = Ir.Builder in
  let i = B.file "alias.c" in
  let r = B.r and im = B.im in
  Ir.Program.make ~main:"main"
    [
      B.func "main" ~params:[]
        [
          B.block "entry"
            [
              i 1 "p = malloc" (Malloc ("p", 2));
              i 2 "q = p" (Assign ("q", Mov (r "p")));
              i 3 "s = malloc" (Malloc ("s", 2));
              i 4 "q[1] = 7" (Store (r "q", 1, im 7));
              i 5 "s[1] = 8" (Store (r "s", 1, im 8));
              i 6 "v = p[1]" (Load ("v", r "p", 1));
              i 7 "deref v" (Load ("w", r "v", 0));
              i 8 "" (Ret None);
            ];
        ];
    ]

let alias_tests =
  [
    Alcotest.test_case "copy aliases, distinct mallocs do not" `Quick
      (fun () ->
        let a = A.analyze alias_prog in
        Alcotest.(check bool) "p ~ q" true
          (A.may_alias a ~func1:"main" ~base1:"p" ~off1:1 ~func2:"main"
             ~base2:"q" ~off2:1);
        Alcotest.(check bool) "p !~ s" false
          (A.may_alias a ~func1:"main" ~base1:"p" ~off1:1 ~func2:"main"
             ~base2:"s" ~off2:1);
        Alcotest.(check bool) "offsets must match" false
          (A.may_alias a ~func1:"main" ~base1:"p" ~off1:0 ~func2:"main"
             ~base2:"q" ~off2:1));
    Alcotest.test_case "points-to flows through calls and spawns" `Quick
      (fun () ->
        let p = Bugbase.Pbzip2.program in
        let a = A.analyze p in
        (* cons's f parameter points to queue_init's malloc *)
        Alcotest.(check bool) "cons.f bound" true
          (A.pts_size a ~func:"cons" ~reg:"f" > 0);
        Alcotest.(check bool) "cross-function alias" true
          (A.may_alias a ~func1:"cons" ~base1:"f" ~off1:1 ~func2:"main"
             ~base2:"f" ~off2:1));
    Alcotest.test_case "alias-based slicing finds the cross-pointer store"
      `Quick (fun () ->
        let failing =
          Ir.Program.all_instrs alias_prog
          |> List.find (fun (x : Ir.Types.instr) -> x.loc.line = 7)
        in
        let report =
          Exec.Failure.
            { kind = Segfault; pc = failing.iid; tid = 0; stack = [];
              message = "" }
        in
        let lines s =
          Slicing.Slicer.iids s
          |> List.map (fun iid -> (Ir.Program.loc_of alias_prog iid).line)
          |> List.sort_uniq compare
        in
        let without = Slicing.Slicer.compute alias_prog report in
        let with_a =
          Slicing.Slicer.compute ~alias:(A.analyze alias_prog) alias_prog
            report
        in
        (* syntactic matching misses the store through q; alias matching
           finds it but not the store through the unrelated s *)
        Alcotest.(check bool) "missed syntactically" false
          (List.mem 4 (lines without));
        Alcotest.(check bool) "found via alias" true (List.mem 4 (lines with_a));
        Alcotest.(check bool) "unrelated store stays out" false
          (List.mem 5 (lines with_a)));
    Alcotest.test_case "alias slices only grow (paper's size argument)"
      `Quick (fun () ->
        List.iter
          (fun (bug : Bugbase.Common.t) ->
            match Bugbase.Common.find_target_failure bug with
            | None -> ()
            | Some (_, failure) ->
              let plain = Slicing.Slicer.compute bug.program failure in
              let aliased =
                Slicing.Slicer.compute ~alias:(A.analyze bug.program)
                  bug.program failure
              in
              if
                Slicing.Slicer.instr_count aliased
                < Slicing.Slicer.instr_count plain
              then Alcotest.failf "%s: alias slice shrank" bug.name)
          [ Bugbase.Pbzip2.bug; Bugbase.Curl.bug; Bugbase.Memcached.bug ]);
  ]

(* A pointer published through a global by one function and read back
   by a spawned thread: the points-to sets must meet across the global
   cell, and a second, unrelated global must stay apart. *)
let global_prog =
  let module B = Ir.Builder in
  let i = B.file "globals.c" in
  let r = B.r and im = B.im in
  Ir.Program.make ~main:"main"
    ~globals:[ B.global "shared"; B.global "other" ]
    [
      B.func "main" ~params:[]
        [
          B.block "entry"
            [
              i 1 "p = malloc" (Malloc ("p", 2));
              i 2 "shared = p" (Store_global ("shared", r "p"));
              i 3 "o = malloc" (Malloc ("o", 2));
              i 4 "other = o" (Store_global ("other", r "o"));
              i 5 "t = spawn reader" (Spawn ("t", "reader", []));
              i 6 "join t" (Join (r "t"));
              i 7 "" (Ret None);
            ];
        ];
      B.func "reader" ~params:[]
        [
          B.block "entry"
            [
              i 10 "q = shared" (Load_global ("q", "shared"));
              i 11 "q[1] = 5" (Store (r "q", 1, im 5));
              i 12 "" (Ret None);
            ];
        ];
    ]

let global_tests =
  [
    Alcotest.test_case "a pointer stored in a global reaches its readers"
      `Quick (fun () ->
        let a = A.analyze global_prog in
        Alcotest.(check int) "reader.q points to one site" 1
          (A.pts_size a ~func:"reader" ~reg:"q");
        Alcotest.(check bool) "main.p ~ reader.q" true
          (A.may_alias a ~func1:"main" ~base1:"p" ~off1:1 ~func2:"reader"
             ~base2:"q" ~off2:1);
        Alcotest.(check bool) "main.o !~ reader.q" false
          (A.may_alias a ~func1:"main" ~base1:"o" ~off1:1 ~func2:"reader"
             ~base2:"q" ~off2:1));
  ]

let () =
  Alcotest.run "alias" [ ("alias", alias_tests); ("globals", global_tests) ]
