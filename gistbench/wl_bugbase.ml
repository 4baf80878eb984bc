(* Workload [bugbase]: closed loop, one developer at a time.  Each pass
   diagnoses all 11 Bugbase bugs one after another, unattended (no
   oracle), with adaptive early exit under the production-fleet preset,
   no injected faults, and a cold analysis cache.  Fleet slots
   (interpreter, PT, watchpoints, client, wire) take nearly all the
   time; the service, triage and journal layers are not entered.  The
   inputs are the fixed Bugbase, so this workload ignores the seed. *)

open Gistbench
open Common

(* The top predictor of every bug under this preset, as recorded when
   adaptive early exit landed: any change is a behaviour change. *)
let pinned_top =
  [
    ("Apache-1", "value@19 = null");
    ("Apache-2", "WW race: @15 -> @15");
    ("Apache-3", "WR race: @18 -> @21");
    ("Apache-4", "RW race: @12 -> @33");
    ("Cppcheck-1", "branch@36 taken");
    ("Cppcheck-2", "value@54 = 1");
    ("Curl", "value@34 = null");
    ("Transmission", "value@28 = -4");
    ("SQLite", "value@17 = 22");
    ("Memcached", "value@18 = -1");
    ("Pbzip2", "value@35 = null");
  ]

type input = {
  bug : Bugbase.Common.t;
  failure : Exec.Failure.report;
  config : Gist.Config.t;
  ideal : Fsketch.Accuracy.ideal;
}

(* Set-up: the failure probe that hands each bug to the server, plus
   the ideal sketch accuracy is scored against. *)
let setup () =
  List.map
    (fun (bug : Bugbase.Common.t) ->
      match Bugbase.Common.find_target_failure bug with
      | None -> failwith ("bugbase: target failure never manifests for " ^ bug.name)
      | Some (_, failure) ->
        {
          bug;
          failure;
          config =
            {
              Experiments.Adaptive.fleet_base with
              Gist.Config.early_exit = true;
              preempt_prob = bug.preempt_prob;
            };
          ideal = Bugbase.Common.ideal bug;
        })
    Bugbase.Registry.all

type pass = {
  per_bug : (input * Gist.Server.diagnosis * float * float) list;
      (** each bug's diagnosis, seconds, and seconds at reference host
          speed *)
  gc : gc_delta;
}

let diagnose ctx i =
  Gist.Server.diagnose ~config:i.config ~pool:ctx.pool ~bug_name:i.bug.name
    ~failure_type:i.bug.failure_type ~program:i.bug.program
    ~workload_of:i.bug.workload_of ~failure:i.failure ()

let untraced_pass ctx inputs =
  Analysis.Cache.clear ();
  let per_bug, gc =
    gc_delta (fun () ->
        List.map
          (fun i ->
            let d, s, s_ref = Calib.timed (fun () -> diagnose ctx i) in
            (i, d, s, s_ref))
          inputs)
  in
  { per_bug; gc }

let raw_s p = List.fold_left (fun a (_, _, s, _) -> a +. s) 0. p.per_bug
let ref_s p = List.fold_left (fun a (_, _, _, s) -> a +. s) 0. p.per_bug

(* The same diagnosis driven through [Server.Session] by hand, with a
   span around every call into the session and every granted slot, and
   one snapshot/restore round trip per AsT iteration: the session
   continues from the restored copy, so the final signature check also
   proves the restore was a bit-identical continuation. *)
type session_counts = {
  mutable granted : int;
  mutable snapshot_bytes : int list;
  mutable audit_mismatch : int;
}

let traced_diagnose ctx tr gcev counts i =
  let id = i.bug.name in
  let span name f = Trace.span tr ~name ~id f in
  let bug = i.bug in
  let s =
    ref
      (span "session.create" (fun () ->
           Gist.Server.Session.create ~config:i.config ~bug_name:bug.name
             ~failure_type:bug.failure_type ~program:bug.program
             ~workload_of:bug.workload_of ~failure:i.failure ()))
  in
  let batch = if ctx.jobs_effective = 0 then 1 else 4 * ctx.jobs_effective in
  let last_iteration = ref 0 in
  let rec loop () =
    match span "session.need" (fun () -> Gist.Server.Session.need !s) with
    | Gist.Server.Session.Finished -> Gist.Server.Session.result !s
    | Gist.Server.Session.Slots 0 ->
      failwith "bugbase: session wants 0 slots with nothing outstanding"
    | Gist.Server.Session.Slots n ->
      let it = (Gist.Server.Session.progress !s).p_iteration in
      if it <> !last_iteration then begin
        last_iteration := it;
        let bytes = span "session.snapshot" (fun () -> Gist.Server.Session.snapshot !s) in
        counts.snapshot_bytes <- String.length bytes :: counts.snapshot_bytes;
        match
          span "session.restore" (fun () ->
              Gist.Server.Session.restore ~config:i.config ~bug_name:bug.name
                ~failure_type:bug.failure_type ~program:bug.program
                ~workload_of:bug.workload_of ~failure:i.failure bytes)
        with
        | Error e ->
          failwith
            ("bugbase: restore refused: "
            ^ Gist.Server.Session.snapshot_error_to_string e)
        | Ok r ->
          if Gist.Server.Session.audit r <> Gist.Server.Session.audit !s then
            counts.audit_mismatch <- counts.audit_mismatch + 1;
          s := r;
          loop ()
      end
      else begin
        let thunks = span "session.grant" (fun () -> Gist.Server.Session.grant !s (min batch n)) in
        let k = Array.length thunks in
        counts.granted <- counts.granted + k;
        let starts = Array.make k 0 and stops = Array.make k 0 in
        let m = Trace.enter tr ~name:"pool.map" ~id in
        let outcomes =
          Parallel.Pool.map_array ctx.pool
            (fun j ->
              let t0 = Clock.now_ns () in
              let o = thunks.(j) () in
              starts.(j) <- t0;
              stops.(j) <- Clock.now_ns ();
              o)
            (Array.init k Fun.id)
        in
        Trace.leave tr m;
        for j = 0 to k - 1 do
          ignore
            (Trace.add tr ~name:"server.slot" ~id ~parent:m ~start_ns:starts.(j)
               ~stop_ns:stops.(j))
        done;
        span "session.deliver" (fun () -> Gist.Server.Session.deliver !s outcomes);
        Gc_events.poll gcev;
        loop ()
      end
  in
  loop ()

let traced_pass ctx tr gcev counts index inputs =
  Analysis.Cache.clear ();
  let r, _, s_ref =
    Calib.timed (fun () ->
        Gc_events.during gcev (fun () ->
            Trace.span tr ~name:"pass" ~id:(string_of_int index) (fun () ->
                List.map
                  (fun i ->
                    (i, Trace.span tr ~name:"bug" ~id:i.bug.name (fun () ->
                         traced_diagnose ctx tr gcev counts i)))
                  inputs)))
  in
  (r, s_ref)

let accuracy i (d : Gist.Server.diagnosis) =
  (Fsketch.Accuracy.of_sketch d.sketch ~ideal:i.ideal).Fsketch.Accuracy.overall

(* Correctness of one pass: every top predictor as pinned, every
   signature equal to the reference pass's. *)
let pass_checks ~reference per_bug =
  List.concat_map
    (fun (i, d) ->
      let name = i.bug.name in
      let top = top_predictor d in
      let want = Option.value ~default:"(not pinned)" (List.assoc_opt name pinned_top) in
      let sig_ok = diagnosis_signature d = List.assoc name reference in
      [
        check ("top:" ^ name) (top = want) (Printf.sprintf "got %S, pinned %S" top want);
        check ("signature:" ^ name) sig_ok "diagnosis differs from the reference pass";
      ])
    per_bug

let failed_bugs checks =
  List.length
    (List.sort_uniq compare
       (List.filter_map
          (fun c ->
            if c.c_ok then None
            else
              match String.index_opt c.c_name ':' with
              | Some k -> Some (String.sub c.c_name (k + 1) (String.length c.c_name - k - 1))
              | None -> Some c.c_name)
          checks))

let run ctx =
  let inputs, setup_s, setup_ref_s = repeat_setup setup in
  let n_bugs = List.length inputs in
  if ctx.trace then begin
    let tr = Trace.create () in
    let gcev = Gc_events.create () in
    let counts = { granted = 0; snapshot_bytes = []; audit_mismatch = 0 } in
    (* Untraced and traced passes alternate; the first untraced pass is
       the reference every later diagnosis must match. *)
    let reference = ref [] in
    let pairs =
      repeat_for ~seconds:ctx.seconds (fun k ->
          let u = untraced_pass ctx inputs in
          if k = 0 then
            reference :=
              List.map (fun (i, d, _, _) -> (i.bug.name, diagnosis_signature d)) u.per_bug;
          let traced, traced_s = traced_pass ctx tr gcev counts k inputs in
          (u, traced, traced_s))
    in
    let checks =
      List.concat_map
        (fun (u, traced, _) ->
          pass_checks ~reference:!reference (List.map (fun (i, d, _, _) -> (i, d)) u.per_bug)
          @ pass_checks ~reference:!reference traced)
        pairs
      @ [
          check "snapshot-audit" (counts.audit_mismatch = 0)
            (Printf.sprintf "%d restored sessions disagreed on Session.audit"
               counts.audit_mismatch);
          check "gc-events-lost" (Gc_events.lost gcev = 0)
            (Printf.sprintf "%d runtime events lost" (Gc_events.lost gcev));
        ]
    in
    let passes = float_of_int (List.length pairs) in
    let rows = Trace.by_name tr in
    let self name = let _, _, s = Trace.lookup rows name in s in
    let total name = let _, t, _ = Trace.lookup rows name in t in
    let count name = let c, _, _ = Trace.lookup rows name in float_of_int c in
    let per_pass name = self name /. passes in
    let per_call name = ratio (total name) (count name) in
    let slots_us = List.map (fun s -> s *. 1e6) (Trace.durations tr "server.slot") in
    let diagnoses = List.concat_map (fun (_, t, _) -> List.map snd t) pairs in
    let sum f = float_of_int (List.fold_left (fun a d -> a + f d) 0 diagnoses) in
    let consumed =
      sum (fun (d : Gist.Server.diagnosis) ->
          List.fold_left (fun a (it : Gist.Server.iteration_info) -> a + it.it_clients) 0 d.trace)
    in
    let layer_names =
      [ "session.create"; "session.need"; "session.grant"; "session.deliver";
        "session.snapshot"; "session.restore"; "pool.map"; "server.slot" ]
    in
    (* Both at reference host speed: the passes alternate, but the host
       drifts between them. *)
    let untraced = Summary.median (List.map (fun (u, _, _) -> ref_s u) pairs) in
    let traced = Summary.median (List.map (fun (_, _, s) -> s) pairs) in
    let layers =
      [
        ("session.create_s", per_pass "session.create");
        ("session.need_s", per_pass "session.need");
        ("session.grant_s", per_pass "session.grant");
        ("session.deliver_s", per_pass "session.deliver");
        ("server.slot_s", per_pass "server.slot");
        ("server.slot_p50_us", Summary.median slots_us);
        ("server.slot_max_us", List.fold_left max 0. slots_us);
        ("pool.map_s", total "pool.map" /. passes);
        ( "pool.overhead_share",
          ratio
            (total "pool.map" -. (total "server.slot" /. float_of_int (executors ctx)))
            (total "pool.map") );
        ("server.slots", float_of_int counts.granted /. passes);
        ("server.consumed_ratio", ratio consumed (float_of_int counts.granted));
        ( "fleet.valid_ratio",
          ratio
            (sum (fun d -> d.fleet.f_valid))
            (sum (fun d -> d.fleet.f_delivered)) );
        ("ast.iterations", sum (fun d -> d.iterations) /. passes);
        ( "ast.early_exits",
          sum (fun d ->
              List.length
                (List.filter
                   (fun (it : Gist.Server.iteration_info) -> it.it_early_exit <> None)
                   d.trace))
          /. passes );
        ("session.snapshot_s", per_call "session.snapshot");
        ( "session.snapshot_bytes",
          Summary.median (List.map float_of_int counts.snapshot_bytes) );
        ("session.restore_s", per_call "session.restore");
        ("gc.minor_s", Gc_events.minor_s gcev /. passes);
        ("gc.major_s", Gc_events.major_s gcev /. passes);
        ( "unaccounted_share",
          1. -. ratio (List.fold_left (fun a n -> a +. self n) 0. layer_names) (total "pass") );
        ("trace.overhead_share", ratio (traced -. untraced) untraced);
      ]
      @ gc_layers (List.map (fun (u, _, _) -> u.gc) pairs)
    in
    let attempted = 2 * n_bugs * List.length pairs in
    {
      attempted;
      failed = failed_bugs checks;
      checks;
      setup_s;
      setup_ref_s;
      measured = [];
      contract = [];
      layers = fill_layers layers;
      spans = Some tr;
    }
  end
  else begin
    (* The heap's high-water mark after the first pass: a pass is
       deterministic, so unlike the mark at the end of the run it does
       not depend on how many passes fitted in. *)
    let heap = ref 0. in
    let passes =
      repeat_for ~seconds:ctx.seconds (fun k ->
          let p = untraced_pass ctx inputs in
          if k = 0 then heap := peak_heap_mb ();
          p)
    in
    let reference =
      List.map
        (fun (i, d, _, _) -> (i.bug.name, diagnosis_signature d))
        (List.hd passes).per_bug
    in
    let checks =
      List.concat_map
        (fun p -> pass_checks ~reference (List.map (fun (i, d, _, _) -> (i, d)) p.per_bug))
        passes
    in
    let walls = List.map raw_s passes in
    let slowest pick = List.map (fun p -> List.fold_left (fun a b -> max a (pick b)) 0. p.per_bug) passes in
    let acc =
      List.map
        (fun p ->
          List.fold_left (fun a (i, d, _, _) -> a +. accuracy i d) 0. p.per_bug
          /. float_of_int n_bugs)
        passes
    in
    let heap = !heap in
    (* Time to diagnose the Bugbase once, at reference host speed:
       each bug's median over the passes, summed, so a slow spell of
       the host that hits one bug in one pass does not move it. *)
    let diagnose_s =
      List.fold_left ( +. ) 0.
        (List.map
           (fun i ->
             Summary.median
               (List.map
                  (fun p ->
                    let _, _, _, s = List.find (fun (j, _, _, _) -> j == i) p.per_bug in
                    s)
                  passes))
           inputs)
    in
    {
      attempted = n_bugs * List.length passes;
      failed = failed_bugs checks;
      checks;
      setup_s;
      setup_ref_s;
      measured =
        [
          ("diagnose_s", "s", walls);
          ("diagnose_ref_s", "s", [ diagnose_s ]);
          ("diagnose_max_s", "s", slowest (fun (_, _, s, _) -> s));
          ("diagnose_max_ref_s", "s", slowest (fun (_, _, _, s) -> s));
          ("sketch_accuracy", "%", acc);
          ("peak_heap_mb", "MB", [ heap ]);
        ];
      contract =
        [
          ("setup_s", Summary.median setup_ref_s);
          ("throughput_per_s", float_of_int n_bugs /. diagnose_s);
          ("latency_p50_s", diagnose_s);
          ("peak_heap_mb", heap);
        ];
      layers = [];
      spans = None;
    }
  end
