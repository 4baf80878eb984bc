(* The [dune build @check] gates that need a whole fleet, service or
   campaign rather than a unit test.  This executable only asserts:
   measurement lives in gistbench/ ([bash gistbench/run.sh --workload
   bugbase|ingest|service]) and the paper's tables in [gist_cli
   experiments].

   Usage: bench/main.exe [smoke|adaptive_gate|recover_soak|storm_soak]...
   (no argument runs all four).

   - smoke: allocation per interpreted step, wire ingestion, the serve
     soak, kill-and-recover points, a 60-session chaos soak and a
     120-session storm;
   - adaptive_gate: early exit against the exhaustive oracle on the
     whole Bugbase and the seed-42 fuzz campaign;
   - recover_soak: the chaos soak at 200 sessions a wave;
   - storm_soak: the storm at 200 sessions.

   A gate fails by raising, which fails the build. *)

let fail fmt = Printf.ksprintf failwith fmt

(* At least two workers, so the gates exercise the pool even where the
   CLI default is sequential. *)
let gate_jobs () = max 2 (Parallel.Jobs.effective ())

let with_pool f = Parallel.Pool.with_pool ~jobs:(gate_jobs ()) f

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The heap-growth probe: live words after a compaction. *)
let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

(* ------------------------------------------------------------------ *)
(* Wire ingestion: a 1k-client fleet per iteration ships pre-encoded
   envelopes (32 distinct client runs cycled over the slots, so the
   server side is what runs).  Gates: the streaming accumulator ranks
   exactly like the retained-report oracle, pool chunks merged with
   [Acc.merge] rank identically at every [jobs], repeated iterations
   do not grow the live heap, and streaming clears an
   order-of-magnitude reports/s floor. *)

let ingest_gate () =
  let bug = Bugbase.Pbzip2.bug in
  let _, failure = Option.get (Bugbase.Common.find_target_failure bug) in
  let tracked =
    Slicing.Slicer.take (Slicing.Slicer.compute bug.program failure) 8
  in
  let plan = Instrument.Place.compute bug.program tracked in
  let plan_id = Instrument.Plan.id plan in
  let n_instrs =
    1
    + List.fold_left
        (fun m (i : Ir.Types.instr) -> max m i.iid)
        0
        (Ir.Program.all_instrs bug.program)
  in
  let n_templates = 32 in
  let arena = Gist.Protocol.Encode.arena () in
  let blobs =
    Array.init n_templates (fun c ->
        Gist.Client.run_one ~plan ~wp_allowed:plan.Instrument.Plan.wp_targets
          ~preempt_prob:bug.preempt_prob bug.program (bug.workload_of c)
        |> Gist.Protocol.Encode.encode arena ~client:c ~plan_id)
  in
  let observe (r : Gist.Client.report) =
    Predict.Stats.
      {
        predictors =
          Predict.Predictor.of_run ~tracked ~branch_outcomes:r.r_branches
            ~traps:r.r_traps ();
        failing = Gist.Client.failing r;
      }
  in
  let ingest_slot i =
    match
      Gist.Protocol.Encode.ingest ~n_instrs ~plan_id blobs.(i mod n_templates)
    with
    | Ok r -> r
    | Error rej ->
      fail "ingest gate: a template blob was rejected: %s"
        (Gist.Protocol.reject_to_string rej)
  in
  (* One iteration's server work over slots [start, start + len):
     ingest, fold, drop. *)
  let fold_slots start len =
    let acc = Predict.Stats.Acc.create () in
    for i = start to start + len - 1 do
      Predict.Stats.Acc.add acc (observe (ingest_slot i))
    done;
    acc
  in
  let n = 1_000 in
  let acc, stream_s = wall (fun () -> fold_slots 0 n) in
  let stream_rank = Predict.Stats.Acc.rank acc in
  (* The oracle: retain every decoded report, rank in one batch. *)
  let retained_rank =
    Predict.Stats.rank (List.map observe (List.init n ingest_slot))
  in
  if stream_rank <> retained_rank then
    fail "ingest gate: streaming and retained rankings differ";
  let chunk = 128 in
  let chunks =
    Array.init ((n + chunk - 1) / chunk) (fun k ->
        (k * chunk, min chunk (n - (k * chunk))))
  in
  List.iter
    (fun jobs ->
      let total = Predict.Stats.Acc.create () in
      Parallel.Pool.with_pool ~jobs (fun pool ->
          Parallel.Pool.map_array pool
            (fun (start, len) -> fold_slots start len)
            chunks)
      |> Array.iter (fun a -> Predict.Stats.Acc.merge ~into:total a);
      if Predict.Stats.Acc.rank total <> stream_rank then
        fail "ingest gate: ranking at --jobs %d differs from sequential" jobs)
    [ 1; 2; 4; 8 ];
  (* The arenas and tables reach steady state after the first pass;
     from then on an iteration must not grow the heap. *)
  let steady () =
    ignore (Sys.opaque_identity (Predict.Stats.Acc.rank (fold_slots 0 n)));
    live_words ()
  in
  let w1 = steady () in
  let w2 = steady () in
  let w3 = steady () in
  if w3 > w2 then
    fail "ingest gate: live words grew across iterations (%d -> %d)" w2 w3;
  (* An order-of-magnitude tripwire, not a tuning gate. *)
  let stream_rps = float_of_int n /. stream_s and floor = 2_000.0 in
  if stream_rps < floor then
    fail "ingest gate: streaming throughput %.0f reports/s is below the %.0f \
          floor"
      stream_rps floor;
  Printf.printf
    "ingest: %d clients: rankings identical (retained, jobs 1 to 8), live \
     words %d %d %d, %.0f reports/s (floor %.0f)\n%!"
    n w1 w2 w3 stream_rps floor

(* ------------------------------------------------------------------ *)
(* Service soaks.  Configs are bounded so @check stays fast: two AsT
   iterations of a 40-client fleet exercise scheduling, admission and
   delivery; the differential suites (test_serve, test_recover) cover
   full diagnoses. *)

let soak_tweak (c : Gist.Config.t) =
  {
    c with
    Gist.Config.max_iterations = 2;
    max_clients_per_iter = 40;
    fail_quota = 2;
    succ_quota = 4;
  }

let soak_sconfig ~sessions =
  {
    Serve.Service.default with
    Serve.Service.max_inflight = 32;
    max_queue = sessions;
    round_budget = 128;
  }

(* Step [svc] until [stop] holds or it idles, harvesting completions
   and shed notices every round: a cadence checkpoint is deferred while
   either waits, so a driver that harvests only at the end journals
   none once the first session completes.  Returns the completions. *)
let step_harvesting ?(stop = fun () -> false) svc =
  let rec go acc =
    let acc = List.rev_append (Serve.Service.take_completions svc) acc in
    ignore (Serve.Service.take_shed svc);
    if (not (stop ())) && Serve.Service.step svc then go acc
    else List.rev acc
  in
  go []

(* Four waves of 200 interleaved sessions through ONE service (the
   same spec list each wave: the offline caches key programs by
   identity).  A session retained past completion, a completion never
   harvested or an arena growing per session shows up as live-heap
   growth from wave 3 to wave 4.  Earlier waves are warm-up, while
   buffers (the journal's among them) grow to their high-water
   capacity.  Each wave harvests every round, as a long-running
   driver does, so cadence checkpoints keep compacting the journal.
   Gates:
   that growth, a balanced ledger, a reports/s floor on wave 1 and the
   fairness bound; then at an in-flight cap of 128, at least 100
   sessions in flight. *)
let serve_gate pool =
  let sessions = 200 in
  let sconfig = soak_sconfig ~sessions in
  let specs = Serve.Stream.mixed ~tweak:soak_tweak ~seed:42 ~sessions () in
  let svc = Serve.Service.create ~sconfig ~pool () in
  let wave () =
    let (_ : Serve.Service.completion list), wall_s =
      wall (fun () ->
          List.iter (fun sp -> ignore (Serve.Drive.submit svc sp)) specs;
          step_harvesting svc)
    in
    (wall_s, (Serve.Service.stats svc).st_slots, live_words ())
  in
  let wall1, slots1, _ = wave () in
  let _ = wave () in
  let _, _, w3 = wave () in
  let _, _, w4 = wave () in
  (* The journal's steady-state size jitters by a few words across
     waves (round-number varints widen, Buffer capacity doubles); a
     real per-session leak is kilobytes times 200 sessions, so 1%
     slack loses no detection. *)
  if w4 > w3 + (w3 / 100) then
    fail "serve gate: live words grew across waves (%d -> %d)" w3 w4;
  let st = Serve.Service.stats svc in
  if
    st.st_submitted <> st.st_completed + st.st_rejected
    || Serve.Service.inflight svc <> 0
    || Serve.Service.queued svc <> 0
  then
    fail
      "serve gate: session leak: %d submitted, %d completed, %d rejected, %d \
       in flight, %d queued"
      st.st_submitted st.st_completed st.st_rejected
      (Serve.Service.inflight svc)
      (Serve.Service.queued svc);
  if st.st_completed < 4 * sessions then
    fail "serve gate: %d of %d sessions completed" st.st_completed
      (4 * sessions);
  (* Fleet slots per second in wave 1; even a sequential host clears
     the floor by far. *)
  let reports_s = float_of_int slots1 /. wall1 and floor = 200.0 in
  if reports_s < floor then
    fail "serve gate: %.0f reports/s below the %.0f floor" reports_s floor;
  if st.st_max_wait_rounds > sconfig.max_inflight then
    fail "serve gate: a session waited %d rounds (fairness bound %d)"
      st.st_max_wait_rounds sconfig.max_inflight;
  (* Concurrency: the whole stream queued at once under a cap of 128. *)
  let cap = 128 in
  let wide =
    Serve.Service.create
      ~sconfig:{ sconfig with max_inflight = cap; round_budget = 512 }
      ~pool ()
  in
  List.iter (fun sp -> ignore (Serve.Drive.submit wide sp)) specs;
  while
    Serve.Service.inflight wide < cap
    && Serve.Service.queued wide > 0
    && Serve.Service.step wide
  do
    ()
  done;
  let peak = (Serve.Service.stats wide).st_peak_inflight in
  if peak < 100 then
    fail "serve gate: peak in-flight %d at cap %d, wanted >= 100" peak cap;
  Printf.printf
    "serve: 4 waves of %d sessions, live words %d %d, %.0f reports/s \
     (floor %.0f), max wait %d round(s), peak %d in flight at cap %d\n%!"
    sessions w3 w4 reports_s floor st.st_max_wait_rounds peak cap

(* Kill-and-recover points: run a stream until two thirds of it has
   completed, harvesting every round, and take the journal bytes as
   the crash image.  Gates: the replayed tail — rounds journaled after
   the newest checkpoint — is shorter than the checkpoint cadence
   whatever the history (what makes recovery sublinear in it);
   recovery is accepted, replays with zero divergences, and every
   session completes across the kill; the recovered service, drained
   the same way, keeps checkpointing on cadence (the drain after a
   two-thirds kill lasts about eight rounds, so only the cadence-2
   point can tell a drain that defers its checkpoints). *)
let recover_point pool ~sessions ~every =
  let specs = Serve.Stream.mixed ~tweak:soak_tweak ~seed:42 ~sessions () in
  let sconfig =
    { (soak_sconfig ~sessions) with checkpoint_every_rounds = every }
  in
  let svc = Serve.Service.create ~sconfig ~pool () in
  List.iter (fun sp -> ignore (Serve.Drive.submit svc sp)) specs;
  let harvested =
    step_harvesting
      ~stop:(fun () ->
        (Serve.Service.stats svc).st_completed >= 2 * sessions / 3)
      svc
  in
  let bytes = Serve.Service.journal_bytes svc in
  let replayed =
    List.fold_left
      (fun n -> function
        | Serve.Journal.Rec (Serve.Journal.Checkpoint _) -> 0
        | Serve.Journal.Rec (Serve.Journal.Round _) -> n + 1
        | _ -> n)
      0 (Serve.Journal.load bytes)
  in
  if replayed >= every then
    fail
      "recover gate: %d sessions: %d rounds after the newest checkpoint \
       (cadence %d)"
      sessions replayed every;
  let resolve name =
    List.find_opt (fun (sp : Serve.Service.spec) -> sp.sp_name = name) specs
  in
  match Serve.Service.recover ~pool ~resolve bytes with
  | Error e ->
    fail "recover gate: recover refused at %d sessions, cadence %d: %s"
      sessions every
      (Serve.Service.rerror_to_string e)
  | Ok svc ->
    let before = Serve.Service.stats svc in
    let drained = step_harvesting svc in
    let after = Serve.Service.stats svc in
    let rounds = after.st_rounds - before.st_rounds
    and ckpts = after.st_checkpoints - before.st_checkpoints in
    if ckpts < (rounds / every) - 1 then
      fail
        "recover gate: %d sessions: %d checkpoint(s) over %d rounds drained \
         after recovery (cadence %d)"
        sessions ckpts rounds every;
    let names = Hashtbl.create sessions in
    List.iter
      (fun (c : Serve.Service.completion) -> Hashtbl.replace names c.c_name ())
      (harvested @ drained);
    if Hashtbl.length names <> sessions then
      fail "recover gate: %d of %d sessions completed across the kill"
        (Hashtbl.length names) sessions;
    let st = Serve.Service.stats svc in
    if st.st_divergences <> 0 then
      fail "recover gate: %d replay divergences at %d sessions"
        st.st_divergences sessions;
    Printf.printf
      "recover: %3d sessions, cadence %2d: %d round(s) replayed, every \
       session accounted for, %d checkpoint(s) over %d drained round(s)\n%!"
      sessions every replayed ckpts rounds

(* The chaos soak: 3 waves of [sessions] interleaved sessions, each
   wave a fresh service driven to completion under seeded kills, torn
   journal tails and corrupted checkpoints.  Gates: every session
   completes, refusals bounded by damaged kills, the final
   incarnation's ledger balances, at least one kill landed, and the
   live heap stays flat across waves. *)
let chaos_soak pool ~sessions =
  let specs = Serve.Stream.mixed ~tweak:soak_tweak ~seed:42 ~sessions () in
  let sconfig =
    { (soak_sconfig ~sessions) with checkpoint_every_rounds = 8 }
  in
  let rates =
    { Faults.Chaos.kill = 0.15; ckpt_corrupt = 0.25; torn_write = 0.25;
      poison = 0.0 }
  in
  let wave i =
    let oc =
      Serve.Drive.run ~pool ~rates ~seed:(42 + i) ~specs
        (Serve.Service.create ~sconfig ~pool ())
    in
    let completed = List.length oc.o_done in
    if completed <> sessions then
      fail "chaos soak: wave %d: %d of %d sessions completed" i completed
        sessions;
    (* A recovery refusal is legal only when the kill's damage ate
       every checkpoint; the campaign then continued on the live
       object and the completion count above proves nothing was
       lost. *)
    let damaged = oc.o_torn + oc.o_corrupted in
    if oc.o_failed_recoveries > damaged then
      fail "chaos soak: wave %d: %d refusals exceed the %d damaged kills" i
        oc.o_failed_recoveries damaged;
    let st = Serve.Service.stats oc.o_service in
    if st.st_submitted <> st.st_completed + st.st_rejected then
      fail
        "chaos soak: wave %d ledger: %d submitted <> %d completed + %d \
         rejected"
        i st.st_submitted st.st_completed st.st_rejected;
    let kills = oc.o_kills in
    ignore (Sys.opaque_identity oc);
    let words = live_words () in
    Printf.printf
      "chaos: wave %d: %d sessions, %d kill(s) (%d damaged), live words %d\n%!"
      i sessions kills damaged words;
    (kills, words)
  in
  let waves = List.map wave [ 1; 2; 3 ] in
  if List.for_all (fun (k, _) -> k = 0) waves then
    fail "chaos soak: the service was never killed";
  (* Every wave builds a fresh service and draws different kills, so
     the final heap shape jitters by a few hundred words; a real
     session leak is megabytes, so 1% slack loses no detection. *)
  match List.rev_map snd waves with
  | w3 :: w2 :: _ when w3 > w2 + (w2 / 100) ->
    fail "chaos soak: live words grew across waves (%d -> %d)" w2 w3
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Storm-proof triage: a duplicate-heavy stream (80% re-reports of a
   few hot bugs) through one triaging service, against the same storm
   without triage and against the storm-free baseline (the fresh
   traffic alone).  Every comparison is in scheduler rounds, so the
   gates are deterministic at any core count. *)

(* Storm streams name duplicate re-reports "<bug>@<k>"; fresh traffic
   keeps its own name.  (Hot bugs' own first arrival is also "@"-named
   — its fingerprint is new, but the bug is the storm's, so it stays
   out of the fresh-latency metrics.) *)
let is_fresh_name name = not (String.contains name '@')

let storm_sconfig ~sessions ~triage =
  {
    (soak_sconfig ~sessions) with
    Serve.Service.triage;
    (* One round of grace after a diagnosis, then duplicates re-open
       the cluster as recurrences — so multi-wave soaks exercise the
       recurrence lane, not just coalescing. *)
    recency_rounds = 1;
  }

(* Completion rounds of the fresh-named sessions: (first, last). *)
let fresh_rounds completions =
  List.fold_left
    (fun (first, last) (c : Serve.Service.completion) ->
      if is_fresh_name c.c_name then
        ( (if first = 0 then c.c_completed_round
           else min first c.c_completed_round),
          max last c.c_completed_round )
      else (first, last))
    (0, 0) completions

(* Every submission is completed, refused, coalesced or shed — never
   silently lost — and nothing is left behind. *)
let storm_ledger_check label svc =
  let st = Serve.Service.stats svc in
  if
    st.st_submitted
    <> st.st_completed + st.st_rejected + st.st_coalesced + st.st_shed
    || Serve.Service.inflight svc <> 0
    || Serve.Service.queued svc <> 0
  then
    fail
      "storm (%s): ledger does not balance: %d submitted, %d completed, %d \
       rejected, %d coalesced, %d shed, %d in flight, %d queued"
      label st.st_submitted st.st_completed st.st_rejected st.st_coalesced
      st.st_shed
      (Serve.Service.inflight svc)
      (Serve.Service.queued svc);
  st

let storm pool ~sessions =
  let specs =
    Serve.Stream.storm ~tweak:soak_tweak ~seed:42 ~sessions ~dup_ratio:0.8 ()
  in
  let fresh_specs =
    List.filter (fun (sp : Serve.Service.spec) -> is_fresh_name sp.sp_name) specs
  in
  let one label ~triage specs =
    let svc =
      Serve.Service.create ~sconfig:(storm_sconfig ~sessions ~triage) ~pool ()
    in
    let oc = Serve.Drive.run ~pool ~specs svc in
    (fresh_rounds (List.map snd oc.o_done), storm_ledger_check label svc)
  in
  let (first_on, last_on), st_on = one "triage" ~triage:true specs in
  let (first_off, last_off), _ = one "no-triage" ~triage:false specs in
  let (_, last_free), st_free = one "storm-free" ~triage:true fresh_specs in
  (* Triage never delays the fresh traffic relative to the same storm
     without it. *)
  if last_on > last_off || first_on > first_off then
    fail
      "storm: triage delayed fresh diagnoses (first %d vs %d, last %d vs %d)"
      first_on first_off last_on last_off;
  (* No regression against the storm-free baseline beyond one
     in-flight window of slack. *)
  let slack = (storm_sconfig ~sessions ~triage:true).max_inflight in
  if last_on > last_free + slack then
    fail
      "storm: the storm pushed the last fresh diagnosis to round %d \
       (storm-free %d + slack %d)"
      last_on last_free slack;
  (* At 80% duplicates at least half the offered sessions coalesce
     (the rest are first arrivals and recurrences). *)
  let dedup =
    float_of_int st_on.st_coalesced /. float_of_int st_on.st_submitted
  in
  if dedup < 0.5 then fail "storm: dedup ratio %.2f below 0.5" dedup;
  let fresh_wait_bound = st_free.st_max_wait_rounds + slack in
  if st_on.st_fresh_wait_rounds > fresh_wait_bound then
    fail "storm: fresh lane waited %d rounds (storm-free bound %d + %d)"
      st_on.st_fresh_wait_rounds st_free.st_max_wait_rounds slack;
  (* A tight waiting room under the same storm: shedding is typed,
     counted and ledger-balanced. *)
  let shed_svc =
    Serve.Service.create
      ~sconfig:
        {
          (storm_sconfig ~sessions ~triage:true) with
          max_inflight = 4;
          max_queue = 4;
          round_budget = 32;
        }
      ~pool ()
  in
  ignore (Serve.Drive.run ~pool ~specs shed_svc);
  let st_shed = storm_ledger_check "shed" shed_svc in
  (* Three storm waves through ONE service: diagnosed clusters re-open
     as recurrences, and the cluster table, lanes and journal must
     stay bounded — flat live heap. *)
  let soak_svc =
    Serve.Service.create ~sconfig:(storm_sconfig ~sessions ~triage:true) ~pool
      ()
  in
  let wave () =
    ignore (Sys.opaque_identity (Serve.Drive.run ~pool ~specs soak_svc));
    live_words ()
  in
  let w1 = wave () in
  let w2 = wave () in
  let w3 = wave () in
  let st_soak = storm_ledger_check "soak" soak_svc in
  if w3 > w2 + (w2 / 100) then
    fail "storm: live words grew across storm waves (%d -> %d)" w2 w3;
  if st_soak.st_recur_admitted = 0 then
    fail "storm: the soak never exercised the recurrence lane";
  if st_soak.st_fresh_wait_rounds > fresh_wait_bound then
    fail "storm: soak fresh lane waited %d rounds (storm-free bound %d + %d)"
      st_soak.st_fresh_wait_rounds st_free.st_max_wait_rounds slack;
  Printf.printf
    "storm: %d sessions at 80%% duplicates: dedup %.2f, fresh rounds \
     first/last %d/%d (no triage %d/%d, storm-free last %d); tight queue \
     shed %d; soak live words %d %d %d, %d recurrence-admitted\n%!"
    sessions dedup first_on last_on first_off last_off last_free
    st_shed.st_shed w1 w2 w3 st_soak.st_recur_admitted

(* ------------------------------------------------------------------ *)
(* Adaptive early exit against the exhaustive oracle, both unattended
   under the production fleet regime ([Experiments.Adaptive.fleet_base]). *)

(* Everything observable about one diagnosis, as a string: dispatch
   and iteration counts, the per-iteration trace (stopping-rule
   verdicts included) and the final ranking with counts.  Two runs are
   bit-identical when these agree. *)
let diagnosis_signature (d : Gist.Server.diagnosis) =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "dispatched=%d iterations=%d recurrences=%d|"
    d.fleet.f_dispatched d.iterations d.recurrences;
  List.iter
    (fun (it : Gist.Server.iteration_info) ->
      Printf.bprintf buf "it(sigma=%d,clients=%d,fails=%d,succs=%d,%s)"
        it.it_sigma it.it_clients it.it_fails it.it_succs
        (match it.it_early_exit with
         | None -> "-"
         | Some e -> Gist.Server.early_exit_label e))
    d.trace;
  Buffer.add_char buf '|';
  List.iter
    (fun (r : Predict.Stats.ranked) ->
      Printf.bprintf buf "%s(f=%d,s=%d);"
        (Predict.Predictor.to_string r.predictor)
        r.n_failing_with r.n_success_with)
    d.sketch.Fsketch.Sketch.predictors;
  Buffer.contents buf

(* Gates: on every Bugbase bug and every case of the 25-case seed-42
   fuzz campaign the top-1 predictor matches the exhaustive oracle;
   dispatched clients strictly decrease on the Bugbase and in total;
   the Bugbase mean of per-bug dispatch ratios is >= 3x; the adaptive
   Pbzip2 diagnosis is bit-identical at --jobs 1 and 4; and early exit
   keeps the worst-pattern accuracy of a 27-case seed-42 campaign at
   1.000, and >= 0.95 under 10% aggregate injected faults. *)
let adaptive_gate () =
  let t = Experiments.Adaptive.run () in
  (match
     List.filter
       (fun (r : Experiments.Adaptive.row) -> not r.r_top_identical)
       t.rows
   with
   | [] -> ()
   | l ->
     fail "adaptive gate: Bugbase top predictor diverged on %s"
       (String.concat ", "
          (List.map (fun (r : Experiments.Adaptive.row) -> r.r_bug) l)));
  if t.total_ad >= t.total_exh then
    fail "adaptive gate: Bugbase adaptive dispatched %d >= exhaustive %d"
      t.total_ad t.total_exh;
  if t.mean_ratio < 3.0 then
    fail "adaptive gate: mean per-bug dispatch ratio %.2f is below the 3x \
          target"
      t.mean_ratio;
  let fuzz_exh = ref 0 and fuzz_ad = ref 0 in
  let cases = Fuzz.Runner.cases ~seed:42 ~count:25 () in
  List.iteri
    (fun i case ->
      let oe = Fuzz.Check.check ~use_oracle:false case in
      let oa = Fuzz.Check.check ~early_exit:true ~use_oracle:false case in
      let disp (o : Fuzz.Check.outcome) =
        match o.fleet with Some f -> f.Gist.Server.f_dispatched | None -> 0
      in
      fuzz_exh := !fuzz_exh + disp oe;
      fuzz_ad := !fuzz_ad + disp oa;
      if oe.top <> oa.top then
        fail
          "adaptive gate: fuzz case %d (%s): top diverged (exhaustive %s, \
           adaptive %s)"
          i case.Fuzz.Gen.c_name
          (Option.value ~default:"-" oe.top)
          (Option.value ~default:"-" oa.top))
    cases;
  let total_exh = t.total_exh + !fuzz_exh in
  let total_ad = t.total_ad + !fuzz_ad in
  if total_ad >= total_exh then
    fail "adaptive gate: total dispatched did not decrease (%d -> %d)"
      total_exh total_ad;
  let bug = Bugbase.Pbzip2.bug in
  let config =
    { Experiments.Adaptive.fleet_base with Gist.Config.early_exit = true }
  in
  let signature_at jobs =
    Parallel.Pool.with_pool ~jobs (fun pool ->
        match
          Experiments.Harness.diagnose_bug ~config ~pool ~with_oracle:false bug
        with
        | Some r -> diagnosis_signature r.diagnosis
        | None -> fail "adaptive gate: %s failure did not manifest" bug.name)
  in
  let s1 = signature_at 1 and s4 = signature_at 4 in
  if s1 <> s4 then
    fail "adaptive gate: %s diagnosis differs between --jobs 1 and 4:\n%s\nvs\n%s"
      bug.name s1 s4;
  (* The ground-truth campaigns re-run with the stopping rule on: it
     must not trade accuracy for the saved budget. *)
  let campaign ?faults () =
    Fuzz.Runner.min_pattern_accuracy
      (Fuzz.Runner.run ~jobs:(gate_jobs ()) ~shrink:false ~early_exit:true
         ?faults ~seed:42 ~count:27 ())
  in
  let clean = campaign () in
  if clean < 1.0 then
    fail "adaptive gate: early exit dropped fuzz worst-pattern accuracy to \
          %.3f (must stay 1.000)"
      clean;
  let faulty = campaign ~faults:(Faults.Fault.spread 0.10, 42) () in
  if faulty < 0.95 then
    fail "adaptive gate: early exit under 10%% faults dropped worst-pattern \
          accuracy to %.3f (floor 0.95)"
      faulty;
  Printf.printf
    "adaptive: top-1 identical on %d bugs + %d fuzz cases; dispatched %d -> \
     %d (Bugbase %d -> %d, mean per-bug ratio %.2fx); %s bit-identical at \
     --jobs 1 and 4; fuzz worst pattern %.3f, %.3f at 10%% faults\n%!"
    (List.length t.rows) (List.length cases) total_exh total_ad t.total_exh
    t.total_ad t.mean_ratio bug.name clean faulty

(* ------------------------------------------------------------------ *)
(* Allocation per interpreted step of a monitored client run: minor
   words (this domain's, so deterministic) over [r_steps], summed over
   20 runs of each bug under its first plan (the sigma0 slice prefix).
   The instrumented hot path allocates only at plan sites, so a
   per-step closure or record creeping back into the interpreter, the
   hook dispatch or the PT recorder fails here, not just in a
   benchmark.  Each bound is about 1.5x the bug's measured figure
   (3.6, 8.1 and 8.8 words/step; the per-step hook path allocated 31,
   39 and 43).  What remains is mostly boxed values and the PT decode's
   per-instruction output, proportional to what the client reports. *)

let alloc_gate () =
  let runs = 20 in
  List.iter
    (fun ((bug : Bugbase.Common.t), bound) ->
      let _, failure = Option.get (Bugbase.Common.find_target_failure bug) in
      let plan =
        Instrument.Place.compute bug.program
          (Slicing.Slicer.take
             (Slicing.Slicer.compute bug.program failure)
             Gist.Config.default.Gist.Config.sigma0)
      in
      let sites = Instrument.Plan.sites plan in
      let run c =
        Gist.Client.run_sites ~preempt_prob:bug.preempt_prob ~sites
          ~wp_allowed:plan.Instrument.Plan.wp_targets bug.program
          (bug.workload_of c)
      in
      (* Warm the per-program caches (lowering, decode tables) first. *)
      ignore (run 0);
      let steps = ref 0 in
      let w0 = Gc.minor_words () in
      for c = 0 to runs - 1 do
        steps := !steps + (run c).Gist.Client.r_steps
      done;
      let per_step = (Gc.minor_words () -. w0) /. float_of_int !steps in
      if per_step > bound then
        fail "alloc gate: %s allocates %.2f minor words per step (bound %.1f)"
          bug.name per_step bound;
      Printf.printf
        "alloc: %s: %.2f minor words/step over %d runs, %d steps (bound %.1f)\n%!"
        bug.name per_step runs !steps bound)
    Bugbase.[ (Curl.bug, 5.5); (Pbzip2.bug, 12.0); (Sqlite.bug, 13.0) ]

(* ------------------------------------------------------------------ *)

let smoke () =
  alloc_gate ();
  ingest_gate ();
  with_pool (fun pool ->
      serve_gate pool;
      List.iter
        (fun (sessions, every) -> recover_point pool ~sessions ~every)
        [ (20, 8); (40, 8); (60, 8); (30, 4); (30, 16); (60, 2) ];
      chaos_soak pool ~sessions:60;
      storm pool ~sessions:120)

let gates =
  [
    ("smoke", smoke);
    ("adaptive_gate", adaptive_gate);
    ("recover_soak", fun () -> with_pool (chaos_soak ~sessions:200));
    ("storm_soak", fun () -> with_pool (storm ~sessions:200));
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  List.iter
    (fun name ->
      match List.assoc_opt name gates with
      | Some f ->
        Printf.printf "=== %s ===\n%!" name;
        f ()
      | None ->
        Printf.eprintf "unknown gate %s (known: %s)\n" name
          (String.concat ", " (List.map fst gates));
        exit 1)
    (if args = [] then List.map fst gates else args)
