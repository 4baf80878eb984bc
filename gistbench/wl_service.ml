(* Workload [service]: open loop, because production failures arrive
   independently of the service.  A seeded storm-shaped stream (fresh
   Bugbase and fuzz bugs plus duplicates of a hot subset, under the
   stream's standard 10% fleet-fault regime) is submitted to one
   triaging, journaling [Serve.Service] on a fixed arrival schedule;
   the benchmark steps the service between arrivals and harvests after
   every step.  At a fixed round it copies the journal; after the
   stream it recovers a second service from those bytes, drains it,
   and compares its completions with the uninterrupted run's.  Sessions
   reach the server layers through the scheduler; duplicates take
   triage's coalesce path, fresh bugs the admit path. *)

open Gistbench
open Common

(* Offered load: 150 arrivals a second, about 22 of which open a
   session -- under a tenth of the roughly 550 sessions per busy second
   the service completes on a 2-core host, so latency is service time,
   not queueing, and stays steady on a host whose speed drifts. *)
let rate = 150.0
let dup_ratio = 0.8

(* A diagnosis returned later than this after its arrival was due
   counts as a miss. *)
let latency_limit_s = 2.0

(* The round at which the journal is copied for the recovery check: two
   fifths of the way through the stream's arrivals in rounds (a round
   per arrival or more at this load), plus 3 so that recovery has rounds
   to replay past the last checkpoint. *)
let kill_round ~arrivals = (2 * arrivals / 5) + 3

let sconfig =
  {
    Serve.Service.default with
    Serve.Service.max_inflight = 32;
    max_queue = 512;
    round_budget = 128;
    checkpoint_every_rounds = 8;
    triage = true;
    max_clusters = 4096;
    recency_rounds = 0;
  }

let wave_sessions = 150

(* The stream is a run of storm waves.  Wave [w]'s population (its
   fuzz cases and hot set) is fixed, from storm seed [w]; the run's
   seed orders the waves and seeds the fleet faults.  A population
   drawn afresh per seed swung throughput and tail latency by more than
   10% between seeds, because a few fuzz cases and hot sets cost far
   more than the rest. *)
let setup ~seed ~sessions () =
  let waves = max 1 ((sessions + wave_sessions - 1) / wave_sessions) in
  let order = Array.init waves Fun.id in
  let rng = Random.State.make [| seed; 0x5e7e |] in
  for i = waves - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let faults = (Serve.Stream.default_fault_rates, seed) in
  (* Every Bugbase bug under the storm's own configuration, so these
     sessions share the storm sessions' fingerprints. *)
  let bugbase =
    List.filter_map
      (fun (bug : Bugbase.Common.t) ->
        Serve.Stream.bugbase_spec ~faults ~name:("warm/" ^ bug.name) bug)
      Bugbase.Registry.all
  in
  let waves =
    List.concat_map
      (fun w ->
        Serve.Stream.storm ~faults ~seed:w ~sessions:wave_sessions ~dup_ratio ()
        |> List.map (fun (sp : Serve.Service.spec) ->
               { sp with Serve.Service.sp_name = Printf.sprintf "w%d/%s" w sp.sp_name }))
      (Array.to_list order)
  in
  let specs = bugbase @ waves in
  let by_name = Hashtbl.create (List.length specs) in
  List.iter (fun (sp : Serve.Service.spec) -> Hashtbl.replace by_name sp.sp_name sp) specs;
  (Array.of_list specs, List.length bugbase + wave_sessions, by_name)

let completion_signature (c : Serve.Service.completion) =
  match c.c_result with
  | Ok d -> diagnosis_signature d
  | Error f -> "failed:" ^ Serve.Service.failure_reason_label f.sf_reason

let ledger_balances svc (st : Serve.Service.stats) =
  st.st_submitted
  = st.st_completed + st.st_rejected + st.st_coalesced + st.st_shed
    + Serve.Service.queued svc + Serve.Service.inflight svc

type stream_result = {
  kill_round : int;
  ledger : Openloop.ledger;
  warmup_s : float;  (** the untimed first wave, submitted at once and drained *)
  busy_s : float;
  completed : int;
  stats : Serve.Service.stats;
  ledger_ok : bool;
  signatures : (string, string) Hashtbl.t;   (** name -> signature, uninterrupted run *)
  expected_after_kill : string list;  (** ticketed before the kill, not yet harvested *)
  ticketed_before_kill : (string, unit) Hashtbl.t;
  journal : string option;  (** bytes copied at [kill_round] *)
  step_ckpt : float list;
  step_plain : float list;
  inflight : float list;
  queued_max : int;
  busy_ref_s : float;  (** [busy_s] at reference host speed *)
  ttd_ref : float list;  (** successful latencies at reference host speed *)
}

(* Submit [specs] on the open-loop schedule, stepping and harvesting
   between arrivals until the service is idle. *)
let run_stream ctx tr gcev (specs, warmup) =
  let span name id f = Trace.span_opt tr ~name ~id f in
  (* Every stream starts from cold analysis caches, as the first one
     of a run does. *)
  Analysis.Cache.clear ();
  let svc = Serve.Service.create ~sconfig ~pool:ctx.pool () in
  let total = Array.length specs in
  let ledger = Openloop.ledger ~limit_s:latency_limit_s in
  let due_of = Hashtbl.create total in
  let signatures = Hashtbl.create total in
  let harvested = Hashtbl.create total in
  let ticketed_before_kill = Hashtbl.create total in
  let journal = ref None and expected_after_kill = ref [] in
  let busy = ref 0. and completed = ref 0 and next = ref 0 in
  let step_ckpt = ref [] and step_plain = ref [] and inflight = ref [] in
  let queued_max = ref 0 and ledger_ok = ref true in
  let warm = Hashtbl.create warmup in
  (* Host-speed samples: one before, one after, and one every 50 ms of
     the stream while the generator would otherwise sleep for at least
     3 ms, so sampling never delays an arrival or a step. *)
  let kernels = ref [ (Clock.now_ns (), Calib.sample ()) ] and last_sample = ref 0 in
  let steps = ref [] and latencies = ref [] in
  let harvest () =
    let cs, shed =
      span "service.harvest" "" (fun () ->
          (Serve.Service.take_completions svc, Serve.Service.take_shed svc))
    in
    let now = Clock.now_ns () in
    List.iter
      (fun (c : Serve.Service.completion) ->
        incr completed;
        Hashtbl.replace harvested c.c_name ();
        Hashtbl.replace signatures c.c_name (completion_signature c);
        match Hashtbl.find_opt due_of c.c_id with
        | Some due ->
          Hashtbl.remove due_of c.c_id;
          Openloop.completed ledger ~due_ns:due ~harvest_ns:now ~ok:(Result.is_ok c.c_result);
          if Result.is_ok c.c_result then latencies := (due, now) :: !latencies
        | None -> if not (Hashtbl.mem warm c.c_id) then ledger_ok := false)
      cs;
    List.iter
      (fun (n : Serve.Service.shed_notice) ->
        Hashtbl.remove due_of n.sh_id;
        Openloop.refused ledger)
      shed
  in
  (* Warm-up, untimed: one session per Bugbase bug and the first wave
     are submitted at once and drained before the open-loop clock
     starts.  That is every Bugbase bug's first diagnosis -- eleven
     heavy sessions, which slow every session beside them -- so in the
     timed stream Bugbase arrivals coalesce onto their clusters.  Timed,
     that burst put the 95th-percentile latency on the knee between it
     and the fuzz sessions, where it moved by up to 2x between runs; and
     a Bugbase bug the first wave happened to miss did the same later. *)
  let warm_t0 = Clock.now_ns () in
  for k = 0 to warmup - 1 do
    match Serve.Service.submit svc specs.(k) with
    | Ok (Serve.Service.Ticket id) ->
      Hashtbl.replace warm id ();
      Hashtbl.replace ticketed_before_kill specs.(k).sp_name ()
    | Ok (Serve.Service.Coalesced _) | Error _ -> ()
  done;
  Serve.Service.drain svc;
  harvest ();
  let warmup_s = Clock.since_s warm_t0 in
  let busy0 = !busy and completed0 = !completed in
  next := warmup;
  let timed = total - warmup in
  let kill_round = kill_round ~arrivals:timed in
  let start_ns = Clock.now_ns () in
  let body () =
    let rec loop () =
      let due_now =
        warmup + Openloop.due_count ~start_ns ~rate ~total:timed ~now_ns:(Clock.now_ns ())
      in
      while !next < due_now do
        let k = !next in
        incr next;
        let sp = specs.(k) in
        let due = Openloop.due_ns ~start_ns ~rate (k - warmup) in
        Openloop.submitted ledger ~due_ns:due ~sent_ns:(Clock.now_ns ());
        (match span "service.submit" (string_of_int k) (fun () -> Serve.Service.submit svc sp) with
         | Ok (Serve.Service.Ticket id) ->
           Hashtbl.replace due_of id due;
           if !journal = None then Hashtbl.replace ticketed_before_kill sp.sp_name ()
         | Ok (Serve.Service.Coalesced _) -> Openloop.coalesced ledger
         | Error _ -> Openloop.refused ledger);
        queued_max := max !queued_max (Serve.Service.queued svc)
      done;
      if Serve.Service.inflight svc + Serve.Service.queued svc > 0 then begin
        let ck0 = (Serve.Service.stats svc).st_checkpoints in
        let round = (Serve.Service.stats svc).st_rounds in
        let worked, dt =
          Clock.time (fun () ->
              span "service.step" (string_of_int round) (fun () -> Serve.Service.step svc))
        in
        if worked then begin
          busy := !busy +. dt;
          steps := (Clock.now_ns (), dt) :: !steps;
          let st = Serve.Service.stats svc in
          if st.st_checkpoints > ck0 then step_ckpt := dt :: !step_ckpt
          else step_plain := dt :: !step_plain;
          inflight := float_of_int (Serve.Service.inflight svc) :: !inflight
        end;
        harvest ();
        (match gcev with Some g -> Gc_events.poll g | None -> ());
        if !journal = None && (Serve.Service.stats svc).st_rounds >= kill_round then begin
          if not (ledger_balances svc (Serve.Service.stats svc)) then ledger_ok := false;
          journal := Some (Serve.Service.journal_bytes svc);
          expected_after_kill :=
            Hashtbl.fold
              (fun name () acc -> if Hashtbl.mem harvested name then acc else name :: acc)
              ticketed_before_kill []
        end;
        loop ()
      end
      else if !next < total then begin
        let now = Clock.now_ns () in
        let wait_ns = Openloop.due_ns ~start_ns ~rate (!next - warmup) - now in
        if wait_ns > 3_000_000 && now - !last_sample > 50_000_000 then begin
          last_sample := now;
          kernels := (now, span "calib" "" Calib.kernel) :: !kernels
        end
        else if wait_ns > 0 then
          span "generator.sleep" "" (fun () -> Unix.sleepf (Clock.to_s wait_ns));
        loop ()
      end
    in
    loop ()
  in
  span "stream" "" body;
  kernels := (Clock.now_ns (), Calib.sample ()) :: !kernels;
  (* Host speed is scaled locally: by the median kernel time within a
     second of the step or session, since the speed drifts within a
     run. *)
  let kernel_near t0 t1 =
    match
      List.filter_map
        (fun (t, k) -> if t >= t0 - 1_000_000_000 && t <= t1 + 1_000_000_000 then Some k else None)
        !kernels
    with
    | [] -> Summary.median (List.map snd !kernels)
    | ks -> Summary.median ks
  in
  let busy_ref_s =
    List.fold_left
      (fun a (t, dt) -> a +. Calib.scale ~kernel_s:(kernel_near t t) dt)
      0. !steps
  in
  let ttd_ref =
    List.rev_map
      (fun (due, harvest) ->
        Calib.scale ~kernel_s:(kernel_near due harvest) (Clock.to_s (harvest - due)))
      !latencies
  in
  let stats = Serve.Service.stats svc in
  if not (ledger_balances svc stats) || Hashtbl.length due_of <> 0 then ledger_ok := false;
  {
    kill_round;
    ledger;
    warmup_s;
    busy_s = !busy -. busy0;
    completed = !completed - completed0;
    stats;
    ledger_ok = !ledger_ok;
    signatures;
    expected_after_kill = !expected_after_kill;
    ticketed_before_kill;
    journal = !journal;
    step_ckpt = !step_ckpt;
    step_plain = !step_plain;
    inflight = !inflight;
    queued_max = !queued_max;
    busy_ref_s;
    ttd_ref;
  }

type recovery = {
  recover_s : float;
  load_s : float;
  replayed_rounds : int;
  journal_bytes : int;
  checks : check list;
}

(* Rounds journaled after the newest intact checkpoint: what recovery
   must replay. *)
let rounds_after_checkpoint entries =
  List.fold_left
    (fun n e ->
      match e with
      | Serve.Journal.Rec (Serve.Journal.Checkpoint _) -> 0
      | Serve.Journal.Rec (Serve.Journal.Round _) -> n + 1
      | _ -> n)
    0 entries

let recover ctx tr by_name r =
  let span name f = Trace.span_opt tr ~name ~id:"" f in
  match r.journal with
  | None ->
    {
      recover_s = 0.;
      load_s = 0.;
      replayed_rounds = 0;
      journal_bytes = 0;
      checks = [ check "kill-round" false (Printf.sprintf "round %d never reached" r.kill_round) ];
    }
  | Some bytes ->
    let entries, load_s = Clock.time (fun () -> span "journal.load" (fun () -> Serve.Journal.load bytes)) in
    let recovered, recover_s =
      Clock.time (fun () ->
          span "service.recover" (fun () ->
              Serve.Service.recover ~pool:ctx.pool ~resolve:(Hashtbl.find_opt by_name) bytes))
    in
    let checks =
      match recovered with
      | Error e -> [ check "recover" false (Serve.Service.rerror_to_string e) ]
      | Ok svc ->
        Serve.Service.drain svc;
        let cs = Serve.Service.take_completions svc in
        let got = Hashtbl.create 16 in
        let diverged =
          List.filter
            (fun (c : Serve.Service.completion) ->
              Hashtbl.replace got c.c_name ();
              (not (Hashtbl.mem r.ticketed_before_kill c.c_name))
              || Hashtbl.find_opt r.signatures c.c_name <> Some (completion_signature c))
            cs
        in
        let missing = List.filter (fun n -> not (Hashtbl.mem got n)) r.expected_after_kill in
        [
          check "recover-identical" (diverged = [])
            (Printf.sprintf "%d recovered completions differ from the uninterrupted run"
               (List.length diverged));
          check "recover-complete" (missing = [])
            (Printf.sprintf "%d sessions in flight at the kill never completed after recovery"
               (List.length missing));
        ]
    in
    {
      recover_s;
      load_s;
      replayed_rounds = rounds_after_checkpoint entries;
      journal_bytes = String.length bytes;
      checks;
    }

let stream_checks r =
  [
    check "ledger" r.ledger_ok
      "submitted <> completed + rejected + coalesced + shed + queued + in flight";
  ]

let run ctx =
  (* The traced run splits its time between an untraced and a traced
     stream, each half as long. *)
  let stream_s = if ctx.trace then ctx.seconds /. 2. else ctx.seconds in
  let sessions = wave_sessions + max 1 (int_of_float (Float.round (rate *. stream_s))) in
  let (specs, warmup, by_name), setup_s, setup_ref_s =
    repeat_setup (setup ~seed:ctx.seed ~sessions)
  in
  let stream = (specs, warmup) in
  let ttd r = Openloop.ttd_s r.ledger in
  let fails r = Openloop.failed_count r.ledger + Openloop.refused_count r.ledger in
  if not ctx.trace then begin
    let r = run_stream ctx None None stream in
    let rc = recover ctx None by_name r in
    let ttd = ttd r in
    let sessions_per_s = ratio (float_of_int r.completed) r.busy_s in
    let heap = peak_heap_mb () in
    let checks = stream_checks r @ rc.checks in
    {
      attempted = Openloop.attempted r.ledger;
      failed =
        fails r + List.length (List.filter (fun c -> not c.c_ok) checks);
      checks;
      setup_s;
      setup_ref_s;
      measured =
        [
          ("sessions_per_s", "1/s", [ sessions_per_s ]);
          ("ttd_s", "s", ttd);
          ("ttd_ref_s", "s", r.ttd_ref);
          ("miss_ratio", "1", [ Openloop.miss_ratio r.ledger ]);
          ("recover_s", "s", [ rc.recover_s ]);
          ("warmup_s", "s", [ r.warmup_s ]);
          ("peak_heap_mb", "MB", [ heap ]);
        ];
      contract =
        [
          ("setup_s", Summary.median setup_ref_s);
          ("throughput_per_s", ratio (float_of_int r.completed) r.busy_ref_s);
          ("latency_p50_s", Summary.median (if r.ttd_ref = [] then [ 0. ] else r.ttd_ref));
          ("peak_heap_mb", heap);
        ];
      layers = [];
      spans = None;
    }
  end
  else begin
    let tr = Trace.create () in
    let gcev = Gc_events.create () in
    let u, gc_u = gc_delta (fun () -> run_stream ctx None None stream) in
    let r = Gc_events.during gcev (fun () -> run_stream ctx (Some tr) (Some gcev) stream) in
    let rc = recover ctx (Some tr) by_name r in
    let rows = Trace.by_name tr in
    let self name = let _, _, s = Trace.lookup rows name in s in
    let total name = let _, t, _ = Trace.lookup rows name in t in
    let st = r.stats in
    let mean l = if l = [] then 0. else List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
    let layers =
      [
        ("service.submit_s", self "service.submit");
        ("triage.coalesced", float_of_int st.st_coalesced);
        ("triage.dedup_ratio", ratio (float_of_int st.st_coalesced) (float_of_int st.st_submitted));
        ("service.refused", float_of_int (st.st_rejected + st.st_shed));
        ("service.step_s", self "service.step");
        ("service.rounds", float_of_int st.st_rounds);
        ("service.slots_per_round", ratio (float_of_int st.st_slots) (float_of_int st.st_rounds));
        ("service.queued_max", float_of_int r.queued_max);
        ("service.inflight_mean", mean r.inflight);
        ("service.max_wait_rounds", float_of_int st.st_max_wait_rounds);
        ("service.fresh_wait_rounds", float_of_int st.st_fresh_wait_rounds);
        ("service.step_ckpt_s", mean r.step_ckpt);
        ("service.step_plain_s", mean r.step_plain);
        ("service.miss_ratio", Openloop.miss_ratio r.ledger);
        ("journal.bytes", float_of_int rc.journal_bytes);
        ("journal.load_s", rc.load_s);
        ("recover.replayed_rounds", float_of_int rc.replayed_rounds);
        ("recover.total_s", rc.recover_s);
        ("generator.late_max_s", Openloop.late_max_s r.ledger);
        ("gc.minor_s", Gc_events.minor_s gcev);
        ("gc.major_s", Gc_events.major_s gcev);
        ( "unaccounted_share",
          1.
          -. ratio
               (self "service.submit" +. self "service.step" +. self "service.harvest"
               +. self "generator.sleep" +. self "calib")
               (total "stream") );
        (* Busy seconds per completed session at reference host speed,
           traced over untraced. *)
        ( "trace.overhead_share",
          let per r =
            ratio r.busy_ref_s (float_of_int r.completed)
          in
          ratio (per r -. per u) (per u) );
      ]
      @ gc_layers [ gc_u ]
    in
    let checks = stream_checks u @ stream_checks r @ rc.checks in
    {
      attempted = Openloop.attempted u.ledger + Openloop.attempted r.ledger;
      failed = fails u + fails r + List.length (List.filter (fun c -> not c.c_ok) checks);
      checks;
      setup_s;
      setup_ref_s;
      measured = [];
      contract = [];
      layers = fill_layers layers;
      spans = Some tr;
    }
  end
