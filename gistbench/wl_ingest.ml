(* Workload [ingest]: the server side of the fleet protocol with no
   interpreter in the timed phase.  Set-up runs real monitored clients
   under each bug's first-iteration instrumentation plan to build report
   templates.  The timed phase replays a seeded stream of those reports:
   seal each into its wire envelope, damage about one in ten in transit,
   validate and decode it, extract its predictors — per report, as pool
   tasks in batches, like fleet slots — then fold the results in order
   into the streaming statistics, test separation every checkpoint and
   rank at the end of each segment.  Wire, predictor and statistics
   layers carry the load; sessions, service and journal are bypassed. *)

open Gistbench
open Common

let templates_per_bug = 32
let segment_reports = 1024
let batch_reports = 128
let damage_rate = 0.10
let traced_rounds = 4

let config = Experiments.Adaptive.fleet_base

type template = {
  report : Gist.Client.report;
  payload_len : int;  (** the report's encoded size inside an envelope *)
}

type bug_input = {
  name : string;
  tracked : Ir.Types.iid list;
  plan_id : int;
  n_instrs : int;
  templates : template array;
}

let payload_len report =
  let b = Buffer.create 1024 in
  Gist.Protocol.Encode.put_report b report;
  Buffer.length b

(* Set-up: probe each bug's failure, slice, plan its first AsT
   iteration, and run [templates_per_bug] monitored clients under that
   plan (the failing client first, so every bug's stream carries
   failures). *)
let setup tr () =
  let span name id f = Trace.span_opt tr ~name ~id f in
  List.map
    (fun (bug : Bugbase.Common.t) ->
      let id = bug.name in
      let c_fail, failure =
        match span "probe" id (fun () -> Bugbase.Common.find_target_failure bug) with
        | Some cf -> cf
        | None -> failwith ("ingest: target failure never manifests for " ^ bug.name)
      in
      let slice = span "slicer.compute" id (fun () -> Slicing.Slicer.compute bug.program failure) in
      let tracked = List.sort_uniq compare (Slicing.Slicer.take slice config.Gist.Config.sigma0) in
      let plan = span "instrument.place" id (fun () -> Instrument.Place.compute bug.program tracked) in
      let plan_id = Instrument.Plan.id plan in
      let groups =
        Array.of_list
          (Gist.Server.wp_groups ~wp_capacity:config.Gist.Config.wp_capacity
             plan.Instrument.Plan.wp_targets)
      in
      let clients = c_fail :: List.init (templates_per_bug - 1) Fun.id in
      let templates =
        Array.of_list
          (List.mapi
             (fun k c ->
               let report =
                 span "client.run_one" id (fun () ->
                     Gist.Client.run_one ~wp_capacity:config.Gist.Config.wp_capacity
                       ~preempt_prob:bug.preempt_prob ~max_steps:config.Gist.Config.max_steps
                       ~plan ~wp_allowed:groups.(k mod Array.length groups) bug.program
                       (bug.workload_of c))
               in
               { report; payload_len = payload_len report })
             clients)
      in
      let n_instrs =
        1 + List.fold_left (fun m (i : Ir.Types.instr) -> max m i.iid) 0 (Ir.Program.all_instrs bug.program)
      in
      { name = bug.name; tracked; plan_id; n_instrs; templates })
    Bugbase.Registry.all

(* In-transit damage: [Flip] one bit anywhere in the envelope, or
   [Truncate] it to a strict prefix.  The expected verdict follows from
   where the damage landed, independently of the validator: a changed
   first byte is a different protocol version; a prefix that stops
   inside the header cannot be parsed; anything else breaks the digest
   -- except two header bits the digest does not cover, both outside
   OCaml's 63-bit int: bit 63 of the 8-byte digest field (dropped on
   read, so the intact report is accepted) and bit 62 of a 9-byte
   plan-id varint (the digest folds the plan id through [2x + 1], which
   sheds that bit, so the report is refused as [stale-plan]).  Those
   two are counted as digest-blind; see gistbench/README.md. *)
type damage = Intact | Flip of int | Truncate of int

type expect = {
  label : string option;  (** [None]: the envelope must be accepted *)
  blind : bool;           (** the damage hit a digest-blind bit *)
}

let flipped_bit ~original bytes =
  let rec find i =
    if i >= String.length bytes then None
    else
      let d = Char.code original.[i] lxor Char.code bytes.[i] in
      if d = 0 then find (i + 1)
      else
        let rec bit b = if d land (1 lsl b) <> 0 then b else bit (b + 1) in
        Some (i, bit 0)
  in
  find 0

let expect ~payload_len ~plan_id ~original damage bytes =
  let header_len = String.length original - payload_len in
  let digest_last = header_len - 1 and plan_last = header_len - 9 in
  match damage with
  | Intact -> { label = None; blind = false }
  | Truncate _ ->
    { label = Some (if String.length bytes < header_len then "bad-payload" else "bad-checksum");
      blind = false }
  | Flip _ -> (
    match flipped_bit ~original bytes with
    | None -> { label = None; blind = false }
    | Some (0, _) -> { label = Some "bad-version"; blind = false }
    | Some (i, 7) when i = digest_last -> { label = None; blind = true }
    | Some (i, 6) when i = plan_last && plan_id >= 1 lsl 56 ->
      { label = Some "stale-plan"; blind = true }
    | Some _ -> { label = Some "bad-checksum"; blind = false })

let apply damage bytes =
  match damage with
  | Intact -> bytes
  | Flip salt -> Faults.Tamper.flip_wire_byte ~salt bytes
  | Truncate salt -> Faults.Tamper.truncate_wire ~salt bytes

(* One segment's inputs: a bug and, per report, a template and a
   damage draw — a pure function of (seed, segment).  Segments visit
   the bugs in turn, every segment replays each of its bug's templates
   equally often and damages a fixed tenth of its reports, half by
   flips and half by truncations; the seed picks the order, the damaged
   positions and the damage.  So every round of one segment per bug
   does the same work whatever the seed. *)
type segment = { bug : bug_input; picks : int array; damages : damage array }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let damaged_per_segment = int_of_float (damage_rate *. float_of_int segment_reports)

let segment ~seed inputs k =
  let rng = Random.State.make [| seed; k; 0x1a9e57 |] in
  let bug = inputs.(k mod Array.length inputs) in
  let picks = shuffle rng (Array.init segment_reports (fun i -> i mod templates_per_bug)) in
  let positions = shuffle rng (Array.init segment_reports Fun.id) in
  let damages = Array.make segment_reports Intact in
  for d = 0 to damaged_per_segment - 1 do
    let salt = Random.State.bits rng in
    damages.(positions.(d)) <- (if d mod 2 = 0 then Flip salt else Truncate salt)
  done;
  { bug; picks; damages }

type verdict = Accepted of Predict.Stats.observation | Rejected of string

type report_result = {
  verdict : verdict;
  expected : expect;
  intact : bool;  (** an accepted report decoded to exactly the template *)
  bytes : int;
  stamps : int array;  (** encode start/end, damage end, ingest end, predict end *)
}

let arena = Parallel.Pool.worker_local Gist.Protocol.Encode.arena

(* One report's server-side work, run as a pool task. *)
let process ~stamp seg g =
  let bug = seg.bug in
  let tpl = bug.templates.(seg.picks.(g)) in
  let now () = if stamp then Clock.now_ns () else 0 in
  let t0 = now () in
  let sealed =
    Gist.Protocol.Encode.encode (arena ()) ~client:g ~plan_id:bug.plan_id tpl.report
  in
  let t1 = now () in
  let damage = seg.damages.(g) in
  let bytes = apply damage sealed in
  let expected = expect ~payload_len:tpl.payload_len ~plan_id:bug.plan_id ~original:sealed damage bytes in
  let t2 = now () in
  let ingested = Gist.Protocol.Encode.ingest ~n_instrs:bug.n_instrs ~plan_id:bug.plan_id bytes in
  let t3 = now () in
  let intact =
    match (ingested, damage) with
    | Ok r, (Flip _ | Truncate _) -> payload_len r = tpl.payload_len && (
        let a = Buffer.create tpl.payload_len and b = Buffer.create tpl.payload_len in
        Gist.Protocol.Encode.put_report a r;
        Gist.Protocol.Encode.put_report b tpl.report;
        Buffer.contents a = Buffer.contents b)
    | _ -> true
  in
  let verdict =
    match ingested with
    | Error rej -> Rejected (Gist.Protocol.reject_label rej)
    | Ok r ->
      Accepted
        {
          Predict.Stats.predictors =
            Predict.Predictor.of_run ~tracked:bug.tracked
              ~branch_outcomes:r.Gist.Client.r_branches ~traps:r.Gist.Client.r_traps ();
          failing = Gist.Client.failing r;
        }
  in
  let t4 = now () in
  { verdict; expected; intact; bytes = String.length sealed; stamps = [| t0; t1; t2; t3; t4 |] }

type seg_stats = {
  wall_s : float;
  batches_s : float list;
  mismatched : int;         (** reports whose verdict contradicts the damage *)
  blind : int;              (** damages that hit a digest-blind bit *)
  rank_ok : bool;
  rejected : (string * int) list;
  bytes : int;
  predictors : int;
  accepted : int;
  gc : gc_delta;
}

let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* Replay one segment.  With [tr], every call is a span: per-report
   pool-task stages under the batch's [pool.map], the in-order fold as
   [acc.add] with [acc.separated] checkpoints inside, and the final
   [acc.rank]. *)
let run_segment ctx tr seg k =
  let id_seg = string_of_int k in
  let span name id f = Trace.span_opt tr ~name ~id f in
  let acc = Predict.Stats.Acc.create () in
  let observations = ref [] in
  let rejected = Hashtbl.create 4 in
  let mismatched = ref 0 and blind = ref 0 and bytes = ref 0 and predictors = ref 0 and accepted = ref 0 in
  let batches = ref [] in
  let ranking = ref [] in
  let ((), wall_s), gc =
      gc_delta (fun () ->
        Clock.time (fun () ->
          span "segment" id_seg (fun () ->
              let nb = segment_reports / batch_reports in
              for b = 0 to nb - 1 do
                let base = b * batch_reports in
                let t0 = Clock.now_ns () in
                let m = match tr with Some tr -> Trace.enter tr ~name:"pool.map" ~id:id_seg | None -> -1 in
                let results =
                  Parallel.Pool.map_array ctx.pool
                    (fun g -> process ~stamp:(tr <> None) seg g)
                    (Array.init batch_reports (fun j -> base + j))
                in
                (match tr with
                 | None -> ()
                 | Some tr ->
                   Trace.leave tr m;
                   Array.iteri
                     (fun j (r : report_result) ->
                       let id = string_of_int (base + j) in
                       let s = r.stamps in
                       let add name a b =
                         ignore (Trace.add tr ~name ~id ~parent:m ~start_ns:s.(a) ~stop_ns:s.(b))
                       in
                       add "wire.encode" 0 1;
                       if seg.damages.(base + j) <> Intact then add "wire.damage" 1 2;
                       add "wire.ingest" 2 3;
                       (match r.verdict with Accepted _ -> add "predict.of_run" 3 4 | Rejected _ -> ()))
                     results);
                span "acc.add" id_seg (fun () ->
                    Array.iteri
                      (fun j (r : report_result) ->
                        let g = base + j in
                        bytes := !bytes + r.bytes;
                        if r.expected.blind then incr blind;
                        (match (r.verdict, r.expected.label) with
                         | Accepted obs, None ->
                           if not r.intact then incr mismatched;
                           incr accepted;
                           predictors := !predictors + List.length obs.Predict.Stats.predictors;
                           Predict.Stats.Acc.add acc obs;
                           observations := obs :: !observations
                         | Rejected label, Some want ->
                           bump rejected label;
                           if label <> want then incr mismatched
                         | Accepted _, Some _ | Rejected _, None -> incr mismatched);
                        if (g + 1) mod config.Gist.Config.checkpoint_every = 0 then
                          span "acc.separated" (string_of_int g) (fun () ->
                              ignore
                                (Predict.Stats.Acc.separated
                                   ~delta:config.Gist.Config.separation_delta acc)))
                      results);
                batches := Clock.since_s t0 :: !batches
              done;
              ranking := span "acc.rank" id_seg (fun () -> Predict.Stats.Acc.rank acc))))
  in
  (* Untimed reference: the batch ranking over the same observations. *)
  let rank_ok = !ranking = Predict.Stats.rank (List.rev !observations) in
  {
    wall_s;
    batches_s = List.rev !batches;
    mismatched = !mismatched;
    blind = !blind;
    rank_ok;
    rejected = Hashtbl.fold (fun k v a -> (k, v) :: a) rejected [];
    bytes = !bytes;
    predictors = !predictors;
    accepted = !accepted;
    gc;
  }

let segment_checks k s =
  [
    check (Printf.sprintf "rank:%d" k) s.rank_ok "Acc.rank differs from Stats.rank";
    check (Printf.sprintf "rejects:%d" k) (s.mismatched = 0)
      (Printf.sprintf "%d verdicts contradict the damage plan" s.mismatched);
  ]

let failed_reports segs =
  List.fold_left
    (fun a s -> a + if s.rank_ok then s.mismatched else segment_reports)
    0 segs

let run ctx =
  let tr = if ctx.trace then Some (Trace.create ()) else None in
  let inputs, setup_s, setup_ref_s = repeat_setup (setup tr) in
  let inputs = Array.of_list inputs in
  let reps = float_of_int setup_reps in
  let n_bugs = Array.length inputs in
  (* One round: a segment of every bug, with a calibration sample on
     either side. *)
  let round tr r =
    let before = Calib.sample () in
    let segs =
      List.init n_bugs (fun b ->
          let k = (r * n_bugs) + b in
          run_segment ctx tr (segment ~seed:ctx.seed inputs k) k)
    in
    let kernel_s = (before +. Calib.sample ()) /. 2. in
    (segs, Calib.scale ~kernel_s)
  in
  let round_s segs = List.fold_left (fun a s -> a +. s.wall_s) 0. segs in
  let round_rate segs = float_of_int (segment_reports * List.length segs) /. round_s segs in
  if not ctx.trace then begin
    (* The heap's high-water mark after the first round, which does
       the same work whatever the seed or the host's speed. *)
    let heap = ref 0. in
    let rounds =
      repeat_for ~seconds:ctx.seconds (fun r ->
          let segs = round None r in
          if r = 0 then heap := peak_heap_mb ();
          segs)
    in
    let heap = !heap in
    let segs = List.concat_map fst rounds in
    let rates = List.map (fun (r, _) -> round_rate r) rounds in
    let batches = List.concat_map (fun s -> s.batches_s) segs in
    (* At reference host speed: throughput per round; latency of one
       bug's 1,024-report iteration, from sealing the first report to
       the ranking; and each round's slowest bug. *)
    let rates_ref =
      List.map (fun (r, scale) -> float_of_int (segment_reports * List.length r) /. scale (round_s r)) rounds
    in
    let seg_ref = List.concat_map (fun (r, scale) -> List.map (fun s -> scale s.wall_s) r) rounds in
    let slowest_ref =
      List.map (fun (r, scale) -> scale (List.fold_left (fun a s -> max a s.wall_s) 0. r)) rounds
    in
    {
      attempted = segment_reports * List.length segs;
      failed = failed_reports segs;
      checks = List.concat (List.mapi segment_checks segs);
      setup_s;
      setup_ref_s;
      measured =
        [
          ("reports_per_s", "1/s", rates);
          ("reports_ref_per_s", "1/s", rates_ref);
          ("segment_ref_s", "s", seg_ref);
          ("segment_max_ref_s", "s", slowest_ref);
          ("batch_s", "s", batches);
          ("digest_blind", "count", [ float_of_int (List.fold_left (fun a s -> a + s.blind) 0 segs) ]);
          ("peak_heap_mb", "MB", [ heap ]);
        ];
      contract =
        [
          ("setup_s", Summary.median setup_ref_s);
          ("throughput_per_s", Summary.median rates_ref);
          ("latency_p50_s", Summary.median seg_ref);
          ("peak_heap_mb", heap);
        ];
      layers = [];
      spans = None;
    }
  end
  else begin
    let tr = Option.get tr in
    let gcev = Gc_events.create () in
    (* [traced_rounds] pairs of an untraced and a traced round: a
       traced round records four spans per report, so the sample is
       kept to about 45k reports. *)
    let pairs =
      List.init traced_rounds (fun k ->
          let u, u_scale = round None (2 * k) in
          let t, t_scale = Gc_events.during gcev (fun () -> round (Some tr) ((2 * k) + 1)) in
          ((u, u_scale), (t, t_scale)))
    in
    let segs = List.concat_map (fun ((u, _), (t, _)) -> u @ t) pairs in
    let traced = List.concat_map (fun (_, (t, _)) -> t) pairs in
    let n = float_of_int (List.length traced) in
    let rows = Trace.by_name tr in
    let self name = let _, _, s = Trace.lookup rows name in s in
    let total name = let _, t, _ = Trace.lookup rows name in t in
    let per_seg name = self name /. n in
    let sumi f = float_of_int (List.fold_left (fun a s -> a + f s) 0 traced) in
    let rejected label =
      sumi (fun s -> Option.value ~default:0 (List.assoc_opt label s.rejected)) /. n
    in
    (* Round times at reference host speed, traced over untraced. *)
    let untraced_s = Summary.median (List.map (fun ((u, scale), _) -> scale (round_s u)) pairs) in
    let traced_s = Summary.median (List.map (fun (_, (t, scale)) -> scale (round_s t)) pairs) in
    let layer_names =
      [ "pool.map"; "wire.encode"; "wire.damage"; "wire.ingest"; "predict.of_run";
        "acc.add"; "acc.separated"; "acc.rank" ]
    in
    let layers =
      [
        ("client.run_one_s", self "client.run_one" /. reps);
        ("instrument.place_s", self "instrument.place" /. reps);
        ("slicer.compute_s", self "slicer.compute" /. reps);
        ("wire.encode_s", per_seg "wire.encode" +. per_seg "wire.damage");
        ("wire.ingest_s", per_seg "wire.ingest");
        ("wire.bytes_per_report", sumi (fun s -> s.bytes) /. (n *. float_of_int segment_reports));
        ("wire.rejected.bad-checksum", rejected "bad-checksum");
        ("wire.rejected.bad-version", rejected "bad-version");
        ("wire.rejected.bad-payload", rejected "bad-payload");
        ("wire.rejected.stale-plan", rejected "stale-plan");
        ("wire.digest_blind", sumi (fun s -> s.blind) /. n);
        ("predict.of_run_s", per_seg "predict.of_run");
        ("predict.predictors_per_report", ratio (sumi (fun s -> s.predictors)) (sumi (fun s -> s.accepted)));
        ("acc.add_s", per_seg "acc.add");
        ("acc.separated_s", per_seg "acc.separated");
        ("acc.rank_s", per_seg "acc.rank");
        ("pool.map_s", total "pool.map" /. n);
        ( "pool.overhead_share",
          ratio
            (total "pool.map"
            -. ((total "wire.encode" +. total "wire.damage" +. total "wire.ingest"
                +. total "predict.of_run")
               /. float_of_int (executors ctx)))
            (total "pool.map") );
        ("gc.minor_s", Gc_events.minor_s gcev /. n);
        ("gc.major_s", Gc_events.major_s gcev /. n);
        ( "unaccounted_share",
          1. -. ratio (List.fold_left (fun a l -> a +. self l) 0. layer_names) (total "segment") );
        ("trace.overhead_share", ratio (traced_s -. untraced_s) untraced_s);
      ]
      @ gc_layers (List.concat_map (fun ((u, _), _) -> List.map (fun s -> s.gc) u) pairs)
    in
    {
      attempted = segment_reports * List.length segs;
      failed = failed_reports segs;
      checks =
        List.concat (List.mapi segment_checks segs)
        @ [ check "gc-events-lost" (Gc_events.lost gcev = 0)
              (Printf.sprintf "%d runtime events lost" (Gc_events.lost gcev)) ];
      setup_s;
      setup_ref_s;
      measured = [];
      contract = [];
      layers = fill_layers layers;
      spans = Some tr;
    }
  end
