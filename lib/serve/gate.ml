(* The fuzz accuracy gate, through the multiplexed path: the same
   campaign [Fuzz.Runner.run] checks one-shot — same cases, same
   fault stamping, same oracle, same verdict scoring — but every
   diagnosable case is diagnosed as one session of a shared
   {!Service}, tens in flight at a time.

   Because a multiplexed diagnosis is bit-identical to its one-shot
   counterpart, the report (minus shrinking, which this gate skips)
   matches [Fuzz.Runner.run ~shrink:false] verdict for verdict — so
   the worst-pattern accuracy bar holds through the service exactly
   when it holds one-shot. *)

module G = Fuzz.Gen
module C = Fuzz.Check
module R = Fuzz.Runner
module FC = Faults.Chaos

(* What the pre-service probe decided about one case. *)
type prep =
  | Verdict of C.verdict (* decided without diagnosing *)
  | Diagnose of Exec.Failure.report

let prep_case (case : G.case) =
  match C.divergence case with
  | Some d -> Verdict (C.Divergence d)
  | None ->
    (match (C.probe case).C.p_target with
     | None -> Verdict C.No_failure
     | Some failure -> Diagnose failure)

let spec_of ~early_exit (case : G.case) failure =
  {
    Service.sp_name = case.G.c_name;
    sp_failure_type = Exec.Failure.kind_to_string failure.Exec.Failure.kind;
    sp_config = { (C.config_of case) with Gist.Config.early_exit };
    sp_oracle =
      Some
        (fun (sk : Fsketch.Sketch.t) ->
          match sk.predictors with
          | top :: _ -> C.accepted case top.Predict.Stats.predictor
          | [] -> false);
    sp_program = case.G.c_program;
    sp_workload_of = G.workload_of case;
    sp_failure = failure;
    sp_case = Some case;
  }

let report_of_diagnosis (case : G.case) (d : Gist.Server.diagnosis) =
  let top =
    match d.Gist.Server.sketch.predictors with
    | t :: _ -> Some (C.describe case.G.c_program t.Predict.Stats.predictor)
    | [] -> None
  in
  {
    R.cr_name = case.G.c_name;
    cr_pattern = case.G.c_pattern;
    cr_seed = case.G.c_seed;
    cr_verdict = C.verdict_of_sketch case d.Gist.Server.sketch;
    cr_top = top;
    cr_iterations = d.Gist.Server.iterations;
    cr_total_runs = d.Gist.Server.total_runs;
    cr_shrink = None;
    cr_fleet = Some d.Gist.Server.fleet;
  }

let report_of_verdict (case : G.case) v =
  {
    R.cr_name = case.G.c_name;
    cr_pattern = case.G.c_pattern;
    cr_seed = case.G.c_seed;
    cr_verdict = v;
    cr_top = None;
    cr_iterations = 0;
    cr_total_runs = 0;
    cr_shrink = None;
    cr_fleet = None;
  }

(* [Runner.stats_of], which is not exported: per-pattern accuracy in
   [Gen.all_patterns] order, empty patterns skipped. *)
let stats_of cases =
  List.filter_map
    (fun p ->
      let of_p = List.filter (fun cr -> cr.R.cr_pattern = p) cases in
      if of_p = [] then None
      else
        Some
          {
            R.ps_pattern = p;
            ps_total = List.length of_p;
            ps_correct =
              List.length
                (List.filter (fun cr -> cr.R.cr_verdict = C.Correct) of_p);
          })
    G.all_patterns

let run ?(jobs = 0) ?(retries = 5) ?faults ?(early_exit = false)
    ?(sconfig = Service.default) ~seed ~count () =
  let cases =
    List.map
      (fun case ->
        match faults with
        | None -> case
        | Some _ -> { case with G.c_faults = faults })
      (R.cases ~retries ~seed ~count ())
  in
  Parallel.Pool.with_pool ~jobs (fun pool ->
      (* Pre-service probes fan out across the pool; order preserved. *)
      let preps =
        Parallel.Pool.map_array pool prep_case (Array.of_list cases)
      in
      let svc = Service.create ~sconfig ~pool () in
      (* Submit every diagnosable case, riding the backpressure: a
         [Busy] reject runs a scheduler round and retries, so the
         in-flight window stays saturated without unbounded queueing. *)
      let tickets = Hashtbl.create (List.length cases) in
      List.iteri
        (fun i case ->
          match preps.(i) with
          | Verdict _ -> ()
          | Diagnose failure ->
            let spec = spec_of ~early_exit case failure in
            let rec push () =
              match Service.submit svc spec with
              | Ok (Service.Ticket id) -> Hashtbl.replace tickets id i
              | Ok (Service.Coalesced _) ->
                (* Unreachable: the gate runs without triage. *)
                ()
              | Error (Service.Busy _ | Service.Shed _) ->
                ignore (Service.step svc);
                push ()
            in
            push ())
        cases;
      Service.drain svc;
      let by_case = Hashtbl.create (List.length cases) in
      let by_fail = Hashtbl.create 4 in
      List.iter
        (fun (c : Service.completion) ->
          match (Hashtbl.find_opt tickets c.Service.c_id, c.Service.c_result) with
          | Some i, Ok d -> Hashtbl.replace by_case i d
          | Some i, Error f ->
            (* Contained session failure: booked as a crash verdict,
               never as a missing case. *)
            Hashtbl.replace by_fail i (Service.session_failure_to_string f)
          | None, _ -> ())
        (Service.completions svc);
      let reports =
        List.mapi
          (fun i case ->
            match preps.(i) with
            | Verdict v -> report_of_verdict case v
            | Diagnose _ ->
              (match Hashtbl.find_opt by_case i with
               | Some d -> report_of_diagnosis case d
               | None ->
                 (match Hashtbl.find_opt by_fail i with
                  | Some detail -> report_of_verdict case (C.Crash detail)
                  | None ->
                    (* Unreachable after [drain]: every submission was
                       admitted (the push loop retries Busy) and every
                       admitted session completes — diagnosed or as a
                       typed failure. *)
                    report_of_verdict case (C.Crash "session never completed"))))
          cases
      in
      ( {
          R.r_seed = seed;
          r_count = count;
          r_cases = reports;
          r_stats = stats_of reports;
          r_faults = faults;
        },
        Service.stats svc ))

type chaos_summary = {
  cs_kills : int;
  cs_torn : int;
  cs_corrupted : int;
  cs_resubmitted : int;
  cs_failed_recoveries : int;
  cs_poisoned : int;
  cs_contained : int;
  cs_divergences : int;
}

let run_chaos ?(jobs = 0) ?(retries = 5) ?faults ?(early_exit = false)
    ?(sconfig = Service.default) ~rates ~seed ~count () =
  let cases =
    List.map
      (fun case ->
        match faults with
        | None -> case
        | Some _ -> { case with G.c_faults = faults })
      (R.cases ~retries ~seed ~count ())
  in
  Parallel.Pool.with_pool ~jobs (fun pool ->
      let preps =
        Parallel.Pool.map_array pool prep_case (Array.of_list cases)
      in
      (* Every diagnosable case's spec, poison applied up front — the
         resolver must hand recovery the poisoned spec, or a replayed
         session would not strike like the original did. *)
      let specs = Hashtbl.create (List.length cases) in
      List.iteri
        (fun i case ->
          match preps.(i) with
          | Verdict _ -> ()
          | Diagnose failure ->
            let sp =
              Chaos.poison_spec ~rates ~seed
                (spec_of ~early_exit case failure)
            in
            Hashtbl.replace specs case.G.c_name (i, sp))
        cases;
      let resolve name =
        Option.map snd (Hashtbl.find_opt specs name)
      in
      let spec_list =
        List.filter_map
          (fun case ->
            Option.map snd (Hashtbl.find_opt specs case.G.c_name))
          cases
      in
      let svc = Service.create ~sconfig ~pool () in
      List.iter
        (fun sp ->
          let rec push () =
            match Service.submit svc sp with
            | Ok _ -> ()
            | Error (Service.Busy _ | Service.Shed _) ->
              ignore (Service.step svc : bool);
              push ()
          in
          push ())
        spec_list;
      let oc =
        Chaos.drive ~pool ~rates ~seed ~resolve ~specs:spec_list svc
      in
      let by_name = Hashtbl.create (List.length oc.Chaos.o_done) in
      List.iter
        (fun (name, c) -> Hashtbl.replace by_name name c)
        oc.Chaos.o_done;
      let poisoned = ref 0 in
      let contained = ref 0 in
      let reports =
        List.concat
          (List.mapi
             (fun i case ->
               match preps.(i) with
               | Verdict v -> [ report_of_verdict case v ]
               | Diagnose _ ->
                 let name = case.G.c_name in
                 let completion = Hashtbl.find_opt by_name name in
                 if FC.poisoned rates ~seed ~name then begin
                   incr poisoned;
                   (match completion with
                    | Some { Service.c_result = Error _; _ } ->
                      incr contained
                    | Some _ | None -> ());
                   (* Destroyed by design: containment is the check,
                      not accuracy — keep it out of the statistics. *)
                   []
                 end
                 else
                   [
                     (match completion with
                      | Some { Service.c_result = Ok d; _ } ->
                        report_of_diagnosis case d
                      | Some { Service.c_result = Error f; _ } ->
                        report_of_verdict case
                          (C.Crash (Service.session_failure_to_string f))
                      | None ->
                        report_of_verdict case
                          (C.Crash "session never completed"));
                   ])
             cases)
      in
      ( {
          R.r_seed = seed;
          r_count = count;
          r_cases = reports;
          r_stats = stats_of reports;
          r_faults = faults;
        },
        oc.Chaos.o_stats,
        {
          cs_kills = oc.Chaos.o_kills;
          cs_torn = oc.Chaos.o_torn;
          cs_corrupted = oc.Chaos.o_corrupted;
          cs_resubmitted = oc.Chaos.o_resubmitted;
          cs_failed_recoveries = oc.Chaos.o_failed_recoveries;
          cs_poisoned = !poisoned;
          cs_contained = !contained;
          cs_divergences = oc.Chaos.o_stats.Service.st_divergences;
        } ))
