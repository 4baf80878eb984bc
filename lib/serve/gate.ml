(* The fuzz accuracy gate, through the multiplexed path: the same
   campaign [Fuzz.Runner.run] checks one-shot — same cases, same
   fault stamping, same oracle, same verdict scoring — but every
   diagnosable case is diagnosed as one session of a shared
   {!Service}, tens in flight at a time.

   Because a multiplexed diagnosis is bit-identical to its one-shot
   counterpart, the report (minus shrinking, which this gate skips)
   matches [Fuzz.Runner.run ~shrink:false] verdict for verdict — so
   the worst-pattern accuracy bar holds through the service exactly
   when it holds one-shot.  Under service faults the same campaign is
   driven through kills and recoveries; poisoned cases are scored for
   containment instead of accuracy. *)

module G = Fuzz.Gen
module C = Fuzz.Check
module R = Fuzz.Runner
module FC = Faults.Chaos

let spec_of ~early_exit (case : G.case) failure =
  {
    Service.sp_name = case.G.c_name;
    sp_failure_type = Exec.Failure.kind_to_string failure.Exec.Failure.kind;
    sp_config = { (C.config_of case) with Gist.Config.early_exit };
    sp_oracle = Some (C.oracle case);
    sp_program = case.G.c_program;
    sp_workload_of = G.workload_of case;
    sp_failure = failure;
    sp_case = Some case;
  }

let report_of_verdict case v = R.case_report case (C.undiagnosed v)

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

let run ?(jobs = 0) ?(retries = 5) ?faults ?(early_exit = false)
    ?(sconfig = Service.default) ?(rates = FC.zero) ~seed ~count () =
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
      let preps = List.combine cases (Parallel.Pool.map pool C.prepare cases) in
      let specs =
        List.filter_map
          (function
            | case, Ok failure -> Some (spec_of ~early_exit case failure)
            | _, Error _ -> None)
          preps
      in
      let oc =
        Drive.run ~pool ~rates ~seed ~specs (Service.create ~sconfig ~pool ())
      in
      let by_name = Hashtbl.of_seq (List.to_seq oc.Drive.o_done) in
      let poisoned = ref 0 in
      let contained = ref 0 in
      let reports =
        List.concat_map
          (fun (case, prep) ->
            match prep with
            | Error v -> [ report_of_verdict case v ]
            | Ok _ ->
              let name = case.G.c_name in
              let completion = Hashtbl.find_opt by_name name in
              if FC.poisoned rates ~seed ~name then begin
                incr poisoned;
                (match completion with
                 | Some { Service.c_result = Error _; _ } -> incr contained
                 | Some _ | None -> ());
                (* Destroyed by design: containment is the check, not
                   accuracy — keep it out of the statistics. *)
                []
              end
              else
                [
                  (match completion with
                   | Some { Service.c_result = Ok d; _ } ->
                     R.case_report case (C.outcome_of_diagnosis case d)
                   | Some { Service.c_result = Error f; _ } ->
                     (* Contained session failure: booked as a crash
                        verdict, never as a missing case. *)
                     report_of_verdict case
                       (C.Crash (Service.session_failure_to_string f))
                   | None ->
                     (* Unreachable: the driver answers every spec, and
                        a spec the service ticketed always completes —
                        diagnosed or as a typed failure. *)
                     report_of_verdict case
                       (C.Crash "session never completed"));
                ])
          preps
      in
      let stats = Service.stats oc.Drive.o_service in
      ( {
          R.r_seed = seed;
          r_count = count;
          r_cases = reports;
          r_stats = R.stats_of reports;
          r_faults = faults;
        },
        stats,
        {
          cs_kills = oc.Drive.o_kills;
          cs_torn = oc.Drive.o_torn;
          cs_corrupted = oc.Drive.o_corrupted;
          cs_resubmitted = oc.Drive.o_resubmitted;
          cs_failed_recoveries = oc.Drive.o_failed_recoveries;
          cs_poisoned = !poisoned;
          cs_contained = !contained;
          cs_divergences = stats.Service.st_divergences;
        } ))
