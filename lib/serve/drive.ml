(* The service's one backpressure policy and driver loop.  See
   drive.mli. *)

module FC = Faults.Chaos

type outcome = {
  o_done : (string * Service.completion) list;
  o_sheds : Service.shed_notice list;
  o_kills : int;
  o_torn : int;
  o_corrupted : int;
  o_resubmitted : int;
  o_failed_recoveries : int;
  o_service : Service.t;
}

(* [on_step] runs after every round the retry loop steps. *)
let rec submit_with ~on_step svc spec =
  match Service.submit svc spec with
  | Error (Service.Busy _) as busy ->
    if Service.step svc then begin
      on_step svc;
      submit_with ~on_step svc spec
    end
    else busy
  | res -> res

let submit svc spec = submit_with ~on_step:ignore svc spec

let poison ~rates ~seed (sp : Service.spec) =
  if not (FC.poisoned rates ~seed ~name:sp.sp_name) then sp
  else
    {
      sp with
      sp_workload_of = (fun _client -> failwith ("chaos poison: " ^ sp.sp_name));
    }

let run ?(pool = Parallel.Pool.sequential) ?(rates = FC.zero) ?(seed = 0)
    ?(on_round = ignore) ~specs svc =
  (* Poison is applied up front so recovery resolves the poisoned
     spec: a replayed session strikes like the original did. *)
  let specs = List.map (poison ~rates ~seed) specs in
  let by_name = Hashtbl.create 64 in
  List.iter (fun (sp : Service.spec) -> Hashtbl.replace by_name sp.sp_name sp) specs;
  let resolve = Hashtbl.find_opt by_name in
  let answered = Hashtbl.create 64 in
  let done_ = ref [] in
  let sheds = ref [] in
  let answer name = Hashtbl.replace answered name () in
  let fresh name = not (Hashtbl.mem answered name) in
  (* First sighting of a name wins: recovery replays completions (and
     shed notices) at least once. *)
  let harvest svc =
    List.iter
      (fun (c : Service.completion) ->
        if fresh c.c_name then begin
          answer c.c_name;
          done_ := (c.c_name, c) :: !done_
        end)
      (Service.take_completions svc);
    List.iter
      (fun (sh : Service.shed_notice) ->
        if fresh sh.sh_name then begin
          answer sh.sh_name;
          sheds := sh :: !sheds
        end)
      (Service.take_shed svc)
  in
  let submit_spec svc (sp : Service.spec) =
    match submit_with ~on_step:harvest svc sp with
    | Ok (Service.Ticket _) -> ()
    | Ok (Service.Coalesced _) | Error _ -> answer sp.sp_name
  in
  List.iter (submit_spec svc) specs;
  let kills = ref 0 in
  let torn = ref 0 in
  let corrupted = ref 0 in
  let resubmitted = ref 0 in
  let failed_recoveries = ref 0 in
  (* The campaign clock the draws are keyed by.  NOT the service's
     round counter: a torn tail rewinds the recovered service to an
     earlier round, and a draw keyed by round number would then
     deterministically repeat the same kill and the same tear at the
     same round, forever.  The clock only moves forward, so every
     re-lived round faces a fresh draw and the campaign always makes
     progress. *)
  let tick = ref 0 in
  let rec loop svc =
    if Service.step svc then begin
      harvest svc;
      on_round svc;
      incr tick;
      let plan = FC.draw rates ~seed ~round:!tick in
      if not plan.FC.p_kill then loop svc
      else begin
        incr kills;
        (* The kill: this incarnation is dead; all that survives is
           whatever prefix of the journal made it to "disk" — here,
           possibly torn and possibly bit-rotted. *)
        let bytes = Service.journal_bytes svc in
        let bytes =
          match plan.FC.p_torn with
          | Some n ->
            incr torn;
            Journal.tear ~n bytes
          | None -> bytes
        in
        let bytes =
          match plan.FC.p_ckpt_corrupt with
          | Some salt -> (
            match Journal.corrupt_last_checkpoint ~salt bytes with
            | Some damaged ->
              incr corrupted;
              damaged
            | None -> bytes)
          | None -> bytes
        in
        match Service.recover ~pool ~resolve bytes with
        | Ok svc' ->
          harvest svc';
          loop svc'
        | Error _ ->
          (* Refused recovery (e.g. the tear ate every checkpoint in a
             journal that was nearly empty).  The campaign carries on
             with the still-live object — the kill just didn't take —
             and books the refusal. *)
          incr failed_recoveries;
          loop svc
      end
    end
    else begin
      harvest svc;
      (* A torn tail can silently lose journaled submissions: the
         recovered incarnation never knew them.  Detect by absence and
         resubmit — the same at-least-once stance the completion dedup
         takes.  Coalesced, shed and refused names are answered, so
         they are never re-sent. *)
      match List.filter (fun (sp : Service.spec) -> fresh sp.sp_name) specs with
      | [] -> svc
      | missing ->
        List.iter
          (fun sp ->
            incr resubmitted;
            submit_spec svc sp)
          missing;
        loop svc
    end
  in
  let svc = loop svc in
  {
    o_done = List.rev !done_;
    o_sheds = List.rev !sheds;
    o_kills = !kills;
    o_torn = !torn;
    o_corrupted = !corrupted;
    o_resubmitted = !resubmitted;
    o_failed_recoveries = !failed_recoveries;
    o_service = svc;
  }
