(** The fuzz accuracy gate through the multiplexed path: the exact
    campaign {!Fuzz.Runner.run} checks one-shot — same cases, fault
    stamping, oracle and verdict scoring — with every diagnosable case
    diagnosed as one session of a shared {!Service} (shrinking
    skipped).  Because multiplexed diagnoses are bit-identical to
    their one-shot counterparts, the report matches
    [Fuzz.Runner.run ~shrink:false] verdict for verdict. *)

(** What the service-fault campaign did on top of the fuzz verdicts. *)
type chaos_summary = {
  cs_kills : int;
  cs_torn : int;
  cs_corrupted : int;
  cs_resubmitted : int;
  cs_failed_recoveries : int;
  cs_poisoned : int;    (** sessions {!Faults.Chaos.poisoned} *)
  cs_contained : int;   (** poisoned sessions that completed as typed
                            failures — must equal [cs_poisoned] *)
  cs_divergences : int; (** recovery audit mismatches, final ledger *)
}

(** [run ~seed ~count ()] returns the campaign report, the final
    service's ledger and the service-fault summary.  The cases are fed
    through {!Drive.run}.  [sconfig] (default {!Service.default})
    shapes the multiplexing.

    [rates] (default {!Faults.Chaos.zero}, the plain service gate)
    adds seeded kills between rounds, torn journal tails, corrupted
    checkpoints and poisoned sessions.  Poisoned cases are excluded
    from the report's accuracy statistics (their diagnosis is
    destroyed by design; the check is containment, via
    [cs_contained]).  Every other case must come back with the same
    verdict as the unkilled service, since recovery is byte-identical,
    so the worst-pattern accuracy bar carries over unchanged. *)
val run :
  ?jobs:int ->
  ?retries:int ->
  ?faults:Faults.Fault.rates * int ->
  ?early_exit:bool ->
  ?sconfig:Service.sconfig ->
  ?rates:Faults.Chaos.rates ->
  seed:int ->
  count:int ->
  unit ->
  Fuzz.Runner.report * Service.stats * chaos_summary
