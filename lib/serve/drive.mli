(** The one way to feed a {!Service}: its backpressure policy and its
    driver loop, optionally under a seeded service-fault campaign
    ({!Faults.Chaos}).  Every harness, gate and CLI path that submits
    to a service goes through here.

    The policy: a [Busy] steps the service and retries; [Shed] and
    [Coalesced] are final.  A [Busy] from a service that has nothing
    left to run is final too — only a draining service refuses while
    idle, and retrying it would spin forever.

    Under chaos the driver is the executable statement of the
    crash-only claims: whatever the kill schedule, every submitted bug
    is still answered — diagnosed bit-identically, or contained as a
    typed failure — and the service that emerges is live and
    balanced. *)

(** [submit svc spec] submits [spec], stepping [svc] and retrying
    while it answers [Busy] and still has work to run.  The result is
    final: a ticket, a coalescing, a [Shed], or a [Busy] from an idle
    (draining) service. *)
val submit : Service.t -> Service.spec -> (Service.admission, Service.sreject) result

(** What one {!run} did and produced. *)
type outcome = {
  o_done : (string * Service.completion) list;
      (** by name, in harvest order; the first completion wins
          (recovery replays are at-least-once) *)
  o_sheds : Service.shed_notice list;
      (** tickets shed after acceptance, oldest first, one per name *)
  o_kills : int;
  o_torn : int;        (** kills that also tore the journal tail *)
  o_corrupted : int;   (** kills that also corrupted a checkpoint *)
  o_resubmitted : int; (** submissions lost to a torn tail, re-sent *)
  o_failed_recoveries : int;
      (** recover refusals (the run continued on the live object) *)
  o_service : Service.t;  (** the final incarnation, idle *)
}

(** [run ~specs svc] submits every spec through {!submit}, then steps
    [svc] until it idles, harvesting completions and shed notices
    after every round.

    A name is answered once it completed, was coalesced, was shed, or
    was finally refused.  When the service idles, any spec still
    unanswered — a submission a torn journal tail lost — is submitted
    again, so the run ends with every spec answered exactly once.

    [rates] (default {!Faults.Chaos.zero}) and [seed] (default 0) set
    the service-fault campaign.  Specs that {!Faults.Chaos.poisoned}
    selects are submitted with a workload that raises.  After every
    round {!Faults.Chaos.draw} may kill the incarnation: its journal
    bytes are taken, torn and checkpoint-corrupted as drawn, and the
    run continues on a service {!Service.recover}ed from them, which
    resolves names against the (poisoned) [specs].  A refused recovery
    is counted and the run continues on the live object.

    [on_round] sees the current incarnation after every round of the
    drive loop (default: nothing). *)
val run :
  ?pool:Parallel.Pool.t ->
  ?rates:Faults.Chaos.rates ->
  ?seed:int ->
  ?on_round:(Service.t -> unit) ->
  specs:Service.spec list ->
  Service.t ->
  outcome
