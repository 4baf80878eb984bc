(** A deterministic multithreaded interpreter for the IR.

    It plays the role of "production runs" in the paper: failures
    (including concurrency failures) manifest as a function of the
    scheduling seed and the workload, and tracing layers (Intel PT,
    watchpoints, record/replay) observe the execution through {!hooks}
    without perturbing it. *)

open Ir.Types

type rw = Read | Write

(** What an instrumentation hook may inspect at a pre-instruction
    program point — enough to arm a watchpoint on the address the
    upcoming access will touch. *)
type pre_ctx = {
  ctx_tid : int;
  ctx_instr : instr;
  read_reg : string -> Value.t option;
  global_addr : string -> int option;
}

(** Observation callbacks, all no-ops by default ({!no_hooks}).

    [pre_instr] fires before an instruction (including retries of
    blocked lock/join) at the sites [pre_sites] selects: an iid-indexed
    mask, where an empty mask ([no_hooks]' default) means every
    instruction and a non-empty one means exactly the iids it sets
    (iids past its end are not sites).  The [pre_ctx] record and its
    closures are built only where [pre_instr] fires, so an
    instrumentation plan pays for its sites and nowhere else.

    [mem_access] fires on every shared load/store; [branch] on
    conditional branches with the taken direction; [ret] on returns
    with the caller resume point ([None] at thread exit); [step] once
    per executed instruction, immediately after [pre_instr] with
    nothing observable in between; [sched] with each scheduling
    choice. *)
type hooks = {
  mutable pre_sites : bool array;
  mutable pre_instr : pre_ctx -> unit;
  mutable mem_access :
    tid:int -> instr:instr -> addr:int -> rw:rw -> value:Value.t -> unit;
  mutable branch : tid:int -> instr:instr -> taken:bool -> unit;
  mutable ret : tid:int -> instr:instr -> resume:iid option -> unit;
  mutable step : tid:int -> instr:instr -> unit;
  mutable sched : choice:int -> unit;
}

val no_hooks : unit -> hooks

(** [pre_site hooks iid]: does [pre_instr] fire at [iid] under
    [hooks.pre_sites]? *)
val pre_site : hooks -> iid -> bool

(** A production workload: arguments bound to main's parameters and the
    scheduling seed. *)
type workload = { args : Value.t list; seed : int }

val workload : ?args:Value.t list -> int -> workload

(** A globally sequenced shared-memory access: the evaluation's ground
    truth (ideal sketches, record/replay); Gist itself only sees the
    subset captured by watchpoints. *)
type access = {
  a_seq : int;
  a_tid : int;
  a_iid : iid;
  a_addr : int;
  a_rw : rw;
  a_value : Value.t;
}

type outcome = Success | Failed of Failure.report

type result = {
  outcome : outcome;
  counters : Cost.t;
  accesses : access list;      (** ground truth; [] unless [record_gt] *)
  executed : (int * iid) list; (** ground truth; [] unless [record_gt] *)
  output : string list;        (** [print] builtin output, in order *)
  steps : int;
}

(** [run program workload] executes the program to completion or
    failure.

    - [hooks]: observation callbacks (default: none).
    - [counters]: the cost-counter record to update (default: fresh);
      pass a shared one so tracing layers and the run account into the
      same object.
    - [pick]: overrides the seeded scheduler (record/replay); called
      with the eligible thread ids, returning [None] falls back to the
      first eligible thread.
    - [max_steps]: hang-detector budget (default 400k).
    - [record_gt]: record the ground-truth access and execution logs.
    - [preempt_prob]: probability of a context switch at a
      shared-memory or synchronisation instruction (default 0.35);
      other instructions switch with probability 0.02. *)
val run :
  ?hooks:hooks ->
  ?counters:Cost.t ->
  ?pick:(eligible:int list -> int option) ->
  ?max_steps:int ->
  ?record_gt:bool ->
  ?preempt_prob:float ->
  program ->
  workload ->
  result
