(** An instrumentation plan: the "binary patch" Gist ships to
    production clients (the paper's prototype uses bsdiff patches, §4;
    here a plan is interpreted by {!Runtime}).  Actions fire at the
    pre-point of an instruction, just before it executes. *)

open Ir.Types

type action =
  | Pt_stop   (** disable Intel PT (applied before a co-located start) *)
  | Pt_start  (** enable Intel PT *)
  | Wp_arm    (** arm a watchpoint on the address this access will touch *)

type t = {
  actions : (iid, action list) Hashtbl.t;
  tracked : iid list;    (** the slice portion being monitored *)
  wp_targets : iid list; (** tracked memory accesses eligible for watchpoints *)
}

val empty : unit -> t

(** Idempotent; keeps stops ordered before starts at a shared point. *)
val add_action : t -> iid -> action -> unit

val actions_at : t -> iid -> action list

(** A plan compiled for the runtime, indexed by iid:
    [site_actions.(iid)] is [actions_at plan iid], [site_mask.(iid)]
    holds exactly where that list is non-empty, and [site_wp.(iid)]
    exactly at the plan's [wp_targets].  Iids past the arrays' end
    carry nothing.  The mask is never empty, so as an
    {!Exec.Interp.hooks} site mask it never means "every
    instruction". *)
type sites = {
  site_actions : action list array;
  site_mask : bool array;
  site_wp : bool array;
}

(** [sites plan] compiles [plan]; later {!add_action}s are not seen.
    Compile once and share the table: it is never mutated. *)
val sites : t -> sites

(** Total number of patch points (for reporting). *)
val n_actions : t -> int

(** A stable content digest of the plan (patch points, tracked set,
    watchpoint targets).  Clients echo it in their report envelope so
    the server can reject reports produced under a stale plan. *)
val id : t -> int

val pp : Format.formatter -> t -> unit
