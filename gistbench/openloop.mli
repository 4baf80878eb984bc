(** Open-loop arrival accounting.  Submissions are due on a fixed
    schedule whatever the service is doing; each is timed from when it
    was due, so a stall delays every later arrival too, and the
    generator's own lateness is reported beside the latencies. *)

(** [due_ns ~start_ns ~rate k]: when arrival [k] (from 0) is due, at
    [rate] arrivals per second. *)
val due_ns : start_ns:int -> rate:float -> int -> int

(** How many of [total] arrivals are due at [now_ns]. *)
val due_count : start_ns:int -> rate:float -> total:int -> now_ns:int -> int

type ledger

val ledger : limit_s:float -> ledger

(** An arrival submitted at [sent_ns] although due at [due_ns]: counts
    one attempt and the generator's lateness. *)
val submitted : ledger -> due_ns:int -> sent_ns:int -> unit

(** The submission was refused (busy, shed). *)
val refused : ledger -> unit

(** The submission was answered at once as a duplicate. *)
val coalesced : ledger -> unit

(** A ticketed submission due at [due_ns] came back at [harvest_ns];
    [ok] is false for a failed diagnosis. *)
val completed : ledger -> due_ns:int -> harvest_ns:int -> ok:bool -> unit

val attempted : ledger -> int
val refused_count : ledger -> int
val failed_count : ledger -> int
val coalesced_count : ledger -> int

(** Successful completions later than the limit. *)
val late_count : ledger -> int

(** Seconds from due time to harvest, successful completions only, in
    completion order. *)
val ttd_s : ledger -> float list

(** The largest generator lateness seen, seconds. *)
val late_max_s : ledger -> float

(** (refused + failed + late) / attempted; [0.] before any attempt. *)
val miss_ratio : ledger -> float
