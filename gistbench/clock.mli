(** Monotonic time for every measurement the benchmark makes. *)

(** Nanoseconds on CLOCK_MONOTONIC (arbitrary origin). *)
val now_ns : unit -> int

(** Nanoseconds to seconds. *)
val to_s : int -> float

(** Seconds elapsed since a {!now_ns} reading. *)
val since_s : int -> float

(** [time f] runs [f] and returns its result with the seconds it took. *)
val time : (unit -> 'a) -> 'a * float
