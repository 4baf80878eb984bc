(** The two JSON shapes the benchmark prints, and their checks.

    The result line (the last line of standard output) is exactly
    [{"correct", "attempted", "failed", "metrics"}], where [metrics]
    maps each declared metric name to [{"value", "unit"}].

    The report line (the line before it) carries every measured metric
    in one schema shared by all workloads:
    [{"median", "q1", "q3", "tail", "tail_pct", "n", "unit"}]. *)

val result_json :
  correct:bool -> attempted:int -> failed:int ->
  (string * float * string) list -> Json.t

(** Check a result line against the declared [(name, unit)] pairs:
    exact key sets, units as declared, finite values, [attempted >= 1],
    [0 <= failed <= attempted]. *)
val check_result : expected:(string * string) list -> string -> (unit, string) result

val summary_json : unit_:string -> Summary.t -> Json.t

(** Check one metric of the report line. *)
val check_summary : Json.t -> (unit, string) result
