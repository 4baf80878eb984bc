(** The metrics the benchmark declares, in the order [BENCHMARK.json]
    lists them.  A unit test holds this table equal to that file. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

val better_label : better -> string

(** Printed by every untraced run, on every workload. *)
val end_to_end : metric list

(** Printed by every traced run, on every workload; a layer a workload
    never enters reads [0]. *)
val per_layer : metric list

(** The three workload names. *)
val workloads : string list
