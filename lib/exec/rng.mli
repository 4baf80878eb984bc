(** Deterministic splitmix64 generator: a whole run (scheduling
    included) is a pure function of (program, workload, seed), which
    the record/replay baseline and the determinism tests rely on. *)

type t

val create : int -> t
val next : t -> int64

(** Uniform int in [\[0, bound)]; 0 when [bound <= 0]. *)
val int : t -> int -> int

(** Uniform float in [\[0, 1)]. *)
val float : t -> float

(** [below t p] is [float t < p] (the same draw), without allocating. *)
val below : t -> float -> bool

val bool : t -> bool
