(** Order statistics for repeated measurements: medians, quartiles
    computed exactly as Python's [statistics.quantiles(xs, n=4)]
    (the default "exclusive" method), and the tail rule "the highest
    percentile with at least ten samples beyond it". *)

val median : float list -> float

(** [(q1, q2, q3)], Python's [statistics.quantiles(xs, n=4)].  A single
    sample is its own quartiles.
    @raise Invalid_argument on an empty list. *)
val quartiles : float list -> float * float * float

(** The percentile ladder the tail rule climbs, in per mille:
    99.9, 99, 95, 90, 75, 50. *)
val ladder_permille : int list

(** Nearest-rank percentile of a sorted array, [p] in per mille. *)
val nearest_rank : float array -> int -> float

(** [tail_permille n]: the highest ladder percentile that leaves at
    least ten of [n] samples strictly beyond its nearest rank; [None]
    below twenty samples. *)
val tail_permille : int -> int option

type t = {
  median : float;
  q1 : float;
  q3 : float;
  tail : float option;       (** value at [tail_pct] *)
  tail_pct : float option;   (** the percentile {!tail_permille} chose *)
  n : int;
}

(** @raise Invalid_argument on an empty list. *)
val summarize : float list -> t
