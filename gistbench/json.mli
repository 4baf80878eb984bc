(** The little JSON the benchmark reads and writes: its own result
    lines (parsed back to check them) and [BENCHMARK.json]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Object of (string * t) list

(** A JSON string literal, with control and non-ASCII bytes escaped. *)
val quote : string -> string

(** Compact, one line.  Floats print with 17 significant digits, so a
    value reads back exactly; non-finite floats print as [null]. *)
val to_string : t -> string

(** Parse one JSON value (surrounding whitespace allowed).  Numbers
    without a fraction or exponent become [Int]. *)
val parse : string -> (t, string) result

(** [member k v]: field [k] of an object, if present. *)
val member : string -> t -> t option
