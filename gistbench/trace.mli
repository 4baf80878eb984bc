(** In-memory spans, recorded around the benchmark's calls into each
    layer and written out when the run ends.

    A span has a layer name, a start and end on {!Clock}, the index of
    the span that caused it ([-1] for a root) and an id shared by the
    spans of one request: a bug name, a session ticket or a report
    index.  Spans are kept as parallel arrays, so a traced run holding
    a million of them stays at tens of megabytes. *)

type t

val create : unit -> t

(** Number of spans recorded. *)
val length : t -> int

(** [enter t ~name ~id] opens a span whose parent is the innermost
    span still open; returns its index. *)
val enter : t -> name:string -> id:string -> int

(** Close a span opened by {!enter}.  Spans close innermost first. *)
val leave : t -> int -> unit

(** [span t ~name ~id f]: [f ()] inside an entered span. *)
val span : t -> name:string -> id:string -> (unit -> 'a) -> 'a

(** [span_opt tr ~name ~id f]: {!span} when tracing, plain [f ()] when
    [tr] is [None]. *)
val span_opt : t option -> name:string -> id:string -> (unit -> 'a) -> 'a

(** Record a finished span measured elsewhere (a pool task timed on a
    worker domain); returns its index. *)
val add :
  t -> name:string -> id:string -> parent:int -> start_ns:int -> stop_ns:int ->
  int

(** The innermost open span, or [-1]. *)
val current : t -> int

(** Per layer name: (spans, total seconds, self seconds).  A span's
    self time is its duration minus the union of its children's
    intervals, so children that ran in parallel are not counted
    twice.  Sorted by name. *)
val by_name : t -> (string * (int * float * float)) list

(** [lookup rows name]: one layer's row of {!by_name}, zeros when the
    layer never ran. *)
val lookup :
  (string * (int * float * float)) list -> string -> int * float * float

(** Every span of one layer, as seconds. *)
val durations : t -> string -> float list

(** Write every span as one JSON object per line, times in
    nanoseconds from the first span. *)
val write : out_channel -> t -> unit
