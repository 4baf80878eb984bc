(** Host-speed calibration.

    The benchmark's hosts share their cores and caches with other
    tenants, and their speed drifts by tens of percent over minutes.
    A fixed kernel -- short-lived list allocation plus integer
    arithmetic, the same kind of work the diagnosis pipeline does --
    runs beside the measured work, and every end-to-end timing is also
    reported scaled to the speed at which the kernel takes
    {!reference_s}: [t *. reference_s /. kernel_time].  The kernel is
    benchmark code, so a change to the program moves the scaled times
    exactly as it moves the raw ones; a slower host moves both the work
    and the kernel, and the ratio holds. *)

(** One run of the kernel, in seconds. *)
val kernel : unit -> float

(** Every kernel time measured so far in this process, oldest first. *)
val samples : unit -> float list

(** The kernel's time on the reference host (a 2-core x86-64 VM, OCaml
    5.1.1, at its usual speed). *)
val reference_s : float

(** Median of three kernel runs. *)
val sample : unit -> float

(** [scale ~kernel_s t]: [t] at reference speed, given the kernel's
    time measured beside it. *)
val scale : kernel_s:float -> float -> float

(** [timed f]: [f ()], its raw seconds and its seconds at reference
    speed, calibrated by samples just before and just after. *)
val timed : (unit -> 'a) -> 'a * float * float
