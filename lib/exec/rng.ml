(* Deterministic splitmix64 generator: the whole run (scheduling
   included) is a pure function of (program, workload, seed), which the
   record/replay baseline and the determinism tests rely on.

   The state lives in an 8-byte [Bytes.t] read and written as a native
   int64, so advancing it stores no boxed [int64]; [int], [float] and
   [bool] inline the mix and keep every intermediate unboxed. *)

type t = Bytes.t

let create seed =
  let b = Bytes.create 8 in
  Bytes.set_int64_ne b 0 (Int64.of_int seed);
  b

let[@inline] next t =
  let open Int64 in
  let z = add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Uniform int in [0, bound). *)
let int t bound =
  if bound <= 0 then 0
  else Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int)
                       (Int64.of_int bound))

(* Uniform float in [0, 1). *)
let[@inline] float t =
  let bits = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int bits /. 9007199254740992.0 (* 2^53 *)

(* [float t < p], without boxing the drawn float. *)
let below t p = float t < p

let bool t = Int64.logand (next t) 1L = 1L
