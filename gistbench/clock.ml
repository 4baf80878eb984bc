(* The benchmark's only clock: CLOCK_MONOTONIC in nanoseconds, through
   bechamel's allocation-free stub.  Wall-clock and process-CPU clocks
   ([Unix.gettimeofday], [Sys.time]) are never read for a timing. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let to_s ns = float_of_int ns *. 1e-9

let since_s t0 = to_s (now_ns () - t0)

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_s t0)
