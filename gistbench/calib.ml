let taken = ref []

let kernel () =
  let t0 = Clock.now_ns () in
  let acc = ref 0 in
  for i = 0 to 100_000 do
    let l = [ i; i + 1; i + 2 ] in
    acc := !acc + List.fold_left ( + ) 0 (Sys.opaque_identity l) + ((i * i) land 0xff)
  done;
  ignore (Sys.opaque_identity !acc);
  let s = Clock.since_s t0 in
  taken := s :: !taken;
  s

let samples () = List.rev !taken

let reference_s = 0.0011

let sample () =
  let a = kernel () in
  let b = kernel () in
  let c = kernel () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

let scale ~kernel_s t = t *. reference_s /. kernel_s

let timed f =
  let before = sample () in
  let r, s = Clock.time f in
  let after = sample () in
  (r, s, scale ~kernel_s:((before +. after) /. 2.) s)
