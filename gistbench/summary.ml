let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median_sorted a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median xs = median_sorted (sorted xs)

(* statistics.quantiles(method='exclusive'): m = len + 1, cut point
   i*m/n clamped to [1, len-1], linear interpolation in exact integer
   steps of 1/n. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Summary.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let n = 4 and m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (q 1, q 2, q 3)
  end

let ladder_permille = [ 999; 990; 950; 900; 750; 500 ]

let rank n p = max 1 (((p * n) + 999) / 1000)

let nearest_rank a p = a.(rank (Array.length a) p - 1)

let tail_permille n = List.find_opt (fun p -> n - rank n p >= 10) ladder_permille

type t = {
  median : float;
  q1 : float;
  q3 : float;
  tail : float option;
  tail_pct : float option;
  n : int;
}

let summarize xs =
  let a = sorted xs in
  let q1, _, q3 = quartiles xs in
  let n = Array.length a in
  let tail, tail_pct =
    match tail_permille n with
    | None -> (None, None)
    | Some p -> (Some (nearest_rank a p), Some (float_of_int p /. 10.))
  in
  { median = median_sorted a; q1; q3; tail; tail_pct; n }
