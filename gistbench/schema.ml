let result_json ~correct ~attempted ~failed metrics =
  Json.Object
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Object
          (List.map
             (fun (name, v, u) ->
               (name, Json.Object [ ("value", Json.Float v); ("unit", Json.String u) ]))
             metrics) );
    ]

let keys = function
  | Json.Object kvs -> Some (List.sort compare (List.map fst kvs))
  | _ -> None

let ( let* ) = Result.bind

let need cond msg = if cond then Ok () else Error msg

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let check_result ~expected line =
  let* v = Json.parse line in
  let* () =
    need
      (keys v = Some [ "attempted"; "correct"; "failed"; "metrics" ])
      "result: keys must be exactly correct, attempted, failed, metrics"
  in
  let* () =
    need
      (match Json.member "correct" v with Some (Json.Bool _) -> true | _ -> false)
      "result: correct must be a boolean"
  in
  let* attempted =
    match Json.member "attempted" v with
    | Some (Json.Int a) when a >= 1 -> Ok a
    | _ -> Error "result: attempted must be a whole number >= 1"
  in
  let* () =
    need
      (match Json.member "failed" v with
       | Some (Json.Int f) -> f >= 0 && f <= attempted
       | _ -> false)
      "result: failed must be a whole number in [0, attempted]"
  in
  let metrics = Option.value ~default:Json.Null (Json.member "metrics" v) in
  let* () =
    need
      (keys metrics = Some (List.sort compare (List.map fst expected)))
      "result: metric names differ from the declared ones"
  in
  List.fold_left
    (fun acc (name, unit_) ->
      let* () = acc in
      let m = Option.get (Json.member name metrics) in
      let* () =
        need (keys m = Some [ "unit"; "value" ])
          (name ^ ": keys must be exactly value, unit")
      in
      let* () =
        need
          (Json.member "unit" m = Some (Json.String unit_))
          (Printf.sprintf "%s: unit must be %S" name unit_)
      in
      need
        (match Option.bind (Json.member "value" m) number with
         | Some f -> Float.is_finite f
         | None -> false)
        (name ^ ": value must be a finite number"))
    (Ok ()) expected

let opt_float = function None -> Json.Null | Some f -> Json.Float f

let summary_json ~unit_ (s : Summary.t) =
  Json.Object
    [
      ("median", Json.Float s.median);
      ("q1", Json.Float s.q1);
      ("q3", Json.Float s.q3);
      ("tail", opt_float s.tail);
      ("tail_pct", opt_float s.tail_pct);
      ("n", Json.Int s.n);
      ("unit", Json.String unit_);
    ]

let check_summary v =
  let* () =
    need
      (keys v = Some [ "median"; "n"; "q1"; "q3"; "tail"; "tail_pct"; "unit" ])
      "metric: keys must be exactly median, q1, q3, tail, tail_pct, n, unit"
  in
  let f k = Option.bind (Json.member k v) number in
  let* () =
    need
      (match (f "q1", f "median", f "q3") with
       | Some a, Some b, Some c -> a <= b && b <= c
       | _ -> false)
      "metric: needs numeric q1 <= median <= q3"
  in
  let* () =
    need
      (match Json.member "n" v with Some (Json.Int n) -> n >= 1 | _ -> false)
      "metric: n must be a whole number >= 1"
  in
  let* () =
    need
      (match (Json.member "tail" v, Json.member "tail_pct" v) with
       | Some Json.Null, Some Json.Null -> true
       | Some t, Some p -> number t <> None && number p <> None
       | _ -> false)
      "metric: tail and tail_pct are both numbers or both null"
  in
  need
    (match Json.member "unit" v with Some (Json.String _) -> true | _ -> false)
    "metric: unit must be a string"
