type t = {
  mutable n : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable id : string array;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable stack : int list;
}

let create () =
  let cap = 1024 in
  {
    n = 0;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    id = Array.make cap "";
    names = Hashtbl.create 64;
    name_of = [||];
    stack = [];
  }

let length t = t.n

let intern t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
    let i = Array.length t.name_of in
    Hashtbl.add t.names s i;
    t.name_of <- Array.append t.name_of [| s |];
    i

let grow t =
  let cap = 2 * Array.length t.name in
  let g a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- g t.name 0;
  t.start <- g t.start 0;
  t.stop <- g t.stop 0;
  t.parent <- g t.parent (-1);
  t.id <- g t.id ""

let add t ~name ~id ~parent ~start_ns ~stop_ns =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.name.(i) <- intern t name;
  t.start.(i) <- start_ns;
  t.stop.(i) <- stop_ns;
  t.parent.(i) <- parent;
  t.id.(i) <- id;
  t.n <- i + 1;
  i

let current t = match t.stack with i :: _ -> i | [] -> -1

let enter t ~name ~id =
  let parent = current t in
  let i = add t ~name ~id ~parent ~start_ns:(Clock.now_ns ()) ~stop_ns:0 in
  t.stack <- i :: t.stack;
  i

let leave t i =
  t.stop.(i) <- Clock.now_ns ();
  match t.stack with
  | j :: rest when j = i -> t.stack <- rest
  | _ -> invalid_arg "Trace.leave: spans must close innermost first"

let span t ~name ~id f =
  let i = enter t ~name ~id in
  match f () with
  | r ->
    leave t i;
    r
  | exception e ->
    leave t i;
    raise e

let span_opt tr ~name ~id f =
  match tr with Some t -> span t ~name ~id f | None -> f ()

(* Length of the union of [ivs] clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let ivs =
    List.sort compare
      (List.map (fun (s, e) -> (max lo s, min hi e)) ivs)
  in
  let total, cur =
    List.fold_left
      (fun (total, cur) (s, e) ->
        if e <= s then (total, cur)
        else
          match cur with
          | None -> (total, Some (s, e))
          | Some (cs, ce) when s <= ce -> (total, Some (cs, max ce e))
          | Some (cs, ce) -> (total + (ce - cs), Some (s, e)))
      (0, None) ivs
  in
  match cur with None -> total | Some (cs, ce) -> total + (ce - cs)

let by_name t =
  let kids = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then kids.(p) <- (t.start.(i), t.stop.(i)) :: kids.(p)
  done;
  let k = Array.length t.name_of in
  let cnt = Array.make k 0 and tot = Array.make k 0 and self = Array.make k 0 in
  for i = 0 to t.n - 1 do
    let nm = t.name.(i) in
    let d = t.stop.(i) - t.start.(i) in
    cnt.(nm) <- cnt.(nm) + 1;
    tot.(nm) <- tot.(nm) + d;
    let c =
      match kids.(i) with
      | [] -> 0
      | ivs -> covered ~lo:t.start.(i) ~hi:t.stop.(i) ivs
    in
    self.(nm) <- self.(nm) + (d - c)
  done;
  List.sort compare
    (List.init k (fun nm ->
         (t.name_of.(nm), (cnt.(nm), Clock.to_s tot.(nm), Clock.to_s self.(nm)))))

let lookup rows name =
  match List.assoc_opt name rows with Some r -> r | None -> (0, 0., 0.)

let durations t name =
  match Hashtbl.find_opt t.names name with
  | None -> []
  | Some nm ->
    let acc = ref [] in
    for i = t.n - 1 downto 0 do
      if t.name.(i) = nm then acc := Clock.to_s (t.stop.(i) - t.start.(i)) :: !acc
    done;
    !acc

let write oc t =
  let origin = if t.n = 0 then 0 else t.start.(0) in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"i\":%d,\"name\":%s,\"id\":%s,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
      i
      (Json.quote t.name_of.(t.name.(i)))
      (Json.quote t.id.(i))
      t.parent.(i)
      (t.start.(i) - origin) (t.stop.(i) - origin)
  done
