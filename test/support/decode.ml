(* PT decoding for tests whose traces must be clean: a damaged stream
   fails the test outright.  A thread whose stream never enabled
   decodes to the empty trace (its [Empty_stream] is not damage). *)

let stream program packets =
  match Hw.Pt.decode_checked program packets with
  | d, (None | Some Hw.Pt.Empty_stream) -> d
  | _, Some e -> Alcotest.failf "PT decode: %s" (Hw.Pt.error_to_string e)

(* Every stream of a recorder, by thread id. *)
let all pt program =
  List.map
    (fun tid -> (tid, stream program (Hw.Pt.packets_of pt tid)))
    (Hw.Pt.all_tids pt)
