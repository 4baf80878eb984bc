(* The service write-ahead journal.  See journal.mli for the recovery
   contract; the load loop's two failure classes (truncate vs Damaged)
   are the whole design. *)

module W = Hw.Wirebuf

type record =
  | Submitted of { id : int; name : string; fp : int; disp : int }
  | Round of { round : int; digest : int }
  | Completed of { id : int; digest : int }
  | Checkpoint of { round : int; state : string }

(* Submission payloads carry their own version byte: the disposition
   vocabulary can grow without a journal-wide version bump. *)
let submitted_version = 1

type entry = Rec of record | Damaged of { kind : int; reason : string }

type t = {
  buf : Buffer.t;
  (* Byte offsets of appended checkpoints, newest first, for
     {!compact}.  Only offsets still inside [buf] are kept. *)
  mutable ckpts : int list;
}

let magic = '\xA7'
let version = 1

(* Kind 1 is retired and must not be reused: older journals hold a
   different submission record under it, which loads as [Damaged]. *)
let kind_of = function
  | Submitted _ -> 5
  | Round _ -> 2
  | Completed _ -> 3
  | Checkpoint _ -> 4

let put_payload b = function
  | Submitted { id; name; fp; disp } ->
    W.put_uint b submitted_version;
    W.put_uint b id;
    W.put_string b name;
    W.put_uint b fp;
    W.put_uint b disp
  | Round { round; digest } ->
    W.put_uint b round;
    W.put_uint b digest
  | Completed { id; digest } ->
    W.put_uint b id;
    W.put_uint b digest
  | Checkpoint { round; state } ->
    W.put_uint b round;
    W.put_string b state

let get_payload kind r =
  match kind with
  | 2 ->
    let round = W.get_uint r in
    let digest = W.get_uint r in
    Round { round; digest }
  | 3 ->
    let id = W.get_uint r in
    let digest = W.get_uint r in
    Completed { id; digest }
  | 4 ->
    let round = W.get_uint r in
    let state = W.get_string r in
    Checkpoint { round; state }
  | 5 ->
    if W.get_uint r <> submitted_version then raise W.Short;
    let id = W.get_uint r in
    let name = W.get_string r in
    let fp = W.get_uint r in
    let disp = W.get_uint r in
    Submitted { id; name; fp; disp }
  | _ -> raise W.Short

let record_digest ~kind payload =
  Gist.Protocol.Encode.digest ~client:kind ~session:0 ~plan_id:version payload

let create () = { buf = Buffer.create 4096; ckpts = [] }

let append t record =
  (match record with
   | Checkpoint _ -> t.ckpts <- Buffer.length t.buf :: t.ckpts
   | Submitted _ | Round _ | Completed _ -> ());
  let p = Buffer.create 64 in
  put_payload p record;
  let payload = Buffer.contents p in
  let kind = kind_of record in
  Buffer.add_char t.buf magic;
  W.put_uint t.buf kind;
  W.put_uint t.buf (String.length payload);
  Buffer.add_string t.buf payload;
  Buffer.add_int64_le t.buf (Int64.of_int (record_digest ~kind payload))

let compact t =
  match t.ckpts with
  | newest :: prev :: _ when prev > 0 ->
    (* Keep the last two checkpoints (the newest for recovery, one
       older as the corrupted-checkpoint fallback) and every record
       after the older one; anything earlier can never be read again.
       Completions dropped here were harvested before [prev] landed —
       a checkpoint refuses to write over an unharvested completion —
       so at-least-once delivery is unaffected. *)
    let bytes = Buffer.contents t.buf in
    Buffer.clear t.buf;
    Buffer.add_substring t.buf bytes prev (String.length bytes - prev);
    t.ckpts <- [ newest - prev; 0 ]
  | _ -> ()

let contents t = Buffer.contents t.buf
let length t = Buffer.length t.buf

(* One frame at the cursor.  [`Torn] means structural breakage — the
   caller must stop; [`Entry] advances past the frame whatever the
   payload's fate. *)
let load_frame r =
  if W.eof r then `End
  else begin
    try
      if W.byte r <> Char.code magic then `Torn
      else begin
        let kind = W.get_uint r in
        let len = W.get_uint r in
        if len < 0 || len > r.W.limit - r.W.pos - 8 then `Torn
        else begin
          let payload = String.sub r.W.src r.W.pos len in
          r.W.pos <- r.W.pos + len;
          let d = Int64.to_int (String.get_int64_le r.W.src r.W.pos) in
          r.W.pos <- r.W.pos + 8;
          if record_digest ~kind payload <> d then
            `Entry (Damaged { kind; reason = "checksum mismatch" })
          else
            match
              let pr = W.reader payload in
              let rec_ = get_payload kind pr in
              if W.eof pr then Ok rec_ else Error "trailing bytes"
            with
            | Ok rec_ -> `Entry (Rec rec_)
            | Error reason -> `Entry (Damaged { kind; reason })
            | exception W.Short ->
              `Entry (Damaged { kind; reason = "short payload" })
        end
      end
    with W.Short -> `Torn
  end

let load bytes =
  let r = W.reader bytes in
  let rec go acc =
    match load_frame r with
    | `End | `Torn -> List.rev acc
    | `Entry e -> go (e :: acc)
  in
  go []

let save_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let load_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Some s

let tear ~n bytes =
  let keep = max 0 (String.length bytes - max 0 n) in
  String.sub bytes 0 keep

let corrupt_last_checkpoint ~salt bytes =
  (* Walk the frames re-deriving payload offsets, remember the newest
     intact checkpoint's payload span, then flip one byte inside it. *)
  let r = W.reader bytes in
  let last = ref None in
  let rec walk () =
    if not (W.eof r) then
      match
        (try
           if W.byte r <> Char.code magic then None
           else
             let kind = W.get_uint r in
             let len = W.get_uint r in
             if len < 0 || len > r.W.limit - r.W.pos - 8 then None
             else begin
               let off = r.W.pos in
               r.W.pos <- r.W.pos + len + 8;
               Some (kind, off, len)
             end
         with W.Short -> None)
      with
      | None -> ()
      | Some (kind, off, len) ->
        if kind = 4 && len > 0 then last := Some (off, len);
        walk ()
  in
  walk ();
  match !last with
  | None -> None
  | Some (off, len) ->
    let b = Bytes.of_string bytes in
    let i = off + (abs salt mod len) in
    let x = 1 + (abs salt mod 255) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
    Some (Bytes.to_string b)
