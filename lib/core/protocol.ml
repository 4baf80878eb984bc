(* The fleet wire protocol: a versioned envelope around each client
   report, checked by the server before anything reaches aggregation or
   predictor ranking.  A real Gist deployment ships reports from
   thousands of unreliable endpoints over an unreliable network (paper
   §4 runs "clients" as processes feeding a central server); this layer
   is what lets the AsT loop survive lost, damaged, or out-of-date
   reports instead of silently diagnosing from garbage.

   Validation is layered:
   - transport integrity: protocol version and a digest over every
     envelope byte;
   - routing: the diagnosis session the report belongs to;
   - freshness: the client echoes the digest of the plan it ran under,
     so a report built from a previous iteration's plan is rejected
     (its tracked set and watchpoint rotation no longer match);
   - structure: the client's own PT decoder flagged ring damage;
   - semantics: every statement id the report mentions must exist in
     the program the server is diagnosing. *)

(* Version 3 is the multi-bug service era: the envelope is keyed by
   the diagnosis session (which bug the report belongs to) as well as
   the fleet slot.  Version 2 keyed reports by client slot alone — a
   latent single-bug assumption: once thousands of distinct failures
   are diagnosed concurrently, slot numbers repeat across sessions and
   a mis-routed report must be a typed reject, not a silent
   cross-contamination of another bug's statistics. *)
let version = 3

type reject =
  | Bad_version of int
  | Bad_checksum
  | Wrong_session of { expected : int; got : int }
  | Stale_plan of { expected : int; got : int }
  | Dropped_trace of int  (* a thread's PT ring arrived with no bytes *)
  | Damaged_trace of string
  | Bad_payload of string

(* Stable keys for per-reason counters.  Dropped and damaged traces
   are distinct reasons: fleet-health dashboards must not book ring
   drops (a transport problem) as ring corruption (a client problem). *)
let reject_label = function
  | Bad_version _ -> "bad-version"
  | Bad_checksum -> "bad-checksum"
  | Wrong_session _ -> "wrong-session"
  | Stale_plan _ -> "stale-plan"
  | Dropped_trace _ -> "dropped-trace"
  | Damaged_trace _ -> "damaged-trace"
  | Bad_payload _ -> "bad-payload"

let reject_to_string = function
  | Bad_version v -> Printf.sprintf "unknown protocol version %d" v
  | Bad_checksum -> "checksum mismatch (report damaged in transit)"
  | Wrong_session { expected; got } ->
    Printf.sprintf "report for session %d routed to session %d" got expected
  | Stale_plan { expected; got } ->
    Printf.sprintf "report built under stale plan %#x (current %#x)" got
      expected
  | Dropped_trace tid ->
    Printf.sprintf "dropped PT ring: thread %d shipped no bytes" tid
  | Damaged_trace m -> Printf.sprintf "damaged PT trace: %s" m
  | Bad_payload m -> Printf.sprintf "malformed payload: %s" m

(* A splitmix-style avalanche on the native 63-bit int: the digest
   walks every byte of multi-kilobyte envelopes, so this must stay
   allocation-free (boxed [Int64] arithmetic here costs ~5% of a whole
   client run).  Multiplications wrap, which is fine for mixing; the
   result is masked positive so [lsr] stays benign. *)
let mix h x =
  let z = h + (((x lsl 1) lor 1) * 0x9E3779B97F4A7C1) in
  let z = (z lxor (z lsr 30)) * 0x1F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  (z lxor (z lsr 31)) land 0x3FFFFFFFFFFFFFFF

(* The bulk of the walk: a single multiply-xor chain step per word
   keeps the cost at one multiplication instead of {!mix}'s three while
   still propagating any change through the rest of the fold; the
   final {!mix} over the length keeps truncation from cancelling out. *)
let step h x = ((h lxor x) * 0x9E3779B97F4A7C1) land 0x3FFFFFFFFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Encode: the byte form an envelope takes on the wire.

   Layout: [version] [client] as varints, [session] as a fixed 4-byte
   LE word, [plan_id] as a varint, an 8-byte LE digest, then the
   report payload.  The session field is fixed-width on purpose: a
   varint would make envelope length a function of the session id, and
   deterministic in-transit damage models pick the byte they flip from
   the envelope length — the same report would then draw different
   reject labels in different sessions, breaking the contract that a
   multiplexed diagnosis is bit-identical to its one-shot counterpart
   (whose session id differs).  The digest is folded over the *encoded
   bytes* (header fields mixed in first): every report field is in the
   bytes, so one pass over the wire form covers them all.

   Payload field order is the validation layers' priority:
   [r_pt_errors] comes first (dropped/damaged-trace beats bad-payload),
   then the sections whose statement ids are range-checked in order —
   executed, branches, traps.  One reader, {!read_report}, decodes the
   payload and checks it as it goes, so {!ingest} walks an envelope's
   bytes once and stops at the first field that decides a reject.

   Encoders write through a reusable per-worker {!arena}
   ([Parallel.Pool] gives each domain its own), so steady-state
   encoding allocates only the final immutable string. *)
module Encode = struct
  module W = Hw.Wirebuf

  type arena = { pbuf : Buffer.t; ebuf : Buffer.t }

  let arena () = { pbuf = Buffer.create 4096; ebuf = Buffer.create 4096 }

  let put_kind b (k : Exec.Failure.kind) =
    match k with
    | Exec.Failure.Segfault -> W.put_uint b 1
    | Exec.Failure.Use_after_free -> W.put_uint b 2
    | Exec.Failure.Double_free -> W.put_uint b 3
    | Exec.Failure.Assert_fail s ->
      W.put_uint b 4;
      W.put_string b s
    | Exec.Failure.Deadlock -> W.put_uint b 5
    | Exec.Failure.Hang -> W.put_uint b 6
    | Exec.Failure.Div_by_zero -> W.put_uint b 7
    | Exec.Failure.Type_error s ->
      W.put_uint b 8;
      W.put_string b s

  let get_kind r : Exec.Failure.kind =
    match W.get_uint r with
    | 1 -> Exec.Failure.Segfault
    | 2 -> Exec.Failure.Use_after_free
    | 3 -> Exec.Failure.Double_free
    | 4 -> Exec.Failure.Assert_fail (W.get_string r)
    | 5 -> Exec.Failure.Deadlock
    | 6 -> Exec.Failure.Hang
    | 7 -> Exec.Failure.Div_by_zero
    | 8 -> Exec.Failure.Type_error (W.get_string r)
    | _ -> raise W.Short

  let put_pt_error b (tid, (e : Hw.Pt.error)) =
    W.put_uint b tid;
    match e with
    | Hw.Pt.Empty_stream -> W.put_uint b 1
    | Hw.Pt.Truncated -> W.put_uint b 2
    | Hw.Pt.Bad_target pc ->
      W.put_uint b 3;
      W.put_int b pc
    | Hw.Pt.Malformed_packet m ->
      W.put_uint b 4;
      W.put_string b m

  let get_pt_error r =
    let tid = W.get_uint r in
    let e : Hw.Pt.error =
      match W.get_uint r with
      | 1 -> Hw.Pt.Empty_stream
      | 2 -> Hw.Pt.Truncated
      | 3 -> Hw.Pt.Bad_target (W.get_int r)
      | 4 -> Hw.Pt.Malformed_packet (W.get_string r)
      | _ -> raise W.Short
    in
    (tid, e)

  let put_report b (r : Client.report) =
    W.put_int b r.Client.r_seed;
    (* pt errors lead the payload: see the module comment. *)
    W.put_list b put_pt_error r.Client.r_pt_errors;
    (match r.Client.r_outcome with
     | Exec.Interp.Success -> W.put_uint b 1
     | Exec.Interp.Failed rep ->
       W.put_uint b 2;
       put_kind b rep.Exec.Failure.kind;
       W.put_int b rep.Exec.Failure.pc;
       W.put_uint b rep.Exec.Failure.tid;
       W.put_list b W.put_string rep.Exec.Failure.stack;
       W.put_string b rep.Exec.Failure.message);
    (match r.Client.r_signature with
     | None -> W.put_uint b 0
     | Some s ->
       W.put_uint b 1;
       W.put_string b s.Exec.Failure.s_kind;
       W.put_int b s.Exec.Failure.s_pc;
       W.put_list b W.put_string s.Exec.Failure.s_stack);
    (* Executed statements, per thread: iids are delta-encoded against
       their predecessor — control flow is local, so deltas are mostly
       one byte. *)
    W.put_list b
      (fun b (tid, iids) ->
        W.put_uint b tid;
        W.put_uint b (List.length iids);
        ignore
          (List.fold_left
             (fun last iid ->
               W.put_int b (iid - last);
               iid)
             0 iids))
      r.Client.r_executed;
    W.put_list b
      (fun b ((iid : int), taken) ->
        W.put_int b iid;
        W.put_bool b taken)
      r.Client.r_branches;
    W.put_list b
      (fun b (t : Hw.Watchpoint.trap) ->
        W.put_uint b t.Hw.Watchpoint.w_seq;
        W.put_uint b t.Hw.Watchpoint.w_tid;
        W.put_int b t.Hw.Watchpoint.w_iid;
        W.put_int b t.Hw.Watchpoint.w_addr;
        W.put_bool b (t.Hw.Watchpoint.w_rw = Exec.Interp.Write);
        W.put_value b t.Hw.Watchpoint.w_value)
      r.Client.r_traps;
    (let c = r.Client.r_counters in
     W.put_uint b c.Exec.Cost.instrs;
     W.put_uint b c.Exec.Cost.branches;
     W.put_uint b c.Exec.Cost.mem_accesses;
     W.put_uint b c.Exec.Cost.sched_switches;
     W.put_uint b c.Exec.Cost.pt_packets;
     W.put_uint b c.Exec.Cost.pt_bytes;
     W.put_uint b c.Exec.Cost.pt_toggles;
     W.put_uint b c.Exec.Cost.wp_traps;
     W.put_uint b c.Exec.Cost.wp_arms;
     W.put_uint b c.Exec.Cost.rr_events;
     W.put_uint b c.Exec.Cost.sw_trace_events);
    W.put_float b r.Client.r_overhead_pct;
    W.put_float b r.Client.r_base_cycles;
    W.put_float b r.Client.r_extra_cycles;
    W.put_uint b r.Client.r_steps

  (* A reject the payload bytes justify, raised by {!read_report} at
     the field that decides it. *)
  exception Reject of reject

  let trace_reject (tid, (e : Hw.Pt.error)) =
    match e with
    | Hw.Pt.Empty_stream -> Dropped_trace tid
    | e ->
      Damaged_trace
        (Printf.sprintf "thread %d: %s" tid (Hw.Pt.error_to_string e))

  (* The one payload reader.  With [n_instrs] it validates as it
     decodes, in the layers' priority: the first pt error decides the
     reject and nothing after it is read; a section holding a statement
     id outside [0, n_instrs) is read to its end and refused, and later
     sections are not read.  Without it, it decodes what {!put_report}
     wrote (snapshot records, whose reports were validated on arrival).
     Raises [Reject], or [W.Short] on truncated or malformed bytes. *)
  let read_report ?n_instrs r : Client.report =
    let r_seed = W.get_int r in
    let r_pt_errors =
      match n_instrs with
      | None -> W.get_list r get_pt_error
      | Some _ ->
        let n = W.get_uint r in
        if n < 0 then raise W.Short;
        if n > 0 then raise (Reject (trace_reject (get_pt_error r)));
        []
    in
    let bad = ref false in
    let iid i =
      (match n_instrs with
       | Some n when i < 0 || i >= n -> bad := true
       | _ -> ());
      i
    in
    let section what l =
      if !bad then raise (Reject (Bad_payload what)) else l
    in
    let r_outcome =
      match W.get_uint r with
      | 1 -> Exec.Interp.Success
      | 2 ->
        let kind = get_kind r in
        let pc = W.get_int r in
        let tid = W.get_uint r in
        let stack = W.get_list r W.get_string in
        let message = W.get_string r in
        Exec.Interp.Failed
          { Exec.Failure.kind; pc; tid; stack; message }
      | _ -> raise W.Short
    in
    let r_signature =
      match W.get_uint r with
      | 0 -> None
      | 1 ->
        let s_kind = W.get_string r in
        let s_pc = W.get_int r in
        let s_stack = W.get_list r W.get_string in
        Some { Exec.Failure.s_kind; s_pc; s_stack }
      | _ -> raise W.Short
    in
    let r_executed =
      section "executed statement outside the program"
        (W.get_list r (fun r ->
             let tid = W.get_uint r in
             let last = ref 0 in
             let iids =
               W.get_list r (fun r ->
                   last := !last + W.get_int r;
                   iid !last)
             in
             (tid, iids)))
    in
    let r_branches =
      section "branch outcome on a statement outside the program"
        (W.get_list r (fun r ->
             let i = iid (W.get_int r) in
             let taken = W.get_bool r in
             (i, taken)))
    in
    let r_traps =
      section "watchpoint trap on a statement outside the program"
        (W.get_list r (fun r ->
             let w_seq = W.get_uint r in
             let w_tid = W.get_uint r in
             let w_iid = iid (W.get_int r) in
             let w_addr = W.get_int r in
             let w_rw =
               if W.get_bool r then Exec.Interp.Write else Exec.Interp.Read
             in
             let w_value = W.get_value r in
             Hw.Watchpoint.{ w_seq; w_tid; w_iid; w_addr; w_rw; w_value }))
    in
    let c = Exec.Cost.create () in
    c.Exec.Cost.instrs <- W.get_uint r;
    c.Exec.Cost.branches <- W.get_uint r;
    c.Exec.Cost.mem_accesses <- W.get_uint r;
    c.Exec.Cost.sched_switches <- W.get_uint r;
    c.Exec.Cost.pt_packets <- W.get_uint r;
    c.Exec.Cost.pt_bytes <- W.get_uint r;
    c.Exec.Cost.pt_toggles <- W.get_uint r;
    c.Exec.Cost.wp_traps <- W.get_uint r;
    c.Exec.Cost.wp_arms <- W.get_uint r;
    c.Exec.Cost.rr_events <- W.get_uint r;
    c.Exec.Cost.sw_trace_events <- W.get_uint r;
    let r_overhead_pct = W.get_float r in
    let r_base_cycles = W.get_float r in
    let r_extra_cycles = W.get_float r in
    let r_steps = W.get_uint r in
    {
      Client.r_seed;
      r_outcome;
      r_signature;
      r_executed;
      r_branches;
      r_traps;
      r_counters = c;
      r_overhead_pct;
      r_base_cycles;
      r_extra_cycles;
      r_steps;
      r_pt_errors;
    }

  let get_report r = read_report r

  (* Digest of the payload bytes (from [pos]) with the header fields
     mixed in first; 62 bits, so the fixed 8-byte field holds it
     exactly.  A range fold, not [String.sub] + fold: the verifying
     side must not copy the payload just to hash it.  Folds a 32-bit
     little-endian word per step (byte tail last): a word fits a
     63-bit int with no truncation, so every payload bit reaches the
     hash — a wider word would shed its top bits into [step]'s 62-bit
     mask and leave them unprotected.  The digest is verified on
     every delivery, so its cost is the floor of {!ingest}. *)
  let digest ?(pos = 0) ~client ~session ~plan_id payload =
    let h = ref (mix (mix (mix (mix 0x77A9 version) client) session) plan_id) in
    let n = String.length payload in
    let i = ref pos in
    while !i + 4 <= n do
      h :=
        step !h (Int32.to_int (String.get_int32_le payload !i) land 0xFFFFFFFF);
      i := !i + 4
    done;
    while !i < n do
      h := step !h (Char.code (String.unsafe_get payload !i));
      incr i
    done;
    mix !h (n - pos)

  (* [encode a ~client ~plan_id report] seals a report into its wire
     bytes.  [a]'s buffers are reused across calls: the only per-call
     allocation that survives is the returned string. *)
  let encode a ?(session = 0) ~client ~plan_id report =
    Buffer.clear a.pbuf;
    put_report a.pbuf report;
    let payload = Buffer.contents a.pbuf in
    Buffer.clear a.ebuf;
    W.put_uint a.ebuf version;
    W.put_uint a.ebuf client;
    Buffer.add_int32_le a.ebuf (Int32.of_int session);
    W.put_uint a.ebuf plan_id;
    Buffer.add_int64_le a.ebuf
      (Int64.of_int (digest ~client ~session ~plan_id payload));
    Buffer.add_string a.ebuf payload;
    Buffer.contents a.ebuf

  let get_digest r =
    if r.W.pos + 8 > r.W.limit then raise W.Short;
    let bits = String.get_int64_le r.W.src r.W.pos in
    r.W.pos <- r.W.pos + 8;
    Int64.to_int bits

  (* The digest field of an already-encoded envelope, re-read from the
     bytes (it was computed once by {!encode}): what a crash-only
     journal folds into its accepted-report audit without paying a
     second payload walk.  Raises [W.Short] on bytes shorter than an
     envelope header. *)
  let wire_digest bytes =
    let r = W.reader bytes in
    ignore (W.get_uint r) (* version *);
    ignore (W.get_uint r) (* client *);
    r.W.pos <- r.W.pos + 4 (* session *);
    if r.W.pos > r.W.limit then raise W.Short;
    ignore (W.get_uint r) (* plan_id *);
    get_digest r

  let get_session r =
    if r.W.pos + 4 > r.W.limit then raise W.Short;
    let v = Int32.to_int (String.get_int32_le r.W.src r.W.pos) land 0xFFFFFFFF in
    r.W.pos <- r.W.pos + 4;
    v

  (* [ingest ~n_instrs ~plan_id bytes]: the header layers in order,
     all before the payload is touched, then {!read_report} validates
     the payload as it decodes it; trailing bytes come last. *)
  let ingest ?(session = 0) ~n_instrs ~plan_id bytes =
    try
      let r = W.reader bytes in
      let v = W.get_uint r in
      if v <> version then Error (Bad_version v)
      else begin
        let client = W.get_uint r in
        let got_session = get_session r in
        let got_plan = W.get_uint r in
        let d = get_digest r in
        if
          digest ~pos:r.W.pos ~client ~session:got_session ~plan_id:got_plan
            bytes
          <> d
        then Error Bad_checksum
        else if got_session <> session then
          Error (Wrong_session { expected = session; got = got_session })
        else if got_plan <> plan_id then
          Error (Stale_plan { expected = plan_id; got = got_plan })
        else
          let report = read_report ~n_instrs r in
          if W.eof r then Ok report
          else Error (Bad_payload "trailing envelope bytes")
      end
    with
    | W.Short -> Error (Bad_payload "truncated envelope")
    | Reject rej -> Error rej
end
