(** The fleet wire protocol: a versioned, checksummed envelope around
    each client report, validated by the server before anything reaches
    aggregation or predictor ranking.

    Layers, checked in order: protocol version; a digest over every
    envelope byte (transit integrity); the diagnosis session (routing);
    the plan digest the client echoes back (freshness — a report built
    under a previous iteration's plan is useless because its tracked
    set and watchpoint rotation no longer match); the client-side PT
    decoder's typed damage flags (structure); and statement-id range
    checks (semantics).  The header layers run before the payload is
    touched; the last two run inside the one payload reader, as it
    decodes, so an envelope's bytes are read once. *)

(** Current protocol version (3: the multi-bug service era — the
    envelope is keyed by diagnosis session as well as fleet slot, so a
    server multiplexing many concurrent bugs rejects mis-routed
    reports instead of silently folding them into another bug's
    statistics). *)
val version : int

(** Why a report was refused.  A rejected report never reaches
    predictor ranking. *)
type reject =
  | Bad_version of int
  | Bad_checksum
  | Wrong_session of { expected : int; got : int }
      (** routed to the wrong diagnosis session — checked after
          integrity, before freshness *)
  | Stale_plan of { expected : int; got : int }
  | Dropped_trace of int
      (** a thread's PT ring arrived with no bytes at all — a
          transport drop, deliberately distinct from [Damaged_trace]
          so fleet-health counters don't book drops as corruption *)
  | Damaged_trace of string  (** client-side PT decode fault *)
  | Bad_payload of string    (** statement id outside the program *)

(** Stable key for per-reason counters ("bad-checksum", ...). *)
val reject_label : reject -> string

val reject_to_string : reject -> string

(** The byte form an envelope takes on the wire: varint [version] and
    [client], a fixed 4-byte LE [session] word (fixed-width so the
    envelope's length — and therefore which byte a deterministic
    in-transit damage model flips — never depends on the session id),
    a varint [plan_id], an 8-byte LE digest, then the varint-packed
    report payload with statement ids delta-encoded.

    Payload field order mirrors the layers' reject priority
    ([r_pt_errors] lead, then executed / branches / traps), so
    {!Encode.ingest} decodes and validates in one forward read and
    stops at the first field that decides a reject. *)
module Encode : sig
  (** Reusable encode scratch; give each [Parallel.Pool] worker its
      own.  Buffers grow to the fleet's largest report and stay
      there — steady-state encoding allocates only the returned
      string. *)
  type arena

  val arena : unit -> arena

  (** [encode a ~client ~plan_id report] seals a report into its wire
      bytes (header, digest, payload).  [session] defaults to 0. *)
  val encode :
    arena -> ?session:int -> client:int -> plan_id:int -> Client.report ->
    string

  (** [ingest ~n_instrs ~plan_id bytes] validates an envelope and
      decodes its report in one read.  [n_instrs] is the exclusive
      upper bound on valid statement ids (iids are 1-based, so pass
      max iid + 1).  [session] (default 0, the id single-bug drivers
      use) is the id of the diagnosis session doing the validating.

      [Error] carries the first failure, in this priority: version,
      digest, session, plan (all before the payload is read); then the
      first PT error ([Dropped_trace] for an empty ring, else
      [Damaged_trace]; nothing after it is read); then an
      out-of-range statement id in the executed, branch or trap
      section, in that order ([Bad_payload]); then trailing bytes.  A
      short read or a negative count anywhere is
      [Bad_payload "truncated envelope"].

      Never raises — arbitrary bytes yield a [reject]. *)
  val ingest :
    ?session:int ->
    n_instrs:int -> plan_id:int -> string -> (Client.report, reject) result

  (** {2 Codec primitives reused by the crash-only session snapshots}

      The report payload codec and the envelope digest, exposed so the
      {!Gist.Server.Session} snapshot / journal machinery serializes
      retained reports and checksums its own records with exactly the
      wire protocol's encoding — one binary dialect in the tree, not
      two. *)

  (** Append one report's payload encoding to the buffer (the bytes
      {!encode} seals inside an envelope). *)
  val put_report : Buffer.t -> Client.report -> unit

  (** Decode one report payload at the reader's cursor: the reader
      {!ingest} runs, without its PT-error and statement-id rejects
      (snapshot records hold reports that passed them on arrival).
      @raise Hw.Wirebuf.Short on truncated or malformed bytes. *)
  val get_report : Hw.Wirebuf.reader -> Client.report

  (** [digest ?pos ~client ~session ~plan_id payload]: the 62-bit
      envelope digest over [payload.[pos..]] with the header fields
      mixed in — the checksum every envelope carries, reusable for any
      record that wants the same integrity guarantee. *)
  val digest :
    ?pos:int -> client:int -> session:int -> plan_id:int -> string -> int

  (** Re-read the digest field of an envelope {!encode} produced,
      without walking the payload.
      @raise Hw.Wirebuf.Short on bytes shorter than a header. *)
  val wire_digest : string -> int
end
