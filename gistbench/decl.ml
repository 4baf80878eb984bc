type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let better_label = function Lower -> "lower" | Higher -> "higher"

let m name unit_ better = { name; unit_; better }

let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "throughput_per_s" "1/s" Higher;
    m "latency_p50_s" "s" Lower;
    m "peak_heap_mb" "MB" Lower;
  ]

let per_layer =
  [
    m "session.create_s" "s" Lower;
    m "session.need_s" "s" Lower;
    m "session.grant_s" "s" Lower;
    m "server.slot_s" "s" Lower;
    m "server.slot_p50_us" "us" Lower;
    m "server.slot_max_us" "us" Lower;
    m "pool.map_s" "s" Lower;
    m "pool.overhead_share" "1" Lower;
    m "session.deliver_s" "s" Lower;
    m "server.slots" "count" Lower;
    m "server.consumed_ratio" "1" Higher;
    m "fleet.valid_ratio" "1" Higher;
    m "ast.iterations" "count" Lower;
    m "ast.early_exits" "count" Higher;
    m "session.snapshot_s" "s" Lower;
    m "session.snapshot_bytes" "bytes" Lower;
    m "session.restore_s" "s" Lower;
    m "client.run_one_s" "s" Lower;
    m "instrument.place_s" "s" Lower;
    m "slicer.compute_s" "s" Lower;
    m "wire.encode_s" "s" Lower;
    m "wire.ingest_s" "s" Lower;
    m "wire.bytes_per_report" "bytes" Lower;
    m "wire.rejected.bad-checksum" "count" Lower;
    m "wire.rejected.bad-version" "count" Lower;
    m "wire.rejected.bad-payload" "count" Lower;
    m "wire.rejected.stale-plan" "count" Lower;
    m "wire.digest_blind" "count" Lower;
    m "predict.of_run_s" "s" Lower;
    m "predict.predictors_per_report" "count" Lower;
    m "acc.add_s" "s" Lower;
    m "acc.separated_s" "s" Lower;
    m "acc.rank_s" "s" Lower;
    m "service.submit_s" "s" Lower;
    m "triage.coalesced" "count" Higher;
    m "triage.dedup_ratio" "1" Higher;
    m "service.refused" "count" Lower;
    m "service.step_s" "s" Lower;
    m "service.rounds" "count" Lower;
    m "service.slots_per_round" "count" Higher;
    m "service.queued_max" "count" Lower;
    m "service.inflight_mean" "count" Lower;
    m "service.max_wait_rounds" "count" Lower;
    m "service.fresh_wait_rounds" "count" Lower;
    m "service.step_ckpt_s" "s" Lower;
    m "service.step_plain_s" "s" Lower;
    m "service.miss_ratio" "1" Lower;
    m "journal.bytes" "bytes" Lower;
    m "journal.load_s" "s" Lower;
    m "recover.replayed_rounds" "count" Lower;
    m "recover.total_s" "s" Lower;
    m "generator.late_max_s" "s" Lower;
    m "gc.minor_words" "words" Lower;
    m "gc.minor_collections" "count" Lower;
    m "gc.major_collections" "count" Lower;
    m "gc.minor_s" "s" Lower;
    m "gc.major_s" "s" Lower;
    m "unaccounted_share" "1" Lower;
    m "trace.overhead_share" "1" Lower;
  ]

let workloads = [ "bugbase"; "ingest"; "service" ]
