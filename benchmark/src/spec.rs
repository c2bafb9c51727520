//! The benchmark's fixed vocabulary: workload names and reasons, metric
//! names, units, directions and regression bounds. `BENCHMARK.json` at
//! the repo root states the same lists for the driver; a unit test holds
//! the two in agreement.

use crate::harness::{Ctx, Outcome};
use crate::workloads;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see, with the share of the
/// parent's median by which it may worsen before a change is rejected.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub meaning: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "data generation, session/server open, prepare and warm-up ops — everything before the timed pass; median of the set-ups in one run",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        meaning: "successful ops per wall second, over the quiet half of the timed pass (the 10 of its 20 slices with the lowest median latency)",
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "median op latency (open loop: from the op's due time) over the quiet half",
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "95th-percentile op latency over the quiet half; the sample count is printed",
    },
];

/// One workload: its name, the one-line reason it exists (the `why` of
/// `BENCHMARK.json`), what one op is, and how to run it.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub op: &'static str,
    pub run: fn(&Ctx) -> Outcome,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "report_joins",
        why: "closed loop, embedded, fresh session per op: TC + triangles + revenue per order in one program; fused columnar and leapfrog kernels do the work, front end, write and wire paths are idle",
        op: "fresh rel_graph::with_graph_lib(db.clone()) + Session::query(REPORT)",
        run: workloads::run::<workloads::report_joins::ReportJoins>,
    },
    WorkloadSpec {
        name: "numeric_report",
        why: "closed loop, embedded, fresh session per op: PageRank (partial fixpoint) + dense matmul; scalar rules stay on the env path, so the fused and leapfrog kernels are bypassed",
        op: "fresh rel_graph::with_graph_lib(db.clone()) + Session::query(NUMERIC)",
        run: workloads::run::<workloads::numeric_report::NumericReport>,
    },
    WorkloadSpec {
        name: "lookup_mix",
        why: "closed loop, one long-lived session: 9 prepared point lookups that hit every cache to 1 ad hoc query whose unique text misses the 512-entry module cache; front end and per-call overhead show",
        op: "Prepared::execute_with (9 in 10) or Session::query of a unique source (1 in 10)",
        run: workloads::run::<workloads::lookup_mix::LookupMix>,
    },
    WorkloadSpec {
        name: "txn_stream",
        why: "closed loop, durable fsync=always session with TC, two constraints and a watch: insert, delete, out-of-cone and aborting transactions; incremental maintenance, WAL append and fsync show",
        op: "Session::begin + run_prepared/stage_* + Transaction::commit",
        run: workloads::run::<workloads::txn_stream::TxnStream>,
    },
    WorkloadSpec {
        name: "serving_mix",
        why: "open loop, 3000 req/s over 2 TCP connections to an in-process durable server: 9 prepared reads to 1 transact on a sliding-window log; codec, pool, commit queue and sockets show",
        op: "Client::execute with typed rows (9 in 10) or Client::transact (1 in 10), timed from the due time",
        run: workloads::run::<workloads::serving_mix::ServingMix>,
    },
];

/// A metric of one layer, reported by the traced pass. No bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every workload prints every one of these under `--trace 1`; a metric
/// of a layer the workload does not drive reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    // Front end: rel-syntax + rel-sema behind `rel_sema::compile`,
    // `Session::compile` and `Session::prepare`.
    lower("sema.compile_ms", "ms"),
    lower("sema.strata", "count"),
    lower("sema.rules", "count"),
    lower("session.prepare_ms", "ms"),
    higher("session.module_cache_hit_ratio", "ratio"),
    // Session wrapper: `session` / `prepared`.
    lower("session.exec_overhead_us", "us"),
    higher("session.fixpoint_cache_hit_ratio", "ratio"),
    // Kernels: `fixpoint` / `eval` / `leapfrog`.
    lower("eval.materialize_ms", "ms"),
    lower("eval.fused_ms", "ms"),
    lower("eval.wcoj_ms", "ms"),
    lower("eval.binary_ms", "ms"),
    lower("eval.env_ms", "ms"),
    lower("eval.output_ms", "ms"),
    lower("eval.iterations", "count"),
    higher("eval.fused_rules", "count"),
    lower("eval.env_rules", "count"),
    higher("eval.wcoj_dispatches", "count"),
    lower("eval.binary_dispatches", "count"),
    lower("eval.index_builds", "count"),
    higher("eval.index_reuse_ratio", "ratio"),
    lower("eval.trie_builds", "count"),
    higher("eval.trie_reuse_ratio", "ratio"),
    lower("eval.rows_out", "count"),
    higher("eval.rows_per_s", "1/s"),
    higher("eval.parallel_speedup", "ratio"),
    // Write path: `txn`, `incremental`, `wal`, `codec`, `snapshot`,
    // `recovery`, `watch`.
    lower("txn.stage_ms", "ms"),
    lower("txn.commit_ms", "ms"),
    lower("txn.commit_insert_ms", "ms"),
    lower("txn.commit_delete_ms", "ms"),
    lower("txn.commit_outofcone_ms", "ms"),
    lower("txn.expected_abort_share", "ratio"),
    higher("incremental.reused_per_commit", "count"),
    lower("incremental.delta_restarted_per_commit", "count"),
    lower("incremental.recomputed_per_commit", "count"),
    lower("wal.append_ms", "ms"),
    lower("wal.bytes_per_commit", "B"),
    lower("wal.fsyncs_per_commit", "count"),
    lower("wal.write_amp", "ratio"),
    lower("codec.encode_delta_us", "us"),
    lower("durability.overhead_ms", "ms"),
    lower("snapshot.compact_ms", "ms"),
    lower("snapshot.bytes", "B"),
    lower("recovery.open_ms", "ms"),
    lower("recovery.records_replayed", "count"),
    lower("watch.deltas", "count"),
    lower("watch.rows_per_delta", "count"),
    lower("watch.recv_us", "us"),
    lower("watch.resyncs", "count"),
    // Wire: rel-server `protocol` / `pool` / `server` / `client`.
    lower("client.execute_p50_ms", "ms"),
    lower("client.execute_p95_ms", "ms"),
    lower("client.transact_p50_ms", "ms"),
    lower("client.transact_p95_ms", "ms"),
    lower("client.sched_lag_p95_ms", "ms"),
    lower("client.busy_share", "ratio"),
    lower("protocol.encode_req_us", "us"),
    lower("protocol.decode_req_us", "us"),
    lower("protocol.encode_resp_us", "us"),
    lower("protocol.decode_resp_us", "us"),
    lower("protocol.bytes_per_req", "B"),
    lower("protocol.bytes_per_resp", "B"),
    lower("pool.checkout_us", "us"),
    lower("server.wire_overhead_ms", "ms"),
    lower("server.fsyncs_per_commit", "count"),
    higher("server.closed_loop_rps", "1/s"),
    // Where the traced pass's op time went, by layer (self-time shares;
    // with `trace.unattributed_share` they sum to 1).
    lower("share.frontend", "ratio"),
    lower("share.session", "ratio"),
    lower("share.kernels_columnar", "ratio"),
    lower("share.kernels_env", "ratio"),
    lower("share.output", "ratio"),
    lower("share.write_path", "ratio"),
    lower("share.wire", "ratio"),
    // The process: `VmHWM` when the traced run ends. Not an end-to-end
    // metric because it does not repeat: see README, "Memory".
    lower("process.peak_rss_mb", "MB"),
    // Trace bookkeeping.
    lower("trace.overhead_share", "ratio"),
    lower("trace.unattributed_share", "ratio"),
    higher("trace.ops", "count"),
];

/// The layer a span name's self time is charged to (`None`: the op's
/// root span, i.e. unattributed).
pub fn layer_of_span(name: &str) -> Option<&'static str> {
    match name {
        "op" => None,
        "sema.compile" | "session.prepare" => Some("share.frontend"),
        "session.execute" | "session.open" => Some("share.session"),
        // Split between the columnar and the env share by the kernel
        // classes the profiles reported (see `Layers::finish_shares`).
        "eval.materialize" | "eval.strata" => Some("kernels"),
        "eval.output" => Some("share.output"),
        "txn.begin" | "txn.stage" | "txn.commit" | "watch.recv" => Some("share.write_path"),
        "protocol.encode_req" | "client.roundtrip" | "protocol.decode_resp" => Some("share.wire"),
        other => panic!("span `{other}` has no layer"),
    }
}
