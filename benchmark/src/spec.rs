//! The benchmark's contract in one place: every workload and why it
//! exists, every metric with unit, direction and bound. `BENCHMARK.json`
//! at the repo root is `bench spec` printed; a test keeps the two equal.

use crate::json::Json;
use crate::stats::Better::{self, Higher, Lower};
use crate::workloads::Workload;

/// How long one run measures, in seconds (`--seconds` of the driver).
pub const RUN_SECONDS: u64 = 8;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the engine sees. `failed_share` is reported by `bench
/// run` and gated by `bench compare` at bound 0, but is not listed here:
/// it is 0 on every workload, and the driver's result line carries the
/// same information as `failed` / `attempted`.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "tuples_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "emit_latency_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "emit_latency_p99_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "allocs_per_tuple",
        unit: "count",
        better: Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

/// Single layers, measured from outside; no bounds.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("lang.parse_us", "us", Lower),
    ("lang.plan_us", "us", Lower),
    ("engine.ingest_tuple_ns", "ns", Lower),
    ("engine.ingest_batch64_ns", "ns", Lower),
    ("engine.ingest_allocs", "count", Lower),
    ("engine.reorder_ns", "ns", Lower),
    ("engine.reorder_peak_buffered", "count", Lower),
    ("engine.late_tuples", "count", Lower),
    ("intern.canonicalize_ns", "ns", Lower),
    ("intern.entries", "count", Lower),
    ("intern.bytes", "B", Lower),
    ("key.encode_ns", "ns", Lower),
    ("ops.e1_chain_ns", "ns", Lower),
    ("ops.e1_chain_batch64_ns", "ns", Lower),
    ("ops.rows_in", "count", Lower),
    ("ops.rows_out", "count", Higher),
    ("ops.state_key_bytes", "B", Lower),
    ("ops.retained_end", "count", Lower),
    ("detector.unrestricted_ns", "ns", Lower),
    ("detector.recent_ns", "ns", Lower),
    ("detector.chronicle_ns", "ns", Lower),
    ("detector.consecutive_ns", "ns", Lower),
    ("detector.exception_ns", "ns", Lower),
    ("detector.star_ns", "ns", Lower),
    ("detector.punct_share", "share", Lower),
    ("detector.partition_scaling", "ratio", Lower),
    ("detector.partitions_created", "count", Lower),
    ("detector.live_partitions_end", "count", Lower),
    ("detector.retained_peak", "count", Lower),
    ("detector.prunes", "count", Higher),
    ("detector.matches", "count", Higher),
    ("detector.match_per_partition", "share", Higher),
    ("shard.hash_ns", "ns", Lower),
    ("shard.route_ns", "ns", Lower),
    ("shard.flush_wait_ms", "ms", Lower),
    ("shard.merge_ns_per_row", "ns", Lower),
    ("shard.skew", "ratio", Lower),
    ("shard.hop_ns", "ns", Lower),
    ("shard.merge_buffered_peak", "count", Lower),
    ("ckpt.save_us", "us", Lower),
    ("ckpt.bytes", "B", Lower),
    ("ckpt.restore_us", "us", Lower),
    ("sink.take_ns_per_row", "ns", Lower),
    ("gen.feed_s", "s", Lower),
    ("gen.lag_p99_us", "us", Lower),
    ("trace.overhead_share", "share", Lower),
    ("trace.unattributed_share", "share", Lower),
];

impl Workload {
    /// One line on why the workload exists (also in the README).
    pub fn why(self) -> &'static str {
        match self {
            Workload::E1Tuple => "Example 1 dedup, ~1M readings, one push per reading: every reading pays engine ingest and the ops chain; the detector is idle",
            Workload::E1Batch64 => "same readings and query through push_batch in chunks of 64: the same layers used as batches, so batch-path gains must not cost e1_tuple and vice versa",
            Workload::E1Disorder => "same readings delayed by up to 2 s with a 2 s disorder tolerance: only the reorder buffer does extra work, so the gap to e1_tuple is its cost",
            Workload::E1Shard2 => "same readings through a 2-shard ShardedEngine, closed loop with 1024 readings in flight: route, channel hop, worker and low-water merge dominate",
            Workload::E1Shard2Paced => "open loop: the sharded pipeline fed 100000 readings/s on a 1 ms schedule, latency from each reading's due time: the only workload with queue wait",
            Workload::E6SeqRecent => "Examples 6/7 SEQ(C1..C4) in a 2-minute window, MODE RECENT, 2000 unique EPCs: partitions are created and should expire; the detector is >99% of the time",
            Workload::E10Star => "SEQ(R1*,R2) MODE CHRONICLE with COUNT over 256 tags cycling forever: a fixed live-partition set with long star runs, no partition churn",
        }
    }
}

fn better(b: Better) -> Json {
    Json::str(match b {
        Higher => "higher",
        Lower => "lower",
    })
}

/// `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|c| Json::str(*c)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, b)| {
                        Json::obj([
                            ("name", Json::str(*name)),
                            ("unit", Json::str(*unit)),
                            ("better", better(*b)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
