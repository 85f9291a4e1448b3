//! Feed generation: `--seed` is the only input. Every feed comes with
//! the rows its query must produce, derived from the generator's ground
//! truth and never from the engine.

use crate::workloads::Workload;
use eslev_dsms::prelude::{Duration, Timestamp, Value};
use eslev_rfid::disorder::perturb_rows;
use eslev_rfid::reading::{merge_feeds, Reading};
use eslev_rfid::scenario::{dedup, qc_line};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// What `push_batch` takes: `(stream, values)`.
pub type Row = (String, Vec<Value>);

/// Feed sizes. [`FULL`] is the benchmark; [`TINY`] lets `cargo test` run
/// every workload and every ground-truth check in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// E1: tag presences; half the readings on top are duplicates.
    pub e1_presences: usize,
    /// E6: products entering the QC line, one unique EPC each.
    pub e6_products: usize,
    /// E10: tags cycling forever.
    pub e10_tags: usize,
    /// E10: runs per tag.
    pub e10_rounds: usize,
    /// Paced workload: readings due per second.
    pub paced_rate: usize,
    /// The per-layer probes of E1 run over one `probe_share`-th of its feed.
    pub probe_share: usize,
    /// `detector.partition_scaling`: few and many live tags.
    pub scaling_tags: (usize, usize),
    /// Readings each star-sequence probe drives through the detector.
    pub star_probe_readings: usize,
}

pub const FULL: Sizes = Sizes {
    e1_presences: 500_000,
    e6_products: 2_000,
    e10_tags: 256,
    e10_rounds: 40,
    paced_rate: 100_000,
    probe_share: 5,
    scaling_tags: (16, 1024),
    star_probe_readings: 43_008,
};

pub const TINY: Sizes = Sizes {
    e1_presences: 1_500,
    e6_products: 60,
    e10_tags: 8,
    e10_rounds: 3,
    paced_rate: 100_000,
    probe_share: 2,
    scaling_tags: (2, 16),
    star_probe_readings: 1_000,
};

/// E10: `R1` readings per run; every output row must carry this count.
pub const E10_RUN_LEN: usize = 20;
/// E1 disorder: the largest delivery delay, and the tolerance the engine is given.
pub const DISORDER: Duration = Duration(2_000_000);
/// E6: the `OVER [2 MINUTES PRECEDING C4]` window.
pub const E6_WINDOW: Duration = Duration(120_000_000);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Content hash of one row (values and event time), the identity under
/// which an output row is matched to the row expected.
pub fn row_key(values: &[Value], ts: Timestamp) -> u64 {
    let mut h = fnv(FNV_OFFSET, &ts.as_micros().to_le_bytes());
    for v in values {
        h = match v {
            Value::Null => fnv(h, &[0]),
            Value::Int(i) => fnv(fnv(h, &[1]), &i.to_le_bytes()),
            Value::Float(f) => fnv(fnv(h, &[2]), &f.to_bits().to_le_bytes()),
            Value::Str(s) => fnv(fnv(h, &[3]), s.as_bytes()),
            Value::Bool(b) => fnv(h, &[4, u8::from(*b)]),
            Value::Ts(t) => fnv(fnv(h, &[5]), &t.as_micros().to_le_bytes()),
        };
        // Separator, so ("ab","c") and ("a","bc") differ.
        h = fnv(h, &[0xff]);
    }
    h
}

fn ts_of(values: &[Value]) -> Timestamp {
    match values[2] {
        Value::Ts(t) => t,
        _ => unreachable!("every benchmark stream is (reader, tag, time)"),
    }
}

/// A generated feed and its ground truth.
pub struct Feed {
    /// The readings, in the order they are fed.
    pub rows: Vec<Row>,
    /// Key of every output row the query must produce → position in
    /// `rows` of the reading that completes it (whose arrival makes the
    /// row due).
    pub expected: HashMap<u64, u32>,
    /// Order-dependent hash of `rows`: same seed, same hash.
    pub hash: u64,
}

impl Feed {
    /// `completes` gives, for the reading that completes an output row,
    /// that row's key; `truth` is the generator's set of such keys.
    fn new(
        rows: Vec<Row>,
        truth: &std::collections::HashSet<u64>,
        completes: impl Fn(&Row) -> Option<u64>,
    ) -> Feed {
        let mut expected = HashMap::with_capacity(truth.len());
        let mut hash = FNV_OFFSET;
        for (pos, row) in rows.iter().enumerate() {
            hash = fnv(
                fnv(hash, row.0.as_bytes()),
                &row_key(&row.1, ts_of(&row.1)).to_le_bytes(),
            );
            if let Some(key) = completes(row).filter(|k| truth.contains(k)) {
                expected.insert(key, pos as u32);
            }
        }
        assert_eq!(
            expected.len(),
            truth.len(),
            "every expected row is completed by exactly one reading of the feed"
        );
        Feed {
            rows,
            expected,
            hash,
        }
    }

    /// Order-independent checksum of the expected output.
    pub fn expected_checksum(&self) -> u64 {
        self.expected.keys().fold(0, |a, k| a.wrapping_add(*k))
    }

    /// The feed of `workload` for `seed`. `paced_seconds` bounds the
    /// paced workload's schedule.
    pub fn generate(workload: Workload, seed: u64, sizes: &Sizes, paced_seconds: usize) -> Feed {
        match workload {
            Workload::E1Tuple | Workload::E1Batch64 | Workload::E1Shard2 => {
                e1(seed, sizes, None, false)
            }
            Workload::E1Disorder => e1(seed, sizes, None, true),
            Workload::E1Shard2Paced => {
                e1(seed, sizes, Some(sizes.paced_rate * paced_seconds), false)
            }
            Workload::E6SeqRecent => e6(seed, sizes.e6_products),
            Workload::E10Star => e10(seed, sizes.e10_tags, sizes.e10_rounds),
        }
    }
}

/// Example 1: duplicate-heavy gate readings. The expected output is the
/// first reading of every presence; the generator only counts presences,
/// so which readings those are is recomputed here from its guarantee
/// (duplicates chain within 300 ms, presences of one tag lie seconds apart).
fn e1(seed: u64, sizes: &Sizes, limit: Option<usize>, disorder: bool) -> Feed {
    let w = dedup::generate(&dedup::DedupConfig {
        presences: sizes.e1_presences,
        duplicate_prob: 0.5,
        seed,
        ..dedup::DedupConfig::default()
    });
    let mut readings = w.readings;
    let mut last: HashMap<&str, Timestamp> = HashMap::new();
    let first_of_presence: Vec<bool> = readings
        .iter()
        .map(|r| {
            let prev = last.insert(r.tag.as_str(), r.ts);
            prev.is_none_or(|p| r.ts - p > Duration::from_secs(1))
        })
        .collect();
    assert_eq!(
        first_of_presence.iter().filter(|k| **k).count(),
        w.unique_presences,
        "the generator's presence count is the ground truth"
    );
    drop(last);
    let keep = limit.unwrap_or(readings.len()).min(readings.len());
    readings.truncate(keep);
    let mut rows: Vec<Row> = readings
        .iter()
        .map(|r| ("readings".to_string(), r.to_values()))
        .collect();
    let truth = rows
        .iter()
        .zip(&first_of_presence)
        .filter(|(_, first)| **first)
        .map(|((_, v), _)| row_key(v, ts_of(v)))
        .collect();
    if disorder {
        rows = perturb_rows(rows, seed, DISORDER);
    }
    Feed::new(rows, &truth, |(_, v)| Some(row_key(v, ts_of(v))))
}

/// Examples 6/7: the four-checkpoint QC line, merged into one
/// time-ordered feed over streams `C1..C4`.
fn e6(seed: u64, products: usize) -> Feed {
    let w = qc_line::generate(&qc_line::QcConfig {
        products,
        seed,
        ..qc_line::QcConfig::default()
    });
    let truth = w
        .completed
        .iter()
        .zip(&w.spans)
        .filter(|(_, span)| **span <= E6_WINDOW)
        .map(|((tag, done), _)| row_key(&[Value::str(tag), Value::Ts(*done)], *done))
        .collect();
    let streams: Vec<(String, Vec<Reading>)> = w
        .feeds
        .into_iter()
        .enumerate()
        .map(|(i, f)| (format!("C{}", i + 1), f))
        .collect();
    let rows = merge_feeds(streams)
        .into_iter()
        .map(|item| (item.stream, item.reading.to_values()))
        .collect();
    Feed::new(rows, &truth, |(stream, v)| {
        (stream == "C4").then(|| row_key(&[v[1].clone(), v[2].clone()], ts_of(v)))
    })
}

/// Example 10: `tags` tags each cycling `E10_RUN_LEN` `R1` readings and
/// one `R2` boundary per round; within a round the tags interleave in an
/// order shuffled from the seed.
fn e10(seed: u64, tags: usize, rounds: usize) -> Feed {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..tags).collect();
    let mut rows = Vec::with_capacity(tags * rounds * (E10_RUN_LEN + 1));
    let mut truth = std::collections::HashSet::new();
    let mut secs = 0u64;
    for _ in 0..rounds {
        for i in (1..tags).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for step in 0..=E10_RUN_LEN {
            for tag in &order {
                secs += 1;
                let ts = Timestamp::from_secs(secs);
                let stream = if step < E10_RUN_LEN { "R1" } else { "R2" };
                // Fresh strings per reading, as a reader would deliver them.
                let tag = Value::str(format!("tag-{tag}"));
                if step == E10_RUN_LEN {
                    truth.insert(e10_key(&tag, ts));
                }
                rows.push((
                    stream.to_string(),
                    vec![Value::str("rd"), tag, Value::Ts(ts)],
                ));
            }
        }
    }
    Feed::new(rows, &truth, |(stream, v)| {
        (stream == "R2").then(|| e10_key(&v[1], ts_of(v)))
    })
}

fn e10_key(tag: &Value, ts: Timestamp) -> u64 {
    row_key(&[Value::Int(E10_RUN_LEN as i64), tag.clone()], ts)
}
