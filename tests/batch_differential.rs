//! Batch-vs-tuple differential: `Engine::push_batch` must produce
//! byte-identical query output to pushing the same rows one at a time
//! with `Engine::push`, at every batch size — including batches whose
//! internal timestamp spread expires windows mid-batch, batches fed
//! through a disorder tolerance, and batches routed by an EPC-sharded
//! `ShardedEngine::push_batch` at N ∈ {1, 2, 4, 8}.
//!
//! Three paper workloads cover the punctuation-sensitive operator
//! classes: E1 (windowed NOT EXISTS dedup, alone and behind a
//! selection), E6 (multi-stream SEQ with a window and partition keys, in
//! every pairing mode), E10 (star SEQ with a COUNT aggregate).

use eslev::prelude::*;

const BATCH_SIZES: [usize; 4] = [1, 7, 64, 4096];

/// Shard counts of the sharded arm, each fed at batch 7 and 64.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Deterministic LCG — same feed on every run, no external crates.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

type Row = (String, Vec<Value>);
type Out = Vec<(Vec<Value>, Timestamp)>;

fn rows_of(tuples: &[Tuple]) -> Out {
    tuples
        .iter()
        .map(|t| (t.values().to_vec(), t.ts()))
        .collect()
}

/// Build an engine from a DDL+query script, every stream tolerating
/// `slack` of disorder if given; return it and its collector.
fn build(script: &str, query: &str, slack: Option<Duration>) -> (Engine, Collector) {
    let mut e = Engine::new();
    execute_script(&mut e, script).expect("script");
    if let Some(slack) = slack {
        for s in e.stream_stats() {
            e.set_disorder_tolerance(&s.name, slack)
                .expect("tolerant stream");
        }
    }
    let out = execute(&mut e, query).expect("query");
    let c = out.collector().expect("bare SELECT collects").clone();
    (e, c)
}

/// Feed `rows` one `push` at a time (`batch` is `None`) or in
/// `push_batch` chunks, flush any disorder buffer, return the output.
fn run_single(
    script: &str,
    query: &str,
    rows: &[Row],
    batch: Option<usize>,
    slack: Option<Duration>,
) -> Out {
    let (mut e, c) = build(script, query, slack);
    match batch {
        None => {
            for (stream, values) in rows {
                e.push(stream, values.clone()).expect("push");
            }
        }
        Some(b) => {
            for chunk in rows.chunks(b) {
                e.push_batch(chunk.iter().cloned()).expect("push_batch");
            }
        }
    }
    e.flush_disorder().expect("flush disorder");
    rows_of(&c.take())
}

/// Feed `rows` through an EPC-sharded engine at `shards` workers — one
/// `push` at a time (`batch` is `None`) or in `push_batch` chunks — and
/// read the deterministically merged output.
fn run_sharded(
    script: &str,
    query: &str,
    rows: &[Row],
    batch: Option<usize>,
    shards: usize,
) -> Out {
    let (script, query) = (script.to_string(), query.to_string());
    let mut se = ShardedEngine::build(shards, 1024, ShardSpec::new(), move |e| {
        execute_script(e, &script)?;
        let out = execute(e, &query)?;
        Ok(vec![out.collector().expect("bare SELECT collects").clone()])
    })
    .expect("sharded build");
    match batch {
        None => {
            for (stream, values) in rows {
                se.push(stream, values.clone()).expect("push");
            }
        }
        Some(b) => {
            for chunk in rows.chunks(b) {
                se.push_batch(chunk.to_vec()).expect("push_batch");
            }
        }
    }
    se.flush().expect("flush");
    let got = rows_of(&se.take_output(0).expect("slot 0"));
    se.stop().expect("clean stop");
    got
}

/// How a workload's `push_batch` run is fed and what it must equal.
#[derive(Clone, Copy)]
enum Arm {
    /// One engine at every batch size, which must equal its `push` loop;
    /// with a slack, every stream tolerates that much disorder and the
    /// reorder buffer is flushed at the end.
    Single(Option<Duration>),
    /// EPC-sharded `push_batch` at batch 7 and 64, which must equal the
    /// single engine's `push` loop.
    Sharded,
    /// EPC-sharded `push_batch` at batch 7 and 64, which must equal the
    /// same shard count's `push` loop. For queries EPC routing does not
    /// preserve: sharding may change their answer, batching must not.
    ShardedVsPush,
}

/// Feed `rows` tuple-at-a-time into one engine and in `batch`-sized
/// chunks into others, as the workload's `arm` says; assert the
/// collected outputs match exactly (values and timestamps).
fn assert_equivalent(script: &str, query: &str, rows: &[Row], arm: Arm, label: &str) {
    let slack = match arm {
        Arm::Single(slack) => slack,
        Arm::Sharded | Arm::ShardedVsPush => None,
    };
    let want = run_single(script, query, rows, None, slack);
    assert!(!want.is_empty(), "{label}: workload produced no output");
    if let Arm::Single(slack) = arm {
        for batch in BATCH_SIZES {
            assert_eq!(
                run_single(script, query, rows, Some(batch), slack),
                want,
                "{label}: batch size {batch} diverged from tuple-at-a-time"
            );
        }
        return;
    }
    for shards in SHARD_COUNTS {
        let reference = match arm {
            Arm::ShardedVsPush => run_sharded(script, query, rows, None, shards),
            _ => want.clone(),
        };
        for batch in [7, 64] {
            assert_eq!(
                run_sharded(script, query, rows, Some(batch), shards),
                reference,
                "{label}: {shards} shards at batch {batch} diverged from tuple-at-a-time"
            );
        }
    }
}

/// E1: dedup via windowed NOT EXISTS. Timestamps stride ~0.4 s with a
/// 1-second window, so a 64-row batch spans many window expirations —
/// the mid-batch expiry case.
#[test]
fn e1_dedup_batch_equals_tuple() {
    let arm = Arm::Single(None);
    assert_equivalent(E1_SCRIPT, E1_QUERY, &e1_rows(0), arm, "E1 dedup");
}

/// E1 dedup routed by EPC over N ∈ {1, 2, 4, 8} shards.
#[test]
fn e1_dedup_sharded_batch_equals_tuple() {
    let label = "E1 dedup sharded";
    assert_equivalent(E1_SCRIPT, E1_QUERY, &e1_rows(0), Arm::Sharded, label);
}

/// E1 behind a selection. The selection keeps the planner from
/// specializing the NOT EXISTS into a dedup: it runs as a two-port
/// window semi-join whose outputs the sharded merge orders by shard
/// among equal timestamps.
#[test]
fn e1_selected_batch_equals_tuple() {
    let query = "SELECT * FROM readings AS r1
     WHERE r1.reader_id <> 'reader1' AND NOT EXISTS
       (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
        WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)";
    for arm in [Arm::Single(None), Arm::ShardedVsPush] {
        assert_equivalent(E1_SCRIPT, query, &e1_rows(0), arm, "E1 select+dedup");
    }
}

/// E1 under bounded disorder: the feed is perturbed by up to 0.8 s and
/// a 1 s reorder buffer restores order, which re-batches releases
/// internally; `push_batch` into it must match a `push` loop.
#[test]
fn e1_disordered_batch_equals_tuple() {
    let rows = perturb_rows(e1_rows(0), 7, Duration::from_micros(800_000));
    let arm = Arm::Single(Some(Duration::from_secs(1)));
    assert_equivalent(E1_SCRIPT, E1_QUERY, &rows, arm, "E1 disordered");
}

const E1_SCRIPT: &str =
    "CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP)";
const E1_QUERY: &str = "SELECT * FROM readings AS r1
     WHERE NOT EXISTS
       (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
        WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)";

/// 600 dedup readings starting at `start_us`.
fn e1_rows(start_us: u64) -> Vec<Row> {
    let mut rng = Lcg(11);
    let mut ts = start_us;
    (0..600)
        .map(|_| {
            // ~40% duplicates: same (reader, tag) again within the window.
            if rng.below(5) >= 2 {
                ts += 400_000; // 0.4 s in micros
            }
            (
                "readings".to_string(),
                vec![
                    Value::str(format!("reader{}", rng.below(3)).as_str()),
                    Value::str(format!("tag{}", rng.below(8)).as_str()),
                    Value::Ts(Timestamp::from_micros(ts)),
                ],
            )
        })
        .collect()
}

/// E6: three-stage SEQ (shelf → checkout → exit) with per-tag partition
/// equalities and a gap constraint, in all four pairing modes.
#[test]
fn e6_seq_batch_equals_tuple() {
    assert_e6_equivalent(Arm::Single(None), "E6 seq");
}

/// E6 routed by EPC over N ∈ {1, 2, 4, 8} shards, in all four modes.
#[test]
fn e6_seq_sharded_batch_equals_tuple() {
    assert_e6_equivalent(Arm::Sharded, "E6 seq sharded");
}

fn assert_e6_equivalent(arm: Arm, label: &str) {
    let script = "CREATE STREAM shelf (tagid VARCHAR, tagtime TIMESTAMP);
         CREATE STREAM checkout (tagid VARCHAR, tagtime TIMESTAMP);
         CREATE STREAM exits (tagid VARCHAR, tagtime TIMESTAMP)";
    let mut rng = Lcg(12);
    let mut ts = 0u64;
    let streams = ["shelf", "checkout", "exits"];
    let rows: Vec<Row> = (0..900)
        .map(|_| {
            ts += rng.below(30) + 1;
            (
                streams[rng.below(3) as usize].to_string(),
                vec![
                    Value::str(format!("tag{}", rng.below(12)).as_str()),
                    Value::Ts(Timestamp::from_secs(ts)),
                ],
            )
        })
        .collect();
    for mode in ["UNRESTRICTED", "RECENT", "CHRONICLE", "CONSECUTIVE"] {
        let query = format!(
            "SELECT s.tagid, x.tagtime FROM shelf AS s, checkout AS c, exits AS x
             WHERE SEQ(s, c, x) MODE {mode}
               AND s.tagid = c.tagid AND c.tagid = x.tagid
               AND x.tagtime - c.tagtime <= 120 SECONDS"
        );
        assert_equivalent(script, &query, &rows, arm, &format!("{label} {mode}"));
    }
}

/// E10: star sequence SEQ(a*, b) in CHRONICLE mode with a star COUNT,
/// runs of `a` closed by a `b`.
#[test]
fn e10_star_batch_equals_tuple() {
    assert_e10_equivalent(Arm::Single(None), "E10 star");
}

/// E10 routed by EPC over N ∈ {1, 2, 4, 8} shards. The pattern has no
/// partition key, so EPC routing splits each run from its closing `b`.
#[test]
fn e10_star_sharded_batch_equals_tuple() {
    assert_e10_equivalent(Arm::ShardedVsPush, "E10 star sharded");
}

fn assert_e10_equivalent(arm: Arm, label: &str) {
    let script = "CREATE STREAM scans (tagid VARCHAR, tagtime TIMESTAMP);
         CREATE STREAM cases (tagid VARCHAR, tagtime TIMESTAMP)";
    let query = "SELECT COUNT(a*), b.tagid FROM scans AS a, cases AS b
         WHERE SEQ(a*, b) MODE CHRONICLE
           AND b.tagtime - LAST(a*).tagtime <= 30 SECONDS";
    let mut rng = Lcg(13);
    let mut ts = 0u64;
    let mut rows: Vec<Row> = Vec::new();
    for case in 0..80 {
        for i in 0..(rng.below(6) + 1) {
            ts += rng.below(5) + 1;
            rows.push((
                "scans".to_string(),
                vec![
                    Value::str(format!("item{case}-{i}").as_str()),
                    Value::Ts(Timestamp::from_secs(ts)),
                ],
            ));
        }
        ts += rng.below(5) + 1;
        rows.push((
            "cases".to_string(),
            vec![
                Value::str(format!("case{case}").as_str()),
                Value::Ts(Timestamp::from_secs(ts)),
            ],
        ));
    }
    assert_equivalent(script, query, &rows, arm, label);
}

/// What one way of feeding left behind: the error that stopped it, the
/// output, the dead letters, and how the next in-order push fared.
type Outcome = (
    Option<DsmsError>,
    Vec<(Vec<Value>, Timestamp)>,
    Vec<(String, Vec<Value>, RejectReason, String)>,
    Option<DsmsError>,
);

/// Feed `rows` until the first refused row — one `push` at a time when
/// `batch` is `None`, else in `push_batch` chunks — then push `next`.
fn feed_until_refused(rows: &[Row], batch: Option<usize>, next: &Row) -> Outcome {
    let (mut engine, out) = build(E1_SCRIPT, E1_QUERY, None);
    let refused = match batch {
        None => rows
            .iter()
            .find_map(|(stream, values)| engine.push(stream, values.clone()).err()),
        Some(b) => rows
            .chunks(b)
            .find_map(|chunk| engine.push_batch(chunk.iter().cloned()).err()),
    };
    let delivered = out.take();
    let next_push = engine.push(&next.0, next.1.clone()).err();
    let dead = engine
        .take_dead_letters()
        .into_iter()
        .map(|d| (d.stream, d.values, d.reason, d.error))
        .collect();
    let rows = delivered
        .iter()
        .chain(out.take().iter())
        .map(|t| (t.values().to_vec(), t.ts()))
        .collect();
    (refused, rows, dead, next_push)
}

/// A refused row inside a batch: the rows before it are delivered and
/// watermarked, the rows after it are not, and its error comes back —
/// what a loop of `push` calls stopping at the first error does. A
/// malformed and an out-of-order row at index k ∈ {0, 1, mid, last}, at
/// every batch size: same error, output, dead letters, and acceptance of
/// the next in-order push.
#[test]
fn refused_row_mid_batch_matches_push_loop() {
    // Starts at 10 s, so a row at t = 0 is always out of order after k = 0.
    let rows = e1_rows(10_000_000);
    let n = rows.len();
    let next: Row = (
        "readings".to_string(),
        vec![
            Value::str("reader0"),
            Value::str("tag-next"),
            Value::Ts(Timestamp::from_secs(10_000)),
        ],
    );
    for k in [0, 1, n / 2, n - 1] {
        let malformed = vec![Value::str("too"), Value::str("short")];
        let mut late = rows[k].1.clone();
        late[2] = Value::Ts(Timestamp::ZERO);
        for (label, bad) in [("malformed", malformed), ("out-of-order", late)] {
            if k == 0 && label == "out-of-order" {
                continue; // nothing precedes it
            }
            let mut fed = rows.clone();
            fed[k].1 = bad;
            let want = feed_until_refused(&fed, None, &next);
            assert!(want.0.is_some(), "{label} row {k} is refused");
            for batch in BATCH_SIZES {
                assert_eq!(
                    feed_until_refused(&fed, Some(batch), &next),
                    want,
                    "{label} row at {k}, batch size {batch}"
                );
            }
        }
    }
}
