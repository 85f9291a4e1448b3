//! Batch-vs-tuple differential: `Engine::push_batch` must produce
//! byte-identical query output to pushing the same rows one at a time
//! with `Engine::push`, at every batch size — including batches whose
//! internal timestamp spread expires windows mid-batch.
//!
//! Three paper workloads cover the punctuation-sensitive operator
//! classes: E1 (windowed NOT EXISTS dedup), E6 (multi-stream SEQ with a
//! window and partition keys), E10 (star SEQ with a COUNT aggregate).

use eslev::prelude::*;

const BATCH_SIZES: [usize; 4] = [1, 7, 64, 4096];

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

/// Build an engine from a DDL+query script; return it and its collector.
fn build(script: &str, query: &str) -> (Engine, Collector) {
    let mut e = Engine::new();
    execute_script(&mut e, script).expect("script");
    let out = execute(&mut e, query).expect("query");
    let c = out.collector().expect("bare SELECT collects").clone();
    (e, c)
}

/// Two identical engines from a DDL+query script.
fn pair(script: &str, query: &str) -> ((Engine, Collector), (Engine, Collector)) {
    (build(script, query), build(script, query))
}

/// Feed `rows` tuple-at-a-time into one engine and in `batch`-sized
/// chunks into the other; assert the collected outputs match exactly
/// (values and timestamps).
fn assert_equivalent(script: &str, query: &str, rows: &[Row], label: &str) {
    for batch in BATCH_SIZES {
        let ((mut e_tuple, c_tuple), (mut e_batch, c_batch)) = pair(script, query);
        for (stream, values) in rows {
            e_tuple.push(stream, values.clone()).expect("push");
        }
        for chunk in rows.chunks(batch) {
            e_batch
                .push_batch(chunk.iter().cloned())
                .expect("push_batch");
        }
        let take = |c: &Collector| -> Vec<(Vec<Value>, Timestamp)> {
            c.take()
                .iter()
                .map(|t| (t.values().to_vec(), t.ts()))
                .collect()
        };
        let (a, b) = (take(&c_tuple), take(&c_batch));
        assert_eq!(
            a, b,
            "{label}: batch size {batch} diverged from tuple-at-a-time"
        );
        assert!(!a.is_empty(), "{label}: workload produced no output");
    }
}

/// E1: dedup via windowed NOT EXISTS. Timestamps stride ~0.4 s with a
/// 1-second window, so a 64-row batch spans many window expirations —
/// the mid-batch expiry case.
#[test]
fn e1_dedup_batch_equals_tuple() {
    assert_equivalent(E1_SCRIPT, E1_QUERY, &e1_rows(0), "E1 dedup");
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
/// equalities, a gap constraint, and MODE RECENT.
#[test]
fn e6_seq_batch_equals_tuple() {
    let script = "CREATE STREAM shelf (tagid VARCHAR, tagtime TIMESTAMP);
         CREATE STREAM checkout (tagid VARCHAR, tagtime TIMESTAMP);
         CREATE STREAM exits (tagid VARCHAR, tagtime TIMESTAMP)";
    let query = "SELECT s.tagid, x.tagtime FROM shelf AS s, checkout AS c, exits AS x
         WHERE SEQ(s, c, x) MODE RECENT
           AND s.tagid = c.tagid AND c.tagid = x.tagid
           AND x.tagtime - c.tagtime <= 120 SECONDS";
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
    assert_equivalent(script, query, &rows, "E6 seq");
}

/// E10: star sequence SEQ(a*, b) in CHRONICLE mode with a star COUNT,
/// runs of `a` closed by a `b`.
#[test]
fn e10_star_batch_equals_tuple() {
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
    assert_equivalent(script, query, &rows, "E10 star");
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
    let (mut engine, out) = build(E1_SCRIPT, E1_QUERY);
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
