//! Checkpoint compatibility across the detector state-lifecycle rewrite.
//!
//! `tests/fixtures/detector_lifecycle_v4.ckpt` is a v4 `EngineCheckpoint`
//! captured on commit `980652d` — before the deadline index replaced the
//! creation-order partition walk — in the middle of a partitioned
//! E6-style feed, with one RECENT `SEQ` query and one `EXCEPTION_SEQ`
//! query registered. Restoring it here and finishing the feed must give
//! exactly the output of an uninterrupted run on this tree: the
//! serialized partition order and node shape did not move. (The fixture
//! was written by the ignored `regenerate_fixture` test below, run on
//! that commit.)

use eslev::prelude::*;

const DDL: &str = "
    CREATE STREAM C1 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
    CREATE STREAM C2 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
    CREATE STREAM C3 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
    CREATE STREAM C4 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);";

/// Examples 6/7: the 2-minute RECENT quality-control sequence.
const RECENT_QUERY: &str = "
    SELECT C1.tagid, C4.tagtime FROM C1, C2, C3, C4
    WHERE SEQ(C1, C2, C3, C4) OVER [2 MINUTES PRECEDING C4] MODE RECENT
      AND C1.tagid = C2.tagid AND C1.tagid = C3.tagid AND C1.tagid = C4.tagid";

/// The same line's first three stations as a workflow check: wrong
/// order and 90-second stalls raise exceptions.
const EXCEPTION_QUERY: &str = "
    SELECT C1.tagid, C2.tagtime, C3.tagtime FROM C1, C2, C3
    WHERE EXCEPTION_SEQ(C1, C2, C3) OVER [90 SECONDS FOLLOWING C1]
      AND C1.tagid = C2.tagid AND C1.tagid = C3.tagid";

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/detector_lifecycle_v4.ckpt"
);

/// Rows fed before the checkpoint was taken.
const CUT: usize = 240;

/// Deterministic LCG — the fixture depends on this exact feed.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

/// 120 products through stations C1→C4, a few seconds apart, with
/// skipped stations, swapped stations, repeated C1 reads and slow
/// transitions that miss the windows.
fn feed() -> Vec<(&'static str, Vec<Value>)> {
    let mut rng = Lcg(21);
    let mut events: Vec<(u64, u64, &'static str, String)> = Vec::new();
    for p in 0..120u64 {
        let tag = format!("epc-{p:03}");
        let mut ts = p * 7 + rng.below(5);
        let mut stations = vec!["C1", "C2", "C3", "C4"];
        match rng.below(10) {
            0 | 1 => {
                stations.remove(1);
            }
            2 => stations.swap(1, 2),
            3 => stations.insert(1, "C1"),
            _ => {}
        }
        for s in stations {
            events.push((ts, events.len() as u64, s, tag.clone()));
            let slow = rng.below(6) == 0;
            ts += 5 + rng.below(if slow { 120 } else { 40 });
        }
    }
    events.sort();
    events
        .into_iter()
        .map(|(secs, _, stream, tag)| {
            (
                stream,
                vec![
                    Value::str("line-1"),
                    Value::str(&tag),
                    Value::Ts(Timestamp::from_secs(secs)),
                ],
            )
        })
        .collect()
}

fn build() -> (Engine, Vec<Collector>) {
    let mut engine = Engine::new();
    execute_script(&mut engine, DDL).expect("ddl plans");
    let outs = [RECENT_QUERY, EXCEPTION_QUERY]
        .iter()
        .map(|q| {
            execute(&mut engine, q)
                .expect("query plans")
                .collector()
                .expect("collected")
                .clone()
        })
        .collect();
    (engine, outs)
}

fn push_all(engine: &mut Engine, rows: &[(&'static str, Vec<Value>)]) {
    for (stream, values) in rows {
        engine.push(stream, values.clone()).expect("in-order push");
    }
}

fn take(outs: &[Collector]) -> Vec<Vec<(Vec<Value>, Timestamp)>> {
    outs.iter()
        .map(|c| {
            c.take()
                .iter()
                .map(|t| (t.values().to_vec(), t.ts()))
                .collect()
        })
        .collect()
}

/// Every query's detector holds nothing once the horizon has passed.
fn assert_all_expired(engine: &Engine, label: &str) {
    for q in engine.query_stats() {
        assert_eq!(q.retained, 0, "{label}: `{}` retains tuples", q.name);
        assert_eq!(
            q.state_key_bytes, 0,
            "{label}: `{}` keeps live partitions",
            q.name
        );
    }
}

#[test]
fn parent_checkpoint_restores_and_finishes_identically() {
    let feed = feed();
    let horizon = Timestamp::from_secs(100_000);

    let (mut reference, ref_outs) = build();
    push_all(&mut reference, &feed[..CUT]);
    take(&ref_outs);
    push_all(&mut reference, &feed[CUT..]);
    reference.advance_to(horizon).unwrap();
    let want = take(&ref_outs);
    assert!(
        want.iter().all(|rows| !rows.is_empty()),
        "both queries emit after the cut: {want:?}"
    );
    assert_all_expired(&reference, "uninterrupted");

    let bytes = std::fs::read(FIXTURE).expect("fixture present");
    let ck = EngineCheckpoint::from_bytes(&bytes).expect("fixture decodes");
    assert_eq!(ck.version, 4);
    let (mut restored, outs) = build();
    restored.restore(&ck).expect("parent checkpoint restores");
    push_all(&mut restored, &feed[CUT..]);
    restored.advance_to(horizon).unwrap();
    assert_eq!(take(&outs), want, "restored run diverged");
    // Parent-era RECENT heads at the anchor slot carried no deadline;
    // restore re-derives it, so the upgraded state still expires.
    assert_all_expired(&restored, "restored");
}

#[test]
#[ignore = "rewrites the fixture; run only on the commit the fixture pins"]
fn regenerate_fixture() {
    let (mut engine, _) = build();
    push_all(&mut engine, &feed()[..CUT]);
    let bytes = engine.checkpoint().unwrap().to_bytes();
    std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
    std::fs::write(FIXTURE, bytes).unwrap();
}
