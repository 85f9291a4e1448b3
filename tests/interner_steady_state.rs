//! Interner steady-state regression: with a fixed vocabulary, the
//! dictionary must stop growing once every distinct string has been
//! seen — fed one `push` at a time, fed in `push_batch_to` chunks of 64
//! (pinning the admission-time canonicalization of the batch ingest
//! path), and (the case this pins) for strings constructed *mid-chain*
//! by computed projection outputs, which are routed through the bound
//! interner rather than left as fresh un-interned `Arc<str>`s.

use eslev::prelude::*;
use std::sync::Arc;

fn e1_feed(n: usize) -> Vec<Vec<Value>> {
    // Fixed vocabulary: 3 readers × 8 tags, ~0.4 s stride.
    let mut ts = 0u64;
    (0..n)
        .map(|i| {
            if i % 3 != 0 {
                ts += 400_000;
            }
            vec![
                Value::str(format!("reader{}", i % 3).as_str()),
                Value::str(format!("tag{}", i % 8).as_str()),
                Value::Ts(Timestamp::from_micros(ts)),
            ]
        })
        .collect()
}

const DDL: &str = "CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP)";

const E1: &str = "SELECT * FROM readings AS r1
     WHERE NOT EXISTS
       (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
        WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)";

/// Feed `rows` one `push` at a time, or in `push_batch_to` chunks of 64
/// when `batched`.
fn feed(engine: &mut Engine, rows: &[Vec<Value>], batched: bool) {
    if batched {
        for chunk in rows.chunks(64) {
            engine
                .push_batch_to("readings", chunk.iter().cloned())
                .expect("push_batch_to");
        }
    } else {
        for v in rows {
            engine.push("readings", v.clone()).expect("push");
        }
    }
}

/// Feed the first half, record the dictionary size, feed the second
/// half (same vocabulary), and require zero growth.
fn assert_flat(mut engine: Engine, query: &str, batched: bool, label: &str) {
    execute_script(&mut engine, DDL).expect("ddl");
    let q = execute(&mut engine, query).expect("query");
    let c = q.collector().expect("collector").clone();
    let rows = e1_feed(600);
    let (warm, steady) = rows.split_at(rows.len() / 2);
    feed(&mut engine, warm, batched);
    let (entries_mid, bytes_mid) = engine.interner_stats();
    feed(&mut engine, steady, batched);
    let (entries_end, bytes_end) = engine.interner_stats();
    let out = c.take();
    assert!(!out.is_empty(), "{label}: no output");
    // Equal strings share one canonical `Arc`: every output string went
    // through the interner, at admission or when it was computed.
    for t in &out {
        if let (Value::Str(a), Value::Str(b)) = (out[0].value(0), t.value(0)) {
            assert!(
                a != b || Arc::ptr_eq(a, b),
                "{label}: equal output strings are distinct allocations"
            );
        }
    }
    assert_eq!(
        entries_mid, entries_end,
        "{label}: dictionary grew in steady state ({entries_mid} -> {entries_end} entries)"
    );
    assert_eq!(
        bytes_mid, bytes_end,
        "{label}: dictionary bytes grew in steady state"
    );
}

#[test]
fn e1_steady_state_keeps_dictionary_flat_push_and_batch() {
    for batched in [false, true] {
        let label = if batched { "E1 batch" } else { "E1 push" };
        assert_flat(Engine::new(), E1, batched, label);
    }
}

/// Computed string outputs: a UDF builds a *new* string per tuple from
/// a fixed vocabulary. Before projection outputs were canonicalized
/// through the bound interner, each output was a fresh `Arc<str>`;
/// the dictionary must converge to one entry per distinct content.
#[test]
fn computed_string_outputs_keep_dictionary_flat() {
    for batched in [false, true] {
        let mut e = Engine::new();
        e.functions_mut().register(
            "tagcat",
            Arc::new(|args: &[Value]| {
                let a = args[0].as_str().unwrap_or("");
                let b = args[1].as_str().unwrap_or("");
                Ok(Value::str(format!("{a}-{b}").as_str()))
            }),
        );
        let label = if batched {
            "tagcat batch"
        } else {
            "tagcat push"
        };
        assert_flat(
            e,
            "SELECT tagcat(reader_id, tag_id) FROM readings",
            batched,
            label,
        );
    }
}
