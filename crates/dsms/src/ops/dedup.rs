//! Duplicate elimination (Example 1 of the paper).
//!
//! The paper's criterion: identical readings (same key columns) within a
//! time threshold are the same physical observation; only the first of
//! each burst passes. Note that duplicates *chain*: a reading suppressed
//! as a duplicate still extends the suppression window for later readings
//! (it is still "in the stream" that the sub-query of Example 1 ranges
//! over). This matches the NOT EXISTS formulation:
//!
//! ```sql
//! INSERT INTO cleaned_readings
//! SELECT * FROM readings AS r1 WHERE NOT EXISTS
//!   (SELECT * FROM TABLE(readings OVER (RANGE 1 seconds PRECEDING CURRENT)) AS r2
//!    WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)
//! ```

use super::{OpReport, Operator};
use crate::ckpt::StateNode;
use crate::error::Result;
use crate::expr::Expr;
use crate::hash::FnvBuildHasher;
use crate::key::{KeyCodec, StateKey};
use crate::time::{Duration, Timestamp};
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;

/// Streaming duplicate filter keyed by arbitrary expressions.
///
/// State is one timestamp per live key — the paper's point that a DSMS
/// does this with a 1-second window rather than unbounded history. Keys
/// are stored as compact [`StateKey`] encodings; probes encode into a
/// reusable scratch buffer so the hot path allocates nothing on hits.
pub struct Dedup {
    key: Vec<Expr>,
    /// When every key expression is a plain column reference, the
    /// column indices — key extraction then encodes straight from the
    /// tuple's columns, skipping expression evaluation entirely (the
    /// planner always produces column keys, so this is the hot
    /// configuration).
    key_cols: Option<Vec<usize>>,
    window: Duration,
    codec: KeyCodec,
    scratch: Vec<u8>,
    last_seen: HashMap<StateKey, Timestamp, FnvBuildHasher>,
    /// Keys are purged lazily when stream time has moved a full window
    /// past them; this counter avoids rescanning the map on every tuple.
    last_purge: Timestamp,
    suppressed: u64,
}

impl Dedup {
    /// Suppress tuples whose `key` was seen within `window` before them.
    pub fn new(key: Vec<Expr>, window: Duration) -> Dedup {
        let key_cols = key
            .iter()
            .map(|e| match e {
                Expr::Col { rel: 0, col } => Some(*col),
                _ => None,
            })
            .collect();
        Dedup {
            key,
            key_cols,
            window,
            codec: KeyCodec::raw(),
            scratch: Vec::new(),
            last_seen: HashMap::default(),
            last_purge: Timestamp::ZERO,
            suppressed: 0,
        }
    }

    /// Duplicates suppressed so far.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Encode the tuple's key into the scratch buffer. The column fast
    /// path reads values in place — no `Vec<Value>` is built at all.
    fn encode_key(&mut self, t: &Tuple) -> Result<()> {
        match &self.key_cols {
            Some(cols) => {
                self.scratch.clear();
                for &c in cols {
                    self.codec.encode_value_into(&mut self.scratch, t.value(c));
                }
            }
            None => {
                let vals = self
                    .key
                    .iter()
                    .map(|e| e.eval(&[t]))
                    .collect::<Result<Vec<Value>>>()?;
                self.codec.encode_into(&mut self.scratch, &vals);
            }
        }
        Ok(())
    }

    fn purge(&mut self, now: Timestamp) {
        let bound = now.saturating_sub(self.window);
        self.last_seen.retain(|_, &mut seen| seen >= bound);
        self.last_purge = now;
    }
}

impl Dedup {
    /// One probe: test for a duplicate and refresh the suppression
    /// window in place (duplicates chain — a suppressed reading still
    /// extends the window for later ones). Returns whether `t` passes.
    fn admit(&mut self, t: &Tuple) -> Result<bool> {
        self.encode_key(t)?;
        let now = t.ts();
        let mut dup = false;
        if let Some(seen) = self.last_seen.get_mut(self.scratch.as_slice()) {
            // Window is RANGE w PRECEDING (inclusive): a prior
            // reading exactly w old still counts as a duplicate.
            dup = now.since(*seen).is_some_and(|gap| gap <= self.window);
            *seen = now;
        } else {
            self.last_seen
                .insert(StateKey::from_slice(&self.scratch), now);
        }
        if dup {
            self.suppressed += 1;
        }
        Ok(!dup)
    }

    /// Amortized purge: once stream time has advanced 2 windows past
    /// the last purge, sweep dead keys.
    fn maybe_purge(&mut self, now: Timestamp) {
        if now.saturating_sub(self.window) > self.last_purge.saturating_add(self.window) {
            self.purge(now);
        }
    }
}

impl Operator for Dedup {
    fn on_tuple(&mut self, _port: usize, t: &Tuple, out: &mut Vec<Tuple>) -> Result<()> {
        if self.admit(t)? {
            out.push(t.clone());
        }
        self.maybe_purge(t.ts());
        Ok(())
    }

    fn process_batch(&mut self, _port: usize, batch: &[Tuple], out: &mut Vec<Tuple>) -> Result<()> {
        // Same admissions as the per-tuple loop; the purge (pure state
        // hygiene, see `punctuation_sensitive`) is checked once per
        // batch instead of per tuple.
        out.reserve(batch.len());
        for t in batch {
            if self.admit(t)? {
                out.push(t.clone());
            }
        }
        if let Some(last) = batch.last() {
            self.maybe_purge(last.ts());
        }
        Ok(())
    }

    fn on_punctuation(&mut self, ts: Timestamp, _out: &mut Vec<Tuple>) -> Result<()> {
        self.purge(ts);
        Ok(())
    }

    // Punctuations only purge keys whose last sighting is already more
    // than a full window old — keys that could never test as duplicates
    // again (a duplicate requires gap <= window). Skipping or coalescing
    // them cannot change which tuples pass.
    fn punctuation_sensitive(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "dedup"
    }

    fn bind_interner(&mut self, codec: &KeyCodec) {
        self.codec = codec.clone();
    }

    fn state_key_bytes(&self) -> usize {
        self.last_seen.keys().map(|k| k.len()).sum()
    }

    fn retained(&self) -> usize {
        self.last_seen.len()
    }

    fn report(&self) -> OpReport {
        let mut r = OpReport::leaf(self.name(), self.retained());
        r.counters = vec![("suppressed".to_string(), self.suppressed)];
        r
    }

    fn save_state(&self) -> Result<StateNode> {
        // Keys decode back to values so the checkpoint stays
        // representation-independent, and entries sort by key rendering
        // so equal states serialize to equal bytes regardless of
        // hash-map iteration order.
        let mut entries: Vec<(Vec<Value>, Timestamp)> = self
            .last_seen
            .iter()
            .map(|(k, &seen)| Ok((self.codec.decode(k.as_bytes())?, seen)))
            .collect::<Result<_>>()?;
        entries.sort_by_key(|(k, _)| format!("{k:?}"));
        let pairs = entries
            .into_iter()
            .map(|(k, seen)| {
                let mut item: Vec<StateNode> = k.into_iter().map(StateNode::Value).collect();
                item.push(StateNode::ts(seen));
                StateNode::List(item)
            })
            .collect();
        Ok(StateNode::List(vec![
            StateNode::List(pairs),
            StateNode::ts(self.last_purge),
            StateNode::U64(self.suppressed),
        ]))
    }

    fn restore_state(&mut self, state: &StateNode) -> Result<()> {
        self.last_seen.clear();
        for pair in state.item(0)?.as_list()? {
            let parts = pair.as_list()?;
            if parts.is_empty() {
                return Err(crate::error::DsmsError::ckpt("empty dedup entry"));
            }
            let (key_part, ts_part) = parts.split_at(parts.len() - 1);
            let key = key_part
                .iter()
                .map(|v| v.as_value().cloned())
                .collect::<Result<Vec<Value>>>()?;
            self.last_seen
                .insert(self.codec.encode(&key), ts_part[0].as_ts()?);
        }
        self.last_purge = state.item(1)?.as_ts()?;
        self.suppressed = state.item(2)?.as_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(reader: &str, tag: &str, millis: u64, seq: u64) -> Tuple {
        Tuple::new(
            vec![
                Value::str(reader),
                Value::str(tag),
                Value::Ts(Timestamp::from_millis(millis)),
            ],
            Timestamp::from_millis(millis),
            seq,
        )
    }

    fn dedup_1s() -> Dedup {
        Dedup::new(vec![Expr::col(0), Expr::col(1)], Duration::from_secs(1))
    }

    #[test]
    fn suppresses_within_window() {
        let mut d = dedup_1s();
        let mut out = Vec::new();
        d.on_tuple(0, &reading("r", "t", 0, 0), &mut out).unwrap();
        d.on_tuple(0, &reading("r", "t", 500, 1), &mut out).unwrap();
        d.on_tuple(0, &reading("r", "t", 2000, 2), &mut out)
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].ts(), Timestamp::ZERO);
        assert_eq!(out[1].ts(), Timestamp::from_secs(2));
    }

    #[test]
    fn window_boundary_is_inclusive() {
        let mut d = dedup_1s();
        let mut out = Vec::new();
        d.on_tuple(0, &reading("r", "t", 0, 0), &mut out).unwrap();
        // Exactly 1s later: still inside RANGE 1s PRECEDING.
        d.on_tuple(0, &reading("r", "t", 1000, 1), &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        // 1s + 1ms after the *duplicate* (which refreshed the window).
        d.on_tuple(0, &reading("r", "t", 2001, 2), &mut out)
            .unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn duplicates_chain() {
        // Readings every 600ms: each is a duplicate of the previous, so
        // only the first passes — matching the NOT EXISTS semantics where
        // the sub-query ranges over the *raw* stream.
        let mut d = dedup_1s();
        let mut out = Vec::new();
        for i in 0..5u64 {
            d.on_tuple(0, &reading("r", "t", i * 600, i), &mut out)
                .unwrap();
        }
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn distinct_keys_pass() {
        let mut d = dedup_1s();
        let mut out = Vec::new();
        d.on_tuple(0, &reading("r1", "t", 0, 0), &mut out).unwrap();
        d.on_tuple(0, &reading("r2", "t", 1, 1), &mut out).unwrap();
        d.on_tuple(0, &reading("r1", "u", 2, 2), &mut out).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn punctuation_purges_state() {
        let mut d = dedup_1s();
        let mut out = Vec::new();
        for i in 0..100u64 {
            d.on_tuple(0, &reading("r", &format!("t{i}"), i, i), &mut out)
                .unwrap();
        }
        assert_eq!(d.retained(), 100);
        d.on_punctuation(Timestamp::from_secs(10), &mut out)
            .unwrap();
        assert_eq!(d.retained(), 0);
    }

    #[test]
    fn null_keys_dedup_like_values() {
        // NULL equals NULL in a state key: a NULL-tag re-read inside the
        // window is a duplicate, one outside it passes.
        let mut d = dedup_1s();
        let mut out = Vec::new();
        for (millis, seq) in [(0u64, 0u64), (500, 1), (1600, 2)] {
            let t = Tuple::new(
                vec![
                    Value::str("r"),
                    Value::Null,
                    Value::Ts(Timestamp::from_millis(millis)),
                ],
                Timestamp::from_millis(millis),
                seq,
            );
            d.on_tuple(0, &t, &mut out).unwrap();
        }
        assert_eq!(out.len(), 2);
        assert_eq!(d.suppressed(), 1);
    }

    #[test]
    fn amortized_purge_bounds_state() {
        let mut d = dedup_1s();
        let mut out = Vec::new();
        // Each key appears once; state must not grow to 10_000.
        for i in 0..10_000u64 {
            d.on_tuple(0, &reading("r", &format!("t{i}"), i * 10, i), &mut out)
                .unwrap();
        }
        // Keys older than the window get swept every ~2 windows: retained
        // state stays within a small multiple of rate × window (100/s × 1s).
        assert!(d.retained() <= 350, "retained {} keys", d.retained());
    }
}
