//! The unified incremental sequence detector — the public entry point of
//! the temporal-operator layer.
//!
//! A [`Detector`] wraps a [`SeqPattern`] with:
//!
//! * the per-mode engine (or the exception engine for `EXCEPTION_SEQ`),
//! * optional **partitioning**: a key expression per input port; tuples
//!   are detected independently per key. This is how equi-join conditions
//!   like `C1.tagid = C2.tagid = ...` (Example 6) execute without
//!   post-hoc filtering — the planner lifts them into the partition key;
//! * an optional **post-filter** over complete matches, for residual
//!   predicates the key/gap constraints cannot express.
//!
//! Feeding a detector: call [`Detector::on_tuple`] with the input port and
//! tuple (per-port arrival must be timestamp-ordered; cross-port order is
//! merged internally by `(ts, seq)`), and [`Detector::on_punctuation`]
//! when stream time advances — window-expiry exceptions (§3.1.3's *active
//! expiration*) fire only from punctuations.
//!
//! A punctuation touches only the partitions that are due: each live
//! partition keeps at most one entry in a min-heap keyed by its engine's
//! [`ModeEngine::next_deadline`], so the cost of a reading does not
//! depend on how many partitions are live (DESIGN.md §17).

use crate::binding::{DetectorOutput, SeqMatch};
use crate::modes::{engine_for, Exception, ModeEngine};
use crate::pattern::SeqPattern;
use eslev_dsms::ckpt::StateNode;
use eslev_dsms::error::{DsmsError, Result};
use eslev_dsms::expr::Expr;
use eslev_dsms::hash::FnvBuildHasher;
use eslev_dsms::key::KeyCodec;
use eslev_dsms::time::Timestamp;
use eslev_dsms::tuple::Tuple;
use eslev_dsms::value::Value;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::BuildHasher;
use std::sync::Arc;

/// Residual predicate over a complete match.
pub type MatchFilter = Arc<dyn Fn(&SeqMatch) -> Result<bool> + Send + Sync>;

/// Whether the detector runs plain `SEQ` or `EXCEPTION_SEQ` semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectKind {
    /// Emit matches only.
    Seq,
    /// Emit matches *and* exceptions (Sequence Completion Level events).
    ExceptionSeq,
}

/// Builder/configuration for a [`Detector`].
pub struct DetectorConfig {
    /// The sequence pattern (elements, window, pairing mode).
    pub pattern: SeqPattern,
    /// SEQ vs EXCEPTION_SEQ.
    pub kind: DetectKind,
    /// Partition key expression per input port (all ports or none).
    pub partition: Option<Vec<Expr>>,
    /// Residual predicate on complete matches.
    pub filter: Option<MatchFilter>,
}

impl DetectorConfig {
    /// Plain SEQ over `pattern`, unpartitioned, unfiltered.
    pub fn seq(pattern: SeqPattern) -> DetectorConfig {
        DetectorConfig {
            pattern,
            kind: DetectKind::Seq,
            partition: None,
            filter: None,
        }
    }

    /// EXCEPTION_SEQ over `pattern`.
    pub fn exception(pattern: SeqPattern) -> DetectorConfig {
        DetectorConfig {
            kind: DetectKind::ExceptionSeq,
            ..DetectorConfig::seq(pattern)
        }
    }

    /// Partition by one key expression per input port.
    pub fn with_partition(mut self, keys: Vec<Expr>) -> DetectorConfig {
        self.partition = Some(keys);
        self
    }

    /// Attach a residual match filter.
    pub fn with_filter(mut self, f: MatchFilter) -> DetectorConfig {
        self.filter = Some(f);
        self
    }
}

/// One live partition in the detector's slab.
struct Partition {
    /// Encoded partition key (its only copy; the index holds slots).
    key: Box<[u8]>,
    /// Creation ordinal: the punctuation emission and checkpoint order.
    creation: u64,
    /// Time of this partition's one live deadline-heap entry; never later
    /// than the engine's `next_deadline`.
    due: Option<Timestamp>,
    /// Queued on the detector's `emptied` list.
    emptied: bool,
    engine: Box<dyn ModeEngine>,
}

type Slots = [Option<Partition>];

fn key_at(slots: &Slots, slot: u32) -> &[u8] {
    &slots[slot as usize]
        .as_ref()
        .expect("indexed slots are live")
        .key
}

/// Open-addressing index from partition key to slab slot. It holds slot
/// numbers only and compares probes against the slab's keys, so every
/// key is stored once. Linear probing, at most half full, backward-shift
/// deletion (no tombstones).
#[derive(Default)]
struct KeyIndex {
    /// Slot per bucket or [`VACANT`]; empty or a power of two long.
    buckets: Vec<u32>,
    len: usize,
}

const VACANT: u32 = u32::MAX;

impl KeyIndex {
    fn home(&self, key: &[u8]) -> usize {
        let h = FnvBuildHasher::default().hash_one(key);
        // Fibonacci hashing: the product's top bits mix every input bit.
        let bits = self.buckets.len().trailing_zeros();
        (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// The bucket holding `key`'s slot.
    fn position(&self, key: &[u8], slots: &Slots) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.buckets[i] {
                VACANT => return None,
                s if key_at(slots, s) == key => return Some(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn get(&self, key: &[u8], slots: &Slots) -> Option<u32> {
        self.position(key, slots).map(|i| self.buckets[i])
    }

    /// Index `slot`, whose partition (holding `key`) is already in `slots`.
    fn insert(&mut self, key: &[u8], slot: u32, slots: &Slots) {
        if 2 * (self.len + 1) > self.buckets.len() {
            let cap = (2 * self.buckets.len()).max(8);
            let old = std::mem::replace(&mut self.buckets, vec![VACANT; cap]);
            self.len = 0;
            for s in old.into_iter().filter(|&s| s != VACANT) {
                self.insert(key_at(slots, s), s, slots);
            }
        }
        let mask = self.buckets.len() - 1;
        let mut i = self.home(key);
        while self.buckets[i] != VACANT {
            i = (i + 1) & mask;
        }
        self.buckets[i] = slot;
        self.len += 1;
    }

    /// Unindex `key` (its partition still in `slots`), shifting later
    /// probes back over the hole.
    fn remove(&mut self, key: &[u8], slots: &Slots) {
        let Some(mut hole) = self.position(key, slots) else {
            return;
        };
        let mask = self.buckets.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let s = self.buckets[i];
            if s == VACANT {
                break;
            }
            // Move `s` back unless its home lies cyclically in (hole, i].
            let home = self.home(key_at(slots, s));
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.buckets[hole] = s;
                hole = i;
            }
        }
        self.buckets[hole] = VACANT;
        self.len -= 1;
    }
}

/// Min-heap of `(due, creation, slot)`. An entry that no longer matches
/// its slot's `(creation, due)` is stale and skipped.
type Deadlines = BinaryHeap<Reverse<(Timestamp, u64, u32)>>;

/// The incremental multi-stream sequence detector.
///
/// Partitions live in a slab indexed by their compact key encoding. A
/// punctuation pops the due partitions off a deadline heap and runs them
/// in **creation order**, so expiry emission is deterministic and
/// identical across representations and across a checkpoint/restore
/// boundary — without visiting the partitions that are not due.
pub struct Detector {
    pattern: Arc<SeqPattern>,
    kind: DetectKind,
    partition: Option<Vec<Expr>>,
    filter: Option<MatchFilter>,
    codec: KeyCodec,
    scratch: Vec<u8>,
    /// Partition key → slot in `slots`.
    index: KeyIndex,
    slots: Vec<Option<Partition>>,
    /// Vacant slots, reused before `slots` grows.
    free: Vec<u32>,
    deadlines: Deadlines,
    /// Partitions `on_tuple` left empty; the next punctuation drops those
    /// still empty — when dead partitions have always been dropped.
    emptied: Vec<u32>,
    /// Reused per call: raw engine outputs, and the due `(creation,
    /// slot)`s of a punctuation.
    raw: Vec<DetectorOutput>,
    due: Vec<(u64, u32)>,
    matches_emitted: u64,
    exceptions_emitted: u64,
    /// Also the next partition's creation ordinal.
    partitions_created: u64,
    /// Prunes carried over from partitions already dropped, so the total
    /// survives dropping them.
    prunes_carry: u64,
}

impl Detector {
    /// Build a detector, validating the partition-key arity.
    pub fn new(config: DetectorConfig) -> Result<Detector> {
        if let Some(keys) = &config.partition {
            if keys.len() != config.pattern.num_ports() {
                return Err(DsmsError::plan(format!(
                    "partition needs one key per port: pattern has {} ports, got {} keys",
                    config.pattern.num_ports(),
                    keys.len()
                )));
            }
        }
        Ok(Detector {
            pattern: Arc::new(config.pattern),
            kind: config.kind,
            partition: config.partition,
            filter: config.filter,
            codec: KeyCodec::raw(),
            scratch: Vec::new(),
            index: KeyIndex::default(),
            slots: Vec::new(),
            free: Vec::new(),
            deadlines: BinaryHeap::new(),
            emptied: Vec::new(),
            raw: Vec::new(),
            due: Vec::new(),
            matches_emitted: 0,
            exceptions_emitted: 0,
            partitions_created: 0,
            prunes_carry: 0,
        })
    }

    /// Adopt the engine's key codec (called at query registration).
    pub fn bind_codec(&mut self, codec: &KeyCodec) {
        self.codec = codec.clone();
    }

    /// Total encoded bytes of live partition keys.
    pub fn state_key_bytes(&self) -> usize {
        self.live().map(|p| p.key.len()).sum()
    }

    /// The pattern being detected.
    pub fn pattern(&self) -> &SeqPattern {
        &self.pattern
    }

    /// Number of input ports (streams) the detector reads.
    pub fn num_ports(&self) -> usize {
        self.pattern.num_ports()
    }

    /// Process one tuple arriving on `port`.
    pub fn on_tuple(&mut self, port: usize, t: &Tuple) -> Result<Vec<DetectorOutput>> {
        if port >= self.pattern.num_ports() {
            return Err(DsmsError::plan(format!(
                "port {port} out of range ({} ports)",
                self.pattern.num_ports()
            )));
        }
        // Encode the partition key straight into the scratch buffer —
        // existing partitions are found without allocating.
        self.scratch.clear();
        if let Some(keys) = &self.partition {
            let v = keys[port].eval(&[t])?;
            self.codec.encode_value_into(&mut self.scratch, &v);
        }
        let slot = match self.index.get(&self.scratch, &self.slots) {
            Some(slot) => slot,
            None => self.create_partition(),
        };
        let p = self.slots[slot as usize]
            .as_mut()
            .expect("the index names live slots");
        self.raw.clear();
        let res = p.engine.on_tuple(&self.pattern, port, t, &mut self.raw);
        // Bookkeeping runs even on error: the engine may have changed.
        Self::arm(&mut self.deadlines, &self.pattern, slot, p);
        if !p.emptied && p.engine.is_empty() {
            p.emptied = true;
            self.emptied.push(slot);
        }
        res?;
        self.postprocess()
    }

    /// Advance stream time: purge state and fire window-expiry events.
    /// Only partitions whose deadline `ts` has passed are visited, in
    /// creation order, so expiry emission is deterministic (and survives
    /// checkpoint/restore unchanged).
    pub fn on_punctuation(&mut self, ts: Timestamp) -> Result<Vec<DetectorOutput>> {
        if self.emptied.is_empty() && self.deadlines.peek().is_none_or(|e| e.0 .0 >= ts) {
            return Ok(Vec::new()); // nothing to sweep, nothing due
        }
        // Dead partitions hold nothing: drop them so long-lived detectors
        // over high-cardinality keys do not leak. Those `on_tuple` left
        // empty die here unless refilled since — which keeps CHRONICLE's
        // consume-and-refill partitions at their original creation rank.
        let mut emptied = std::mem::take(&mut self.emptied);
        for slot in emptied.drain(..) {
            let p = self.slots[slot as usize]
                .as_mut()
                .expect("emptied partitions live until swept");
            p.emptied = false;
            if p.engine.is_empty() {
                self.drop_partition(slot);
            }
        }
        self.emptied = emptied;

        // Pop everything due (`ts > due`). A live entry whose engine's
        // deadline has since moved later is re-armed, not run.
        let mut due = std::mem::take(&mut self.due);
        while let Some(&Reverse((at, creation, slot))) = self.deadlines.peek() {
            if at >= ts {
                break;
            }
            self.deadlines.pop();
            let Some(p) = self.slots[slot as usize]
                .as_mut()
                .filter(|p| p.creation == creation && p.due == Some(at))
            else {
                continue; // stale: dropped, reused or re-armed earlier
            };
            p.due = None;
            match p.engine.next_deadline(&self.pattern) {
                Some(d) if d < ts => due.push((creation, slot)),
                _ => Self::arm(&mut self.deadlines, &self.pattern, slot, p),
            }
        }

        // Run them in creation order — the emission order the checkpoint
        // format and every earlier release guarantee.
        due.sort_unstable();
        self.raw.clear();
        let mut result = Ok(());
        for &(_, slot) in &due {
            let p = self.slots[slot as usize]
                .as_mut()
                .expect("due partitions are live");
            result = result.and(p.engine.on_punctuation(&self.pattern, ts, &mut self.raw));
            if p.engine.is_empty() {
                self.drop_partition(slot);
            } else {
                Self::arm(&mut self.deadlines, &self.pattern, slot, p);
            }
        }
        due.clear();
        self.due = due;
        result?;
        self.postprocess()
    }

    fn new_engine(&self) -> Box<dyn ModeEngine> {
        match self.kind {
            DetectKind::Seq => engine_for(self.pattern.mode, &self.pattern),
            DetectKind::ExceptionSeq => Box::new(Exception::new()),
        }
    }

    /// Open a partition for the key in `scratch`.
    fn create_partition(&mut self) -> u32 {
        let slot = self.insert(Partition {
            key: self.scratch.as_slice().into(),
            creation: self.partitions_created,
            due: None,
            emptied: false,
            engine: self.new_engine(),
        });
        self.partitions_created += 1;
        self.index.insert(&self.scratch, slot, &self.slots);
        slot
    }

    fn insert(&mut self, p: Partition) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(p);
                slot
            }
            None => {
                self.slots.push(Some(p));
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 live partitions")
            }
        }
    }

    /// Drop a dead partition; its prunes move into the carry so the
    /// detector-wide count stays monotonic.
    fn drop_partition(&mut self, slot: u32) {
        self.index.remove(key_at(&self.slots, slot), &self.slots);
        let p = self.slots[slot as usize]
            .take()
            .expect("dropping a live partition");
        self.prunes_carry += p.engine.prunes();
        self.free.push(slot);
    }

    /// Give `p` a heap entry when its engine's deadline is new or earlier
    /// than the one armed — so each partition has at most one live entry.
    fn arm(deadlines: &mut Deadlines, pattern: &SeqPattern, slot: u32, p: &mut Partition) {
        if let Some(d) = p.engine.next_deadline(pattern) {
            if p.due.is_none_or(|due| d < due) {
                p.due = Some(d);
                deadlines.push(Reverse((d, p.creation, slot)));
            }
        }
    }

    fn live(&self) -> impl Iterator<Item = &Partition> {
        self.slots.iter().flatten()
    }

    fn postprocess(&mut self) -> Result<Vec<DetectorOutput>> {
        let mut out = Vec::with_capacity(self.raw.len());
        for o in self.raw.drain(..) {
            match &o {
                DetectorOutput::Match(m) => {
                    if let Some(f) = &self.filter {
                        if !f(m)? {
                            continue;
                        }
                    }
                    self.matches_emitted += 1;
                    out.push(o);
                }
                DetectorOutput::Exception(_) => {
                    if self.kind == DetectKind::ExceptionSeq {
                        self.exceptions_emitted += 1;
                        out.push(o);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Tuples currently retained across all partitions — the history
    /// metric the pairing modes bound.
    pub fn retained(&self) -> usize {
        self.live().map(|p| p.engine.retained()).sum()
    }

    /// Live partition count.
    pub fn partitions(&self) -> usize {
        self.index.len
    }

    /// Matches emitted so far.
    pub fn matches_emitted(&self) -> u64 {
        self.matches_emitted
    }

    /// Exceptions emitted so far.
    pub fn exceptions_emitted(&self) -> u64 {
        self.exceptions_emitted
    }

    /// Partitions created over the detector's lifetime (≥ live count).
    pub fn partitions_created(&self) -> u64 {
        self.partitions_created
    }

    /// Runs/bindings pruned across all partitions, including partitions
    /// already swept away. The operational signature of the pairing mode:
    /// RECENT overwrites constantly, CHRONICLE only on window expiry,
    /// CONSECUTIVE on every adjacency break.
    pub fn prunes(&self) -> u64 {
        self.prunes_carry + self.live().map(|p| p.engine.prunes()).sum::<u64>()
    }

    /// Serialize every partition's engine state plus the emission
    /// counters. Partitions serialize in creation order — the order is
    /// itself state (it orders expiry emission), so a restored detector
    /// must rebuild it exactly; keys decode back to values so the
    /// checkpoint stays representation-independent.
    pub fn save_state(&self) -> Result<StateNode> {
        let mut live: Vec<&Partition> = self.live().collect();
        live.sort_unstable_by_key(|p| p.creation);
        let parts = live
            .into_iter()
            .map(|p| {
                let vals = self.codec.decode(&p.key)?;
                Ok(StateNode::List(vec![
                    StateNode::List(vals.into_iter().map(StateNode::Value).collect()),
                    p.engine.save_state()?,
                ]))
            })
            .collect::<Result<Vec<StateNode>>>()?;
        Ok(StateNode::List(vec![
            StateNode::List(parts),
            StateNode::U64(self.matches_emitted),
            StateNode::U64(self.exceptions_emitted),
            StateNode::U64(self.partitions_created),
            StateNode::U64(self.prunes_carry),
        ]))
    }

    /// Restore state saved by [`Detector::save_state`] into a detector
    /// built from the same configuration (pattern, kind, partitioning).
    /// Partitions are renumbered in saved order and the deadline index is
    /// rebuilt from each engine's `next_deadline`.
    pub fn restore_state(&mut self, state: &StateNode) -> Result<()> {
        self.index = KeyIndex::default();
        self.slots.clear();
        self.free.clear();
        self.deadlines.clear();
        self.emptied.clear();
        let parts = state.item(0)?.as_list()?;
        for (creation, part) in (0u64..).zip(parts) {
            let key = part
                .item(0)?
                .as_list()?
                .iter()
                .map(|v| v.as_value().cloned())
                .collect::<Result<Vec<Value>>>()?;
            let key = self.codec.encode(&key);
            if self.index.get(key.as_bytes(), &self.slots).is_some() {
                return Err(DsmsError::ckpt(
                    "detector checkpoint repeats a partition key",
                ));
            }
            let mut engine = self.new_engine();
            engine.restore_state(&self.pattern, part.item(1)?)?;
            let slot = self.insert(Partition {
                key: key.as_bytes().into(),
                creation,
                due: None,
                emptied: false,
                engine,
            });
            self.index.insert(key.as_bytes(), slot, &self.slots);
            let p = self.slots[slot as usize].as_mut().expect("just inserted");
            Self::arm(&mut self.deadlines, &self.pattern, slot, p);
            if p.engine.is_empty() {
                p.emptied = true;
                self.emptied.push(slot);
            }
        }
        self.matches_emitted = state.item(1)?.as_u64()?;
        self.exceptions_emitted = state.item(2)?.as_u64()?;
        self.partitions_created = state.item(3)?.as_u64()?;
        self.prunes_carry = state.item(4)?.as_u64()?;
        if self.partitions_created < parts.len() as u64 {
            return Err(DsmsError::ckpt(
                "detector checkpoint holds more partitions than it created",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::PairingMode;
    use crate::pattern::Element;
    use eslev_dsms::time::Duration;

    fn reading(tag: &str, secs: u64, seq: u64) -> Tuple {
        Tuple::new(
            vec![Value::str(tag), Value::Ts(Timestamp::from_secs(secs))],
            Timestamp::from_secs(secs),
            seq,
        )
    }

    fn qc_pattern(mode: PairingMode) -> SeqPattern {
        SeqPattern::new((0..4).map(Element::new).collect(), None, mode).unwrap()
    }

    /// Example 6: SEQ(C1, C2, C3, C4) with C1.tagid = C2.tagid = ... —
    /// the equality conditions become the partition key.
    #[test]
    fn partitioned_detection_example6() {
        let cfg = DetectorConfig::seq(qc_pattern(PairingMode::Recent))
            .with_partition(vec![Expr::col(0); 4]);
        let mut d = Detector::new(cfg).unwrap();
        let mut matches = 0;
        // Two products interleaved through the 4 checkpoints.
        let feed = [
            ("p1", 0usize),
            ("p2", 0),
            ("p1", 1),
            ("p2", 1),
            ("p1", 2),
            ("p1", 3),
            ("p2", 2),
            ("p2", 3),
        ];
        for (i, (tag, port)) in feed.iter().enumerate() {
            let outs = d
                .on_tuple(*port, &reading(tag, i as u64, i as u64))
                .unwrap();
            matches += outs.iter().filter(|o| o.as_match().is_some()).count();
        }
        assert_eq!(matches, 2);
        assert_eq!(d.partitions(), 2);
        assert_eq!(d.matches_emitted(), 2);
        // Without partitioning the interleaving would cross-pair tags.
        let mut un = Detector::new(DetectorConfig::seq(qc_pattern(PairingMode::Recent))).unwrap();
        let mut un_matches = Vec::new();
        for (i, (tag, port)) in feed.iter().enumerate() {
            un_matches.extend(
                un.on_tuple(*port, &reading(tag, i as u64, i as u64))
                    .unwrap(),
            );
        }
        let mixed = un_matches.iter().filter_map(|o| o.as_match()).any(|m| {
            let tags: Vec<&str> = m
                .bindings
                .iter()
                .map(|b| b.first().value(0).as_str().unwrap())
                .collect();
            tags.windows(2).any(|w| w[0] != w[1])
        });
        assert!(mixed, "unpartitioned RECENT mixes tags, as the paper warns");
    }

    #[test]
    fn partition_arity_validated() {
        let cfg =
            DetectorConfig::seq(qc_pattern(PairingMode::Recent)).with_partition(vec![Expr::col(0)]);
        assert!(Detector::new(cfg).is_err());
    }

    #[test]
    fn port_range_validated() {
        let mut d = Detector::new(DetectorConfig::seq(qc_pattern(PairingMode::Recent))).unwrap();
        assert!(d.on_tuple(9, &reading("x", 0, 0)).is_err());
    }

    #[test]
    fn filter_drops_matches() {
        let cfg = DetectorConfig::seq(qc_pattern(PairingMode::Chronicle)).with_filter(Arc::new(
            |m: &SeqMatch| Ok(m.span() <= Duration::from_secs(3)),
        ));
        let mut d = Detector::new(cfg).unwrap();
        let mut outs = Vec::new();
        for (i, port) in (0..4).enumerate() {
            outs.extend(
                d.on_tuple(port, &reading("p", i as u64 * 5, i as u64))
                    .unwrap(),
            );
        }
        assert!(outs.is_empty(), "span 15 s filtered out");
        for (i, port) in (0..4).enumerate() {
            outs.extend(
                d.on_tuple(port, &reading("p", 100 + i as u64, 10 + i as u64))
                    .unwrap(),
            );
        }
        assert_eq!(outs.len(), 1);
    }

    #[test]
    fn seq_kind_suppresses_exceptions() {
        // Consecutive SEQ never emits exceptions even on breaks.
        let mut d =
            Detector::new(DetectorConfig::seq(qc_pattern(PairingMode::Consecutive))).unwrap();
        let outs = d.on_tuple(3, &reading("x", 0, 0)).unwrap();
        assert!(outs.is_empty());
    }

    #[test]
    fn exception_kind_counts_both() {
        use crate::pattern::EventWindow;
        let pat = SeqPattern::new(
            (0..3).map(Element::new).collect(),
            Some(EventWindow::following(Duration::from_secs(3600), 0)),
            PairingMode::Consecutive,
        )
        .unwrap();
        let mut d = Detector::new(DetectorConfig::exception(pat)).unwrap();
        // Wrong start.
        let outs = d.on_tuple(1, &reading("x", 0, 0)).unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].as_exception().unwrap().level, 1);
        // Partial then expiry via punctuation.
        d.on_tuple(0, &reading("x", 10, 1)).unwrap();
        let outs = d.on_punctuation(Timestamp::from_secs(4000)).unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].as_exception().unwrap().level, 2);
        assert_eq!(d.exceptions_emitted(), 2);
        assert_eq!(d.retained(), 0);
    }

    #[test]
    fn dead_partitions_are_dropped() {
        let cfg = DetectorConfig::seq(qc_pattern(PairingMode::Chronicle))
            .with_partition(vec![Expr::col(0); 4]);
        let mut d = Detector::new(cfg).unwrap();
        for i in 0..100u64 {
            d.on_tuple(0, &reading(&format!("p{i}"), i, i)).unwrap();
        }
        assert_eq!(d.partitions(), 100);
        // Chronicle without a window keeps history; complete the
        // sequences so consumption empties each partition.
        for i in 0..100u64 {
            for port in 1..4usize {
                d.on_tuple(
                    port,
                    &reading(
                        &format!("p{i}"),
                        200 + i * 4 + port as u64,
                        1000 + i * 4 + port as u64,
                    ),
                )
                .unwrap();
            }
        }
        d.on_punctuation(Timestamp::from_secs(10_000)).unwrap();
        assert_eq!(d.partitions(), 0);
    }

    /// The four pairing modes leave pairwise-distinct prune counts on the
    /// same feed — the operational fingerprint the observability layer
    /// surfaces (RECENT overwrites slots, CONSECUTIVE breaks adjacency,
    /// UNRESTRICTED expires whole run sets, CHRONICLE consumes in order).
    #[test]
    fn prune_signatures_differ_per_mode() {
        use crate::pattern::EventWindow;
        // SEQ(A, B) with a 10s window preceding B. A-runs of different
        // lengths; the doubled B at the end consumes one more queued A
        // under CHRONICLE (fewer expiry prunes) but cannot break the
        // already-empty CONSECUTIVE run.
        let feed: [(usize, u64); 10] = [
            (0, 0),
            (0, 1),
            (0, 2),
            (1, 3),
            (0, 4),
            (0, 5),
            (1, 6),
            (0, 7),
            (1, 8),
            (1, 9),
        ];
        let mut prunes = Vec::new();
        for mode in PairingMode::ALL {
            let pat = SeqPattern::new(
                vec![Element::new(0), Element::new(1)],
                Some(EventWindow::preceding(Duration::from_secs(10), 1)),
                mode,
            )
            .unwrap();
            let mut d = Detector::new(DetectorConfig::seq(pat)).unwrap();
            for (i, (port, secs)) in feed.iter().enumerate() {
                d.on_tuple(*port, &reading("t", *secs, i as u64)).unwrap();
            }
            d.on_punctuation(Timestamp::from_secs(100)).unwrap();
            prunes.push((mode.keyword(), d.prunes()));
        }
        for a in 0..prunes.len() {
            for b in (a + 1)..prunes.len() {
                assert_ne!(
                    prunes[a].1, prunes[b].1,
                    "{} and {} should leave different prune counts: {prunes:?}",
                    prunes[a].0, prunes[b].0
                );
            }
        }
    }
}
