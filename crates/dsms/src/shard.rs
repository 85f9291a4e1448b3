//! EPC-partitioned scale-out: a hash router in front of N engines.
//!
//! The paper's queries (dedup, `SEQ`, star sequences, pairing modes) are
//! all keyed by EPC, so the stream partitions cleanly by tag: a
//! [`ShardedEngine`] routes each pushed tuple to `hash(key) % N` where an
//! independent [`Engine`] on its own worker thread holds every bit of
//! state for that key. Three mechanisms make the result *deterministic* —
//! byte-identical to the single-threaded reference regardless of N:
//!
//! 1. **Cause indexing.** The router stamps every `push`/`advance_to`
//!    with a monotone *cause index* and uses it as the tuple's global
//!    sequence number ([`Engine::push_with_seq`]), so `(ts, seq)`
//!    tie-breaks inside detectors match the single-engine order.
//! 2. **Watermark broadcast.** A keyed tuple's timestamp is broadcast to
//!    every *other* shard as a punctuation carrying the same cause index.
//!    Each shard therefore observes the identical watermark sequence the
//!    single engine derives from its auto-watermark, so *active
//!    expiration* (window close, `EXCEPTION_SEQ` timeouts) fires at the
//!    same stream-time on every shard.
//! 3. **Cause-ordered merge.** A tap on each worker thread drains
//!    collector outputs right after the command that produced them,
//!    tagging them with its cause. The merge stage releases outputs only
//!    up to the *low-water frontier* (the smallest cause every shard has
//!    acknowledged) and orders them by `(cause, shard)` — reproducing the
//!    single engine's emission order for tuple-caused outputs.
//!
//! Streams without an EPC-like key column (tables, context lookups) are
//! *broadcast*: every shard sees every row, so non-keyed state stays
//! replica-consistent. The router assumes the feed is globally
//! time-ordered (the same discipline the single engine's auto-watermark
//! expects).

use crate::ckpt::EngineCheckpoint;
use crate::driver::{BatchItem, EngineDriver, EngineInput, Tap};
use crate::engine::{Collector, DeadLetter, Engine, RejectReason};
use crate::error::{DsmsError, Result};
use crate::hash::FnvBuildHasher;
use crate::journal::Journal;
use crate::obs::{Counter, Gauge, Histogram, MetricValue, MetricsSnapshot, Registry};
use crate::time::{Duration, Timestamp};
use crate::trace::{FlightRecorder, LatencyStamps, TraceEvent, TraceKind};
use crate::tuple::Tuple;
use crate::value::Value;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Column names recognised as the EPC/tag key when a [`ShardSpec`] does
/// not name one explicitly (first match wins, case-insensitive).
pub const EPC_KEY_COLUMNS: &[&str] = &["tag_id", "tagid", "tid", "epc", "tag"];

/// Bits reserved below the cause index when it is used as a tuple
/// sequence number: routed tuples get `cause << 16`, leaving shard-local
/// room for up to 65535 derived-stream tuples per cause without seq
/// collisions inside a shard.
const CAUSE_SEQ_SHIFT: u32 = 16;

/// Reserved journal stream name for broadcast punctuations. Real stream
/// names are lowercased identifiers, so a control character cannot
/// collide with one.
const ADVANCE_STREAM: &str = "\u{1}advance";

/// How many crash/restart rounds [`ShardedEngine::flush`] tolerates
/// before giving up — a shard that dies again immediately after every
/// recovery is a deterministic fault, not transient.
const MAX_FLUSH_RESTARTS: usize = 4;

/// Router dead-letter retention (same bound as the engine's buffer).
const ROUTER_DEAD_CAP: usize = 256;

/// Router-side bounded-disorder state for one stream. Order is restored
/// *at the router*, before rows are routed: shard engines then see
/// in-order streams and the cause-ordered merge reproduces the
/// single-engine output exactly — disorder never reaches the workers.
struct RouterReorder {
    slack: Duration,
    max_seen: Timestamp,
    /// `(event time, arrival number) -> row`, released in key order.
    pending: BTreeMap<(Timestamp, u64), Vec<Value>>,
}

/// How a stream's tuples travel to shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteRule {
    /// Hash of the named key columns picks exactly one shard.
    Key(Vec<usize>),
    /// Every shard receives every tuple (non-keyed constructs: tables,
    /// context streams, heartbeats).
    Broadcast,
}

/// Per-stream routing configuration for [`ShardedEngine::build`].
///
/// Streams not mentioned here fall back to the EPC auto-detect list
/// ([`EPC_KEY_COLUMNS`]); streams with no recognisable key column are
/// broadcast. Routes resolve lazily on a stream's first push, so streams
/// created after build (e.g. via REPL DDL) are covered too.
#[derive(Clone, Debug, Default)]
pub struct ShardSpec {
    keys: HashMap<String, Vec<String>>,
    broadcast: Vec<String>,
    no_epc_default: bool,
}

impl ShardSpec {
    /// Spec with EPC auto-detection and no explicit routes.
    pub fn new() -> ShardSpec {
        ShardSpec::default()
    }

    /// Route `stream` by hashing the named columns.
    pub fn key(mut self, stream: &str, columns: &[&str]) -> ShardSpec {
        self.keys.insert(
            stream.to_ascii_lowercase(),
            columns.iter().map(|c| c.to_ascii_lowercase()).collect(),
        );
        self
    }

    /// Route every tuple of `stream` to all shards.
    pub fn broadcast(mut self, stream: &str) -> ShardSpec {
        self.broadcast.push(stream.to_ascii_lowercase());
        self
    }

    /// Disable EPC auto-detection: unspecified streams broadcast.
    pub fn without_epc_default(mut self) -> ShardSpec {
        self.no_epc_default = true;
        self
    }
}

/// Shard assignment: a pure function of the key values — FNV-1a over the
/// display rendering of each key column, so the same key always lands on
/// the same shard, in every process, on every run.
pub fn shard_of(values: &[Value], key_cols: &[usize], shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut text = String::new();
    for c in key_cols {
        use std::fmt::Write as _;
        text.clear();
        let v = values.get(*c).unwrap_or(&Value::Null);
        let _ = write!(text, "{v}");
        for b in text.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator so ("ab","c") and ("a","bc") hash apart.
        hash ^= 0xff;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// Tracks one watermark per shard and exposes their minimum — the only
/// stream-time the merged output may trust, since a shard behind the
/// others can still emit results at its own (earlier) clock.
#[derive(Clone, Debug)]
pub struct WatermarkAggregator {
    marks: Vec<Timestamp>,
}

impl WatermarkAggregator {
    /// Aggregator over `shards` clocks, all starting at time zero.
    pub fn new(shards: usize) -> WatermarkAggregator {
        WatermarkAggregator {
            marks: vec![Timestamp::default(); shards],
        }
    }

    /// Advance `shard`'s watermark (monotone; earlier times are no-ops).
    pub fn advance(&mut self, shard: usize, ts: Timestamp) {
        if let Some(m) = self.marks.get_mut(shard) {
            *m = (*m).max(ts);
        }
    }

    /// `shard`'s current watermark.
    pub fn mark(&self, shard: usize) -> Timestamp {
        self.marks.get(shard).copied().unwrap_or_default()
    }

    /// The low-water mark: minimum over all shards.
    pub fn low_water(&self) -> Timestamp {
        self.marks.iter().copied().min().unwrap_or_default()
    }

    /// The high-water mark: maximum over all shards (how far the feed
    /// itself has progressed).
    pub fn high_water(&self) -> Timestamp {
        self.marks.iter().copied().max().unwrap_or_default()
    }
}

/// Live per-shard counters for `SHOW SHARDS` and the bench harness.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Tuples routed directly to this shard (broadcast rows excluded).
    pub routed: u64,
    /// Commands queued but not yet processed by the worker.
    pub queue_depth: i64,
    /// Highest cause index the worker has acknowledged.
    pub processed_cause: u64,
    /// The shard engine's stream-time high-water mark.
    pub watermark: Timestamp,
    /// Watermark the router has *sent* to this shard.
    pub sent_watermark: Timestamp,
}

/// One resolved route: rule plus the schema's time column (used to lift
/// tuple timestamps into broadcast watermarks).
#[derive(Clone, Debug)]
struct Route {
    rule: RouteRule,
    time_col: Option<usize>,
}

struct SlotBuf {
    collector: Collector,
    /// Cause-tagged outputs awaiting the merge frontier.
    buf: VecDeque<(u64, Tuple)>,
}

/// Worker-side output state for one shard: the tap drains collectors
/// into cause-tagged buffers under this lock, right after the command
/// that produced them.
type SharedOutputs = Arc<Mutex<Vec<SlotBuf>>>;

/// The per-shard engine bootstrap. The router keeps it for the lifetime
/// of the sharded engine so a crashed shard can be rebuilt from scratch
/// (streams, queries, UDFs) before its checkpoint is restored and its
/// journal tail replayed.
type Setup = Arc<dyn Fn(&mut Engine) -> Result<Vec<Collector>> + Send + Sync>;

/// Recovery posture of one shard, for `SHOW RECOVERY` and the tests.
#[derive(Clone, Debug)]
pub struct ShardRecovery {
    /// Shard index.
    pub shard: usize,
    /// Journal entries currently retained (replay tail upper bound).
    pub journal_len: usize,
    /// Total entries ever journaled for this shard.
    pub journal_appended: u64,
    /// Cause position of the shard's last checkpoint (`None` before the
    /// first [`ShardedEngine::checkpoint`]).
    pub checkpoint_cause: Option<u64>,
    /// The most recent captured panic message, if this shard has ever
    /// crashed (survives the restart that recovered from it).
    pub last_panic: Option<String>,
}

/// Router-level recovery counters plus per-shard posture.
#[derive(Clone, Debug)]
pub struct RecoveryStats {
    /// Checkpoint rounds completed (`eslev_checkpoints_total`).
    pub checkpoints: u64,
    /// Shard restarts performed (`eslev_shard_restarts_total`).
    pub restarts: u64,
    /// Journal entries replayed across all restarts
    /// (`eslev_replayed_tuples_total`).
    pub replayed_tuples: u64,
    /// Per-shard journal/checkpoint/panic state.
    pub shards: Vec<ShardRecovery>,
}

/// N single-threaded engines behind a deterministic hash router — see
/// the module docs for the full protocol.
pub struct ShardedEngine {
    drivers: Vec<EngineDriver>,
    inputs: Vec<EngineInput>,
    outs: Vec<SharedOutputs>,
    /// Highest cause acknowledged by each worker (written by the tap).
    acked: Vec<Arc<AtomicU64>>,
    /// Each shard engine's `now()` in micros (written by the tap).
    now_us: Vec<Arc<AtomicU64>>,
    /// Cause of the last command sent to each shard (0 = none yet).
    last_sent: Vec<u64>,
    next_cause: u64,
    spec: ShardSpec,
    routes: HashMap<String, Route>,
    /// Memoised shard assignment for single-string-column key routes,
    /// keyed by *string content* (`Arc<str>` hashes and compares by
    /// contents, not pointer), so routing is byte-identical to the
    /// uncached [`shard_of`] regardless of interning or shard-local
    /// symbol ids. Entries are computed by `shard_of` on first sight.
    key_cache: HashMap<Arc<str>, usize, FnvBuildHasher>,
    sent_marks: WatermarkAggregator,
    /// Whether [`ShardedEngine::push_batch`] may coalesce the per-row
    /// watermark broadcasts into one trailing punctuation per shard:
    /// true iff no shard has an active query needing the exact
    /// per-tuple schedule ([`Engine::needs_per_tuple_watermarks`]).
    /// Refreshed synchronously wherever queries can change — at build
    /// and after every exec closure — so it is never stale when a
    /// batch is routed.
    coalesce_marks: AtomicBool,
    slots: usize,
    /// Merge slots created by the setup closure; restart can only
    /// rebuild these (see [`ShardedEngine::restart_shard`]).
    build_slots: usize,
    /// Highest cause released to the consumer per slot — the floor below
    /// which a restarted shard's regenerated outputs are duplicates.
    released: Vec<u64>,
    /// The stored bootstrap, re-run to rebuild a crashed shard.
    setup: Setup,
    /// Command queue capacity, reused when respawning a shard driver.
    queue: usize,
    /// Per-shard input journals (appended *before* the send, so a row
    /// lost in a crashed worker's queue is still replayable).
    journals: Vec<Journal>,
    /// Per-shard last durable checkpoint: (cause position, bytes).
    ckpts: Vec<Option<(u64, Vec<u8>)>>,
    /// Most recent captured panic per shard (survives restarts).
    last_panics: Vec<Option<String>>,
    /// Router-level bounded-disorder buffers, keyed by stream (lower).
    reorder: HashMap<String, RouterReorder>,
    /// Monotone arrival number tie-breaking equal event times in the
    /// reorder buffers (arrival order, like the engine's seq).
    reorder_seq: u64,
    /// Newest event time already released from the reorder buffers —
    /// arrivals behind it are late beyond slack.
    reorder_released: Timestamp,
    /// Router-side dead letters (late arrivals rejected before routing).
    dead: VecDeque<DeadLetter>,
    obs: Registry,
    routed: Vec<Counter>,
    late: Counter,
    stale: Counter,
    broadcasts: Counter,
    merge_lag: Gauge,
    checkpoints: Counter,
    restarts: Counter,
    replayed: Counter,
    /// Router-side flight recorder (checkpoints, restarts, merged
    /// releases); per-shard engine rings are folded in by
    /// [`ShardedEngine::take_trace`].
    trace: FlightRecorder,
    /// Admission stamps for 1-in-64 sampled causes, taken again when the
    /// cause is released by the merge — router-level end-to-end latency.
    lat_stamps: LatencyStamps,
    /// Sampled route→merged-release latency (`eslev_tuple_latency_ns`).
    tuple_latency: Histogram,
}

impl ShardedEngine {
    /// Spin up `shards` engines, each initialised by `setup` (which must
    /// create the same streams/queries on every shard and return its
    /// collectors — they become the merge slots, in order). `queue`
    /// bounds each worker's command channel. The closure is retained:
    /// when a shard worker panics, the router rebuilds the shard by
    /// re-running `setup` on a fresh engine, restoring the last
    /// checkpoint and replaying the journal tail.
    pub fn build<F>(shards: usize, queue: usize, spec: ShardSpec, setup: F) -> Result<ShardedEngine>
    where
        F: Fn(&mut Engine) -> Result<Vec<Collector>> + Send + Sync + 'static,
    {
        if shards == 0 {
            return Err(DsmsError::plan("sharded engine needs at least 1 shard"));
        }
        let setup: Setup = Arc::new(setup);
        let obs = Registry::new();
        let late = obs.counter("eslev_late_tuples_total", &[]);
        let stale = obs.counter("eslev_stale_watermarks_total", &[]);
        let broadcasts = obs.counter("eslev_shard_broadcast_total", &[]);
        let merge_lag = obs.gauge("eslev_shard_merge_lag", &[]);
        let checkpoints = obs.counter("eslev_checkpoints_total", &[]);
        let restarts = obs.counter("eslev_shard_restarts_total", &[]);
        let replayed = obs.counter("eslev_replayed_tuples_total", &[]);
        let tuple_latency = obs.histogram("eslev_tuple_latency_ns", &[]);
        let mut drivers = Vec::with_capacity(shards);
        let mut inputs = Vec::with_capacity(shards);
        let mut outs = Vec::with_capacity(shards);
        let mut acked = Vec::with_capacity(shards);
        let mut now_us = Vec::with_capacity(shards);
        let mut routed = Vec::with_capacity(shards);
        let mut slots = None;
        let mut per_tuple_marks = false;
        for i in 0..shards {
            let mut engine = Engine::new();
            let collectors = setup(&mut engine)?;
            per_tuple_marks |= engine.needs_per_tuple_watermarks();
            match slots {
                None => slots = Some(collectors.len()),
                Some(n) if n == collectors.len() => {}
                Some(n) => {
                    return Err(DsmsError::plan(format!(
                        "setup returned {} collectors on shard {i}, {n} on shard 0",
                        collectors.len()
                    )))
                }
            }
            let shared: SharedOutputs = Arc::new(Mutex::new(
                collectors
                    .into_iter()
                    .map(|collector| SlotBuf {
                        collector,
                        buf: VecDeque::new(),
                    })
                    .collect(),
            ));
            let ack = Arc::new(AtomicU64::new(0));
            let now = Arc::new(AtomicU64::new(0));
            let tap = Self::make_tap(shared.clone(), ack.clone(), now.clone());
            let driver = EngineDriver::spawn_with_tap(engine, queue, Some(tap))?;
            inputs.push(driver.input());
            drivers.push(driver);
            outs.push(shared);
            acked.push(ack);
            now_us.push(now);
            let idx = i.to_string();
            routed.push(obs.counter("eslev_shard_tuples_total", &[("shard", &idx)]));
        }
        let slots = slots.unwrap_or(0);
        Ok(ShardedEngine {
            drivers,
            inputs,
            outs,
            acked,
            now_us,
            last_sent: vec![0; shards],
            next_cause: 1,
            spec,
            routes: HashMap::new(),
            key_cache: HashMap::default(),
            sent_marks: WatermarkAggregator::new(shards),
            coalesce_marks: AtomicBool::new(!per_tuple_marks),
            slots,
            build_slots: slots,
            released: vec![0; slots],
            setup,
            queue,
            journals: (0..shards).map(|_| Journal::new()).collect(),
            ckpts: vec![None; shards],
            last_panics: vec![None; shards],
            reorder: HashMap::new(),
            reorder_seq: 0,
            reorder_released: Timestamp::ZERO,
            dead: VecDeque::new(),
            obs,
            routed,
            late,
            stale,
            broadcasts,
            merge_lag,
            checkpoints,
            restarts,
            replayed,
            trace: FlightRecorder::default(),
            lat_stamps: LatencyStamps::new(),
            tuple_latency,
        })
    }

    /// The worker-thread tap shared by build and restart: drains
    /// collectors into cause-tagged merge buffers and publishes the
    /// shard's acknowledgement frontier and stream-time. `fetch_max`
    /// (not a plain store) keeps the frontier monotone across a restart,
    /// where a freshly spawned worker briefly reports cause 0.
    fn make_tap(shared: SharedOutputs, ack: Arc<AtomicU64>, now: Arc<AtomicU64>) -> Tap {
        Box::new(move |engine: &mut Engine, cause: u64| {
            let mut slots = shared.lock();
            for slot in slots.iter_mut() {
                for t in slot.collector.take() {
                    slot.buf.push_back((cause, t));
                }
            }
            ack.fetch_max(cause, Ordering::AcqRel);
            now.store(engine.now().as_micros(), Ordering::Relaxed);
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.drivers.len()
    }

    /// Number of merge slots (collectors per shard).
    pub fn output_slots(&self) -> usize {
        self.slots
    }

    /// The cause index the next routed command will be stamped with —
    /// the fault-injection plan keys its schedule on this.
    pub fn next_cause(&self) -> u64 {
        self.next_cause
    }

    fn route_for(&mut self, lower: &str) -> Result<Route> {
        if let Some(r) = self.routes.get(lower) {
            return Ok(r.clone());
        }
        let name = lower.to_string();
        let schema = self.drivers[0].exec(move |e| e.stream_schema(&name))??;
        let rule = if self.spec.broadcast.iter().any(|s| s == lower) {
            RouteRule::Broadcast
        } else if let Some(cols) = self.spec.keys.get(lower) {
            let mut idx = Vec::with_capacity(cols.len());
            for c in cols {
                idx.push(schema.column_index(c).ok_or_else(|| {
                    DsmsError::schema(format!("shard key column `{c}` not in stream `{lower}`"))
                })?);
            }
            RouteRule::Key(idx)
        } else if self.spec.no_epc_default {
            RouteRule::Broadcast
        } else {
            EPC_KEY_COLUMNS
                .iter()
                .find_map(|c| schema.column_index(c))
                .map(|i| RouteRule::Key(vec![i]))
                .unwrap_or(RouteRule::Broadcast)
        };
        let route = Route {
            rule,
            time_col: schema.time_column,
        };
        self.routes.insert(lower.to_string(), route.clone());
        Ok(route)
    }

    /// Shard assignment for one keyed row: delegates to [`shard_of`],
    /// memoising the result per string value when the route key is a
    /// single string column (the EPC case — by far the hottest route).
    /// The cached value *is* a `shard_of` result, so the mapping stays
    /// byte-identical to the uncached path.
    fn shard_for(&mut self, values: &[Value], cols: &[usize]) -> usize {
        let shards = self.shards();
        if let [col] = cols {
            if let Some(Value::Str(s)) = values.get(*col) {
                if let Some(&target) = self.key_cache.get(s) {
                    return target;
                }
                let target = shard_of(values, cols, shards);
                self.key_cache.insert(s.clone(), target);
                return target;
            }
        }
        shard_of(values, cols, shards)
    }

    /// Journal one push for `shard` and send it, restarting the shard in
    /// place when the send finds the worker dead of a panic — the
    /// journal entry (appended before the send) is replayed as part of
    /// the restart, so the row is never lost.
    fn journal_push(
        &mut self,
        shard: usize,
        stream: &str,
        values: Vec<Value>,
        cause: u64,
    ) -> Result<()> {
        self.journals[shard].append(stream, values.clone(), cause)?;
        self.last_sent[shard] = self.last_sent[shard].max(cause);
        let seq = cause << CAUSE_SEQ_SHIFT;
        match self.inputs[shard].push_routed(stream, values, Some(seq), cause) {
            Err(DsmsError::WorkerPanicked { .. }) => self.restart_shard(shard).map(|_| ()),
            other => other,
        }
    }

    /// Journal one punctuation for `shard` and send it; same crash
    /// handling as [`ShardedEngine::journal_push`].
    fn journal_advance(&mut self, shard: usize, ts: Timestamp, cause: u64) -> Result<()> {
        self.journals[shard].append(ADVANCE_STREAM, vec![Value::Ts(ts)], cause)?;
        self.last_sent[shard] = self.last_sent[shard].max(cause);
        match self.inputs[shard].advance_routed(ts, cause) {
            Err(DsmsError::WorkerPanicked { .. }) => self.restart_shard(shard).map(|_| ()),
            other => other,
        }
    }

    /// Route one row: hash-partition keyed streams (broadcasting the
    /// tuple's timestamp to the other shards as a watermark), replicate
    /// broadcast streams everywhere. Streams with a router-level
    /// disorder tolerance ([`ShardedEngine::set_disorder_tolerance`])
    /// are buffered and released in event-time order first.
    pub fn push(&mut self, stream: &str, values: Vec<Value>) -> Result<()> {
        let lower = stream.to_ascii_lowercase();
        if self.reorder.contains_key(&lower) {
            return self.push_disordered(lower, values);
        }
        self.route_now(&lower, values)
    }

    /// Tolerate out-of-order arrivals on a stream up to `slack`, at the
    /// router. The router assumes globally time-ordered feeds; this
    /// buffers a disordered stream *before* routing, so shard engines
    /// and the watermark broadcast still see the ordered discipline they
    /// rely on. Arrivals behind what has already been released are
    /// counted and dead-lettered at the router
    /// ([`ShardedEngine::dead_letters`]).
    pub fn set_disorder_tolerance(&mut self, stream: &str, slack: Duration) -> Result<()> {
        let lower = stream.to_ascii_lowercase();
        let route = self.route_for(&lower)?;
        if route.time_col.is_none() {
            return Err(DsmsError::schema(format!(
                "stream `{stream}` has no timestamp column to reorder by"
            )));
        }
        self.reorder.insert(
            lower,
            RouterReorder {
                slack,
                max_seen: Timestamp::ZERO,
                pending: BTreeMap::new(),
            },
        );
        Ok(())
    }

    /// Buffer one row for a disorder-tolerant stream, then release
    /// everything the (global, min-across-streams) slack bound proves
    /// ordered, merged across streams in `(ts, arrival)` order.
    fn push_disordered(&mut self, lower: String, values: Vec<Value>) -> Result<()> {
        let route = self.route_for(&lower)?;
        let ts = route
            .time_col
            .and_then(|i| values.get(i).and_then(Value::as_ts))
            .ok_or_else(|| {
                DsmsError::schema(format!("stream `{lower}` row has no usable timestamp"))
            })?;
        if ts < self.reorder_released {
            self.late.inc();
            let err = DsmsError::OutOfOrder(format!(
                "stream `{lower}` tuple at {} is behind the released frontier {} (slack exceeded)",
                ts, self.reorder_released
            ));
            if self.dead.len() == ROUTER_DEAD_CAP {
                self.dead.pop_front();
            }
            self.dead.push_back(DeadLetter {
                stream: lower,
                values,
                reason: RejectReason::Late,
                error: err.to_string(),
            });
            return Ok(());
        }
        let seq = self.reorder_seq;
        self.reorder_seq += 1;
        let r = self.reorder.get_mut(&lower).expect("checked by caller");
        r.max_seen = r.max_seen.max(ts);
        r.pending.insert((ts, seq), values);
        self.release_ready()
    }

    /// Route every buffered row at or below the global release bound.
    fn release_ready(&mut self) -> Result<()> {
        let Some(bound) = self
            .reorder
            .values()
            .map(|r| r.max_seen.saturating_sub(r.slack))
            .min()
        else {
            return Ok(());
        };
        let mut ready: Vec<((Timestamp, u64), String, Vec<Value>)> = Vec::new();
        for (name, r) in self.reorder.iter_mut() {
            while let Some(first) = r.pending.first_entry() {
                if first.key().0 <= bound {
                    let k = *first.key();
                    ready.push((k, name.clone(), first.remove()));
                } else {
                    break;
                }
            }
        }
        ready.sort_by_key(|(k, _, _)| *k);
        for (k, name, values) in ready {
            self.reorder_released = self.reorder_released.max(k.0);
            self.route_now(&name, values)?;
        }
        Ok(())
    }

    /// Drain every buffered out-of-order row (end of feed), merged
    /// across streams in `(ts, arrival)` order.
    pub fn flush_disorder(&mut self) -> Result<()> {
        let mut ready: Vec<((Timestamp, u64), String, Vec<Value>)> = Vec::new();
        for (name, r) in self.reorder.iter_mut() {
            let pending = std::mem::take(&mut r.pending);
            ready.extend(pending.into_iter().map(|(k, v)| (k, name.clone(), v)));
        }
        ready.sort_by_key(|(k, _, _)| *k);
        for (k, name, values) in ready {
            self.reorder_released = self.reorder_released.max(k.0);
            self.route_now(&name, values)?;
        }
        Ok(())
    }

    /// Strict external watermark: a timestamp behind the router's
    /// broadcast high-water mark is a protocol violation — counted and
    /// rejected as [`DsmsError::StaleWatermark`] rather than silently
    /// broadcast for every shard engine to swallow.
    pub fn advance_watermark(&mut self, ts: Timestamp) -> Result<()> {
        let hi = self.sent_marks.high_water();
        if ts < hi {
            self.stale.inc();
            return Err(DsmsError::stale_watermark(format!(
                "watermark {ts} regresses behind the broadcast high-water {hi}"
            )));
        }
        self.advance_to(ts)
    }

    /// Rows rejected as late beyond the router's disorder slack.
    pub fn late_tuples(&self) -> u64 {
        self.late.get()
    }

    /// Watermarks rejected for regressing behind the broadcast frontier.
    pub fn stale_watermarks(&self) -> u64 {
        self.stale.get()
    }

    /// Every dead letter in the system, oldest first per origin: router
    /// rejections (late beyond slack, shard `None`) followed by each
    /// shard engine's buffer (malformed rows, tagged with its index).
    pub fn dead_letters(&self) -> Result<Vec<(Option<usize>, DeadLetter)>> {
        let mut out: Vec<(Option<usize>, DeadLetter)> =
            self.dead.iter().cloned().map(|d| (None, d)).collect();
        let per_shard =
            self.exec_all(|e| e.dead_letters().cloned().collect::<Vec<DeadLetter>>())?;
        for (i, letters) in per_shard.into_iter().enumerate() {
            out.extend(letters.into_iter().map(move |d| (Some(i), d)));
        }
        Ok(out)
    }

    fn route_now(&mut self, lower: &str, values: Vec<Value>) -> Result<()> {
        let route = self.route_for(lower)?;
        let cause = self.next_cause;
        self.next_cause += 1;
        if LatencyStamps::sampled(cause) {
            self.lat_stamps.stamp(cause);
        }
        let ts = route
            .time_col
            .and_then(|i| values.get(i).and_then(Value::as_ts));
        match &route.rule {
            RouteRule::Key(cols) => {
                let target = self.shard_for(&values, cols);
                self.journal_push(target, lower, values, cause)?;
                self.routed[target].inc();
                if let Some(ts) = ts {
                    self.sent_marks.advance(target, ts);
                    for j in 0..self.shards() {
                        if j == target {
                            continue;
                        }
                        self.journal_advance(j, ts, cause)?;
                        self.sent_marks.advance(j, ts);
                    }
                }
            }
            RouteRule::Broadcast => {
                for j in 0..self.shards() {
                    self.journal_push(j, lower, values.clone(), cause)?;
                    if let Some(ts) = ts {
                        self.sent_marks.advance(j, ts);
                    }
                }
                self.broadcasts.inc();
            }
        }
        Ok(())
    }

    /// Route a whole batch of rows with one channel message per shard.
    ///
    /// Rows get the same consecutive cause indices [`ShardedEngine::push`]
    /// would assign, so merged output is identical — the difference is
    /// transport cost. When every shard reports that no active query
    /// needs the exact per-tuple watermark schedule
    /// ([`Engine::needs_per_tuple_watermarks`]), the per-row watermark
    /// broadcasts to non-owner shards are coalesced into a single
    /// trailing punctuation per shard at the batch's maximum timestamp
    /// (tagged with the batch's last cause, mirroring how per-row
    /// broadcasts reuse their push's cause). Otherwise every broadcast
    /// travels with the batch, one item per row, preserving the exact
    /// punctuation schedule.
    ///
    /// Routing errors (unknown stream, bad key column) abort before
    /// anything is sent: the batch is all-or-nothing at the router.
    pub fn push_batch(
        &mut self,
        rows: impl IntoIterator<Item = (String, Vec<Value>)>,
    ) -> Result<()> {
        if !self.reorder.is_empty() {
            // Disorder-tolerant streams need the reorder buffer's release
            // discipline row by row; batching is a transport optimisation
            // that assumes ordered input.
            for (stream, values) in rows {
                self.push(&stream, values)?;
            }
            return Ok(());
        }
        let coalesce = self.coalesce_marks.load(Ordering::Relaxed);
        let shards = self.shards();
        let mut per_shard: Vec<Vec<BatchItem>> = (0..shards).map(|_| Vec::new()).collect();
        let mut max_ts: Option<Timestamp> = None;
        let mut last_cause = 0u64;
        let mut routed = vec![0u64; shards];
        let mut broadcasts = 0u64;
        for (stream, mut values) in rows {
            let lower = stream.to_ascii_lowercase();
            let route = self.route_for(&lower)?;
            let cause = self.next_cause;
            self.next_cause += 1;
            last_cause = cause;
            if LatencyStamps::sampled(cause) {
                self.lat_stamps.stamp(cause);
            }
            let seq = cause << CAUSE_SEQ_SHIFT;
            let ts = route
                .time_col
                .and_then(|i| values.get(i).and_then(Value::as_ts));
            if let Some(t) = ts {
                max_ts = Some(max_ts.map_or(t, |m| m.max(t)));
            }
            match &route.rule {
                RouteRule::Key(cols) => {
                    let target = self.shard_for(&values, cols);
                    per_shard[target].push(BatchItem::Push {
                        stream: lower,
                        values,
                        seq: Some(seq),
                        cause,
                    });
                    routed[target] += 1;
                    if let Some(ts) = ts {
                        self.sent_marks.advance(target, ts);
                        if !coalesce {
                            for (j, items) in per_shard.iter_mut().enumerate() {
                                if j == target {
                                    continue;
                                }
                                items.push(BatchItem::Advance { ts, cause });
                                self.sent_marks.advance(j, ts);
                            }
                        }
                    }
                }
                RouteRule::Broadcast => {
                    for (j, items) in per_shard.iter_mut().enumerate() {
                        let v = if j + 1 == shards {
                            std::mem::take(&mut values)
                        } else {
                            values.clone()
                        };
                        items.push(BatchItem::Push {
                            stream: lower.clone(),
                            values: v,
                            seq: Some(seq),
                            cause,
                        });
                        if let Some(ts) = ts {
                            self.sent_marks.advance(j, ts);
                        }
                    }
                    broadcasts += 1;
                }
            }
        }
        if coalesce {
            if let Some(ts) = max_ts {
                for (j, items) in per_shard.iter_mut().enumerate() {
                    items.push(BatchItem::Advance {
                        ts,
                        cause: last_cause,
                    });
                    self.sent_marks.advance(j, ts);
                }
            }
        }
        for (j, items) in per_shard.into_iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            // Journal the shard's whole batch before the send — routing
            // errors already aborted above, so everything journaled here
            // is definitely on its way to the worker.
            let mut hi = 0u64;
            for item in &items {
                match item {
                    BatchItem::Push {
                        stream,
                        values,
                        cause,
                        ..
                    } => {
                        self.journals[j].append(stream.as_str(), values.clone(), *cause)?;
                        hi = hi.max(*cause);
                    }
                    BatchItem::Advance { ts, cause } => {
                        self.journals[j].append(ADVANCE_STREAM, vec![Value::Ts(*ts)], *cause)?;
                        hi = hi.max(*cause);
                    }
                }
            }
            self.last_sent[j] = self.last_sent[j].max(hi);
            match self.inputs[j].send_batch(items) {
                Err(DsmsError::WorkerPanicked { .. }) => {
                    self.restart_shard(j)?;
                }
                other => other?,
            }
            self.routed[j].add(routed[j]);
        }
        self.broadcasts.add(broadcasts);
        Ok(())
    }

    /// Re-read every shard's watermark-schedule requirement and cache
    /// the coalescing decision. Runs synchronously (one exec round-trip
    /// per shard), so by the time any later `push_batch` consults the
    /// flag, all query changes from earlier exec calls are reflected.
    fn refresh_watermark_mode(&self) -> Result<()> {
        let mut coalesce = true;
        for d in &self.drivers {
            if d.exec(|e| e.needs_per_tuple_watermarks())? {
                coalesce = false;
            }
        }
        self.coalesce_marks.store(coalesce, Ordering::Relaxed);
        Ok(())
    }

    /// Global heartbeat: broadcast a punctuation to every shard (active
    /// expiration during silent periods).
    pub fn advance_to(&mut self, ts: Timestamp) -> Result<()> {
        let cause = self.next_cause;
        self.next_cause += 1;
        for j in 0..self.shards() {
            self.journal_advance(j, ts, cause)?;
            self.sent_marks.advance(j, ts);
        }
        Ok(())
    }

    /// Block until every shard has processed everything routed so far —
    /// afterwards the merge frontier covers every cause and
    /// [`ShardedEngine::take_output`] returns complete results.
    ///
    /// A shard found dead of a panic is restarted in place (checkpoint
    /// restore + journal replay) and the flush retried, up to a small
    /// bound — a shard that keeps dying is a deterministic fault and
    /// surfaces as the captured panic error.
    pub fn flush(&mut self) -> Result<()> {
        for _round in 0..=MAX_FLUSH_RESTARTS {
            let mut restarted = false;
            for i in 0..self.drivers.len() {
                match self.drivers[i].flush() {
                    Ok(()) => {}
                    Err(DsmsError::WorkerPanicked { .. }) => {
                        self.restart_shard(i)?;
                        restarted = true;
                    }
                    Err(e) => return Err(e),
                }
            }
            if !restarted {
                return Ok(());
            }
        }
        Err(DsmsError::worker_panicked(format!(
            "shard kept panicking through {MAX_FLUSH_RESTARTS} restart rounds{}",
            self.last_panics
                .iter()
                .flatten()
                .last()
                .map(|d| format!(": {d}"))
                .unwrap_or_default()
        )))
    }

    /// The merge frontier: the highest cause index that is *complete* —
    /// no shard can still emit an output tagged at or below it.
    fn frontier(&self) -> u64 {
        let mut f = u64::MAX;
        for (i, ack) in self.acked.iter().enumerate() {
            let a = ack.load(Ordering::Acquire);
            // A fully drained shard (everything sent is acknowledged)
            // imposes no bound; an in-flight one bounds the frontier at
            // its acknowledgement.
            if a < self.last_sent[i] {
                f = f.min(a);
            }
        }
        f
    }

    /// Drain merged output for one slot, deterministically ordered by
    /// `(cause, shard)`. Only outputs at or below the merge frontier are
    /// released; call [`ShardedEngine::flush`] first for completeness.
    pub fn take_output(&mut self, slot: usize) -> Result<Vec<Tuple>> {
        if slot >= self.slots {
            return Err(DsmsError::unknown(format!(
                "output slot {slot} (have {})",
                self.slots
            )));
        }
        let frontier = self.frontier();
        let mut entries: Vec<(u64, usize, Tuple)> = Vec::new();
        let mut lag = 0i64;
        let mut released_hi = 0u64;
        for (shard, shared) in self.outs.iter().enumerate() {
            let mut slots = shared.lock();
            if let Some(sb) = slots.get_mut(slot) {
                while let Some((cause, _)) = sb.buf.front() {
                    if *cause > frontier {
                        break;
                    }
                    let (cause, t) = sb.buf.pop_front().expect("peeked");
                    released_hi = released_hi.max(cause);
                    entries.push((cause, shard, t));
                }
            }
            lag += slots.iter().map(|sb| sb.buf.len() as i64).sum::<i64>();
        }
        self.merge_lag.set(lag);
        // Sampled causes crossing the merge complete their end-to-end
        // latency measurement here — route time to merged release. The
        // stamp table vacates on first take, so a broadcast cause (one
        // entry per shard) is counted once.
        for (cause, _, _) in &entries {
            if let Some(d) = self.lat_stamps.take(*cause) {
                let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
                self.tuple_latency.record(ns);
                self.trace
                    .record(|| TraceKind::TupleEmitted { latency_ns: ns });
            }
        }
        // Remember the highest cause handed to the consumer: a restarted
        // shard regenerates outputs above its checkpoint, and anything
        // at or below this floor has already been delivered once.
        if let Some(r) = self.released.get_mut(slot) {
            *r = (*r).max(released_hi);
        }
        // Stable by (cause, shard): per-shard drain order (the shard's
        // own emission order) breaks ties within one cause and shard.
        entries.sort_by_key(|(cause, shard, _)| (*cause, *shard));
        Ok(entries.into_iter().map(|(_, _, t)| t).collect())
    }

    /// Checkpoint every shard: flush, serialize each engine's state on
    /// its worker thread ([`Engine::checkpoint`]), and truncate the
    /// journal prefix the checkpoint now covers. After this returns,
    /// [`ShardedEngine::restart_shard`] recovers any shard from the
    /// stored bytes plus the (bounded) journal tail.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.flush()?;
        for i in 0..self.drivers.len() {
            let at = self.last_sent[i];
            let bytes = self.drivers[i].exec(|e| e.checkpoint().map(|c| c.to_bytes()))??;
            self.ckpts[i] = Some((at, bytes));
            self.journals[i].truncate_through(at);
        }
        self.checkpoints.inc();
        let bytes: u64 = self
            .ckpts
            .iter()
            .flatten()
            .map(|(_, b)| b.len() as u64)
            .sum();
        self.trace.record(|| TraceKind::Checkpoint { bytes });
        Ok(())
    }

    /// Rebuild one shard in place: fresh engine via the stored setup
    /// closure, restore of the last checkpoint, replay of the journal
    /// tail, and a merge-buffer splice that keeps delivery exactly-once
    /// (outputs already released to the consumer are not regenerated
    /// into the merge; outputs not yet released are). Works on a dead
    /// (panicked) shard — the usual caller — and on a healthy one.
    ///
    /// Returns the number of journal entries replayed.
    ///
    /// Two recovery limits are typed errors rather than silent
    /// divergence: queries registered after build
    /// ([`ShardedEngine::exec_with_outputs`]) are not part of the setup
    /// closure and cannot be rebuilt, and [`ShardedEngine::exec_all`]
    /// closures are not journaled, so their effects (UDF registration
    /// aside — that belongs in setup) are lost on restart.
    pub fn restart_shard(&mut self, shard: usize) -> Result<u64> {
        if shard >= self.shards() {
            return Err(DsmsError::unknown(format!(
                "shard {shard} (have {})",
                self.shards()
            )));
        }
        if self.slots > self.build_slots {
            return Err(DsmsError::ckpt(format!(
                "cannot restart shard {shard}: {} merge slot(s) were registered after build \
                 and are not reproducible from the setup closure",
                self.slots - self.build_slots
            )));
        }
        self.restarts.inc();
        if let Some(detail) = self.drivers[shard].panic_detail() {
            self.last_panics[shard] = Some(detail);
        }
        let ckpt_cause = self.ckpts[shard].as_ref().map_or(0, |(c, _)| *c);
        // Rebuild from scratch, then restore. The setup closure recreates
        // streams, queries and UDFs; the checkpoint refills their state.
        let mut engine = Engine::new();
        let collectors = (self.setup)(&mut engine)?;
        if collectors.len() != self.build_slots {
            return Err(DsmsError::plan(format!(
                "setup returned {} collectors on restart of shard {shard}, expected {}",
                collectors.len(),
                self.build_slots
            )));
        }
        if let Some((_, bytes)) = &self.ckpts[shard] {
            engine.restore(&EngineCheckpoint::from_bytes(bytes)?)?;
        }
        let now0 = engine.now().as_micros();
        let tap = Self::make_tap(
            self.outs[shard].clone(),
            self.acked[shard].clone(),
            self.now_us[shard].clone(),
        );
        let driver = EngineDriver::spawn_with_tap(engine, self.queue, Some(tap))?;
        self.inputs[shard] = driver.input();
        self.drivers.push(driver);
        let old = self.drivers.swap_remove(shard);
        // Join the old worker before touching the shared merge buffers:
        // a panicked worker is already gone, a healthy one drains its
        // queue into the *old* collectors (discarded with the old
        // engine) and then stops. Its error, if any, was already
        // captured in `last_panics`.
        let _ = old.stop();
        {
            // Drop buffered outputs above the checkpoint: replay will
            // regenerate them. Outputs at or below it survive — the
            // checkpointed engine will not produce them again.
            let mut slots = self.outs[shard].lock();
            for (sb, collector) in slots.iter_mut().zip(collectors) {
                sb.collector = collector;
                sb.buf.retain(|(cause, _)| *cause <= ckpt_cause);
            }
        }
        self.acked[shard].store(ckpt_cause, Ordering::Release);
        self.now_us[shard].store(now0, Ordering::Relaxed);
        // Replay the journal tail with the original cause indices, so
        // `(ts, seq)` order keys — and therefore every detector
        // tie-break — match the uncrashed run exactly.
        let mut replayed = 0u64;
        for entry in self.journals[shard].tail_after(ckpt_cause) {
            let cause = entry.seq;
            if entry.stream == ADVANCE_STREAM {
                let ts = entry.values.first().and_then(Value::as_ts).ok_or_else(|| {
                    DsmsError::ckpt("journaled punctuation is missing its timestamp")
                })?;
                self.inputs[shard].advance_routed(ts, cause)?;
            } else {
                self.inputs[shard].push_routed(
                    &entry.stream,
                    entry.values.clone(),
                    Some(cause << CAUSE_SEQ_SHIFT),
                    cause,
                )?;
            }
            replayed += 1;
        }
        self.replayed.add(replayed);
        self.drivers[shard].flush()?;
        {
            // Exactly-once splice: regenerated outputs whose cause the
            // consumer already drained (above the checkpoint, at or
            // below the released floor) are duplicates — drop them.
            let mut slots = self.outs[shard].lock();
            for (idx, sb) in slots.iter_mut().enumerate() {
                let floor = self.released.get(idx).copied().unwrap_or(0);
                sb.buf
                    .retain(|(cause, _)| !(*cause > ckpt_cause && *cause <= floor));
            }
        }
        self.trace.record(|| TraceKind::ShardRestart {
            shard: shard as u32,
            replayed,
        });
        Ok(replayed)
    }

    /// Restart every shard whose worker died of a panic; returns the
    /// indices restarted (empty when all workers are healthy).
    pub fn recover(&mut self) -> Result<Vec<usize>> {
        let mut restarted = Vec::new();
        for i in 0..self.drivers.len() {
            if self.drivers[i].panic_detail().is_some() {
                self.restart_shard(i)?;
                restarted.push(i);
            }
        }
        Ok(restarted)
    }

    /// Queue `f` against one shard's engine without waiting for a
    /// result — the fault-injection hook. A panic inside the closure
    /// kills the worker exactly like an operator bug would; the next
    /// flush (or [`ShardedEngine::recover`]) restarts the shard from its
    /// checkpoint and journal.
    pub fn inject_fault(
        &self,
        shard: usize,
        f: impl FnOnce(&mut Engine) + Send + 'static,
    ) -> Result<()> {
        let input = self
            .inputs
            .get(shard)
            .ok_or_else(|| DsmsError::unknown(format!("shard {shard} (have {})", self.shards())))?;
        input.exec_detached(f)
    }

    /// The captured panic message of `shard`'s *current* worker (`None`
    /// while healthy). After a restart the new worker reports `None`;
    /// the pre-restart message lives on in [`ShardedEngine::recovery_stats`].
    pub fn shard_panic(&self, shard: usize) -> Option<String> {
        self.drivers.get(shard).and_then(|d| d.panic_detail())
    }

    /// Recovery counters and per-shard journal/checkpoint/panic posture
    /// (`SHOW RECOVERY` in the REPL, assertions in the crash tests).
    pub fn recovery_stats(&self) -> RecoveryStats {
        RecoveryStats {
            checkpoints: self.checkpoints.get(),
            restarts: self.restarts.get(),
            replayed_tuples: self.replayed.get(),
            shards: (0..self.shards())
                .map(|i| ShardRecovery {
                    shard: i,
                    journal_len: self.journals[i].len(),
                    journal_appended: self.journals[i].appended(),
                    checkpoint_cause: self.ckpts[i].as_ref().map(|(c, _)| *c),
                    last_panic: self.last_panics[i]
                        .clone()
                        .or_else(|| self.drivers[i].panic_detail()),
                })
                .collect(),
        }
    }

    /// Enable or disable flight-recorder tracing everywhere: the
    /// router's own recorder and every shard engine's.
    pub fn set_tracing(&self, on: bool) -> Result<()> {
        self.trace.set_enabled(on);
        self.exec_all(move |e| e.set_tracing(on))?;
        Ok(())
    }

    /// Whether the router is currently capturing trace events.
    pub fn tracing(&self) -> bool {
        self.trace.enabled()
    }

    /// Drain every shard's flight recorder plus the router's own events
    /// into one wall-clock-ordered timeline. Shard events carry their
    /// shard index; router events (checkpoints, restarts, merged
    /// releases) are tagged one past the highest shard so they render as
    /// their own track in the chrome export.
    pub fn take_trace(&self) -> Result<Vec<TraceEvent>> {
        let mut parts: Vec<(u32, Vec<TraceEvent>)> = self
            .exec_all(|e| e.take_trace())?
            .into_iter()
            .enumerate()
            .map(|(i, events)| (i as u32, events))
            .collect();
        parts.push((self.shards() as u32, self.trace.drain()));
        Ok(FlightRecorder::merge(parts))
    }

    /// Run `f` on every shard engine (on its worker thread, serialized
    /// with routed commands) and collect the results in shard order.
    pub fn exec_all<R, F>(&self, f: F) -> Result<Vec<R>>
    where
        R: Send + 'static,
        F: Fn(&mut Engine) -> R + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let mut results = Vec::with_capacity(self.shards());
        for d in &self.drivers {
            let f = f.clone();
            results.push(d.exec(move |e| f(e))?);
        }
        // The closure may have registered or dropped queries.
        self.refresh_watermark_mode()?;
        Ok(results)
    }

    /// Run `f` on every shard engine and register the collectors it
    /// returns as new merge slots (the registration happens on the
    /// worker thread, so no output can slip past the cause tagging).
    /// Returns the per-shard results and the new slot indices. Every
    /// shard must return the same number of collectors.
    pub fn exec_with_outputs<R, F>(&mut self, f: F) -> Result<(Vec<R>, Vec<usize>)>
    where
        R: Send + 'static,
        F: Fn(&mut Engine) -> Result<(R, Vec<Collector>)> + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let mut results = Vec::with_capacity(self.shards());
        let mut added = None;
        for (i, d) in self.drivers.iter().enumerate() {
            let f = f.clone();
            let shared = self.outs[i].clone();
            let res: Result<(R, usize)> = d.exec(move |e| {
                let (r, collectors) = f(e)?;
                let mut slots = shared.lock();
                let n = collectors.len();
                for collector in collectors {
                    slots.push(SlotBuf {
                        collector,
                        buf: VecDeque::new(),
                    });
                }
                Ok((r, n))
            })?;
            let (r, n) = res?;
            match added {
                None => added = Some(n),
                Some(m) if m == n => {}
                Some(m) => {
                    return Err(DsmsError::plan(format!(
                        "shard {i} registered {n} collectors, shard 0 registered {m}"
                    )))
                }
            }
            results.push(r);
        }
        let n = added.unwrap_or(0);
        let first = self.slots;
        self.slots += n;
        self.released.resize(self.slots, 0);
        // The closure registered queries; the new ones may demand the
        // exact per-tuple watermark schedule.
        self.refresh_watermark_mode()?;
        Ok((results, (first..first + n).collect()))
    }

    /// Outputs currently buffered for `slot` across all shards (drained
    /// collectors awaiting the merge frontier). Approximate while
    /// workers are busy.
    pub fn buffered(&self, slot: usize) -> usize {
        self.outs
            .iter()
            .map(|shared| shared.lock().get(slot).map_or(0, |sb| sb.buf.len()))
            .sum()
    }

    /// Minimum engine stream-time across shards — the only watermark the
    /// merged output may trust.
    pub fn low_watermark(&self) -> Timestamp {
        self.now_us
            .iter()
            .map(|n| Timestamp::from_micros(n.load(Ordering::Relaxed)))
            .min()
            .unwrap_or_default()
    }

    /// The router-side watermark aggregator (what has been *sent*; the
    /// engines may still be catching up).
    pub fn sent_watermarks(&self) -> &WatermarkAggregator {
        &self.sent_marks
    }

    /// Live per-shard stats for `SHOW SHARDS` and the bench harness.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        (0..self.shards())
            .map(|i| ShardStats {
                shard: i,
                routed: self.routed[i].get(),
                queue_depth: self.drivers[i]
                    .metrics()
                    .gauge("eslev_driver_queue_depth", &[])
                    .unwrap_or(0),
                processed_cause: self.acked[i].load(Ordering::Acquire),
                watermark: Timestamp::from_micros(self.now_us[i].load(Ordering::Relaxed)),
                sent_watermark: self.sent_marks.mark(i),
            })
            .collect()
    }

    /// Resolved routes, sorted by stream name, rendered for display
    /// (`key(tag_id)` / `broadcast`). Routes resolve on first push, so
    /// streams never pushed do not appear.
    pub fn routing(&self) -> Vec<(String, String)> {
        let mut rows: Vec<(String, String)> = self
            .routes
            .iter()
            .map(|(stream, r)| {
                let desc = match &r.rule {
                    RouteRule::Key(cols) => {
                        let names: Vec<String> = cols.iter().map(|c| format!("#{c}")).collect();
                        format!("key({})", names.join(","))
                    }
                    RouteRule::Broadcast => "broadcast".to_string(),
                };
                (stream.clone(), desc)
            })
            .collect();
        rows.sort();
        rows
    }

    /// Router metrics plus every shard's driver/engine snapshot, each
    /// sample labelled with its shard index.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.obs.snapshot();
        let lat = self.tuple_latency.snapshot();
        if lat.count > 0 {
            for (q, name) in [
                (0.5, "eslev_tuple_latency_ns_p50"),
                (0.9, "eslev_tuple_latency_ns_p90"),
                (0.99, "eslev_tuple_latency_ns_p99"),
            ] {
                snap.push(name, &[], MetricValue::Gauge(lat.quantile(q) as i64));
            }
        }
        // Router-level watermark lag: what has been *sent* ahead of the
        // slowest shard's stream-time (ms).
        let lag_ms = self
            .sent_marks
            .high_water()
            .as_micros()
            .saturating_sub(self.low_watermark().as_micros())
            / 1000;
        snap.push(
            "eslev_watermark_lag_ms",
            &[],
            MetricValue::Gauge(lag_ms as i64),
        );
        for (name, r) in &self.reorder {
            snap.push(
                "eslev_reorder_depth",
                &[("stream", name.as_str())],
                MetricValue::Gauge(r.pending.len() as i64),
            );
        }
        for (i, d) in self.drivers.iter().enumerate() {
            snap.absorb_labeled(d.metrics(), "shard", &i.to_string());
        }
        snap
    }

    /// Stop every worker and recover the shard engines in index order.
    /// The first worker error wins, but all workers are stopped either
    /// way.
    pub fn stop(self) -> Result<Vec<Engine>> {
        let mut engines = Vec::with_capacity(self.drivers.len());
        let mut first_err = None;
        for d in self.drivers {
            match d.stop() {
                Ok(e) => engines.push(e),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(engines),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ops::Select;
    use crate::schema::Schema;

    fn reading(secs: u64, tag: &str) -> Vec<Value> {
        vec![
            Value::str("r1"),
            Value::str(tag),
            Value::Ts(Timestamp::from_secs(secs)),
        ]
    }

    fn passthrough_setup(e: &mut Engine) -> Result<Vec<Collector>> {
        e.create_stream(Schema::readings("readings"))?;
        let (_, out) = e.register_collected(
            "all",
            vec!["readings"],
            Box::new(Select::new(Expr::lit(true))),
        )?;
        Ok(vec![out])
    }

    #[test]
    fn zero_shards_is_an_error() {
        let err = ShardedEngine::build(0, 8, ShardSpec::new(), passthrough_setup)
            .err()
            .expect("zero shards rejected");
        assert!(err.to_string().contains("at least 1 shard"));
    }

    #[test]
    fn epc_column_auto_detected() {
        let mut se = ShardedEngine::build(2, 8, ShardSpec::new(), passthrough_setup).unwrap();
        se.push("readings", reading(1, "t0")).unwrap();
        se.flush().unwrap();
        // Schema::readings keys on tag_id (column 1).
        assert_eq!(
            se.routing(),
            vec![("readings".to_string(), "key(#1)".to_string())]
        );
        se.stop().unwrap();
    }

    #[test]
    fn merged_output_matches_single_engine_order() {
        // Reference: one engine, rows in push order.
        let mut single = Engine::new();
        let single_out = passthrough_setup(&mut single).unwrap().remove(0);
        let rows: Vec<Vec<Value>> = (0..64)
            .map(|i| reading(i, &format!("tag{}", i % 7)))
            .collect();
        for r in &rows {
            single.push("readings", r.clone()).unwrap();
        }
        let want: Vec<(Vec<Value>, Timestamp)> = single_out
            .take()
            .into_iter()
            .map(|t| (t.values().to_vec(), t.ts()))
            .collect();
        for shards in [1usize, 2, 3, 4] {
            let mut se =
                ShardedEngine::build(shards, 16, ShardSpec::new(), passthrough_setup).unwrap();
            for r in &rows {
                se.push("readings", r.clone()).unwrap();
            }
            se.flush().unwrap();
            let got: Vec<(Vec<Value>, Timestamp)> = se
                .take_output(0)
                .unwrap()
                .into_iter()
                .map(|t| (t.values().to_vec(), t.ts()))
                .collect();
            assert_eq!(
                got, want,
                "merge must reproduce single-engine order at N={shards}"
            );
            se.stop().unwrap();
        }
    }

    #[test]
    fn tracing_merges_shard_timelines_in_time_order() {
        let mut se = ShardedEngine::build(2, 16, ShardSpec::new(), passthrough_setup).unwrap();
        assert!(!se.tracing());
        se.set_tracing(true).unwrap();
        assert!(se.tracing());
        for i in 0..130 {
            se.push("readings", reading(i, &format!("t{}", i % 5)))
                .unwrap();
        }
        se.flush().unwrap();
        se.checkpoint().unwrap();
        let _ = se.take_output(0).unwrap();
        let events = se.take_trace().unwrap();
        assert!(!events.is_empty());
        assert!(
            events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
            "merged timeline must be wall-clock ordered"
        );
        assert!(
            events.iter().all(|e| e.shard.is_some()),
            "every merged event carries a source track"
        );
        // Shard engines contributed admissions; the router contributed
        // its checkpoint (tagged one past the highest shard) and the
        // sampled merge-release latencies.
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::TupleAdmitted { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Checkpoint { .. }) && e.shard == Some(2)));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::TupleEmitted { .. })));
        // Causes 64 and 128 were latency-sampled at the router.
        let snap = se.metrics_snapshot();
        assert!(snap.histogram("eslev_tuple_latency_ns", &[]).unwrap().count >= 2);
        assert!(snap.gauge("eslev_tuple_latency_ns_p50", &[]).is_some());
        assert!(snap.gauge("eslev_tuple_latency_ns_p99", &[]).is_some());
        assert!(snap.gauge("eslev_watermark_lag_ms", &[]).is_some());
        // Drained: a second take starts empty.
        assert!(se.take_trace().unwrap().is_empty());
        se.stop().unwrap();
    }

    #[test]
    fn broadcast_replicates_to_every_shard() {
        let spec = ShardSpec::new().broadcast("readings");
        let mut se = ShardedEngine::build(3, 8, spec, passthrough_setup).unwrap();
        for i in 0..10 {
            se.push("readings", reading(i, &format!("t{i}"))).unwrap();
        }
        se.flush().unwrap();
        let pushed = se
            .exec_all(|e| e.stream_pushed("readings").unwrap())
            .unwrap();
        assert_eq!(pushed, vec![10, 10, 10]);
        // The merge then carries 3 replicas per cause, ordered by shard.
        let merged = se.take_output(0).unwrap();
        assert_eq!(merged.len(), 30);
        se.stop().unwrap();
    }

    #[test]
    fn watermark_broadcast_reaches_idle_shards() {
        let mut se = ShardedEngine::build(4, 8, ShardSpec::new(), passthrough_setup).unwrap();
        // All rows share one tag, so one shard owns every tuple — the
        // rest only ever see broadcast watermarks.
        for i in 0..20 {
            se.push("readings", reading(i, "lonely")).unwrap();
        }
        se.flush().unwrap();
        assert_eq!(se.low_watermark(), Timestamp::from_secs(19));
        for s in se.shard_stats() {
            assert_eq!(s.watermark, Timestamp::from_secs(19));
            assert_eq!(s.queue_depth, 0);
        }
        se.stop().unwrap();
    }

    #[test]
    fn take_output_withholds_unacked_causes() {
        let mut agg = WatermarkAggregator::new(3);
        agg.advance(0, Timestamp::from_secs(5));
        agg.advance(1, Timestamp::from_secs(3));
        assert_eq!(
            agg.low_water(),
            Timestamp::default(),
            "shard 2 never advanced"
        );
        agg.advance(2, Timestamp::from_secs(9));
        assert_eq!(agg.low_water(), Timestamp::from_secs(3));
        // Regressions are no-ops.
        agg.advance(1, Timestamp::from_secs(1));
        assert_eq!(agg.mark(1), Timestamp::from_secs(3));
    }

    #[test]
    fn queries_registered_after_build_merge_too() {
        let mut se = ShardedEngine::build(2, 8, ShardSpec::new(), |e| {
            e.create_stream(Schema::readings("readings"))?;
            Ok(vec![])
        })
        .unwrap();
        let (_, slots) = se
            .exec_with_outputs(|e| {
                let (_, out) = e.register_collected(
                    "late",
                    vec!["readings"],
                    Box::new(Select::new(Expr::lit(true))),
                )?;
                Ok(((), vec![out]))
            })
            .unwrap();
        assert_eq!(slots, vec![0]);
        for i in 0..8 {
            se.push("readings", reading(i, &format!("t{i}"))).unwrap();
        }
        se.flush().unwrap();
        assert_eq!(se.take_output(0).unwrap().len(), 8);
        se.stop().unwrap();
    }

    #[test]
    fn push_batch_matches_per_push_merge() {
        let rows: Vec<(String, Vec<Value>)> = (0..48)
            .map(|i| ("readings".to_string(), reading(i, &format!("tag{}", i % 5))))
            .collect();
        for shards in [1usize, 2, 3] {
            let mut per_push =
                ShardedEngine::build(shards, 64, ShardSpec::new(), passthrough_setup).unwrap();
            for (s, v) in &rows {
                per_push.push(s, v.clone()).unwrap();
            }
            per_push.flush().unwrap();
            let want: Vec<(Vec<Value>, Timestamp)> = per_push
                .take_output(0)
                .unwrap()
                .into_iter()
                .map(|t| (t.values().to_vec(), t.ts()))
                .collect();
            per_push.stop().unwrap();

            let mut batched =
                ShardedEngine::build(shards, 64, ShardSpec::new(), passthrough_setup).unwrap();
            assert!(
                batched.coalesce_marks.load(Ordering::Relaxed),
                "passthrough queries must allow coalesced watermarks"
            );
            for chunk in rows.chunks(7) {
                batched.push_batch(chunk.to_vec()).unwrap();
            }
            batched.flush().unwrap();
            let got: Vec<(Vec<Value>, Timestamp)> = batched
                .take_output(0)
                .unwrap()
                .into_iter()
                .map(|t| (t.values().to_vec(), t.ts()))
                .collect();
            assert_eq!(got, want, "batched routing diverged at N={shards}");
            assert_eq!(
                batched.low_watermark(),
                Timestamp::from_secs(47),
                "trailing punctuation must reach every shard"
            );
            batched.stop().unwrap();
        }
    }

    #[test]
    fn sensitive_query_disables_coalescing() {
        // A query whose operator emits on punctuation forces the exact
        // per-tuple watermark schedule onto the batch path.
        struct OnPunct;
        impl crate::ops::Operator for OnPunct {
            fn on_tuple(
                &mut self,
                _port: usize,
                _t: &Tuple,
                _out: &mut Vec<Tuple>,
            ) -> crate::error::Result<()> {
                Ok(())
            }
            fn name(&self) -> &str {
                "on_punct"
            }
        }
        let mut se = ShardedEngine::build(2, 8, ShardSpec::new(), |e| {
            e.create_stream(Schema::readings("readings"))?;
            let (_, out) = e.register_collected("p", vec!["readings"], Box::new(OnPunct))?;
            Ok(vec![out])
        })
        .unwrap();
        assert!(
            !se.coalesce_marks.load(Ordering::Relaxed),
            "default-sensitive operator must force per-tuple watermarks"
        );
        se.push_batch(vec![
            ("readings".to_string(), reading(1, "a")),
            ("readings".to_string(), reading(2, "b")),
        ])
        .unwrap();
        se.flush().unwrap();
        // Every shard still observes every watermark, one per row.
        for s in se.shard_stats() {
            assert_eq!(s.watermark, Timestamp::from_secs(2));
        }
        se.stop().unwrap();
    }

    #[test]
    fn exec_refreshes_watermark_mode() {
        let mut se = ShardedEngine::build(2, 8, ShardSpec::new(), |e| {
            e.create_stream(Schema::readings("readings"))?;
            Ok(vec![])
        })
        .unwrap();
        assert!(se.coalesce_marks.load(Ordering::Relaxed));
        // Registering a join (two ports) after build must flip the flag:
        // cross-stream interleaving depends on the watermark schedule.
        se.exec_with_outputs(|e| {
            e.create_stream(Schema::readings("other"))?;
            let (_, out) = e.register_collected(
                "j",
                vec!["readings", "other"],
                Box::new(crate::ops::BinaryJoin::new(
                    crate::time::Duration::from_secs(10),
                    Expr::eq(Expr::qcol(0, 1), Expr::qcol(1, 1)),
                )),
            )?;
            Ok(((), vec![out]))
        })
        .unwrap();
        assert!(
            !se.coalesce_marks.load(Ordering::Relaxed),
            "multi-port query must disable coalescing"
        );
        se.stop().unwrap();
    }

    /// Setup with real per-key state: dedup over (reader, tag) with a
    /// 5 s window, so a restart that loses state emits extra rows and a
    /// restart that restores it matches the reference exactly.
    fn dedup_setup(e: &mut Engine) -> Result<Vec<Collector>> {
        e.create_stream(Schema::readings("readings"))?;
        let (_, out) = e.register_collected(
            "dedup",
            vec!["readings"],
            Box::new(crate::ops::Dedup::new(
                vec![Expr::col(0), Expr::col(1)],
                crate::time::Duration::from_secs(5),
            )),
        )?;
        Ok(vec![out])
    }

    /// Duplicate-heavy feed: every tag re-read within the window.
    fn dedup_feed(rows: usize) -> Vec<Vec<Value>> {
        (0..rows)
            .map(|i| {
                let tag = format!("tag{}", i % 6);
                let mut v = reading(i as u64, &tag);
                if i % 3 != 0 {
                    // Re-read of the previous second's tag: a duplicate
                    // whenever that tag appeared within 5 s.
                    v = reading(i as u64, &format!("tag{}", (i.max(1) - 1) % 6));
                }
                v
            })
            .collect()
    }

    fn run_reference(rows: &[Vec<Value>]) -> Vec<(Vec<Value>, Timestamp)> {
        let mut single = Engine::new();
        let out = dedup_setup(&mut single).unwrap().remove(0);
        for r in rows {
            single.push("readings", r.clone()).unwrap();
        }
        out.take()
            .into_iter()
            .map(|t| (t.values().to_vec(), t.ts()))
            .collect()
    }

    /// Kill-and-recover differential: checkpoint mid-feed, drain some
    /// output, crash a shard, keep feeding (the router restarts it in
    /// place), and the concatenated output must equal the uncrashed
    /// single-engine run — with the original panic message and the
    /// restart counter surfaced in the recovery stats.
    #[test]
    fn crashed_shard_restarts_from_checkpoint_and_replays() {
        let rows = dedup_feed(60);
        let want = run_reference(&rows);
        assert!(!want.is_empty());
        for shards in [2usize, 4] {
            let mut se = ShardedEngine::build(shards, 64, ShardSpec::new(), dedup_setup).unwrap();
            let mut got = Vec::new();
            for r in &rows[..20] {
                se.push("readings", r.clone()).unwrap();
            }
            se.checkpoint().unwrap();
            for r in &rows[20..40] {
                se.push("readings", r.clone()).unwrap();
            }
            se.flush().unwrap();
            got.extend(se.take_output(0).unwrap());
            // Crash shard 0 between two pushes; the next flush restarts
            // it from the checkpoint and replays causes 21..40 plus
            // whatever lands meanwhile.
            se.inject_fault(0, |_| panic!("injected: dedup state corrupt"))
                .unwrap();
            for r in &rows[40..] {
                se.push("readings", r.clone()).unwrap();
            }
            se.flush().unwrap();
            got.extend(se.take_output(0).unwrap());
            let stats = se.recovery_stats();
            assert!(
                stats.restarts >= 1,
                "N={shards}: restart counter must increment"
            );
            assert!(stats.replayed_tuples > 0, "N={shards}: replay must run");
            assert_eq!(stats.checkpoints, 1);
            assert!(
                stats.shards[0]
                    .last_panic
                    .as_deref()
                    .is_some_and(|d| d.contains("dedup state corrupt")),
                "N={shards}: original panic message must survive the restart"
            );
            assert_eq!(se.shard_panic(0), None, "restarted worker is healthy");
            let got: Vec<(Vec<Value>, Timestamp)> = got
                .into_iter()
                .map(|t| (t.values().to_vec(), t.ts()))
                .collect();
            assert_eq!(
                got, want,
                "N={shards}: kill-and-recover must equal the uncrashed run"
            );
            se.stop().unwrap();
        }
    }

    /// With no checkpoint ever taken, recovery is pure journal replay
    /// from cause zero.
    #[test]
    fn journal_only_recovery_without_checkpoint() {
        let rows = dedup_feed(30);
        let want = run_reference(&rows);
        let mut se = ShardedEngine::build(3, 64, ShardSpec::new(), dedup_setup).unwrap();
        for r in &rows {
            se.push("readings", r.clone()).unwrap();
        }
        se.inject_fault(1, |_| panic!("injected: mid-air")).unwrap();
        let restarted = {
            se.flush().unwrap();
            // flush() already restarted it; recover() then finds all
            // workers healthy.
            se.recover().unwrap()
        };
        assert!(restarted.is_empty(), "flush already recovered the shard");
        let stats = se.recovery_stats();
        assert_eq!(stats.checkpoints, 0);
        assert!(stats.restarts >= 1);
        assert!(stats.shards[1].checkpoint_cause.is_none());
        let got: Vec<(Vec<Value>, Timestamp)> = se
            .take_output(0)
            .unwrap()
            .into_iter()
            .map(|t| (t.values().to_vec(), t.ts()))
            .collect();
        assert_eq!(got, want, "journal-only replay must equal uncrashed run");
        se.stop().unwrap();
    }

    /// Checkpointing truncates each shard's journal prefix, keeping the
    /// replay tail bounded across cycles.
    #[test]
    fn checkpoint_truncates_journal_prefix() {
        let mut se = ShardedEngine::build(2, 64, ShardSpec::new(), passthrough_setup).unwrap();
        for cycle in 0..5u64 {
            for i in 0..20 {
                se.push("readings", reading(cycle * 20 + i, &format!("t{i}")))
                    .unwrap();
            }
            se.checkpoint().unwrap();
            for s in &se.recovery_stats().shards {
                assert_eq!(
                    s.journal_len, 0,
                    "cycle {cycle}: checkpoint must cover the whole journal"
                );
            }
        }
        let stats = se.recovery_stats();
        assert_eq!(stats.checkpoints, 5);
        // Every cause was journaled once per shard it was sent to, then
        // truncated away.
        assert!(stats.shards.iter().all(|s| s.journal_appended >= 100));
        se.stop().unwrap();
    }

    /// Slots registered after build are not reproducible from the setup
    /// closure — restart must refuse rather than silently diverge.
    #[test]
    fn restart_refuses_post_build_slots() {
        let mut se = ShardedEngine::build(2, 8, ShardSpec::new(), passthrough_setup).unwrap();
        se.exec_with_outputs(|e| {
            let (_, out) = e.register_collected(
                "late",
                vec!["readings"],
                Box::new(Select::new(Expr::lit(true))),
            )?;
            Ok(((), vec![out]))
        })
        .unwrap();
        let err = se.restart_shard(0).unwrap_err();
        assert!(
            err.to_string().contains("registered after build"),
            "typed refusal, got: {err}"
        );
        se.stop().unwrap();
    }

    /// A healthy shard can be restarted too (rolling restart): output
    /// still matches and nothing is duplicated or lost.
    #[test]
    fn rolling_restart_of_healthy_shard() {
        let rows = dedup_feed(40);
        let want = run_reference(&rows);
        let mut se = ShardedEngine::build(2, 64, ShardSpec::new(), dedup_setup).unwrap();
        for r in &rows[..25] {
            se.push("readings", r.clone()).unwrap();
        }
        se.checkpoint().unwrap();
        let replayed = se.restart_shard(0).unwrap();
        assert_eq!(replayed, 0, "checkpoint covers everything sent so far");
        for r in &rows[25..] {
            se.push("readings", r.clone()).unwrap();
        }
        se.flush().unwrap();
        let got: Vec<(Vec<Value>, Timestamp)> = se
            .take_output(0)
            .unwrap()
            .into_iter()
            .map(|t| (t.values().to_vec(), t.ts()))
            .collect();
        assert_eq!(got, want);
        se.stop().unwrap();
    }

    #[test]
    fn metrics_carry_shard_labels() {
        let mut se = ShardedEngine::build(2, 8, ShardSpec::new(), passthrough_setup).unwrap();
        for i in 0..12 {
            se.push("readings", reading(i, &format!("t{i}"))).unwrap();
        }
        se.flush().unwrap();
        let m = se.metrics_snapshot();
        let total: u64 = (0..2)
            .filter_map(|i| m.counter("eslev_shard_tuples_total", &[("shard", &i.to_string())]))
            .sum();
        assert_eq!(total, 12, "every tuple routed to exactly one shard");
        for i in ["0", "1"] {
            assert!(
                m.counter("eslev_driver_commands_total", &[("shard", i)])
                    .is_some(),
                "per-shard driver metrics must be labelled"
            );
        }
        se.stop().unwrap();
    }
}
