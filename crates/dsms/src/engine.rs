//! The continuous-query engine.
//!
//! The engine owns the catalog (streams, tables, functions, aggregates)
//! and a set of registered continuous queries. Arriving tuples are pushed
//! into named streams; the engine routes them to every query subscribed to
//! that stream, routes each query's outputs to its sink, and cascades —
//! a sink may itself be a stream feeding further queries (the paper's
//! `cleaned_readings` pattern).
//!
//! # Time
//!
//! The engine maintains a global stream-time high-water mark. With
//! `auto_watermark` enabled (the default), every pushed tuple also acts as
//! a punctuation at its own timestamp — valid because the simulators (and
//! any single merged RFID feed) deliver tuples in global timestamp order.
//! Callers with multiple unsynchronized feeds should disable it and call
//! [`Engine::advance_to`] from their own heartbeat, which is exactly the
//! *active expiration* mechanism of ESL: window expiry must be detected
//! even when no tuple arrives.

use crate::agg::AggregateRegistry;
use crate::ckpt::{EngineCheckpoint, StateNode};
use crate::error::{DsmsError, Result};
use crate::expr::FunctionRegistry;
use crate::intern::{InternerRef, Representation, StrInterner};
use crate::key::KeyCodec;
use crate::obs::{Counter, Histogram, MetricValue, MetricsSnapshot, Registry};
use crate::ops::{OpReport, Operator, SharedCore, SharedCoreRef, SharedTap, SpeculativeGate};
use crate::schema::SchemaRef;
use crate::snapshot::{MaterializedWindow, SnapshotRef};
use crate::table::{Table, TableRef};
use crate::time::Timestamp;
use crate::trace::{FlightRecorder, TraceEvent, TraceKind};
use crate::tuple::Tuple;
use crate::value::{Value, ValueType};
use crate::window::WindowExtent;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// 1-in-64 sampling for the per-query wall-clock histograms: cheap
/// enough to leave on, frequent enough to fill the buckets quickly.
const WALL_SAMPLE_MASK: u64 = 63;

/// Dead-letter retention: malformed arrivals kept for inspection. The
/// buffer is bounded (oldest dropped first) so a misbehaving feed cannot
/// grow engine memory without bound.
const DEAD_LETTER_CAP: usize = 256;

/// Why an arrival landed in the dead-letter buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The row failed schema validation (arity, types, NULL time).
    Malformed,
    /// The row arrived more than the stream's slack behind the
    /// high-water mark — too late for the reorder buffer to re-order.
    Late,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Malformed => write!(f, "malformed"),
            RejectReason::Late => write!(f, "late"),
        }
    }
}

/// A rejected arrival held in the engine's dead-letter buffer: the raw
/// row that could not be applied, where it was headed, and why.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    /// Target stream name as given by the caller.
    pub stream: String,
    /// The raw row values that failed validation.
    pub values: Vec<Value>,
    /// Which class of rejection this was.
    pub reason: RejectReason,
    /// Rendered rejection reason.
    pub error: String,
}

/// Where a query sits on the consistency/latency spectrum (CEDR's
/// central dial) under out-of-order input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Consistency {
    /// Block emission until the watermark proves input order: output is
    /// byte-identical to an in-order run, at the cost of disorder-slack
    /// latency. The default.
    #[default]
    Consistent,
    /// Emit speculatively on every arrival; when a late tuple
    /// invalidates prior output the query issues typed retraction
    /// tuples ([`crate::tuple::Sign::Retract`]) followed by corrections.
    Fast,
}

/// Where a query's output tuples go.
pub enum Sink {
    /// Re-inject into a named stream (validated against its schema).
    Stream(String),
    /// Insert into a named table.
    Table(String),
    /// Append to a shared collector (tests, harnesses, ad-hoc queries).
    Collect(Collector),
    /// Drop (the query is run for its side effects or its stats).
    Discard,
}

/// Shared output buffer for collected queries.
#[derive(Clone, Default)]
pub struct Collector {
    buf: Arc<Mutex<Vec<Tuple>>>,
}

impl Collector {
    /// New empty collector.
    pub fn new() -> Collector {
        Collector::default()
    }

    /// Drain all collected tuples.
    pub fn take(&self) -> Vec<Tuple> {
        std::mem::take(&mut self.buf.lock())
    }

    /// Snapshot without draining.
    pub fn snapshot(&self) -> Vec<Tuple> {
        self.buf.lock().clone()
    }

    /// Number of collected tuples.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a whole batch under one lock acquisition.
    fn push_many(&self, mut ts: Vec<Tuple>) {
        self.buf.lock().append(&mut ts);
    }
}

/// Identifier of a registered continuous query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryId(usize);

/// One row of [`Engine::query_stats`].
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// The query's id.
    pub id: QueryId,
    /// Name given at registration.
    pub name: String,
    /// Whether it still receives input.
    pub active: bool,
    /// Tuples emitted so far.
    pub emitted: u64,
    /// Tuples retained in operator state.
    pub retained: usize,
    /// Tuples delivered to the query across all ports.
    pub tuples_in: u64,
    /// Tuples routed to the query's sink.
    pub tuples_out: u64,
    /// Bytes held in encoded state keys across the query's operators.
    pub state_key_bytes: usize,
    /// Approximate p99 of the sampled per-invocation wall clock, in
    /// nanoseconds (log-bucket upper bound; 0 until a sample lands).
    pub wall_p99_ns: u64,
}

struct QueryState {
    name: String,
    op: Box<dyn Operator>,
    sink: Sink,
    emitted: u64,
    active: bool,
    /// Consistency level chosen at registration (fast queries run behind
    /// a [`SpeculativeGate`] and receive arrivals before release).
    consistency: Consistency,
    /// Tuples delivered to the query (all ports).
    tuples_in: Counter,
    /// Tuples the query emitted to its sink.
    tuples_out: Counter,
    /// Sampled wall-clock per operator invocation, nanoseconds.
    wall: Histogram,
}

/// Which queries a dispatched batch targets. Direct (in-order) arrivals
/// and derived-stream cascades go to every subscriber; a speculative
/// arrival entering the reorder buffer goes only to fast queries; the
/// buffer's ordered release goes only to consistent queries (fast ones
/// already saw those tuples at arrival time).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Deliver {
    All,
    FastOnly,
    OrderedOnly,
}

impl Deliver {
    fn targets(self, consistency: Consistency) -> bool {
        match self {
            Deliver::All => true,
            Deliver::FastOnly => consistency == Consistency::Fast,
            Deliver::OrderedOnly => consistency == Consistency::Consistent,
        }
    }
}

/// One shared subplan in the engine's registry: the core chain, its
/// identity (structural fingerprint plus the canonical rendering it was
/// hashed over — compared on attach so a 64-bit collision can never fuse
/// two different queries), and the subscriber queries tapping it.
struct SharedEntry {
    fingerprint: u64,
    canon: String,
    /// Display label (the plan name of the first subscriber).
    label: String,
    core: SharedCoreRef,
    /// Indices into `queries` of every tap ever attached.
    subscriber_ids: Vec<usize>,
}

/// One row of [`Engine::shared_stats`].
#[derive(Debug, Clone)]
pub struct SharedInfo {
    /// Display label of the shared chain.
    pub label: String,
    /// Structural fingerprint of the shared plan prefix.
    pub fingerprint: u64,
    /// Names of every subscriber, in attach order.
    pub subscribers: Vec<String>,
    /// Subscribers still receiving input.
    pub active_subscribers: usize,
    /// Tuples delivered to the shared core (all ports).
    pub tuples_in: u64,
    /// Batches served from the memo instead of re-executed.
    pub memo_hits: u64,
    /// Tuples retained in the shared core's state.
    pub retained: usize,
    /// Encoded state-key bytes held by the shared core (attributed
    /// once, not per subscriber).
    pub state_key_bytes: usize,
}

struct StreamEntry {
    schema: SchemaRef,
    /// Indices of string-typed columns, cached so admission interning
    /// touches only the columns that can hold strings.
    str_cols: Vec<usize>,
    last_ts: Timestamp,
    pushed: u64,
    /// Registry twin of `pushed` (readable from snapshots).
    pushed_ctr: Counter,
    /// Out-of-order arrivals rejected on this stream.
    rejected_ctr: Counter,
    /// Bounded-disorder handling: arrivals buffer here and release in
    /// timestamp order once the stream's high-water mark passes them by
    /// `slack` (RFID readers timestamp with jitter; §2's model still
    /// assumes ordered streams, so the engine restores order at the edge).
    reorder: Option<ReorderState>,
}

struct ReorderState {
    slack: crate::time::Duration,
    /// Max event time seen (the pre-slack high-water mark).
    max_seen: Timestamp,
    /// Buffered arrivals, drained in (ts, seq) order.
    pending: std::collections::BTreeMap<(Timestamp, u64), Tuple>,
    /// Arrivals that entered the buffer.
    buffered_ctr: Counter,
    /// Tuples released from the buffer (slack release or explicit flush).
    flushed_ctr: Counter,
}

/// The DSMS runtime. Single-threaded and deterministic; see
/// [`crate::driver`] for the concurrent front door.
pub struct Engine {
    streams: HashMap<String, StreamEntry>,
    tables: HashMap<String, TableRef>,
    /// Materialized windows per stream (ad-hoc snapshot queries, §2.1).
    materialized: HashMap<String, Vec<SnapshotRef>>,
    funcs: FunctionRegistry,
    aggs: AggregateRegistry,
    queries: Vec<QueryState>,
    /// stream name -> [(query index, input port)]
    subs: HashMap<String, Vec<(usize, usize)>>,
    /// Shared-subplan registry, in creation order (checkpointed
    /// positionally, like `queries`).
    shared: Vec<SharedEntry>,
    /// Whether [`Engine::register_shared`] attaches matching plans to
    /// one chain (opt-in; off keeps every query on a private chain).
    shared_execution: bool,
    next_seq: u64,
    now: Timestamp,
    auto_watermark: bool,
    /// Row representation: interned (default) canonicalizes string
    /// columns at admission so operator state keys on symbol ids.
    representation: Representation,
    /// The engine's string dictionary (shared with its operators).
    interner: InternerRef,
    /// Key codec handed to operators at registration.
    codec: KeyCodec,
    /// Shared instrument registry (cloneable; see [`Engine::registry`]).
    obs: Registry,
    /// Punctuations delivered via [`Engine::advance_to`].
    punctuations: Counter,
    /// Malformed arrivals rejected at ingest (all streams).
    rejected_tuples: Counter,
    /// Arrivals beyond the disorder slack, dead-lettered (all streams).
    late_tuples: Counter,
    /// Watermarks rejected by [`Engine::advance_watermark`] for
    /// regressing below the high-water mark.
    stale_watermarks: Counter,
    /// The most recent rejected arrivals, oldest first.
    dead_letters: VecDeque<DeadLetter>,
    /// Flight recorder: off by default; one relaxed load per site while
    /// disabled (see [`crate::trace`]).
    trace: FlightRecorder,
    /// Sampled ingest→emit latency (1-in-64 admissions).
    tuple_latency: Histogram,
    /// Admission instant of the in-flight sampled tuple, cleared when
    /// its cascade completes. A plain field swap — no allocation — so
    /// the latency path stays inside the zero-allocs-per-tuple budget.
    lat_sample: Option<std::time::Instant>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// Fresh engine with built-in aggregates, no streams or queries,
    /// running the default interned representation.
    pub fn new() -> Engine {
        Engine::with_representation(Representation::Interned)
    }

    /// Fresh engine with an explicit row representation. `Seed` keeps
    /// raw string bytes in state keys — the pre-interning layout the R1
    /// bench sweep measures against.
    pub fn with_representation(representation: Representation) -> Engine {
        let obs = Registry::new();
        let punctuations = obs.counter("eslev_punctuations_total", &[]);
        let rejected_tuples = obs.counter("eslev_rejected_tuples_total", &[]);
        let late_tuples = obs.counter("eslev_late_tuples_total", &[]);
        let stale_watermarks = obs.counter("eslev_stale_watermarks_total", &[]);
        let tuple_latency = obs.histogram("eslev_tuple_latency_ns", &[]);
        let interner: InternerRef = Arc::new(StrInterner::new());
        let codec = match representation {
            Representation::Interned => KeyCodec::interned(interner.clone()),
            Representation::Seed => KeyCodec::raw(),
        };
        Engine {
            streams: HashMap::new(),
            tables: HashMap::new(),
            materialized: HashMap::new(),
            funcs: FunctionRegistry::new(),
            aggs: AggregateRegistry::new(),
            queries: Vec::new(),
            subs: HashMap::new(),
            shared: Vec::new(),
            shared_execution: false,
            next_seq: 0,
            now: Timestamp::ZERO,
            auto_watermark: true,
            representation,
            interner,
            codec,
            obs,
            punctuations,
            rejected_tuples,
            late_tuples,
            stale_watermarks,
            dead_letters: VecDeque::new(),
            trace: FlightRecorder::default(),
            tuple_latency,
            lat_sample: None,
        }
    }

    /// The engine's flight recorder; clones share the ring and the
    /// enabled flag, so a handle taken before moving the engine into a
    /// driver keeps draining live events.
    pub fn tracer(&self) -> FlightRecorder {
        self.trace.clone()
    }

    /// Turn flight-recorder tracing on or off (off by default).
    pub fn set_tracing(&mut self, on: bool) {
        self.trace.set_enabled(on);
    }

    /// Whether flight-recorder tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.trace.enabled()
    }

    /// Drain the buffered trace events, oldest first.
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        self.trace.drain()
    }

    /// The engine's row representation.
    pub fn representation(&self) -> Representation {
        self.representation
    }

    /// Dictionary size: `(entries, content bytes)` of the engine's
    /// interner.
    pub fn interner_stats(&self) -> (usize, usize) {
        (self.interner.entries(), self.interner.bytes())
    }

    /// Total encoded state-key bytes across all registered queries.
    /// Shared chains are counted exactly once (their subscribers' taps
    /// report residual-only bytes).
    pub fn state_key_bytes(&self) -> usize {
        let private: usize = self.queries.iter().map(|q| q.op.state_key_bytes()).sum();
        let shared: usize = self
            .shared
            .iter()
            .map(|e| e.core.lock().op.state_key_bytes())
            .sum();
        private + shared
    }

    /// The engine's instrument registry. Clones share the underlying
    /// instruments, so a clone taken before handing the engine to a
    /// [`crate::driver::EngineDriver`] keeps reading live values.
    pub fn registry(&self) -> Registry {
        self.obs.clone()
    }

    /// Disable per-tuple watermarks (multiple unsynchronized feeds).
    pub fn set_auto_watermark(&mut self, on: bool) {
        self.auto_watermark = on;
    }

    /// Register a stream; errors on duplicate names.
    pub fn create_stream(&mut self, schema: SchemaRef) -> Result<()> {
        let name = schema.name.clone();
        if schema.time_column.is_none() {
            return Err(DsmsError::schema(format!(
                "stream `{name}` must declare a time column"
            )));
        }
        if self.streams.contains_key(&name) || self.tables.contains_key(&name) {
            return Err(DsmsError::duplicate(name));
        }
        let labels = [("stream", name.as_str())];
        let pushed_ctr = self.obs.counter("eslev_stream_pushed_total", &labels);
        let rejected_ctr = self.obs.counter("eslev_stream_rejected_total", &labels);
        let str_cols = schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.ty == ValueType::Str)
            .map(|(i, _)| i)
            .collect();
        self.streams.insert(
            name,
            StreamEntry {
                schema,
                str_cols,
                last_ts: Timestamp::ZERO,
                pushed: 0,
                pushed_ctr,
                rejected_ctr,
                reorder: None,
            },
        );
        Ok(())
    }

    /// Register a table; errors on duplicate names.
    pub fn create_table(&mut self, schema: SchemaRef) -> Result<TableRef> {
        let name = schema.name.clone();
        if self.streams.contains_key(&name) || self.tables.contains_key(&name) {
            return Err(DsmsError::duplicate(name));
        }
        let t = Table::new(schema);
        self.tables.insert(name, t.clone());
        Ok(t)
    }

    /// Handle to a registered table.
    pub fn table(&self, name: &str) -> Result<TableRef> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| DsmsError::unknown(format!("table `{name}`")))
    }

    /// Schema of a registered stream.
    pub fn stream_schema(&self, name: &str) -> Result<SchemaRef> {
        self.streams
            .get(&name.to_ascii_lowercase())
            .map(|e| e.schema.clone())
            .ok_or_else(|| DsmsError::unknown(format!("stream `{name}`")))
    }

    /// Mutable access to the scalar-function registry.
    pub fn functions_mut(&mut self) -> &mut FunctionRegistry {
        &mut self.funcs
    }

    /// The scalar-function registry.
    pub fn functions(&self) -> &FunctionRegistry {
        &self.funcs
    }

    /// Mutable access to the aggregate registry.
    pub fn aggregates_mut(&mut self) -> &mut AggregateRegistry {
        &mut self.aggs
    }

    /// The aggregate registry.
    pub fn aggregates(&self) -> &AggregateRegistry {
        &self.aggs
    }

    /// Tolerate out-of-order arrivals on a stream up to `slack`: pushes
    /// buffer inside the engine and release in global `(ts, seq)` order
    /// once every disorder-tolerant stream's newest arrival is `slack`
    /// ahead of them (a *global* release bound — releasing one stream
    /// independently would let a multi-stream detector see cross-stream
    /// inversions). Tuples arriving behind what has already been
    /// released are too late to re-order: they are counted, dead-lettered
    /// with [`RejectReason::Late`], and never silently applied or
    /// dropped. Call [`Engine::flush_disorder`] (or push something
    /// `slack` newer) to drain the tail.
    pub fn set_disorder_tolerance(
        &mut self,
        stream: &str,
        slack: crate::time::Duration,
    ) -> Result<()> {
        let lower = stream.to_ascii_lowercase();
        if !self.streams.contains_key(&lower) {
            return Err(DsmsError::unknown(format!("stream `{stream}`")));
        }
        let labels = [("stream", lower.as_str())];
        let buffered_ctr = self.obs.counter("eslev_disorder_buffered_total", &labels);
        let flushed_ctr = self.obs.counter("eslev_disorder_flushed_total", &labels);
        let entry = self
            .streams
            .get_mut(&lower)
            .ok_or_else(|| DsmsError::unknown(format!("stream `{stream}`")))?;
        entry.reorder = Some(ReorderState {
            slack,
            max_seen: Timestamp::ZERO,
            pending: std::collections::BTreeMap::new(),
            buffered_ctr,
            flushed_ctr,
        });
        Ok(())
    }

    /// Drain every buffered out-of-order tuple on every stream (end of
    /// feed), merged across streams in global `(ts, seq)` order;
    /// advances stream time to the newest drained arrival.
    pub fn flush_disorder(&mut self) -> Result<()> {
        let mut drained: Vec<(String, Tuple)> = Vec::new();
        for (name, entry) in self.streams.iter_mut() {
            let Some(r) = entry.reorder.as_mut() else {
                continue;
            };
            let all: Vec<Tuple> = std::mem::take(&mut r.pending).into_values().collect();
            r.flushed_ctr.add(all.len() as u64);
            drained.extend(all.into_iter().map(|t| (name.clone(), t)));
        }
        drained.sort_by_key(|(_, t)| t.order_key());
        for (name, t) in drained {
            self.deliver_ordered(&name, t, Deliver::OrderedOnly)?;
        }
        Ok(())
    }

    /// The global release bound: every buffered tuple at or below it is
    /// provably ordered, because each disorder-tolerant stream's
    /// high-water mark is at least `slack` past it. `None` without any
    /// tolerant stream.
    fn release_bound(&self) -> Option<Timestamp> {
        self.streams
            .values()
            .filter_map(|e| e.reorder.as_ref())
            .map(|r| r.max_seen.saturating_sub(r.slack))
            .min()
    }

    /// How far the reorder buffer has already released: the newest
    /// delivered event time across disorder-tolerant streams. An arrival
    /// behind this cannot be re-ordered any more and is late.
    fn released_frontier(&self) -> Timestamp {
        self.streams
            .values()
            .filter(|e| e.reorder.is_some())
            .map(|e| e.last_ts)
            .max()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Release every buffered tuple at or below the global bound, merged
    /// across streams in `(ts, seq)` order, to consistent queries.
    fn release_ready(&mut self) -> Result<()> {
        let Some(bound) = self.release_bound() else {
            return Ok(());
        };
        let mut ready: Vec<(String, Tuple)> = Vec::new();
        for (name, entry) in self.streams.iter_mut() {
            let Some(r) = entry.reorder.as_mut() else {
                continue;
            };
            let mut released = 0u64;
            while let Some(first) = r.pending.first_entry() {
                if first.key().0 <= bound {
                    ready.push((name.clone(), first.remove()));
                    released += 1;
                } else {
                    break;
                }
            }
            r.flushed_ctr.add(released);
        }
        ready.sort_by_key(|(_, t)| t.order_key());
        for (name, t) in ready {
            self.deliver_ordered(&name, t, Deliver::OrderedOnly)?;
        }
        Ok(())
    }

    /// Whether any active fast-consistency query subscribes to a stream
    /// (such arrivals are dispatched speculatively at push time).
    fn has_fast_subscriber(&self, lower: &str) -> bool {
        self.subs.get(lower).is_some_and(|subs| {
            subs.iter().any(|(idx, _)| {
                self.queries[*idx].active && self.queries[*idx].consistency == Consistency::Fast
            })
        })
    }

    fn deliver_ordered(&mut self, lower: &str, t: Tuple, mode: Deliver) -> Result<()> {
        let entry = self.streams.get_mut(lower).expect("stream exists");
        debug_assert!(t.ts() >= entry.last_ts, "reorder buffer releases in order");
        entry.last_ts = t.ts();
        entry.pushed += 1;
        entry.pushed_ctr.inc();
        let ts = t.ts();
        if self.auto_watermark && ts > self.now {
            self.advance_to(ts)?;
        }
        self.dispatch_batch(lower.to_string(), vec![t], mode)
    }

    /// Maintain a materialized window over a stream for ad-hoc snapshot
    /// queries (§2.1 of the paper: query the recent past of a stream
    /// without persisting it). Returns the queryable handle.
    pub fn materialize(&mut self, stream: &str, extent: WindowExtent) -> Result<SnapshotRef> {
        let lower = stream.to_ascii_lowercase();
        let schema = self.stream_schema(&lower)?;
        let m = MaterializedWindow::new(schema, extent)?;
        self.materialized.entry(lower).or_default().push(m.clone());
        Ok(m)
    }

    /// The first materialized window registered over a stream, if any.
    pub fn snapshot_of(&self, stream: &str) -> Option<SnapshotRef> {
        self.materialized
            .get(&stream.to_ascii_lowercase())
            .and_then(|v| v.first())
            .cloned()
    }

    /// Register a continuous query reading from `sources` (port i =
    /// sources\[i\]) through `op` into `sink`, at the default
    /// [`Consistency::Consistent`] level.
    pub fn register_query(
        &mut self,
        name: impl Into<String>,
        sources: Vec<&str>,
        op: Box<dyn Operator>,
        sink: Sink,
    ) -> Result<QueryId> {
        self.register_query_with(name, sources, op, sink, Consistency::Consistent)
    }

    /// Register a continuous query with an explicit consistency level.
    ///
    /// `Fast` wraps the operator tree in a [`SpeculativeGate`]: the
    /// query receives every admitted arrival immediately (before the
    /// reorder buffer proves order) and issues typed retraction tuples
    /// when a late arrival invalidates prior output. Retractions do not
    /// cascade through derived streams, so a fast query cannot feed a
    /// [`Sink::Stream`].
    pub fn register_query_with(
        &mut self,
        name: impl Into<String>,
        sources: Vec<&str>,
        op: Box<dyn Operator>,
        sink: Sink,
        consistency: Consistency,
    ) -> Result<QueryId> {
        let name = name.into();
        let op = if consistency == Consistency::Fast {
            if matches!(sink, Sink::Stream(_)) {
                return Err(DsmsError::plan(format!(
                    "fast-consistency query `{name}` cannot feed a derived stream: \
                     retraction tuples do not cascade; use a collector, table or \
                     discard sink"
                )));
            }
            let labels = [("query", name.as_str())];
            let retractions = self.obs.counter("eslev_retractions_total", &labels);
            Box::new(SpeculativeGate::new(op, self.auto_watermark)?.with_counter(retractions))
                as Box<dyn Operator>
        } else {
            op
        };
        if sources.len() != op.num_ports() {
            return Err(DsmsError::plan(format!(
                "operator `{}` expects {} inputs, got {}",
                op.name(),
                op.num_ports(),
                sources.len()
            )));
        }
        for s in &sources {
            let lower = s.to_ascii_lowercase();
            if !self.streams.contains_key(&lower) {
                return Err(DsmsError::unknown(format!("stream `{s}`")));
            }
        }
        if let Sink::Stream(s) = &sink {
            if !self.streams.contains_key(&s.to_ascii_lowercase()) {
                return Err(DsmsError::unknown(format!("sink stream `{s}`")));
            }
        }
        if let Sink::Table(t) = &sink {
            if !self.tables.contains_key(&t.to_ascii_lowercase()) {
                return Err(DsmsError::unknown(format!("sink table `{t}`")));
            }
        }
        let idx = self.queries.len();
        for (port, s) in sources.iter().enumerate() {
            self.subs
                .entry(s.to_ascii_lowercase())
                .or_default()
                .push((idx, port));
        }
        let id = idx.to_string();
        let labels = [("query", name.as_str()), ("id", id.as_str())];
        let tuples_in = self.obs.counter("eslev_query_tuples_in_total", &labels);
        let tuples_out = self.obs.counter("eslev_query_tuples_out_total", &labels);
        let wall = self.obs.histogram("eslev_query_wall_ns", &labels);
        let mut op = op;
        op.bind_interner(&self.codec);
        self.queries.push(QueryState {
            name,
            op,
            sink,
            emitted: 0,
            active: true,
            consistency,
            tuples_in,
            tuples_out,
            wall,
        });
        Ok(QueryId(idx))
    }

    /// Convenience: register a query whose outputs are collected.
    pub fn register_collected(
        &mut self,
        name: impl Into<String>,
        sources: Vec<&str>,
        op: Box<dyn Operator>,
    ) -> Result<(QueryId, Collector)> {
        let c = Collector::new();
        let id = self.register_query(name, sources, op, Sink::Collect(c.clone()))?;
        Ok((id, c))
    }

    /// Convenience: register a collected query at an explicit
    /// consistency level.
    pub fn register_collected_with(
        &mut self,
        name: impl Into<String>,
        sources: Vec<&str>,
        op: Box<dyn Operator>,
        consistency: Consistency,
    ) -> Result<(QueryId, Collector)> {
        let c = Collector::new();
        let id =
            self.register_query_with(name, sources, op, Sink::Collect(c.clone()), consistency)?;
        Ok((id, c))
    }

    /// The consistency level a query was registered at.
    pub fn query_consistency(&self, id: QueryId) -> Consistency {
        self.queries[id.0].consistency
    }

    /// Turn multi-query shared execution on or off (off by default).
    /// Only affects queries registered *after* the call via
    /// [`Engine::register_shared`]-aware frontends.
    pub fn set_shared_execution(&mut self, on: bool) {
        self.shared_execution = on;
    }

    /// Whether shared execution is enabled.
    pub fn shared_execution(&self) -> bool {
        self.shared_execution
    }

    /// Register a continuous query whose plan splits into a shared core
    /// (identified by `fingerprint` + `canon`) and an optional
    /// per-query residual stage. If a chain with the same identity
    /// exists and has not consumed input yet, the query attaches to it
    /// as an additional subscriber — the core executes once per batch
    /// and each subscriber applies only its residual. Otherwise a fresh
    /// chain is created from `core_op`.
    ///
    /// Chains are reference-counted by their subscribers' activity:
    /// deregistering one subscriber leaves the core (and its state) in
    /// place for the survivors, and a fully-deregistered chain is never
    /// re-attached once warm — a later identical registration gets a
    /// fresh chain, exactly like an independent one would.
    #[allow(clippy::too_many_arguments)]
    pub fn register_shared(
        &mut self,
        name: impl Into<String>,
        sources: Vec<&str>,
        fingerprint: u64,
        canon: &str,
        label: &str,
        core_op: Box<dyn Operator>,
        residual: Option<Box<dyn Operator>>,
        sink: Sink,
    ) -> Result<QueryId> {
        let name = name.into();
        let existing = self.shared.iter().position(|e| {
            e.fingerprint == fingerprint && e.canon == canon && e.core.lock().tuples_in == 0
        });
        let (idx, created) = match existing {
            Some(i) => (i, false),
            None => {
                let mut core_op = core_op;
                core_op.bind_interner(&self.codec);
                self.shared.push(SharedEntry {
                    fingerprint,
                    canon: canon.to_string(),
                    label: label.to_string(),
                    core: SharedCore::new(core_op),
                    subscriber_ids: Vec::new(),
                });
                (self.shared.len() - 1, true)
            }
        };
        let core = self.shared[idx].core.clone();
        let mut tap = SharedTap::new(core.clone(), residual);
        let sid = idx.to_string();
        let labels = [("query", name.as_str()), ("chain", sid.as_str())];
        tap.set_hit_counter(self.obs.counter("eslev_shared_memo_hits_total", &labels));
        match self.register_query(name.clone(), sources, Box::new(tap), sink) {
            Ok(qid) => {
                core.lock().subscribers.push(name);
                self.shared[idx].subscriber_ids.push(qid.0);
                Ok(qid)
            }
            Err(e) => {
                if created {
                    self.shared.pop();
                }
                Err(e)
            }
        }
    }

    /// Introspection: one row per shared chain, in creation order.
    pub fn shared_stats(&self) -> Vec<SharedInfo> {
        self.shared
            .iter()
            .map(|e| {
                let core = e.core.lock();
                SharedInfo {
                    label: e.label.clone(),
                    fingerprint: e.fingerprint,
                    subscribers: core.subscribers.clone(),
                    active_subscribers: e
                        .subscriber_ids
                        .iter()
                        .filter(|&&i| self.queries[i].active)
                        .count(),
                    tuples_in: core.tuples_in,
                    memo_hits: core.memo_hits,
                    retained: core.op.retained(),
                    state_key_bytes: core.op.state_key_bytes(),
                }
            })
            .collect()
    }

    /// Names of the queries subscribed to the chain with this identity
    /// (the newest matching chain, when churn created several).
    pub fn shared_subscribers(&self, fingerprint: u64, canon: &str) -> Option<Vec<String>> {
        self.shared
            .iter()
            .rev()
            .find(|e| e.fingerprint == fingerprint && e.canon == canon)
            .map(|e| e.core.lock().subscribers.clone())
    }

    /// Push a row into a stream; cascades through all affected queries.
    ///
    /// Delegates to the batched ingest path as a batch of one, so
    /// single-tuple and batch ingestion share one code path — the same
    /// validation, metrics, watermark handling and dispatch.
    pub fn push(&mut self, stream: &str, values: Vec<Value>) -> Result<()> {
        self.ingest(stream, vec![(values, None)])
    }

    /// Push a row with a caller-assigned sequence number instead of the
    /// engine's internal counter. Used by the shard router to stamp every
    /// replica of a tuple with one global cause index so per-shard
    /// tie-breaks — `(ts, seq)` order keys inside detectors and reorder
    /// buffers — agree with the single-engine reference. The internal
    /// counter is bumped past `seq` so derived-stream tuples never reuse
    /// it within this engine.
    pub fn push_with_seq(&mut self, stream: &str, values: Vec<Value>, seq: u64) -> Result<()> {
        self.ingest(stream, vec![(values, Some(seq))])
    }

    /// Whether any active query requires the exact per-tuple watermark
    /// and delivery schedule: punctuation-sensitive operators
    /// (window-close emission, timeout detection, periodic reports)
    /// observe every watermark, and multi-port operators observe the
    /// relative arrival order of different streams, which batch delivery
    /// would coarsen. While this is `false` the engine delivers whole
    /// batches and coalesces their auto-watermarks into one trailing
    /// punctuation — with byte-identical query output.
    pub fn needs_per_tuple_watermarks(&self) -> bool {
        self.queries
            .iter()
            .any(|q| q.active && (q.op.punctuation_sensitive() || q.op.num_ports() > 1))
    }

    /// Core ingest: rows of *one* stream, in arrival order. Decides once
    /// per call between the coalesced batch schedule and the exact
    /// per-tuple watermark schedule.
    fn ingest(&mut self, stream: &str, mut group: Vec<(Vec<Value>, Option<u64>)>) -> Result<()> {
        let batched = !self.needs_per_tuple_watermarks();
        let (max, ingested) = self.ingest_group(stream, &mut group, batched);
        self.finish_ingest(batched, max)?;
        ingested
    }

    /// Tail of every ingest call: issue the coalesced trailing watermark
    /// at `max` when the batch schedule ran, then discard a latency stamp
    /// still pending — its admission's cascade is over and produced no
    /// output, so it must not inflate a later emission's measurement.
    fn finish_ingest(&mut self, batched: bool, max: Timestamp) -> Result<()> {
        let advanced = if batched && self.auto_watermark {
            self.advance_to(max)
        } else {
            Ok(())
        };
        self.lat_sample = None;
        advanced
    }

    /// Validate and deliver one stream's rows. In batched mode the whole
    /// group is dispatched as a single batch and the caller issues one
    /// trailing watermark at the returned newest delivered event time
    /// (`ZERO` when the per-tuple path already advanced). A refused row
    /// ends the group: the rows before it are still delivered, as a loop
    /// of [`Engine::push`] calls would have, and its error is returned
    /// beside that time.
    fn ingest_group(
        &mut self,
        stream: &str,
        group: &mut Vec<(Vec<Value>, Option<u64>)>,
        batched: bool,
    ) -> (Timestamp, Result<()>) {
        let lower = stream.to_ascii_lowercase();
        let Some(entry) = self.streams.get_mut(&lower) else {
            let e = DsmsError::unknown(format!("stream `{stream}`"));
            return (Timestamp::ZERO, Err(e));
        };
        if !batched || entry.reorder.is_some() {
            // Exact schedule: watermark-before-tuple for every row
            // (punctuation-sensitive queries), and the disorder buffer's
            // own release discipline. `push_impl` advances internally.
            for (values, seq) in group.drain(..) {
                if let Err(e) = self.push_impl(stream, values, seq) {
                    return (Timestamp::ZERO, Err(e));
                }
            }
            return (Timestamp::ZERO, Ok(()));
        }
        let mut batch = Vec::with_capacity(group.len());
        let mut newest = Timestamp::ZERO;
        let mut refused = None;
        for (mut values, seq) in group.drain(..) {
            let seqno = seq.unwrap_or(self.next_seq);
            let ts = match Tuple::validate_against(&entry.schema, &values) {
                Ok(ts) => ts,
                Err(e) => {
                    Self::reject(
                        &mut self.dead_letters,
                        &self.rejected_tuples,
                        &self.trace,
                        stream,
                        values,
                        RejectReason::Malformed,
                        &e,
                    );
                    refused = Some(e);
                    break;
                }
            };
            // Interned engines canonicalize string columns at admission,
            // so operator key codecs resolve them by pointer.
            if self.representation == Representation::Interned {
                for &c in &entry.str_cols {
                    self.interner.canonicalize(&mut values[c]);
                }
            }
            let t = Tuple::new(values, ts, seqno);
            self.next_seq = self.next_seq.max(seqno + 1);
            if t.ts() < entry.last_ts {
                entry.rejected_ctr.inc();
                let e = DsmsError::OutOfOrder(format!(
                    "stream `{stream}` regressed from {} to {}",
                    entry.last_ts,
                    t.ts()
                ));
                Self::reject(
                    &mut self.dead_letters,
                    &self.late_tuples,
                    &self.trace,
                    stream,
                    t.values().to_vec(),
                    RejectReason::Late,
                    &e,
                );
                refused = Some(e);
                break;
            }
            entry.last_ts = t.ts();
            newest = newest.max(t.ts());
            if seqno & WALL_SAMPLE_MASK == 0 {
                self.lat_sample = Some(std::time::Instant::now());
                self.trace.record(|| TraceKind::TupleAdmitted {
                    stream: lower.clone(),
                    seq: seqno,
                });
            }
            batch.push(t);
        }
        if refused.is_none() || !batch.is_empty() {
            entry.pushed += batch.len() as u64;
            entry.pushed_ctr.add(batch.len() as u64);
            if let Err(e) = self.dispatch_batch(lower, batch, Deliver::All) {
                return (Timestamp::ZERO, Err(e));
            }
        }
        (newest, refused.map_or(Ok(()), Err))
    }

    fn push_impl(
        &mut self,
        stream: &str,
        mut values: Vec<Value>,
        seq_override: Option<u64>,
    ) -> Result<()> {
        let lower = stream.to_ascii_lowercase();
        let entry = self
            .streams
            .get_mut(&lower)
            .ok_or_else(|| DsmsError::unknown(format!("stream `{stream}`")))?;
        let seq = seq_override.unwrap_or(self.next_seq);
        let ts = match Tuple::validate_against(&entry.schema, &values) {
            Ok(ts) => ts,
            Err(e) => {
                Self::reject(
                    &mut self.dead_letters,
                    &self.rejected_tuples,
                    &self.trace,
                    stream,
                    values,
                    RejectReason::Malformed,
                    &e,
                );
                return Err(e);
            }
        };
        if self.representation == Representation::Interned {
            for &c in &entry.str_cols {
                self.interner.canonicalize(&mut values[c]);
            }
        }
        let tolerant = entry.reorder.is_some();
        let t = Tuple::new(values, ts, seq);
        self.next_seq = self.next_seq.max(seq + 1);
        if tolerant {
            // Arrivals behind what the reorder buffer has already
            // released cannot be put back in order: count them,
            // dead-letter them, and keep going (no error — late data is
            // an expected condition under bounded disorder, not a caller
            // bug).
            let frontier = self.released_frontier();
            if t.ts() < frontier {
                let e = DsmsError::OutOfOrder(format!(
                    "stream `{stream}` tuple at {} is behind the released frontier {} (slack exceeded)",
                    t.ts(),
                    frontier
                ));
                let entry = self.streams.get_mut(&lower).expect("looked up above");
                entry.rejected_ctr.inc();
                Self::reject(
                    &mut self.dead_letters,
                    &self.late_tuples,
                    &self.trace,
                    stream,
                    t.values().to_vec(),
                    RejectReason::Late,
                    &e,
                );
                return Ok(());
            }
            let speculative = self.has_fast_subscriber(&lower);
            {
                let entry = self.streams.get_mut(&lower).expect("looked up above");
                let r = entry.reorder.as_mut().expect("checked");
                r.max_seen = r.max_seen.max(t.ts());
                r.pending.insert((t.ts(), t.seq()), t.clone());
                r.buffered_ctr.inc();
            }
            if seq & WALL_SAMPLE_MASK == 0 {
                // The stamp closes at the next sink-reaching cascade —
                // the speculative dispatch below, or a later ordered
                // release — so sampled latency includes reorder-buffer
                // residence.
                self.lat_sample = Some(std::time::Instant::now());
                self.trace.record(|| TraceKind::TupleAdmitted {
                    stream: lower.clone(),
                    seq,
                });
            }
            if speculative {
                // Fast-consistency queries see the arrival immediately,
                // in arrival order; their SpeculativeGate repairs any
                // misordering with retractions once proven wrong.
                self.dispatch_batch(lower.clone(), vec![t], Deliver::FastOnly)?;
            }
            return self.release_ready();
        }
        if t.ts() < entry.last_ts {
            entry.rejected_ctr.inc();
            let e = DsmsError::OutOfOrder(format!(
                "stream `{stream}` regressed from {} to {}",
                entry.last_ts,
                t.ts()
            ));
            Self::reject(
                &mut self.dead_letters,
                &self.late_tuples,
                &self.trace,
                stream,
                t.values().to_vec(),
                RejectReason::Late,
                &e,
            );
            return Err(e);
        }
        if seq & WALL_SAMPLE_MASK == 0 {
            self.lat_sample = Some(std::time::Instant::now());
            self.trace.record(|| TraceKind::TupleAdmitted {
                stream: lower.clone(),
                seq,
            });
        }
        // Watermark semantics: this arrival proves no future tuple is
        // earlier than `ts`, so windows and deadlines that closed before
        // `ts` must fire BEFORE the tuple is processed (a timeout that
        // elapsed during a silent period is detected at the next arrival,
        // and is not masked by it).
        let delivered = self.deliver_ordered(&lower, t, Deliver::All);
        self.lat_sample = None;
        delivered
    }

    /// Record a rejected arrival (malformed, or late beyond the disorder
    /// slack) in the bounded dead-letter buffer.
    #[allow(clippy::too_many_arguments)]
    fn reject(
        dead: &mut VecDeque<DeadLetter>,
        ctr: &Counter,
        trace: &FlightRecorder,
        stream: &str,
        values: Vec<Value>,
        reason: RejectReason,
        err: &DsmsError,
    ) {
        ctr.inc();
        trace.record(|| TraceKind::DeadLetter {
            stream: stream.to_string(),
        });
        if dead.len() == DEAD_LETTER_CAP {
            dead.pop_front();
        }
        dead.push_back(DeadLetter {
            stream: stream.to_string(),
            values,
            reason,
            error: err.to_string(),
        });
    }

    /// The rejected arrivals currently held for inspection, oldest first
    /// (bounded; the oldest are dropped once the buffer fills).
    pub fn dead_letters(&self) -> impl Iterator<Item = &DeadLetter> {
        self.dead_letters.iter()
    }

    /// Drain the dead-letter buffer.
    pub fn take_dead_letters(&mut self) -> Vec<DeadLetter> {
        self.dead_letters.drain(..).collect()
    }

    /// Malformed arrivals rejected at ingest so far (all streams).
    pub fn rejected_tuples(&self) -> u64 {
        self.rejected_tuples.get()
    }

    /// Arrivals rejected as late beyond the disorder slack (all streams).
    pub fn late_tuples(&self) -> u64 {
        self.late_tuples.get()
    }

    /// Watermarks rejected for regressing behind stream time.
    pub fn stale_watermarks(&self) -> u64 {
        self.stale_watermarks.get()
    }

    /// Push a whole batch (same validation as [`Engine::push`]).
    ///
    /// Consecutive rows of the same stream are validated and dispatched
    /// as one batch, and — when no registered query needs the per-tuple
    /// watermark schedule ([`Engine::needs_per_tuple_watermarks`]) — the
    /// auto-watermarks of the whole call coalesce into a single trailing
    /// punctuation. Query output is byte-identical to pushing the rows
    /// one at a time, including on a refused row: the rows before it are
    /// delivered and watermarked, the rows after it are not, and its error
    /// is returned — as a loop of [`Engine::push`] calls stopping at the
    /// first error would.
    pub fn push_batch(
        &mut self,
        rows: impl IntoIterator<Item = (String, Vec<Value>)>,
    ) -> Result<()> {
        let batched = !self.needs_per_tuple_watermarks();
        let mut max = Timestamp::ZERO;
        let mut ingested = Ok(());
        let mut it = rows.into_iter().peekable();
        let mut group: Vec<(Vec<Value>, Option<u64>)> = Vec::new();
        while let Some((stream, values)) = it.next() {
            group.clear();
            group.push((values, None));
            while let Some((next_stream, _)) = it.peek() {
                if next_stream.eq_ignore_ascii_case(&stream) {
                    group.push((it.next().expect("peeked").1, None));
                } else {
                    break;
                }
            }
            let newest;
            (newest, ingested) = self.ingest_group(&stream, &mut group, batched);
            max = max.max(newest);
            if ingested.is_err() {
                break;
            }
        }
        self.finish_ingest(batched, max)?;
        ingested
    }

    /// Push a whole batch into *one* stream (same validation and
    /// watermark coalescing as [`Engine::push_batch`], without the
    /// per-row stream naming and grouping).
    pub fn push_batch_to(
        &mut self,
        stream: &str,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<()> {
        self.ingest(stream, rows.into_iter().map(|v| (v, None)).collect())
    }

    /// Advance stream time: delivers a punctuation to every query, which
    /// releases window-close results and expires state (*active
    /// expiration*). Monotone; earlier times are no-ops.
    pub fn advance_to(&mut self, ts: Timestamp) -> Result<()> {
        if ts <= self.now {
            return Ok(());
        }
        self.now = ts;
        // Sample punctuation latency on the same 1-in-64 schedule as
        // tuples (auto-watermark turns every push into a punctuation, so
        // this path is just as hot).
        let sampled = self.punctuations.inc_get() & WALL_SAMPLE_MASK == 0;
        if sampled {
            self.trace.record(|| TraceKind::WatermarkAdvance {
                ts_us: ts.as_micros(),
            });
        }
        for mats in self.materialized.values() {
            for m in mats {
                m.advance(ts);
            }
        }
        let mut work: VecDeque<(String, Vec<Tuple>, Deliver)> = VecDeque::new();
        for idx in 0..self.queries.len() {
            if !self.queries[idx].active {
                continue;
            }
            let mut outs = Vec::new();
            {
                let q = &mut self.queries[idx];
                let started = sampled.then(std::time::Instant::now);
                q.op.on_punctuation(ts, &mut outs)?;
                if let Some(s) = started {
                    q.wall.record_duration(s.elapsed());
                }
            }
            self.route_batch(idx, outs, &mut work)?;
        }
        self.drain_batches(work)
    }

    /// Strict external watermark: like [`Engine::advance_to`], but a
    /// timestamp behind current stream time is a protocol violation —
    /// counted and rejected as [`DsmsError::StaleWatermark`] instead of
    /// being silently swallowed. Use this for watermarks crossing a
    /// trust boundary (the REPL, the shard router); internal callers
    /// that legitimately coalesce keep the lenient `advance_to`.
    pub fn advance_watermark(&mut self, ts: Timestamp) -> Result<()> {
        if ts < self.now {
            self.stale_watermarks.inc();
            return Err(DsmsError::stale_watermark(format!(
                "watermark {} regresses behind stream time {}",
                ts, self.now
            )));
        }
        self.advance_to(ts)
    }

    /// Current stream-time high-water mark.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    fn dispatch_batch(
        &mut self,
        stream_lower: String,
        batch: Vec<Tuple>,
        mode: Deliver,
    ) -> Result<()> {
        let mut work = VecDeque::new();
        work.push_back((stream_lower, batch, mode));
        self.drain_batches(work)
    }

    fn drain_batches(&mut self, mut work: VecDeque<(String, Vec<Tuple>, Deliver)>) -> Result<()> {
        // Bounded cascade: a mis-wired query cycle would loop forever;
        // cap the cascade (counted in tuples) generously and report.
        let mut guard: u64 = 0;
        while let Some((stream, batch, mode)) = work.pop_front() {
            guard += batch.len() as u64;
            if guard > 10_000_000 {
                return Err(DsmsError::plan(
                    "query cascade exceeded 10M steps; cyclic stream wiring?",
                ));
            }
            // Materialized windows track every tuple entering the stream,
            // whether pushed externally or derived from a query sink —
            // but only once: a speculative (fast-only) delivery will be
            // followed by the same tuple's ordered release.
            if mode != Deliver::FastOnly {
                if let Some(mats) = self.materialized.get(&stream) {
                    for m in mats {
                        for t in batch.iter() {
                            m.push(t.clone());
                        }
                    }
                }
            }
            let Some(subs) = self.subs.get(&stream) else {
                continue;
            };
            // One subscription-list clone per batch, not per tuple.
            let subs: Vec<(usize, usize)> = subs.clone();
            for (idx, port) in subs {
                if !self.queries[idx].active || !mode.targets(self.queries[idx].consistency) {
                    continue;
                }
                let mut outs = Vec::new();
                {
                    let q = &mut self.queries[idx];
                    let before = q.tuples_in.get();
                    q.tuples_in.add(batch.len() as u64);
                    // Sample when the batch starts on or crosses a
                    // 1-in-64 tuple ordinal, keeping the sampling rate
                    // independent of batch size.
                    let sampled = before & WALL_SAMPLE_MASK == 0
                        || (before >> 6) != ((before + batch.len() as u64) >> 6);
                    let started = sampled.then(std::time::Instant::now);
                    q.op.process_batch(port, &batch, &mut outs)?;
                    if let Some(s) = started {
                        let elapsed = s.elapsed();
                        q.wall.record_duration(elapsed);
                        self.trace.record(|| TraceKind::Stage {
                            query: q.name.clone(),
                            tuples: batch.len() as u64,
                            wall_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
                        });
                    }
                }
                self.route_batch(idx, outs, &mut work)?;
            }
        }
        Ok(())
    }

    fn route_batch(
        &mut self,
        idx: usize,
        outs: Vec<Tuple>,
        work: &mut VecDeque<(String, Vec<Tuple>, Deliver)>,
    ) -> Result<()> {
        if outs.is_empty() {
            return Ok(());
        }
        // End-to-end latency: the sampled admission's outputs reached a
        // sink. One field swap + histogram record — no allocation.
        if let Some(t0) = self.lat_sample.take() {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.tuple_latency.record(ns);
            self.trace
                .record(|| TraceKind::TupleEmitted { latency_ns: ns });
        }
        self.queries[idx].emitted += outs.len() as u64;
        self.queries[idx].tuples_out.add(outs.len() as u64);
        match &self.queries[idx].sink {
            Sink::Discard => {}
            Sink::Collect(c) => c.push_many(outs),
            Sink::Table(name) => {
                let table = self.tables[&name.to_ascii_lowercase()].clone();
                for t in &outs {
                    if t.is_retraction() {
                        // A fast query withdrew a speculative emission:
                        // remove the matching row instead of inserting.
                        table.delete_row(t.values())?;
                    } else {
                        table.insert_tuple(t)?;
                    }
                }
            }
            Sink::Stream(name) => {
                let lower = name.to_ascii_lowercase();
                let schema = self.streams[&lower].schema.clone();
                // Derived tuples are re-validated and re-sequenced so
                // downstream queries see a well-formed stream — but the
                // row values are shared with the producer's output, not
                // copied.
                let base = self.next_seq;
                self.next_seq += outs.len() as u64;
                let mut rebound = Vec::with_capacity(outs.len());
                for (k, t) in outs.into_iter().enumerate() {
                    rebound.push(Tuple::rebind_for_schema(&schema, t, base + k as u64)?);
                }
                let e = self
                    .streams
                    .get_mut(&lower)
                    .expect("validated at registration");
                for nt in &rebound {
                    // Derived streams may interleave slightly out of
                    // order (e.g. window-close alerts); track the max.
                    if nt.ts() > e.last_ts {
                        e.last_ts = nt.ts();
                    }
                }
                e.pushed += rebound.len() as u64;
                e.pushed_ctr.add(rebound.len() as u64);
                work.push_back((lower, rebound, Deliver::All));
            }
        }
        Ok(())
    }

    /// Stop a continuous query: it stops receiving tuples and
    /// punctuations (its accumulated stats remain readable). Idempotent.
    pub fn deregister_query(&mut self, id: QueryId) {
        self.queries[id.0].active = false;
    }

    /// Whether a query is still receiving input.
    pub fn is_active(&self, id: QueryId) -> bool {
        self.queries[id.0].active
    }

    /// Introspection: `(id, name, active, emitted, retained)` for every
    /// registered query, in registration order.
    pub fn query_stats(&self) -> Vec<QueryStats> {
        self.queries
            .iter()
            .enumerate()
            .map(|(i, q)| QueryStats {
                id: QueryId(i),
                name: q.name.clone(),
                active: q.active,
                emitted: q.emitted,
                retained: q.op.retained(),
                tuples_in: q.tuples_in.get(),
                tuples_out: q.tuples_out.get(),
                state_key_bytes: q.op.state_key_bytes(),
                wall_p99_ns: q.wall.snapshot().quantile(0.99),
            })
            .collect()
    }

    /// Tuples emitted by a query so far.
    pub fn emitted(&self, id: QueryId) -> u64 {
        self.queries[id.0].emitted
    }

    /// Tuples retained in a query's operator state (the memory metric the
    /// paper's pairing modes are about).
    pub fn retained(&self, id: QueryId) -> usize {
        self.queries[id.0].op.retained()
    }

    /// Tuples pushed into a stream so far.
    pub fn stream_pushed(&self, name: &str) -> Result<u64> {
        self.streams
            .get(&name.to_ascii_lowercase())
            .map(|e| e.pushed)
            .ok_or_else(|| DsmsError::unknown(format!("stream `{name}`")))
    }

    /// Name of a registered query.
    pub fn query_name(&self, id: QueryId) -> &str {
        &self.queries[id.0].name
    }

    /// Watermark lag of a stream in milliseconds: the newest event time
    /// seen (including disorder-buffered arrivals) minus the stream's
    /// low watermark (the newest *delivered* event time). Zero for a
    /// stream whose arrivals are delivered immediately.
    fn lag_ms(e: &StreamEntry) -> u64 {
        let latest = e
            .reorder
            .as_ref()
            .map_or(e.last_ts, |r| r.max_seen.max(e.last_ts));
        latest.as_micros().saturating_sub(e.last_ts.as_micros()) / 1000
    }

    /// Per-stream introspection, sorted by stream name.
    pub fn stream_stats(&self) -> Vec<StreamInfo> {
        let mut rows: Vec<StreamInfo> = self
            .streams
            .iter()
            .map(|(name, e)| StreamInfo {
                name: name.clone(),
                pushed: e.pushed,
                last_ts: e.last_ts,
                buffered: e.reorder.as_ref().map_or(0, |r| r.pending.len()),
                disorder_slack: e.reorder.as_ref().map(|r| r.slack),
                lag_ms: Self::lag_ms(e),
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    /// Observability report for a query: the operator tree's per-stage
    /// counters with the engine-level flow totals filled in at the root.
    pub fn query_report(&self, id: QueryId) -> OpReport {
        let q = &self.queries[id.0];
        let mut r = q.op.report();
        r.tuples_in = q.tuples_in.get();
        r.tuples_out = q.tuples_out.get();
        r
    }

    /// [`Engine::query_report`] looked up by name (first registration
    /// wins when names repeat).
    pub fn query_report_by_name(&self, name: &str) -> Option<OpReport> {
        self.queries
            .iter()
            .position(|q| q.name == name)
            .map(|i| self.query_report(QueryId(i)))
    }

    /// Export every metric: the registered instruments (stream/query
    /// counters, latency histograms, driver instruments when driven)
    /// plus derived per-stage operator samples and retention gauges.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.obs.snapshot();
        let (entries, bytes) = self.interner_stats();
        snap.push(
            "eslev_interner_entries",
            &[],
            MetricValue::Gauge(entries as i64),
        );
        snap.push(
            "eslev_interner_bytes",
            &[],
            MetricValue::Gauge(bytes as i64),
        );
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
        for (name, e) in &self.streams {
            snap.push(
                "eslev_watermark_lag_ms",
                &[("stream", name.as_str())],
                MetricValue::Gauge(Self::lag_ms(e) as i64),
            );
            if let Some(r) = &e.reorder {
                snap.push(
                    "eslev_reorder_depth",
                    &[("stream", name.as_str())],
                    MetricValue::Gauge(r.pending.len() as i64),
                );
                // How far the released (proven-ordered) frontier trails
                // the newest arrival — ≤ slack in steady state, so a
                // persistently larger value flags a stalled release.
                snap.push(
                    "eslev_reorder_slack_lag_ms",
                    &[("stream", name.as_str())],
                    MetricValue::Gauge(
                        (r.max_seen.as_micros().saturating_sub(e.last_ts.as_micros()) / 1000)
                            as i64,
                    ),
                );
            }
        }
        for (i, q) in self.queries.iter().enumerate() {
            let id = i.to_string();
            let labels = [("query", q.name.as_str()), ("id", id.as_str())];
            snap.push(
                "eslev_query_retained",
                &labels,
                MetricValue::Gauge(q.op.retained() as i64),
            );
            snap.push(
                "eslev_query_state_key_bytes",
                &labels,
                MetricValue::Gauge(q.op.state_key_bytes() as i64),
            );
            let r = self.query_report(QueryId(i));
            Self::append_report(&mut snap, &q.name, &r);
        }
        snap.push(
            "eslev_shared_subplans",
            &[],
            MetricValue::Gauge(self.shared.len() as i64),
        );
        for (k, e) in self.shared.iter().enumerate() {
            let core = e.core.lock();
            let id = format!("s{k}");
            let labels = [("query", e.label.as_str()), ("id", id.as_str())];
            snap.push(
                "eslev_query_retained",
                &labels,
                MetricValue::Gauge(core.op.retained() as i64),
            );
            snap.push(
                "eslev_query_state_key_bytes",
                &labels,
                MetricValue::Gauge(core.op.state_key_bytes() as i64),
            );
            snap.push(
                "eslev_shared_subscribers",
                &labels,
                MetricValue::Gauge(core.subscribers.len() as i64),
            );
        }
        snap
    }

    fn append_report(snap: &mut MetricsSnapshot, query: &str, r: &OpReport) {
        let labels = [("query", query), ("stage", r.name.as_str())];
        snap.push(
            "eslev_stage_tuples_in_total",
            &labels,
            MetricValue::Counter(r.tuples_in),
        );
        snap.push(
            "eslev_stage_tuples_out_total",
            &labels,
            MetricValue::Counter(r.tuples_out),
        );
        snap.push(
            "eslev_stage_retained",
            &labels,
            MetricValue::Gauge(r.retained as i64),
        );
        if let Some(w) = &r.wall_ns {
            if w.count > 0 {
                snap.push(
                    "eslev_stage_wall_ns",
                    &labels,
                    MetricValue::Histogram(w.clone()),
                );
            }
        }
        for (k, v) in &r.counters {
            snap.push(format!("eslev_op_{k}"), &labels, MetricValue::Counter(*v));
        }
        for child in &r.children {
            Self::append_report(snap, query, child);
        }
    }

    /// Capture the engine's complete mutable state — stream positions,
    /// disorder buffers, per-query operator state, table contents and
    /// materialized windows — as a serializable checkpoint.
    ///
    /// Restoring it into an engine built by the same setup code (same
    /// streams, tables, queries in the same order) via
    /// [`Engine::restore`] resumes processing exactly where the capture
    /// left off: feeding both the original and the restored engine the
    /// same suffix of input produces identical output.
    pub fn checkpoint(&self) -> Result<EngineCheckpoint> {
        let mut stream_names: Vec<&String> = self.streams.keys().collect();
        stream_names.sort();
        let mut streams = Vec::with_capacity(stream_names.len());
        for name in stream_names {
            let e = &self.streams[name];
            let reorder = match &e.reorder {
                None => StateNode::Unit,
                Some(r) => StateNode::List(vec![
                    StateNode::ts(r.max_seen),
                    StateNode::List(
                        r.pending
                            .values()
                            .map(|t| StateNode::Tuple(t.clone()))
                            .collect(),
                    ),
                ]),
            };
            streams.push(StateNode::List(vec![
                StateNode::Str(name.clone()),
                StateNode::ts(e.last_ts),
                StateNode::U64(e.pushed),
                reorder,
            ]));
        }
        let mut queries = Vec::with_capacity(self.queries.len());
        for q in &self.queries {
            queries.push(StateNode::List(vec![
                StateNode::Str(q.name.clone()),
                StateNode::Bool(q.active),
                StateNode::U64(q.emitted),
                q.op.save_state()?,
            ]));
        }
        let mut table_names: Vec<&String> = self.tables.keys().collect();
        table_names.sort();
        let tables = table_names
            .iter()
            .map(|n| {
                StateNode::List(vec![
                    StateNode::Str((*n).clone()),
                    self.tables[*n].save_state(),
                ])
            })
            .collect();
        let mut mat_names: Vec<&String> = self.materialized.keys().collect();
        mat_names.sort();
        let materialized = mat_names
            .iter()
            .map(|n| {
                StateNode::List(vec![
                    StateNode::Str((*n).clone()),
                    StateNode::List(
                        self.materialized[*n]
                            .iter()
                            .map(|m| m.save_state())
                            .collect(),
                    ),
                ])
            })
            .collect();
        // Checkpoint v3: shared-chain section. Each chain's state is
        // saved exactly once, with its identity and versioned
        // subscriber list; the subscribers' own entries above carry
        // residual-only state.
        let mut chains = Vec::with_capacity(self.shared.len());
        for e in &self.shared {
            let core = e.core.lock();
            chains.push(StateNode::List(vec![
                StateNode::Str(e.label.clone()),
                StateNode::U64(e.fingerprint),
                StateNode::U64(core.tuples_in),
                StateNode::List(
                    core.subscribers
                        .iter()
                        .map(|s| StateNode::Str(s.clone()))
                        .collect(),
                ),
                core.op.save_state()?,
            ]));
        }
        // Checkpoint v4: dead-letter section, so rejected arrivals
        // (malformed or late) survive kill-and-recover and SHOW REJECTED
        // stays truthful across a restore.
        let dead = self
            .dead_letters
            .iter()
            .map(|d| {
                StateNode::List(vec![
                    StateNode::Str(d.stream.clone()),
                    StateNode::List(d.values.iter().cloned().map(StateNode::Value).collect()),
                    StateNode::U64(match d.reason {
                        RejectReason::Malformed => 0,
                        RejectReason::Late => 1,
                    }),
                    StateNode::Str(d.error.clone()),
                ])
            })
            .collect();
        let root = StateNode::List(vec![
            StateNode::List(streams),
            StateNode::List(queries),
            StateNode::List(tables),
            StateNode::List(materialized),
            StateNode::List(chains),
            StateNode::List(dead),
        ]);
        let ck = EngineCheckpoint::new(self.next_seq, self.now, root)
            .with_dict(self.interner.dictionary());
        // Serializing to measure size is only paid when tracing is on.
        self.trace.record(|| TraceKind::Checkpoint {
            bytes: ck.to_bytes().len() as u64,
        });
        Ok(ck)
    }

    /// Restore state captured by [`Engine::checkpoint`] into this engine.
    ///
    /// The engine must be structurally identical to the one that was
    /// checkpointed — same streams, same tables, and the same queries
    /// registered in the same order (they are matched by name and
    /// position). Structural mismatches are typed checkpoint errors, not
    /// silent partial restores.
    pub fn restore(&mut self, ck: &EngineCheckpoint) -> Result<()> {
        // The dictionary restores FIRST: operator restore re-encodes
        // state keys through the shared codec, and the pre-seeded
        // dictionary makes those keys land on the symbols the capturing
        // engine assigned (journal replay then re-interns the replayed
        // suffix onto the ids that follow).
        self.interner.restore_dictionary(&ck.dict)?;
        for node in ck.root.item(0)?.as_list()? {
            let name = node.item(0)?.as_str()?;
            let entry = self.streams.get_mut(name).ok_or_else(|| {
                DsmsError::ckpt(format!("checkpoint references unknown stream `{name}`"))
            })?;
            entry.last_ts = node.item(1)?.as_ts()?;
            entry.pushed = node.item(2)?.as_u64()?;
            let cur = entry.pushed_ctr.get();
            if entry.pushed > cur {
                entry.pushed_ctr.add(entry.pushed - cur);
            }
            match (node.item(3)?, entry.reorder.as_mut()) {
                (StateNode::Unit, None) => {}
                (StateNode::Unit, Some(r)) => {
                    r.max_seen = Timestamp::ZERO;
                    r.pending.clear();
                }
                (saved, Some(r)) => {
                    r.max_seen = saved.item(0)?.as_ts()?;
                    r.pending.clear();
                    for tn in saved.item(1)?.as_list()? {
                        let t = tn.as_tuple()?.clone();
                        r.pending.insert((t.ts(), t.seq()), t);
                    }
                }
                (_, None) => {
                    return Err(DsmsError::ckpt(format!(
                        "stream `{name}` has no disorder buffer but the checkpoint does"
                    )))
                }
            }
        }
        let queries = ck.root.item(1)?.as_list()?;
        if queries.len() != self.queries.len() {
            return Err(DsmsError::ckpt(format!(
                "engine has {} queries, checkpoint has {}",
                self.queries.len(),
                queries.len()
            )));
        }
        for (q, node) in self.queries.iter_mut().zip(queries) {
            let name = node.item(0)?.as_str()?;
            if name != q.name {
                return Err(DsmsError::ckpt(format!(
                    "query `{}` does not match checkpointed query `{name}`",
                    q.name
                )));
            }
            q.active = node.item(1)?.as_bool()?;
            q.emitted = node.item(2)?.as_u64()?;
            q.op.restore_state(node.item(3)?)?;
        }
        for node in ck.root.item(2)?.as_list()? {
            let name = node.item(0)?.as_str()?;
            let table = self.tables.get(name).ok_or_else(|| {
                DsmsError::ckpt(format!("checkpoint references unknown table `{name}`"))
            })?;
            table.restore_state(node.item(1)?)?;
        }
        for node in ck.root.item(3)?.as_list()? {
            let name = node.item(0)?.as_str()?;
            let saved = node.item(1)?.as_list()?;
            let mats = self.materialized.get(name).ok_or_else(|| {
                DsmsError::ckpt(format!(
                    "checkpoint references unknown materialized stream `{name}`"
                ))
            })?;
            if saved.len() != mats.len() {
                return Err(DsmsError::ckpt(format!(
                    "stream `{name}` has {} materialized windows, checkpoint has {}",
                    mats.len(),
                    saved.len()
                )));
            }
            for (m, s) in mats.iter().zip(saved) {
                m.restore_state(s)?;
            }
        }
        // Shared-chain section (checkpoint v3). Root layouts from v2
        // engines have no fifth element; that is only acceptable when
        // this engine has no shared chains to restore.
        match ck.root.item(4) {
            Err(_) => {
                if !self.shared.is_empty() {
                    return Err(DsmsError::ckpt(format!(
                        "engine has {} shared chains but the checkpoint \
                         (pre-v3 layout) has no shared-chain section",
                        self.shared.len()
                    )));
                }
            }
            Ok(section) => {
                let chains = section.as_list()?;
                if chains.len() != self.shared.len() {
                    return Err(DsmsError::ckpt(format!(
                        "engine has {} shared chains, checkpoint has {}",
                        self.shared.len(),
                        chains.len()
                    )));
                }
                for (e, node) in self.shared.iter().zip(chains) {
                    let label = node.item(0)?.as_str()?;
                    if label != e.label {
                        return Err(DsmsError::ckpt(format!(
                            "shared chain `{}` does not match checkpointed chain `{label}`",
                            e.label
                        )));
                    }
                    let fp = node.item(1)?.as_u64()?;
                    if fp != e.fingerprint {
                        return Err(DsmsError::ckpt(format!(
                            "shared chain `{}` fingerprint mismatch: \
                             engine 0x{:016x}, checkpoint 0x{fp:016x}",
                            e.label, e.fingerprint
                        )));
                    }
                    let mut core = e.core.lock();
                    let saved_subs = node.item(3)?.as_list()?;
                    if saved_subs.len() != core.subscribers.len() {
                        return Err(DsmsError::ckpt(format!(
                            "shared chain `{}` has {} subscribers, checkpoint has {}",
                            e.label,
                            core.subscribers.len(),
                            saved_subs.len()
                        )));
                    }
                    for (have, saved) in core.subscribers.iter().zip(saved_subs) {
                        if saved.as_str()? != have {
                            return Err(DsmsError::ckpt(format!(
                                "shared chain `{}` subscriber `{have}` does not match \
                                 checkpointed subscriber `{}`",
                                e.label,
                                saved.as_str()?
                            )));
                        }
                    }
                    core.tuples_in = node.item(2)?.as_u64()?;
                    core.op.restore_state(node.item(4)?)?;
                    core.reset_memo();
                }
            }
        }
        // Dead-letter section (checkpoint v4); absent in pre-v4 layouts,
        // which simply leave the buffer as-is.
        if let Ok(section) = ck.root.item(5) {
            self.dead_letters.clear();
            for node in section.as_list()? {
                let mut values = Vec::new();
                for v in node.item(1)?.as_list()? {
                    values.push(v.as_value()?.clone());
                }
                self.dead_letters.push_back(DeadLetter {
                    stream: node.item(0)?.as_str()?.to_string(),
                    values,
                    reason: match node.item(2)?.as_u64()? {
                        0 => RejectReason::Malformed,
                        1 => RejectReason::Late,
                        other => {
                            return Err(DsmsError::ckpt(format!(
                                "unknown dead-letter reason tag {other}"
                            )))
                        }
                    },
                    error: node.item(3)?.as_str()?.to_string(),
                });
            }
        }
        self.next_seq = ck.next_seq;
        self.now = ck.now;
        Ok(())
    }
}

/// One row of [`Engine::stream_stats`].
#[derive(Debug, Clone)]
pub struct StreamInfo {
    /// Stream name (lowercased registry key).
    pub name: String,
    /// Tuples that entered the stream (pushed or derived).
    pub pushed: u64,
    /// Newest delivered event time.
    pub last_ts: Timestamp,
    /// Tuples waiting in the disorder buffer.
    pub buffered: usize,
    /// Disorder tolerance, when enabled.
    pub disorder_slack: Option<crate::time::Duration>,
    /// Watermark lag in milliseconds: newest event time seen minus the
    /// stream's low watermark (newest delivered event time).
    pub lag_ms: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ops::{Chain, Dedup, Project, Select};
    use crate::schema::Schema;
    use crate::time::Duration;
    use crate::value::ValueType;

    fn engine_with_readings() -> Engine {
        let mut e = Engine::new();
        e.create_stream(Schema::readings("readings")).unwrap();
        e.create_stream(Schema::readings("cleaned_readings"))
            .unwrap();
        e
    }

    fn reading(secs: u64, reader: &str, tag: &str) -> Vec<Value> {
        vec![
            Value::str(reader),
            Value::str(tag),
            Value::Ts(Timestamp::from_secs(secs)),
        ]
    }

    #[test]
    fn example1_dedup_cascades_to_derived_stream() {
        // readings -> dedup -> cleaned_readings -> collector.
        let mut e = engine_with_readings();
        let dedup = Dedup::new(vec![Expr::col(0), Expr::col(1)], Duration::from_secs(1));
        e.register_query(
            "dedup",
            vec!["readings"],
            Box::new(dedup),
            Sink::Stream("cleaned_readings".into()),
        )
        .unwrap();
        let ident = Chain::new(vec![Box::new(Select::new(Expr::lit(true)))]);
        let (_, out) = e
            .register_collected("consume", vec!["cleaned_readings"], Box::new(ident))
            .unwrap();

        e.push("readings", reading(0, "r1", "t1")).unwrap();
        e.push("readings", reading(0, "r1", "t1")).unwrap(); // dup
        e.push("readings", reading(5, "r1", "t1")).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(e.stream_pushed("cleaned_readings").unwrap(), 2);
        assert_eq!(e.stream_pushed("readings").unwrap(), 3);
    }

    #[test]
    fn push_validates_schema_and_order() {
        let mut e = engine_with_readings();
        assert!(e.push("readings", vec![Value::Int(1)]).is_err());
        e.push("readings", reading(10, "r", "t")).unwrap();
        let err = e.push("readings", reading(5, "r", "t")).unwrap_err();
        assert!(matches!(err, DsmsError::OutOfOrder(_)));
        assert!(e.push("nope", reading(1, "r", "t")).is_err());
    }

    #[test]
    fn register_query_validates_wiring() {
        let mut e = engine_with_readings();
        let op = Select::new(Expr::lit(true));
        assert!(e
            .register_query("q", vec!["missing"], Box::new(op), Sink::Discard)
            .is_err());
        let op = Select::new(Expr::lit(true));
        assert!(e
            .register_query(
                "q",
                vec!["readings"],
                Box::new(op),
                Sink::Stream("missing".into())
            )
            .is_err());
        let op = crate::ops::BinaryJoin::new(Duration::from_secs(1), Expr::lit(true));
        assert!(e
            .register_query("q", vec!["readings"], Box::new(op), Sink::Discard)
            .is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut e = engine_with_readings();
        assert!(e.create_stream(Schema::readings("readings")).is_err());
        let tbl = Arc::new(Schema::new("readings", vec![("x", ValueType::Int)], None).unwrap());
        assert!(e.create_table(tbl).is_err());
    }

    #[test]
    fn table_sink_inserts() {
        let mut e = engine_with_readings();
        let tbl_schema = Arc::new(
            Schema::new(
                "log",
                vec![
                    ("reader_id", ValueType::Str),
                    ("tag_id", ValueType::Str),
                    ("read_time", ValueType::Ts),
                ],
                None,
            )
            .unwrap(),
        );
        let tbl = e.create_table(tbl_schema).unwrap();
        e.register_query(
            "persist",
            vec!["readings"],
            Box::new(Select::new(Expr::lit(true))),
            Sink::Table("log".into()),
        )
        .unwrap();
        e.push("readings", reading(1, "r", "t")).unwrap();
        assert_eq!(tbl.len(), 1);
    }

    #[test]
    fn auto_watermark_drives_punctuation() {
        // An aggregate with punctuation emission reports as time passes.
        use crate::ops::{AggSpec, Emission, WindowAggregate};
        let mut e = engine_with_readings();
        let agg = WindowAggregate::new(
            vec![],
            vec![AggSpec {
                agg: e.aggregates().get("count").unwrap(),
                arg: Expr::col(1),
            }],
            None,
            Emission::OnPunctuation,
        );
        let (_, out) = e
            .register_collected("counts", vec!["readings"], Box::new(agg))
            .unwrap();
        e.push("readings", reading(1, "r", "a")).unwrap();
        e.push("readings", reading(2, "r", "b")).unwrap();
        // The watermark accompanying the t=2 arrival fires BEFORE that
        // tuple is delivered, so the report at t=2 counts only the first.
        let col = out.take();
        assert!(!col.is_empty());
        assert_eq!(col.last().unwrap().value(0), &Value::Int(1));
    }

    #[test]
    fn deregister_stops_delivery_and_stats_survive() {
        let mut e = engine_with_readings();
        let (id, out) = e
            .register_collected(
                "all",
                vec!["readings"],
                Box::new(Select::new(Expr::lit(true))),
            )
            .unwrap();
        e.push("readings", reading(1, "r", "a")).unwrap();
        assert!(e.is_active(id));
        e.deregister_query(id);
        e.push("readings", reading(2, "r", "b")).unwrap();
        assert_eq!(out.len(), 1, "no delivery after deregistration");
        assert!(!e.is_active(id));
        let stats = e.query_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].name, "all");
        assert_eq!(stats[0].emitted, 1);
        assert!(!stats[0].active);
        // Idempotent.
        e.deregister_query(id);
    }

    #[test]
    fn advance_to_is_monotone() {
        let mut e = engine_with_readings();
        e.advance_to(Timestamp::from_secs(10)).unwrap();
        assert_eq!(e.now(), Timestamp::from_secs(10));
        e.advance_to(Timestamp::from_secs(5)).unwrap();
        assert_eq!(e.now(), Timestamp::from_secs(10));
    }

    #[test]
    fn projection_chain_and_stats() {
        let mut e = engine_with_readings();
        let chain = Chain::new(vec![
            Box::new(Select::new(Expr::eq(Expr::col(0), Expr::lit("r1")))),
            Box::new(Project::new(vec![Expr::col(1), Expr::col(2)])),
        ]);
        let (id, out) = e
            .register_collected("proj", vec!["readings"], Box::new(chain))
            .unwrap();
        e.push("readings", reading(1, "r1", "t1")).unwrap();
        e.push("readings", reading(2, "r2", "t2")).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(e.emitted(id), 1);
        assert_eq!(e.query_name(id), "proj");
        assert_eq!(out.take()[0].arity(), 2);
    }

    #[test]
    fn tracing_and_latency_sampling() {
        use crate::trace::TraceKind;
        let mut e = engine_with_readings();
        let (_, _out) = e
            .register_collected(
                "all",
                vec!["readings"],
                Box::new(Select::new(Expr::lit(true))),
            )
            .unwrap();
        assert!(!e.tracing(), "tracing is off by default");
        e.set_tracing(true);
        for i in 0..130u64 {
            e.push("readings", reading(i, "r", "t")).unwrap();
        }
        let events = e.take_trace();
        assert!(events
            .iter()
            .any(|ev| matches!(ev.kind, TraceKind::TupleAdmitted { .. })));
        assert!(events
            .iter()
            .any(|ev| matches!(ev.kind, TraceKind::Stage { .. })));
        assert!(events
            .iter()
            .any(|ev| matches!(ev.kind, TraceKind::WatermarkAdvance { .. })));
        assert!(events
            .iter()
            .any(|ev| matches!(ev.kind, TraceKind::TupleEmitted { .. })));
        assert!(e.take_trace().is_empty(), "drained");
        let snap = e.metrics_snapshot();
        // Seqs 0, 64 and 128 were latency-sampled.
        let lat = snap.histogram("eslev_tuple_latency_ns", &[]).unwrap();
        assert!(lat.count >= 3, "latency samples: {}", lat.count);
        assert!(snap.gauge("eslev_tuple_latency_ns_p50", &[]).is_some());
        assert!(snap.gauge("eslev_tuple_latency_ns_p99", &[]).is_some());
        assert_eq!(
            snap.gauge("eslev_watermark_lag_ms", &[("stream", "readings")]),
            Some(0),
            "ordered stream has no lag"
        );
    }

    #[test]
    fn push_batch_discards_unanswered_latency_stamp() {
        // Only reader `r2` passes: the first batch is dropped whole.
        let mut e = engine_with_readings();
        let (_, out) = e
            .register_collected(
                "r2_only",
                vec!["readings"],
                Box::new(Select::new(Expr::eq(Expr::col(0), Expr::lit("r2")))),
            )
            .unwrap();
        // Seqs 0..9; seq 0 is latency-sampled but emits nothing.
        e.push_batch((0..10u64).map(|i| ("readings".to_string(), reading(i, "r1", "t"))))
            .unwrap();
        assert!(out.is_empty());
        // Seq 10 is unsampled and emits: it must not close seq 0's stamp.
        e.push("readings", reading(10, "r2", "t")).unwrap();
        assert_eq!(out.len(), 1);
        let snap = e.metrics_snapshot();
        let lat = snap.histogram("eslev_tuple_latency_ns", &[]).unwrap();
        assert_eq!(lat.count, 0, "stale stamp recorded a latency sample");
    }

    #[test]
    fn watermark_lag_reflects_disorder_buffer() {
        let mut e = engine_with_readings();
        e.set_disorder_tolerance("readings", crate::time::Duration::from_secs(100))
            .unwrap();
        e.push("readings", reading(50, "r", "a")).unwrap();
        // Seen t=50s, delivered nothing: the stream lags 50 s.
        let info = e
            .stream_stats()
            .into_iter()
            .find(|s| s.name == "readings")
            .unwrap();
        assert_eq!(info.lag_ms, 50_000);
        assert_eq!(
            e.metrics_snapshot()
                .gauge("eslev_watermark_lag_ms", &[("stream", "readings")]),
            Some(50_000)
        );
        e.flush_disorder().unwrap();
        let info = e
            .stream_stats()
            .into_iter()
            .find(|s| s.name == "readings")
            .unwrap();
        assert_eq!(info.lag_ms, 0, "flush catches the watermark up");
    }

    #[test]
    fn metrics_survive_deregistration() {
        let mut e = engine_with_readings();
        let (id, _out) = e
            .register_collected(
                "all",
                vec!["readings"],
                Box::new(Select::new(Expr::lit(true))),
            )
            .unwrap();
        e.push("readings", reading(1, "r", "a")).unwrap();
        e.push("readings", reading(2, "r", "b")).unwrap();
        let before = e.metrics_snapshot();
        assert_eq!(
            before.counter("eslev_query_tuples_in_total", &[("query", "all")]),
            Some(2)
        );
        e.deregister_query(id);
        // Pushes after deregistration must not advance the query's
        // counters — but must not erase them either.
        e.push("readings", reading(3, "r", "c")).unwrap();
        let after = e.metrics_snapshot();
        assert_eq!(
            after.counter("eslev_query_tuples_in_total", &[("query", "all")]),
            Some(2),
            "deregistered query keeps its accumulated counters"
        );
        assert_eq!(
            after.counter("eslev_query_tuples_out_total", &[("query", "all")]),
            Some(2)
        );
        assert_eq!(
            after.counter("eslev_stream_pushed_total", &[("stream", "readings")]),
            Some(3)
        );
        let stats = e.query_stats();
        assert!(!stats[0].active);
        assert_eq!(stats[0].tuples_in, 2);
        assert_eq!(stats[0].tuples_out, 2);
    }
}

#[cfg(test)]
mod ckpt_tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ops::{Dedup, Select};
    use crate::schema::Schema;
    use crate::time::Duration;
    use crate::value::ValueType;

    fn reading(secs: u64, reader: &str, tag: &str) -> Vec<Value> {
        vec![
            Value::str(reader),
            Value::str(tag),
            Value::Ts(Timestamp::from_secs(secs)),
        ]
    }

    /// A cascading pipeline with dedup state, a table sink and a
    /// materialized window — the structural template both the original
    /// and the recovered engine are built from.
    fn build() -> (Engine, Collector, TableRef, SnapshotRef) {
        let mut e = Engine::new();
        e.create_stream(Schema::readings("readings")).unwrap();
        e.create_stream(Schema::readings("cleaned_readings"))
            .unwrap();
        let log_schema = Arc::new(
            Schema::new(
                "log",
                vec![
                    ("reader_id", ValueType::Str),
                    ("tag_id", ValueType::Str),
                    ("read_time", ValueType::Ts),
                ],
                None,
            )
            .unwrap(),
        );
        let tbl = e.create_table(log_schema).unwrap();
        let m = e
            .materialize("readings", WindowExtent::Preceding(Duration::from_secs(30)))
            .unwrap();
        let dedup = Dedup::new(vec![Expr::col(0), Expr::col(1)], Duration::from_secs(5));
        e.register_query(
            "dedup",
            vec!["readings"],
            Box::new(dedup),
            Sink::Stream("cleaned_readings".into()),
        )
        .unwrap();
        let (_, out) = e
            .register_collected(
                "consume",
                vec!["cleaned_readings"],
                Box::new(Select::new(Expr::lit(true))),
            )
            .unwrap();
        e.register_query(
            "persist",
            vec!["cleaned_readings"],
            Box::new(Select::new(Expr::lit(true))),
            Sink::Table("log".into()),
        )
        .unwrap();
        (e, out, tbl, m)
    }

    fn feed() -> Vec<Vec<Value>> {
        vec![
            reading(0, "r1", "t1"),
            reading(1, "r1", "t2"),
            reading(2, "r1", "t1"), // dup of t1 within 5s — needs dedup state
            reading(3, "r2", "t3"),
            reading(7, "r1", "t1"), // past the 5s horizon — passes again
            reading(8, "r1", "t2"),
        ]
    }

    #[test]
    fn checkpoint_restore_resumes_exactly() {
        let (mut reference, ref_out, ref_tbl, ref_m) = build();
        for row in feed() {
            reference.push("readings", row).unwrap();
        }

        let (mut first, out1, _, _) = build();
        for row in feed().drain(..3) {
            first.push("readings", row).unwrap();
        }
        // Serialize through bytes so the whole codec path is exercised.
        let bytes = first.checkpoint().unwrap().to_bytes();
        let ck = EngineCheckpoint::from_bytes(&bytes).unwrap();
        let (mut resumed, out2, tbl2, m2) = build();
        resumed.restore(&ck).unwrap();
        drop(first);
        for row in feed().drain(3..) {
            resumed.push("readings", row).unwrap();
        }

        let mut got = out1.take();
        got.extend(out2.take());
        let want = ref_out.take();
        assert_eq!(
            got.iter()
                .map(|t| (t.values().to_vec(), t.ts()))
                .collect::<Vec<_>>(),
            want.iter()
                .map(|t| (t.values().to_vec(), t.ts()))
                .collect::<Vec<_>>(),
        );
        assert_eq!(resumed.now(), reference.now());
        assert_eq!(
            resumed.stream_pushed("cleaned_readings").unwrap(),
            reference.stream_pushed("cleaned_readings").unwrap()
        );
        assert_eq!(tbl2.len(), ref_tbl.len());
        assert_eq!(
            m2.snapshot().iter().map(Tuple::ts).collect::<Vec<_>>(),
            ref_m.snapshot().iter().map(Tuple::ts).collect::<Vec<_>>(),
        );
        let stats_ref = reference.query_stats();
        let stats_res = resumed.query_stats();
        for (a, b) in stats_ref.iter().zip(&stats_res) {
            assert_eq!(a.emitted, b.emitted, "query `{}`", a.name);
            assert_eq!(a.retained, b.retained, "query `{}`", a.name);
        }
    }

    #[test]
    fn checkpoint_preserves_disorder_buffer() {
        let build = || {
            let mut e = Engine::new();
            e.create_stream(Schema::readings("readings")).unwrap();
            e.set_disorder_tolerance("readings", Duration::from_secs(10))
                .unwrap();
            let (_, out) = e
                .register_collected(
                    "all",
                    vec!["readings"],
                    Box::new(Select::new(Expr::lit(true))),
                )
                .unwrap();
            (e, out)
        };
        let (mut first, out1) = build();
        first.push("readings", reading(100, "r", "a")).unwrap();
        first.push("readings", reading(95, "r", "b")).unwrap();
        let ck = first.checkpoint().unwrap();
        let (mut resumed, out2) = build();
        resumed.restore(&ck).unwrap();
        // Buffered arrivals survive: the flush releases them in order.
        resumed.flush_disorder().unwrap();
        let tags: Vec<String> = out1
            .take()
            .into_iter()
            .chain(out2.take())
            .map(|t| t.value(1).as_str().unwrap().to_string())
            .collect();
        assert_eq!(tags, vec!["b", "a"]);
    }

    #[test]
    fn restore_rejects_structural_mismatch() {
        let (first, _, _, _) = build();
        let ck = first.checkpoint().unwrap();
        // Missing queries.
        let mut bare = Engine::new();
        bare.create_stream(Schema::readings("readings")).unwrap();
        bare.create_stream(Schema::readings("cleaned_readings"))
            .unwrap();
        let err = bare.restore(&ck).unwrap_err();
        assert!(err.to_string().contains("queries"), "{err}");
        // Same shape, different query name.
        let mut renamed = Engine::new();
        renamed.create_stream(Schema::readings("readings")).unwrap();
        let ck_small = renamed.checkpoint().unwrap();
        let mut other = Engine::new();
        other.create_stream(Schema::readings("other")).unwrap();
        let err = other.restore(&ck_small).unwrap_err();
        assert!(err.to_string().contains("unknown stream"), "{err}");
    }

    #[test]
    fn malformed_pushes_dead_letter_and_count() {
        let mut e = Engine::new();
        e.create_stream(Schema::readings("readings")).unwrap();
        let err = e.push("readings", vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, DsmsError::TupleShape(_)));
        assert_eq!(e.rejected_tuples(), 1);
        let dl: Vec<&DeadLetter> = e.dead_letters().collect();
        assert_eq!(dl.len(), 1);
        assert_eq!(dl[0].stream, "readings");
        assert_eq!(dl[0].values, vec![Value::Int(1)]);
        assert!(dl[0].error.contains("columns"), "{}", dl[0].error);
        assert_eq!(
            e.metrics_snapshot()
                .counter("eslev_rejected_tuples_total", &[]),
            Some(1)
        );
        // Valid traffic still flows after a rejection.
        e.push(
            "readings",
            vec![
                Value::str("r"),
                Value::str("t"),
                Value::Ts(Timestamp::from_secs(1)),
            ],
        )
        .unwrap();
        assert_eq!(e.stream_pushed("readings").unwrap(), 1);
    }

    #[test]
    fn dead_letter_buffer_is_bounded() {
        let mut e = Engine::new();
        e.create_stream(Schema::readings("readings")).unwrap();
        for i in 0..300i64 {
            let _ = e.push("readings", vec![Value::Int(i)]);
        }
        assert_eq!(e.rejected_tuples(), 300);
        assert_eq!(e.dead_letters().count(), DEAD_LETTER_CAP);
        // Oldest dropped first: the survivor window is 44..300.
        assert_eq!(
            e.dead_letters().next().unwrap().values,
            vec![Value::Int(44)]
        );
        let drained = e.take_dead_letters();
        assert_eq!(drained.len(), DEAD_LETTER_CAP);
        assert_eq!(e.dead_letters().count(), 0);
    }
}

#[cfg(test)]
mod disorder_tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ops::Select;
    use crate::schema::Schema;
    use crate::time::Duration;

    fn reading(ms: u64, tag: &str) -> Vec<Value> {
        vec![
            Value::str("r"),
            Value::str(tag),
            Value::Ts(Timestamp::from_millis(ms)),
        ]
    }

    fn engine_with_collector() -> (Engine, crate::engine::Collector) {
        let mut e = Engine::new();
        e.create_stream(Schema::readings("readings")).unwrap();
        let (_, c) = e
            .register_collected(
                "all",
                vec!["readings"],
                Box::new(Select::new(Expr::lit(true))),
            )
            .unwrap();
        (e, c)
    }

    #[test]
    fn jittered_arrivals_are_reordered() {
        let (mut e, out) = engine_with_collector();
        e.set_disorder_tolerance("readings", Duration::from_millis(100))
            .unwrap();
        // Arrivals out of order by < 100 ms.
        for (ms, tag) in [(50u64, "a"), (20, "b"), (70, "c"), (60, "d"), (400, "e")] {
            e.push("readings", reading(ms, tag)).unwrap();
        }
        e.flush_disorder().unwrap();
        let tags: Vec<String> = out
            .take()
            .iter()
            .map(|t| t.value(1).as_str().unwrap().to_string())
            .collect();
        assert_eq!(tags, vec!["b", "a", "d", "c", "e"]);
    }

    #[test]
    fn matches_in_order_run_exactly() {
        // Shuffled feed through the buffer == sorted feed without it.
        let base: Vec<(u64, String)> = (0..200u64)
            .map(|i| (i * 10 + (i * 7919) % 9, format!("t{i}")))
            .collect();
        let mut shuffled = base.clone();
        // Deterministic local shuffle with displacement < 5 positions
        // (< 50 ms of time).
        for i in (1..shuffled.len()).step_by(2) {
            shuffled.swap(i - 1, i);
        }
        let run = |feed: &[(u64, String)], tolerant: bool| -> Vec<u64> {
            let (mut e, out) = engine_with_collector();
            if tolerant {
                e.set_disorder_tolerance("readings", Duration::from_millis(200))
                    .unwrap();
            }
            for (ms, tag) in feed {
                e.push("readings", reading(*ms, tag)).unwrap();
            }
            e.flush_disorder().unwrap();
            out.take().iter().map(|t| t.ts().as_micros()).collect()
        };
        let mut sorted = base.clone();
        sorted.sort();
        assert_eq!(run(&shuffled, true), run(&sorted, false));
    }

    #[test]
    fn beyond_slack_is_rejected() {
        let (mut e, _) = engine_with_collector();
        e.set_disorder_tolerance("readings", Duration::from_millis(100))
            .unwrap();
        e.push("readings", reading(1000, "a")).unwrap();
        // 1000 - 100 = 900 released nothing yet; push at 2000 releases "a"
        // (bound 1900).
        e.push("readings", reading(2000, "b")).unwrap();
        assert_eq!(e.stream_pushed("readings").unwrap(), 1);
        // A tuple before the last delivered (1000) can no longer fit: it
        // is counted and dead-lettered, not applied and not an error.
        e.push("readings", reading(500, "late")).unwrap();
        assert_eq!(e.stream_pushed("readings").unwrap(), 1);
        assert_eq!(e.late_tuples(), 1);
        let dead: Vec<&DeadLetter> = e.dead_letters().collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].reason, RejectReason::Late);
        assert_eq!(dead[0].stream, "readings");
        // Malformed arrivals keep their own reason tag and counter.
        assert!(e.push("readings", vec![Value::Int(1)]).is_err());
        assert_eq!(e.rejected_tuples(), 1);
        let dead: Vec<&DeadLetter> = e.dead_letters().collect();
        assert_eq!(dead.len(), 2);
        assert_eq!(dead[1].reason, RejectReason::Malformed);
    }

    #[test]
    fn watermarks_follow_released_time_only() {
        let (mut e, _) = engine_with_collector();
        e.set_disorder_tolerance("readings", Duration::from_millis(100))
            .unwrap();
        e.push("readings", reading(1000, "a")).unwrap();
        // Nothing released yet → stream time has not advanced to 1000.
        assert!(e.now() < Timestamp::from_millis(1000));
        e.push("readings", reading(2000, "b")).unwrap();
        assert_eq!(e.now(), Timestamp::from_millis(1000));
        e.flush_disorder().unwrap();
        assert_eq!(e.now(), Timestamp::from_millis(2000));
    }

    /// Apply retractions to a signed emission log, returning the
    /// surviving rows in canonical order.
    fn reconcile(tuples: Vec<Tuple>) -> Vec<(Vec<Value>, Timestamp)> {
        let mut live: Vec<Tuple> = Vec::new();
        for t in tuples {
            if t.is_retraction() {
                let pos = live
                    .iter()
                    .rposition(|p| {
                        p.values() == t.values() && p.ts() == t.ts() && p.seq() == t.seq()
                    })
                    .expect("retraction matches a prior emission");
                live.remove(pos);
            } else {
                live.push(t);
            }
        }
        live.into_iter()
            .map(|t| (t.values().to_vec(), t.ts()))
            .collect()
    }

    #[test]
    fn fast_reconciles_to_consistent_output() {
        let feed = [
            (50u64, "a"),
            (20, "b"),
            (70, "c"),
            (60, "d"),
            (400, "e"),
            (350, "f"),
            (500, "g"),
        ];
        let run = |consistency: Consistency| -> Vec<Tuple> {
            let mut e = Engine::new();
            e.create_stream(Schema::readings("readings")).unwrap();
            let (_, c) = e
                .register_collected_with(
                    "q",
                    vec!["readings"],
                    Box::new(Select::new(Expr::lit(true))),
                    consistency,
                )
                .unwrap();
            e.set_disorder_tolerance("readings", Duration::from_millis(200))
                .unwrap();
            for (ms, tag) in feed {
                e.push("readings", reading(ms, tag)).unwrap();
            }
            e.flush_disorder().unwrap();
            c.take()
        };
        let consistent = run(Consistency::Consistent);
        assert!(consistent.iter().all(|t| !t.is_retraction()));
        let fast = run(Consistency::Fast);
        // The misordered arrivals force at least one speculative
        // emission to be withdrawn.
        assert!(fast.iter().any(|t| t.is_retraction()));
        assert!(fast.len() > consistent.len());
        let expected: Vec<(Vec<Value>, Timestamp)> = consistent
            .iter()
            .map(|t| (t.values().to_vec(), t.ts()))
            .collect();
        assert_eq!(reconcile(fast), expected);
    }

    #[test]
    fn fast_cannot_feed_derived_stream() {
        let mut e = Engine::new();
        e.create_stream(Schema::readings("readings")).unwrap();
        e.create_stream(Schema::readings("derived")).unwrap();
        let err = e
            .register_query_with(
                "q",
                vec!["readings"],
                Box::new(Select::new(Expr::lit(true))),
                Sink::Stream("derived".into()),
                Consistency::Fast,
            )
            .unwrap_err();
        assert!(err.to_string().contains("retraction"));
    }

    #[test]
    fn stale_watermark_is_rejected_and_counted() {
        let (mut e, _) = engine_with_collector();
        e.advance_watermark(Timestamp::from_millis(100)).unwrap();
        let err = e.advance_watermark(Timestamp::from_millis(50)).unwrap_err();
        assert!(matches!(err, DsmsError::StaleWatermark(_)));
        assert_eq!(e.stale_watermarks(), 1);
        // Equal re-announcement is a harmless no-op, not a regression.
        e.advance_watermark(Timestamp::from_millis(100)).unwrap();
        assert_eq!(e.now(), Timestamp::from_millis(100));
        // The lenient internal path still swallows earlier times.
        e.advance_to(Timestamp::from_millis(10)).unwrap();
        assert_eq!(e.stale_watermarks(), 1);
    }

    #[test]
    fn checkpoint_round_trips_dead_letters() {
        let (mut e, _) = engine_with_collector();
        e.set_disorder_tolerance("readings", Duration::from_millis(100))
            .unwrap();
        e.push("readings", reading(1000, "a")).unwrap();
        e.push("readings", reading(2000, "b")).unwrap();
        e.push("readings", reading(500, "late")).unwrap();
        let _ = e.push("readings", vec![Value::Int(1)]);
        let bytes = e.checkpoint().unwrap().to_bytes();
        let ck = crate::ckpt::EngineCheckpoint::from_bytes(&bytes).unwrap();
        let (mut f, _) = engine_with_collector();
        f.set_disorder_tolerance("readings", Duration::from_millis(100))
            .unwrap();
        f.restore(&ck).unwrap();
        let dead: Vec<&DeadLetter> = f.dead_letters().collect();
        assert_eq!(dead.len(), 2);
        assert_eq!(dead[0].reason, RejectReason::Late);
        assert_eq!(dead[1].reason, RejectReason::Malformed);
        assert_eq!(dead[1].values, vec![Value::Int(1)]);
    }
}
