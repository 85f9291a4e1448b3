//! The seven workloads and how one *pass* of each drives the engine:
//! fresh engine, parse + plan, then the feed phase from the first push to
//! the last output drained. Everything goes through the layers' public
//! API; spans are recorded here, around those calls.

use crate::alloc;
use crate::clock::Stopwatch;
use crate::feeds::{Row, DISORDER};
use crate::spans::Tracer;
use eslev_dsms::prelude::*;
use eslev_lang::prelude::*;
use std::time::{Duration as Wall, Instant};

/// `push` calls per span and per drain in the tuple-at-a-time workloads.
pub const CHUNK: usize = 1024;
/// Rows per `push_batch` call in the batch and closed-loop shard workloads.
pub const BATCH: usize = 64;
/// Worker shards. A constant, never derived from the machine's core count.
pub const SHARDS: usize = 2;
/// Capacity of each shard's command channel.
pub const QUEUE: usize = 1024;
/// Paced workload: length of one tick of the schedule.
pub const TICK: Wall = Wall::from_millis(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    E1Tuple,
    E1Batch64,
    E1Disorder,
    E1Shard2,
    E1Shard2Paced,
    E6SeqRecent,
    E10Star,
}

const E1_DDL: &str = "
    CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);
    CREATE STREAM cleaned_readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);
    INSERT INTO cleaned_readings
    SELECT * FROM readings AS r1
    WHERE NOT EXISTS
      (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
       WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id);";
const E1_QUERY: &str = "SELECT * FROM cleaned_readings";

const E6_DDL: &str = "
    CREATE STREAM C1 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
    CREATE STREAM C2 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
    CREATE STREAM C3 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
    CREATE STREAM C4 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);";
const E6_QUERY: &str = "
    SELECT C1.tagid, C4.tagtime FROM C1, C2, C3, C4
    WHERE SEQ(C1, C2, C3, C4) OVER [2 MINUTES PRECEDING C4] MODE RECENT
      AND C1.tagid = C2.tagid AND C1.tagid = C3.tagid AND C1.tagid = C4.tagid";

const E10_DDL: &str = "
    CREATE STREAM R1 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
    CREATE STREAM R2 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);";
const E10_QUERY: &str = "
    SELECT COUNT(R1*), R2.tagid FROM R1, R2
    WHERE SEQ(R1*, R2) MODE CHRONICLE AND R1.tagid = R2.tagid";

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::E1Tuple,
        Workload::E1Batch64,
        Workload::E1Disorder,
        Workload::E1Shard2,
        Workload::E1Shard2Paced,
        Workload::E6SeqRecent,
        Workload::E10Star,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::E1Tuple => "e1_tuple",
            Workload::E1Batch64 => "e1_batch64",
            Workload::E1Disorder => "e1_disorder",
            Workload::E1Shard2 => "e1_shard2",
            Workload::E1Shard2Paced => "e1_shard2_paced",
            Workload::E6SeqRecent => "e6_seq_recent",
            Workload::E10Star => "e10_star",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(DDL script, the collected query)`.
    pub fn script(self) -> (&'static str, &'static str) {
        match self {
            Workload::E6SeqRecent => (E6_DDL, E6_QUERY),
            Workload::E10Star => (E10_DDL, E10_QUERY),
            _ => (E1_DDL, E1_QUERY),
        }
    }

    pub fn sharded(self) -> bool {
        matches!(self, Workload::E1Shard2 | Workload::E1Shard2Paced)
    }

    /// Open loop: fed on a schedule, whatever the engine's speed.
    pub fn paced(self) -> bool {
        self == Workload::E1Shard2Paced
    }
}

/// The feed rows of one pass, cloned from the generated feed as the pass
/// goes. A timed pass *stages* the next chunk before that chunk's clock
/// starts, so the engine is handed owned rows and cloning them is never
/// timed. The counting pass clones each row as it is handed over, so that
/// no staged chunk sits in the heap figures; the clone's allocator calls
/// are not charged to the engine.
pub struct Rows<'a> {
    src: std::slice::Iter<'a, Row>,
    staged: std::vec::IntoIter<Row>,
    counting: bool,
}

impl<'a> Rows<'a> {
    pub fn timed(rows: &'a [Row]) -> Rows<'a> {
        Rows {
            src: rows.iter(),
            staged: Vec::new().into_iter(),
            counting: false,
        }
    }

    pub fn counting(rows: &'a [Row]) -> Rows<'a> {
        Rows {
            counting: true,
            ..Rows::timed(rows)
        }
    }

    /// Make the next `n` rows ready; the iterator then yields exactly those.
    fn stage(&mut self, n: usize) {
        if !self.counting {
            let chunk: Vec<Row> = self.src.by_ref().take(n).cloned().collect();
            self.staged = chunk.into_iter();
        }
    }

    fn left(&self) -> usize {
        self.staged.len() + self.src.len()
    }
}

impl Iterator for Rows<'_> {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        if self.counting {
            self.src.next().map(|r| alloc::uncounted(|| r.clone()))
        } else {
            self.staged.next()
        }
    }
}

/// When each reading of a pass was due: the moment from which the
/// latency of its output row is counted.
pub enum Due {
    /// Closed loop: the start of the chunk of `per` readings (1 024
    /// `push` calls, or one `push_batch`) that carried the reading, and
    /// the core-clock factor its service time is reported at.
    Chunks {
        per: usize,
        starts: Vec<(Instant, f64)>,
    },
    /// Open loop: reading `i` is due at `t0 + i * period`, sent or not.
    Schedule { t0: Instant, period_ns: f64 },
}

impl Due {
    /// When reading `pos` was due, and the factor that turns the time
    /// since then into time at the reference clock (1 on a schedule,
    /// whose waits are wall-clock time).
    pub fn of(&self, pos: usize) -> (Instant, f64) {
        match self {
            Due::Chunks { per, starts } => starts[pos / per],
            Due::Schedule { t0, period_ns } => {
                (*t0 + Wall::from_nanos((pos as f64 * period_ns) as u64), 1.0)
            }
        }
    }
}

/// Where the output rows of a pass go: `(when observed, rows)`.
pub type Sink<'a> = &'a mut dyn FnMut(Instant, Vec<Tuple>);

/// What one pass did.
pub struct Pass {
    /// Parse + plan + engine/shard build. Like `feed_s` of a closed loop,
    /// at the reference core clock (see [`crate::clock`]).
    pub plan_s: f64,
    /// The feed phase: each chunk from its first push to its output
    /// drained; the clock is stopped while the next chunk is staged.
    pub feed_s: f64,
    pub readings: usize,
    /// Pushes that returned `Err`.
    pub push_errors: u64,
    /// Late or dead-lettered tuples; the feeds are built to cause none.
    pub rejected: u64,
    pub due: Due,
    /// The engine(s) as the feed left them, for the per-layer figures.
    pub engines: Vec<Engine>,
    /// Open loop only: how late each tick of the schedule ran.
    pub send_lag_ns: Vec<u64>,
    /// Sharded only: readings routed to each shard.
    pub routed: Vec<u64>,
    /// Largest `ShardedEngine::buffered` / reorder-buffer depth seen at a drain.
    pub buffered_peak: usize,
}

/// How a sharded pass is fed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Closed loop: `BATCH` rows per call, at most `CHUNK` readings in
    /// flight.
    Closed,
    /// Open loop at `rate` readings per second, one batch and one poll
    /// per [`TICK`].
    Open { rate: usize },
}

/// Parse and plan `w`'s script on `engine` and set its stream options;
/// the collector of its query.
pub fn plan(engine: &mut Engine, w: Workload) -> Result<Collector> {
    let (ddl, query) = w.script();
    execute_script(engine, ddl)?;
    let collected = execute(engine, query)?;
    if w == Workload::E1Disorder {
        engine.set_disorder_tolerance("readings", DISORDER)?;
    }
    collected
        .collector()
        .cloned()
        .ok_or_else(|| DsmsError::plan("the workload's query is a bare SELECT"))
}

/// One pass of `w` over `rows`. `pace` only matters to sharded workloads.
pub fn run_pass(
    w: Workload,
    rows: Rows<'_>,
    pace: Pace,
    tr: &mut Tracer,
    sink: Sink<'_>,
) -> Result<Pass> {
    tr.next_pass();
    let pass = tr.open("pass");
    let out = if w.sharded() {
        sharded_pass(w, rows, pace, tr, sink)
    } else {
        single_pass(w, rows, tr, sink)
    };
    tr.close(pass);
    out
}

fn single_pass(w: Workload, mut rows: Rows<'_>, tr: &mut Tracer, sink: Sink<'_>) -> Result<Pass> {
    let watch = Stopwatch::start();
    let setup = tr.open("setup");
    let mut engine = Engine::new();
    let planning = tr.open("lang.execute_script");
    let collector = plan(&mut engine, w)?;
    tr.close(planning);
    tr.close(setup);
    let plan_s = watch.elapsed().as_secs_f64();

    let batch = w == Workload::E1Batch64;
    let per = if batch { BATCH } else { CHUNK };
    let readings = rows.left();
    // The counting pass records no due times: their buffer would sit in
    // the heap figures, and nothing reads latencies from that pass.
    let mut starts = Vec::with_capacity(if rows.counting { 0 } else { readings / per + 1 });
    let mut push_errors = 0u64;
    let mut buffered_peak = 0;
    let mut busy = Wall::ZERO;
    let feed = tr.open("feed");
    while rows.left() > 0 {
        rows.stage(per);
        let watch = Stopwatch::start();
        if !rows.counting {
            starts.push((watch.start, watch.factor));
        }
        if batch {
            let s = tr.open("engine.push_batch");
            let before = rows.left();
            if engine.push_batch(rows.by_ref().take(per)).is_err() {
                push_errors += (before - rows.left()) as u64;
            }
            tr.close(s);
        } else {
            let s = tr.open("engine.push x1024");
            for (stream, values) in rows.by_ref().take(per) {
                push_errors += u64::from(engine.push(&stream, values).is_err());
            }
            tr.close(s);
        }
        let s = tr.open("collector.take");
        let out = collector.take();
        tr.close(s);
        sink(Instant::now(), out);
        busy += watch.elapsed();
        if tr.on() && w == Workload::E1Disorder {
            let depth = engine.stream_stats().iter().map(|s| s.buffered).sum();
            buffered_peak = buffered_peak.max(depth);
        }
    }
    if w == Workload::E1Disorder {
        let watch = Stopwatch::start();
        let s = tr.open("engine.flush_disorder");
        engine.flush_disorder()?;
        tr.close(s);
        sink(Instant::now(), collector.take());
        busy += watch.elapsed();
    }
    tr.close(feed);
    Ok(Pass {
        plan_s,
        feed_s: busy.as_secs_f64(),
        readings,
        push_errors,
        rejected: engine.late_tuples() + engine.rejected_tuples(),
        due: Due::Chunks { per, starts },
        engines: vec![engine],
        send_lag_ns: Vec::new(),
        routed: Vec::new(),
        buffered_peak,
    })
}

fn sharded_pass(
    w: Workload,
    mut rows: Rows<'_>,
    pace: Pace,
    tr: &mut Tracer,
    sink: Sink<'_>,
) -> Result<Pass> {
    let watch = Stopwatch::start();
    let setup = tr.open("setup");
    let building = tr.open("shard.build");
    let mut se = ShardedEngine::build(SHARDS, QUEUE, ShardSpec::new(), move |e| {
        Ok(vec![plan(e, w)?])
    })?;
    tr.close(building);
    tr.close(setup);
    let plan_s = watch.elapsed().as_secs_f64();

    let readings = rows.left();
    let mut push_errors = 0u64;
    let mut buffered_peak = 0;
    let mut send_lag_ns = Vec::new();
    let mut push = |se: &mut ShardedEngine, rows: &mut Rows<'_>, n: usize, tr: &mut Tracer| {
        let s = tr.open("shard.push_batch");
        let before = rows.left();
        if se.push_batch(rows.by_ref().take(n)).is_err() {
            push_errors += (before - rows.left()) as u64;
        }
        tr.close(s);
    };
    let mut poll = |se: &mut ShardedEngine, tr: &mut Tracer, sink: Sink<'_>| -> Result<()> {
        if tr.on() {
            buffered_peak = buffered_peak.max(se.buffered(0));
        }
        let s = tr.open("shard.take_output");
        let out = se.take_output(0)?;
        tr.close(s);
        sink(Instant::now(), out);
        Ok(())
    };

    let feed = tr.open("feed");
    let (due, busy) = match pace {
        Pace::Closed => {
            // At most CHUNK readings in flight: a chunk's rows are all
            // drained before the next chunk is staged, as in the
            // single-engine workloads, so the two compare call for call
            // (and the workers are idle while the clock is stopped).
            let mut starts = Vec::with_capacity(if rows.counting {
                0
            } else {
                readings / CHUNK + 1
            });
            let mut busy = Wall::ZERO;
            while rows.left() > 0 {
                rows.stage(CHUNK);
                let watch = Stopwatch::start();
                if !rows.counting {
                    starts.push((watch.start, watch.factor));
                }
                for _ in 0..CHUNK / BATCH {
                    push(&mut se, &mut rows, BATCH, tr);
                }
                let s = tr.open("shard.flush");
                se.flush()?;
                tr.close(s);
                poll(&mut se, tr, sink)?;
                busy += watch.elapsed();
            }
            let per = CHUNK;
            (Due::Chunks { per, starts }, busy)
        }
        Pace::Open { rate } => {
            // The schedule does not wait for cloning: every row is ready
            // before the first is due. Its times are wall-clock times and
            // are not scaled to the reference core clock.
            rows.stage(readings);
            let clock = Instant::now();
            let period_ns = 1e9 / rate as f64;
            let mut sent = 0usize;
            let mut tick = 0u32;
            while sent < readings {
                let now = Instant::now();
                // Reading i is due at i * period: everything due by now
                // goes out as one batch, however late this tick runs.
                let due_by_now = ((now - clock).as_nanos() as f64 / period_ns) as usize + 1;
                let n = due_by_now.min(readings) - sent;
                if n > 0 {
                    send_lag_ns.push((now - clock).saturating_sub(TICK * tick).as_nanos() as u64);
                    push(&mut se, &mut rows, n, tr);
                    sent += n;
                }
                poll(&mut se, tr, sink)?;
                tick += 1;
                if let Some(rest) = (TICK * tick).checked_sub(clock.elapsed()) {
                    std::thread::sleep(rest);
                }
            }
            let s = tr.open("shard.flush");
            se.flush()?;
            tr.close(s);
            poll(&mut se, tr, sink)?;
            let t0 = clock;
            (Due::Schedule { t0, period_ns }, clock.elapsed())
        }
    };
    tr.close(feed);
    let rejected = se.late_tuples() + se.dead_letters()?.len() as u64;
    Ok(Pass {
        plan_s,
        feed_s: busy.as_secs_f64(),
        readings,
        push_errors,
        rejected,
        due,
        routed: se.shard_stats().iter().map(|s| s.routed).collect(),
        engines: se.stop()?,
        send_lag_ns,
        buffered_peak,
    })
}
