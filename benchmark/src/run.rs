//! The end-to-end run of one workload: repeated timed passes with tracing
//! off, every output row checked against the generator's ground truth,
//! then one counting pass for allocator calls and heap high-water.

use crate::alloc;
use crate::clock::Stopwatch;
use crate::feeds::{row_key, Feed, Sizes};
use crate::spans::Tracer;
use crate::stats::{median, percentile_sorted, summarize, window_percentiles, Summary};
use crate::workloads::{run_pass, Due, Pace, Pass, Rows, Workload};
use eslev_dsms::prelude::{Result, Tuple};
use std::time::{Duration as Wall, Instant};

/// Feed generations per run; `setup_s` takes their median.
pub const SETUPS: usize = 3;
/// Timed passes a closed-loop run makes at least, however slow a pass is.
pub const MIN_PASSES: usize = 5;
/// Open loop: latency percentiles are taken per window of this length on
/// the schedule and the median of the windows reported, so that a burst
/// of interference moves a few windows and not the figure.
pub const LATENCY_WINDOW: Wall = Wall::from_secs(1);

/// One named figure: its unit and the sample behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// The value reported.
    pub value: f64,
    /// Median, quartiles and count of the sample `value` was taken from.
    pub sample: Summary,
}

impl Metric {
    /// A figure that is the median of `sample`.
    pub fn of(name: &'static str, unit: &'static str, sample: &[f64]) -> Metric {
        let summary = summarize(sample);
        Metric {
            name,
            unit,
            value: summary.median,
            sample: summary,
        }
    }

    /// A figure measured once.
    pub fn once(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric::of(name, unit, &[value])
    }
}

/// What running one workload produced.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Readings pushed plus output rows expected, over all passes.
    pub attempted: u64,
    /// Pushes that failed, tuples rejected, rows missing or spurious.
    pub failed: u64,
    pub feed_hash: u64,
    /// Order-independent checksum of the output rows (every pass gave the same).
    pub output_checksum: u64,
}

/// Output rows against ground truth, and the latency of each row found.
pub struct Checked {
    pub checksum: u64,
    /// Rows not expected, rows delivered twice, retractions.
    pub spurious: u64,
    pub missing: u64,
    /// `(latency window, ns from due to observed)`.
    pub latency: Vec<(u32, u64)>,
}

pub fn check(feed: &Feed, drains: &[(Instant, Vec<Tuple>)], due: &Due) -> Checked {
    let mut seen = vec![false; feed.rows.len()];
    let mut c = Checked {
        checksum: 0,
        spurious: 0,
        missing: 0,
        latency: Vec::new(),
    };
    for (observed, rows) in drains {
        for row in rows {
            let key = row_key(row.values(), row.ts());
            c.checksum = c.checksum.wrapping_add(key);
            match feed.expected.get(&key) {
                Some(&pos) if !seen[pos as usize] && !row.is_retraction() => {
                    seen[pos as usize] = true;
                    let (at, factor) = due.of(pos as usize);
                    let window = match due {
                        Due::Chunks { .. } => 0,
                        Due::Schedule { t0, .. } => {
                            ((at - *t0).as_nanos() / LATENCY_WINDOW.as_nanos()) as u32
                        }
                    };
                    let ns = observed.saturating_duration_since(at).as_nanos() as f64;
                    c.latency.push((window, (ns * factor) as u64));
                }
                _ => c.spurious += 1,
            }
        }
    }
    c.missing = feed.expected.len() as u64 - seen.iter().filter(|s| **s).count() as u64;
    c
}

/// Per-pass figures of the timed passes.
#[derive(Default)]
pub struct Timed {
    pub tuples_per_s: Vec<f64>,
    pub p50_us: Vec<f64>,
    pub p99_us: Vec<f64>,
    pub plan_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub checksum: u64,
}

impl Timed {
    /// Check one finished pass and keep its figures. Closed loop: one
    /// p50/p99 per pass, over all its rows. Open loop: one per one-second
    /// window of the schedule.
    pub fn record(&mut self, feed: &Feed, pass: &Pass, drains: &[(Instant, Vec<Tuple>)]) {
        let c = check(feed, drains, &pass.due);
        self.attempted += pass.readings as u64 + feed.expected.len() as u64;
        self.failed += pass.push_errors + pass.rejected + c.missing + c.spurious;
        self.checksum = c.checksum;
        self.tuples_per_s.push(pass.readings as f64 / pass.feed_s);
        self.plan_s.push(pass.plan_s);
        match pass.due {
            Due::Chunks { .. } => {
                let mut ns: Vec<u64> = c.latency.iter().map(|(_, ns)| *ns).collect();
                ns.sort_unstable();
                self.p50_us.push(percentile_sorted(&ns, 50.0) as f64 / 1e3);
                self.p99_us.push(percentile_sorted(&ns, 99.0) as f64 / 1e3);
            }
            Due::Schedule { .. } => {
                // A window must hold enough rows for a p99 to have some
                // beyond it; the ragged last window does not.
                let windows = c
                    .latency
                    .iter()
                    .map(|l| l.0 as usize + 1)
                    .max()
                    .unwrap_or(1);
                let enough = c.latency.len() / windows / 2;
                let us = |p| {
                    window_percentiles(&c.latency, p, enough)
                        .into_iter()
                        .map(|ns| ns / 1e3)
                };
                self.p50_us.extend(us(50.0));
                self.p99_us.extend(us(99.0));
            }
        }
    }
}

pub fn pace_of(w: Workload, sizes: &Sizes) -> Pace {
    if w.paced() {
        Pace::Open {
            rate: sizes.paced_rate,
        }
    } else {
        Pace::Closed
    }
}

/// Generate the feed [`SETUPS`] times; returns the last one and the time
/// each generation took.
pub fn generate(w: Workload, seed: u64, sizes: &Sizes, seconds: f64) -> (Feed, Vec<f64>) {
    let paced_seconds = (seconds as usize).max(1);
    let mut gen_s = Vec::with_capacity(SETUPS);
    let mut feed = None;
    for _ in 0..SETUPS {
        drop(feed.take());
        let watch = Stopwatch::start();
        feed = Some(Feed::generate(w, seed, sizes, paced_seconds));
        gen_s.push(watch.elapsed().as_secs_f64());
    }
    (feed.expect("SETUPS > 0"), gen_s)
}

/// The output rows of a pass as they were drained: `(when observed, rows)`.
pub type Drains = Vec<(Instant, Vec<Tuple>)>;

/// One timed pass with tracing as `tr` says; the drains come back for checking.
pub fn timed_pass(w: Workload, feed: &Feed, pace: Pace, tr: &mut Tracer) -> Result<(Pass, Drains)> {
    let rows = Rows::timed(&feed.rows);
    let mut drains = Vec::with_capacity(feed.rows.len() / 64 + 2);
    let pass = run_pass(w, rows, pace, tr, &mut |at, out| drains.push((at, out)))?;
    Ok((pass, drains))
}

/// The counting pass: same calls, inside the counting allocator, output
/// rows folded into a checksum and dropped at once.
pub fn counting_pass(w: Workload, feed: &Feed) -> Result<(alloc::AllocReport, u64, u64)> {
    // Allocator calls and heap do not depend on the clock, and a schedule
    // nobody waits for would only make queue depths (and with them the
    // heap high-water) a matter of thread timing: the open-loop workload
    // is counted over its own readings, closed loop.
    let pace = Pace::Closed;
    let (mut rows, mut checksum) = (0u64, 0u64);
    let mut tr = Tracer::new(false);
    let (pass, report) = alloc::measure(|| {
        run_pass(
            w,
            Rows::counting(&feed.rows),
            pace,
            &mut tr,
            &mut |_, out| {
                for row in &out {
                    rows += 1;
                    checksum = checksum.wrapping_add(row_key(row.values(), row.ts()));
                }
            },
        )
    });
    let pass = pass?;
    let wrong =
        u64::from(rows != feed.expected.len() as u64 || checksum != feed.expected_checksum());
    Ok((
        report,
        pass.push_errors + pass.rejected + wrong,
        pass.readings as u64,
    ))
}

/// Run `w` end to end for about `seconds` of timed passes.
pub fn end_to_end(w: Workload, seed: u64, seconds: f64, sizes: &Sizes) -> Result<Outcome> {
    let (feed, gen_s) = generate(w, seed, sizes, seconds);
    let pace = pace_of(w, sizes);
    let mut tr = Tracer::new(false);
    let mut timed = Timed::default();
    let deadline = Instant::now() + Wall::from_secs_f64(seconds);
    loop {
        let (pass, drains) = timed_pass(w, &feed, pace, &mut tr)?;
        timed.record(&feed, &pass, &drains);
        // The schedule of the open-loop workload is the run; a closed loop
        // repeats, so a faster engine gets more passes, never a shorter run.
        if w.paced() || (timed.plan_s.len() >= MIN_PASSES && Instant::now() >= deadline) {
            break;
        }
    }
    let (report, count_failed, count_readings) = counting_pass(w, &feed)?;
    let setup_s = median(&gen_s) + median(&timed.plan_s);
    Ok(Outcome {
        metrics: vec![
            Metric::of("tuples_per_s", "1/s", &timed.tuples_per_s),
            Metric::of("emit_latency_p50_us", "us", &timed.p50_us),
            Metric::of("emit_latency_p99_us", "us", &timed.p99_us),
            Metric::once(
                "allocs_per_tuple",
                "count",
                report.calls as f64 / count_readings.max(1) as f64,
            ),
            Metric::once("peak_heap_mb", "MB", report.peak_bytes as f64 / 1e6),
            Metric {
                value: setup_s,
                ..Metric::of("setup_s", "s", &gen_s)
            },
        ],
        attempted: timed.attempted + count_readings + feed.expected.len() as u64,
        failed: timed.failed + count_failed,
        feed_hash: feed.hash,
        output_checksum: timed.checksum,
    })
}
