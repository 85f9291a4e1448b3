//! The traced run of one workload: the same passes with spans recorded
//! around each call into a layer, the figures that belong to this
//! workload's own script, feed and end state, and the layer probes.

use crate::clock::Stopwatch;
use crate::feeds::{Feed, Sizes};
use crate::probes::{layers, median_of};
use crate::run::{pace_of, timed_pass, Metric, Timed};
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::{plan, Workload};
use eslev_dsms::prelude::*;
use eslev_lang::prelude::*;
use std::time::{Duration as Wall, Instant};

/// Share of `--seconds` the alternating untraced/traced passes may take;
/// the probes need the rest.
const PASS_SHARE: f64 = 0.4;
/// Repetitions of parse and plan, and of checkpoint save and restore.
const LANG_REPS: usize = 100;
const CKPT_REPS: usize = 20;

pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub feed_hash: u64,
    pub output_checksum: u64,
    pub tracer: Tracer,
}

fn micros(f: impl FnOnce() -> Result<()>) -> Result<f64> {
    let watch = Stopwatch::start();
    f()?;
    Ok(watch.elapsed().as_secs_f64() * 1e6)
}

pub fn traced(w: Workload, seed: u64, seconds: f64, sizes: &Sizes) -> Result<Traced> {
    let mut out = Vec::new();
    let watch = Stopwatch::start();
    let paced_seconds = ((seconds * PASS_SHARE / 2.0) as usize).max(1);
    let feed = Feed::generate(w, seed, sizes, paced_seconds);
    out.push(Metric::once(
        "gen.feed_s",
        "s",
        watch.elapsed().as_secs_f64(),
    ));

    let (ddl, query) = w.script();
    let script = format!("{ddl}\n{query};");
    out.push(Metric::once(
        "lang.parse_us",
        "us",
        median_of(LANG_REPS, || micros(|| parse_script(&script).map(drop)))?,
    ));
    out.push(Metric::once(
        "lang.plan_us",
        "us",
        median_of(LANG_REPS, || {
            micros(|| plan(&mut Engine::new(), w).map(drop))
        })?,
    ));

    // Untraced and traced passes alternate, so a drift of the machine
    // lands on both sides of the overhead ratio.
    let pace = pace_of(w, sizes);
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    let (mut plain, mut spanned) = (Timed::default(), Timed::default());
    let deadline = Instant::now() + Wall::from_secs_f64(seconds * PASS_SHARE);
    let last = loop {
        {
            // Dropped before the traced pass starts: what one pass leaves
            // on the heap must not be the other's starting point.
            let (pass, drains) = timed_pass(w, &feed, pace, &mut off)?;
            plain.record(&feed, &pass, &drains);
        }
        let (pass, drains) = timed_pass(w, &feed, pace, &mut tracer)?;
        spanned.record(&feed, &pass, &drains);
        drop(drains);
        if w.paced() || Instant::now() >= deadline {
            break pass;
        }
    };
    let ns_per_reading = 1e9 / median(&plain.tuples_per_s);
    out.push(Metric::once(
        "trace.overhead_share",
        "share",
        median(&plain.tuples_per_s) / median(&spanned.tuples_per_s) - 1.0,
    ));

    // This workload's end state: dictionary, operator state, checkpoint.
    let (entries, bytes) = last
        .engines
        .iter()
        .map(Engine::interner_stats)
        .fold((0, 0), |a, s| (a.0 + s.0, a.1 + s.1));
    let queries: Vec<QueryStats> = last.engines.iter().flat_map(Engine::query_stats).collect();
    let sum = |f: fn(&QueryStats) -> f64| queries.iter().map(f).sum::<f64>();
    out.extend([
        Metric::once("intern.entries", "count", entries as f64),
        Metric::once("intern.bytes", "B", bytes as f64),
        Metric::once("ops.rows_in", "count", sum(|q| q.tuples_in as f64)),
        Metric::once("ops.rows_out", "count", sum(|q| q.tuples_out as f64)),
        Metric::once(
            "ops.state_key_bytes",
            "B",
            sum(|q| q.state_key_bytes as f64),
        ),
        Metric::once("ops.retained_end", "count", sum(|q| q.retained as f64)),
    ]);
    let engine = &last.engines[0];
    let saved = engine.checkpoint()?.to_bytes();
    out.extend([
        Metric::once(
            "ckpt.save_us",
            "us",
            median_of(CKPT_REPS, || {
                micros(|| {
                    engine
                        .checkpoint()
                        .map(|c| drop(std::hint::black_box(c.to_bytes())))
                })
            })?,
        ),
        Metric::once("ckpt.bytes", "B", saved.len() as f64),
        Metric::once(
            "ckpt.restore_us",
            "us",
            median_of(CKPT_REPS, || {
                let mut fresh = Engine::new();
                plan(&mut fresh, w)?;
                micros(|| fresh.restore(&EngineCheckpoint::from_bytes(&saved)?))
            })?,
        ),
    ]);

    let layer = layers(seed, sizes)?;
    let ns = |name: &str| {
        layer
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    // Per reading, what the independently measured layers on this
    // workload's path add up to (the derived ops.* figures are not
    // independent and stay out).
    let rows_per_reading = feed.expected.len() as f64 / feed.rows.len() as f64;
    let sink = ns("sink.take_ns_per_row") * rows_per_reading;
    let attributed = match w {
        Workload::E1Tuple => ns("engine.ingest_tuple_ns") + sink,
        Workload::E1Batch64 => ns("engine.ingest_batch64_ns") + sink,
        Workload::E1Disorder => ns("engine.ingest_tuple_ns") + ns("engine.reorder_ns") + sink,
        Workload::E1Shard2 | Workload::E1Shard2Paced => {
            ns("shard.route_ns")
                + ns("shard.merge_ns_per_row") * rows_per_reading
                + ns("engine.ingest_batch64_ns")
        }
        Workload::E6SeqRecent => ns("engine.ingest_tuple_ns") + ns("detector.recent_ns"),
        Workload::E10Star => ns("engine.ingest_tuple_ns") + ns("detector.star_ns"),
    };
    out.push(Metric::once(
        "trace.unattributed_share",
        "share",
        1.0 - attributed / ns_per_reading,
    ));
    out.extend(layer);
    Ok(Traced {
        metrics: out,
        attempted: plain.attempted + spanned.attempted,
        failed: plain.failed + spanned.failed,
        feed_hash: feed.hash,
        output_checksum: spanned.checksum,
        tracer,
    })
}
