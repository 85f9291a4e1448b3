//! Per-layer probes: each drives one layer through its public functions
//! over inputs derived from the seed, and times it from out here. They do
//! not depend on the workload being traced, so the same layer figure can
//! be set against every workload's end-to-end figure.

use crate::alloc;
use crate::clock::{self, Stopwatch};
use crate::feeds::{Feed, Row, Sizes, DISORDER, E10_RUN_LEN, E6_WINDOW};
use crate::run::Metric;
use crate::spans::Tracer;
use crate::stats::{median, percentile_sorted};
use crate::workloads::{plan, run_pass, Pace, Rows, Workload, BATCH, CHUNK, QUEUE, SHARDS};
use eslev_core::prelude::*;
use eslev_dsms::prelude::*;
use eslev_lang::prelude::*;
use std::sync::Arc;
use std::time::{Duration as Wall, Instant};

/// Repetitions of the cheap probes; each reports the median.
const REPS: usize = 3;

const READINGS_DDL: &str =
    "CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);";

fn ns_per(busy: Wall, n: usize) -> f64 {
    busy.as_nanos() as f64 / n.max(1) as f64
}

/// Clone `per` rows, then time `f` over them; the clock runs only inside `f`.
fn timed_chunks(
    rows: &[Row],
    per: usize,
    mut f: impl FnMut(std::vec::IntoIter<Row>) -> Result<()>,
) -> Result<Wall> {
    let mut busy = Wall::ZERO;
    for chunk in rows.chunks(per) {
        let staged: Vec<Row> = chunk.to_vec();
        let watch = Stopwatch::start();
        f(staged.into_iter())?;
        busy += watch.elapsed();
    }
    Ok(busy)
}

/// A sink for passes whose rows nobody checks.
fn discard(_: Instant, rows: Vec<Tuple>) {
    std::hint::black_box(rows);
}

pub fn median_of(reps: usize, mut f: impl FnMut() -> Result<f64>) -> Result<f64> {
    let samples = (0..reps).map(|_| f()).collect::<Result<Vec<f64>>>()?;
    Ok(median(&samples))
}

/// `push` / `push_batch` into the declared E1 stream with no query
/// registered: validate, intern, dispatch to nobody.
fn ingest(rows: &[Row], batch: bool, tolerance: Option<Duration>) -> Result<(f64, Engine, usize)> {
    let mut engine = Engine::new();
    execute_script(&mut engine, READINGS_DDL)?;
    if let Some(slack) = tolerance {
        engine.set_disorder_tolerance("readings", slack)?;
    }
    let mut buffered_peak = 0;
    let busy = timed_chunks(rows, if batch { BATCH } else { CHUNK }, |chunk| {
        if batch {
            engine.push_batch(chunk)?;
        } else {
            for (stream, values) in chunk {
                engine.push(&stream, values)?;
            }
            if tolerance.is_some() {
                let depth = engine.stream_stats().iter().map(|s| s.buffered).sum();
                buffered_peak = buffered_peak.max(depth);
            }
        }
        Ok(())
    })?;
    Ok((ns_per(busy, rows.len()), engine, buffered_peak))
}

/// Returns Example 1's ns/reading through `push_batch` 64, which the
/// shard probe sets its one-shard run against.
fn engine_and_ops(seed: u64, sizes: &Sizes, out: &mut Vec<Metric>) -> Result<f64> {
    let probe = Sizes {
        e1_presences: sizes.e1_presences / sizes.probe_share,
        ..*sizes
    };
    let feed = Feed::generate(Workload::E1Tuple, seed, &probe, 0);
    let rows = &feed.rows;

    let tuple_ns = median_of(REPS, || Ok(ingest(rows, false, None)?.0))?;
    let batch_ns = median_of(REPS, || Ok(ingest(rows, true, None)?.0))?;
    out.push(Metric::once("engine.ingest_tuple_ns", "ns", tuple_ns));
    out.push(Metric::once("engine.ingest_batch64_ns", "ns", batch_ns));

    let mut engine = Engine::new();
    execute_script(&mut engine, READINGS_DDL)?;
    let (pushed, report) = alloc::measure(|| {
        Rows::counting(rows).try_for_each(|(stream, values)| engine.push(&stream, values))
    });
    pushed?;
    out.push(Metric::once(
        "engine.ingest_allocs",
        "count",
        report.calls as f64 / rows.len() as f64,
    ));

    // A stream without tolerance refuses a reading behind its newest, so
    // the plain side of the difference is the same readings in order.
    let perturbed = Feed::generate(Workload::E1Disorder, seed, &probe, 0);
    let mut reorder = Vec::new();
    let (mut buffered, mut late) = (0, 0);
    for _ in 0..REPS {
        let (ns, engine, peak) = ingest(&perturbed.rows, false, Some(DISORDER))?;
        reorder.push(ns - tuple_ns);
        buffered = peak;
        late = engine.late_tuples();
    }
    out.push(Metric::once("engine.reorder_ns", "ns", median(&reorder)));
    out.push(Metric::once(
        "engine.reorder_peak_buffered",
        "count",
        buffered as f64,
    ));
    out.push(Metric::once("engine.late_tuples", "count", late as f64));

    // Interner and key codec alone, over the same readings.
    let canonicalize_ns = median_of(REPS, || {
        let interner = StrInterner::new();
        let busy = timed_chunks(rows, CHUNK, |chunk| {
            for (_, mut values) in chunk {
                interner.canonicalize(&mut values[0]);
                interner.canonicalize(&mut values[1]);
                std::hint::black_box(&values);
            }
            Ok(())
        })?;
        Ok(ns_per(busy, rows.len() * 2))
    })?;
    out.push(Metric::once(
        "intern.canonicalize_ns",
        "ns",
        canonicalize_ns,
    ));
    let encode_ns = median_of(REPS, || {
        let interner = Arc::new(StrInterner::new());
        let codec = KeyCodec::interned(interner.clone());
        let mut key = Vec::new();
        let mut busy = Wall::ZERO;
        for chunk in rows.chunks(CHUNK) {
            let mut chunk = chunk.to_vec();
            for (_, values) in &mut chunk {
                interner.canonicalize(&mut values[0]);
                interner.canonicalize(&mut values[1]);
            }
            let watch = Stopwatch::start();
            for (_, values) in &chunk {
                codec.encode_into(&mut key, &values[..2]);
                std::hint::black_box(&key);
            }
            busy += watch.elapsed();
        }
        Ok(ns_per(busy, rows.len()))
    })?;
    out.push(Metric::once("key.encode_ns", "ns", encode_ns));

    // Example 1 end to end on the same readings; the chain's share is
    // what is left after ingest.
    // The loop ends on the batch workload, whose figure is returned.
    let mut e2e_ns = 0.0;
    for (w, ingest_ns, name) in [
        (Workload::E1Tuple, tuple_ns, "ops.e1_chain_ns"),
        (Workload::E1Batch64, batch_ns, "ops.e1_chain_batch64_ns"),
    ] {
        let mut tr = Tracer::new(true);
        let mut samples = Vec::new();
        for _ in 0..REPS {
            let pass = run_pass(w, Rows::timed(rows), Pace::Closed, &mut tr, &mut discard)?;
            samples.push(ns_per(Wall::from_secs_f64(pass.feed_s), rows.len()));
        }
        e2e_ns = median(&samples);
        out.push(Metric::once(name, "ns", e2e_ns - ingest_ns));
        if w == Workload::E1Tuple {
            out.push(Metric::once(
                "sink.take_ns_per_row",
                "ns",
                tr.total_ns("collector.take") as f64 / (REPS * feed.expected.len()) as f64,
            ));
        }
    }
    Ok(e2e_ns)
}

/// The feed as the detector sees it: `(port, tuple)` with interned
/// strings, which is what the engine's ingest hands a `DetectorOp`.
fn detector_feed(feed: &Feed, ports: &[&str], interner: &StrInterner) -> Vec<(usize, Tuple)> {
    feed.rows
        .iter()
        .enumerate()
        .map(|(seq, (stream, values))| {
            let mut values = values.clone();
            values.iter_mut().for_each(|v| interner.canonicalize(v));
            let ts = match values[2] {
                Value::Ts(ts) => ts,
                _ => unreachable!("every benchmark stream is (reader, tag, time)"),
            };
            let port = ports
                .iter()
                .position(|p| p == stream)
                .expect("a stream of the feed");
            (port, Tuple::new(values, ts, seq as u64))
        })
        .collect()
}

/// What driving a [`Detector`] directly over a feed cost and counted.
struct Detected {
    ns_per_reading: f64,
    punct_share: f64,
    retained_peak: usize,
    detector: Detector,
}

/// `on_punctuation` + `on_tuple` per reading, partitioned by tag, as the
/// engine drives a detector under per-tuple watermarks.
fn drive(config: DetectorConfig, feed: &[(usize, Tuple)], codec: &KeyCodec) -> Result<Detected> {
    let ports = config.pattern.num_ports();
    let mut detector = Detector::new(config.with_partition(vec![Expr::col(1); ports]))?;
    detector.bind_codec(codec);
    let (mut in_punct, mut in_tuple) = (Wall::ZERO, Wall::ZERO);
    let mut retained_peak = 0;
    let mut factor = 1.0;
    for (i, (port, t)) in feed.iter().enumerate() {
        if i % CHUNK == 0 {
            retained_peak = retained_peak.max(detector.retained());
            factor = clock::factor();
        }
        let clock = Instant::now();
        std::hint::black_box(detector.on_punctuation(t.ts())?);
        let mid = Instant::now();
        std::hint::black_box(detector.on_tuple(*port, t)?);
        in_punct += (mid - clock).mul_f64(factor);
        in_tuple += mid.elapsed().mul_f64(factor);
    }
    Ok(Detected {
        ns_per_reading: ns_per(in_punct + in_tuple, feed.len()),
        punct_share: in_punct.as_secs_f64() / (in_punct + in_tuple).as_secs_f64(),
        retained_peak: retained_peak.max(detector.retained()),
        detector,
    })
}

fn detector(seed: u64, sizes: &Sizes, out: &mut Vec<Metric>) -> Result<()> {
    let interner = Arc::new(StrInterner::new());
    let codec = KeyCodec::interned(interner.clone());

    // The five engines over the e6 feed: SEQ(C1..C4), 2-minute window.
    let e6 = Feed::generate(Workload::E6SeqRecent, seed, sizes, 0);
    let feed = detector_feed(&e6, &["C1", "C2", "C3", "C4"], &interner);
    let pattern = |mode| {
        SeqPattern::new(
            (0..4).map(Element::new).collect(),
            Some(EventWindow::preceding(E6_WINDOW, 3)),
            mode,
        )
    };
    for (name, mode) in [
        ("detector.unrestricted_ns", PairingMode::Unrestricted),
        ("detector.recent_ns", PairingMode::Recent),
        ("detector.chronicle_ns", PairingMode::Chronicle),
        ("detector.consecutive_ns", PairingMode::Consecutive),
    ] {
        let d = drive(DetectorConfig::seq(pattern(mode)?), &feed, &codec)?;
        out.push(Metric::once(name, "ns", d.ns_per_reading));
        if mode == PairingMode::Recent {
            let det = &d.detector;
            let matches = det.matches_emitted() as f64;
            let created = det.partitions_created() as f64;
            out.extend([
                Metric::once("detector.punct_share", "share", d.punct_share),
                Metric::once("detector.partitions_created", "count", created),
                Metric::once(
                    "detector.live_partitions_end",
                    "count",
                    det.partitions() as f64,
                ),
                Metric::once("detector.retained_peak", "count", d.retained_peak as f64),
                Metric::once("detector.prunes", "count", det.prunes() as f64),
                Metric::once("detector.matches", "count", matches),
                // Useful outcomes per attempt: partitions opened that matched.
                Metric::once(
                    "detector.match_per_partition",
                    "share",
                    matches / created.max(1.0),
                ),
            ]);
        }
    }
    let d = drive(
        DetectorConfig::exception(pattern(PairingMode::Chronicle)?),
        &feed,
        &codec,
    )?;
    out.push(Metric::once(
        "detector.exception_ns",
        "ns",
        d.ns_per_reading,
    ));

    // SEQ(R1*, R2) CHRONICLE at the workload's tag count, and at few and
    // many live tags: the same readings per tag, so the ratio is what one
    // more live partition costs every other partition's readings.
    let star = |tags: usize, rounds: usize| -> Result<f64> {
        let feed = Feed::generate(
            Workload::E10Star,
            seed,
            &Sizes {
                e10_tags: tags,
                e10_rounds: rounds,
                ..*sizes
            },
            0,
        );
        let feed = detector_feed(&feed, &["R1", "R2"], &interner);
        let pattern = SeqPattern::new(
            vec![Element::star(0), Element::new(1)],
            None,
            PairingMode::Chronicle,
        )?;
        Ok(drive(DetectorConfig::seq(pattern), &feed, &codec)?.ns_per_reading)
    };
    let (few, many) = sizes.scaling_tags;
    // About as many readings on each side of the ratio.
    let readings = |tags: usize| (sizes.star_probe_readings / (tags * (E10_RUN_LEN + 1))).max(2);
    out.push(Metric::once(
        "detector.star_ns",
        "ns",
        star(sizes.e10_tags, readings(sizes.e10_tags))?,
    ));
    out.push(Metric::once(
        "detector.partition_scaling",
        "ratio",
        star(many, readings(many))? / star(few, readings(few))?,
    ));
    Ok(())
}

fn shard(seed: u64, sizes: &Sizes, batch_e2e_ns: f64, out: &mut Vec<Metric>) -> Result<()> {
    let probe = Sizes {
        e1_presences: sizes.e1_presences / sizes.probe_share,
        ..*sizes
    };
    let feed = Feed::generate(Workload::E1Shard2, seed, &probe, 0);
    let rows = &feed.rows;

    let hash_ns = median_of(REPS, || {
        let watch = Stopwatch::start();
        for (_, values) in rows {
            std::hint::black_box(shard_of(values, &[1], SHARDS));
        }
        Ok(ns_per(watch.elapsed(), rows.len()))
    })?;
    out.push(Metric::once("shard.hash_ns", "ns", hash_ns));

    // The closed-loop shard workload on the probe feed, spans on.
    let mut tr = Tracer::new(true);
    let mut rows_out = 0;
    let pass = run_pass(
        Workload::E1Shard2,
        Rows::timed(rows),
        Pace::Closed,
        &mut tr,
        &mut |_, rows| rows_out += rows.len(),
    )?;
    let rows_out = rows_out.max(1) as f64;
    let routed: Vec<f64> = pass.routed.iter().map(|r| *r as f64).collect();
    let mean = routed.iter().sum::<f64>() / routed.len() as f64;
    out.extend([
        Metric::once(
            "shard.route_ns",
            "ns",
            tr.total_ns("shard.push_batch") as f64 / rows.len() as f64,
        ),
        Metric::once(
            "shard.flush_wait_ms",
            "ms",
            tr.total_ns("shard.flush") as f64 / 1e6,
        ),
        Metric::once(
            "shard.merge_ns_per_row",
            "ns",
            tr.total_ns("shard.take_output") as f64 / rows_out,
        ),
        Metric::once(
            "shard.skew",
            "ratio",
            routed.iter().fold(0.0, |a: f64, r| a.max(*r)) / mean,
        ),
        Metric::once(
            "shard.merge_buffered_peak",
            "count",
            pass.buffered_peak as f64,
        ),
    ]);

    // One shard does everything the single engine does, plus the hop.
    let one_shard_ns = median_of(REPS, || {
        let mut se = ShardedEngine::build(1, QUEUE, ShardSpec::new(), |e| {
            Ok(vec![plan(e, Workload::E1Shard2)?])
        })?;
        let busy = timed_chunks(rows, CHUNK, |mut chunk| {
            while chunk.len() > 0 {
                se.push_batch(chunk.by_ref().take(BATCH))?;
            }
            se.flush()?;
            std::hint::black_box(se.take_output(0)?);
            Ok(())
        })?;
        se.stop()?;
        Ok(ns_per(busy, rows.len()))
    })?;
    out.push(Metric::once(
        "shard.hop_ns",
        "ns",
        one_shard_ns - batch_e2e_ns,
    ));

    // A short stretch of the schedule: how late the generator itself runs.
    let paced = Feed::generate(Workload::E1Shard2Paced, seed, sizes, 1);
    let pass = run_pass(
        Workload::E1Shard2Paced,
        Rows::timed(&paced.rows),
        Pace::Open {
            rate: sizes.paced_rate,
        },
        &mut Tracer::new(false),
        &mut discard,
    )?;
    let mut lag = pass.send_lag_ns;
    lag.sort_unstable();
    out.push(Metric::once(
        "gen.lag_p99_us",
        "us",
        percentile_sorted(&lag, 99.0) as f64 / 1e3,
    ));
    Ok(())
}

/// Every workload-independent per-layer figure.
pub fn layers(seed: u64, sizes: &Sizes) -> Result<Vec<Metric>> {
    let mut out = Vec::new();
    let batch_e2e_ns = engine_and_ops(seed, sizes, &mut out)?;
    detector(seed, sizes, &mut out)?;
    shard(seed, sizes, batch_e2e_ns, &mut out)?;
    Ok(out)
}
