//! Experiment runners E1–E10 (see DESIGN.md §4 and EXPERIMENTS.md).
//!
//! Runners are deterministic (seeded workloads) and return correctness +
//! state metrics; wall-clock numbers come from the Criterion benches that
//! wrap these same functions.

use eslev_baseline::prelude::*;
use eslev_core::prelude::*;
use eslev_dsms::prelude::*;
use eslev_lang::prelude::*;
use eslev_rfid::prelude::*;
use eslev_rfid::scenario::{clinic, dedup, door, epc_population, packing, qc_line, tracking};

// ------------------------------------------------------------------ E1

/// E1 (Example 1): duplicate elimination.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// Duplicate probability of the simulated reader.
    pub dup_prob: f64,
    /// Raw readings fed.
    pub raw: usize,
    /// Cleaned readings emitted.
    pub cleaned: usize,
    /// Ground-truth physical presences.
    pub truth: usize,
    /// Keys retained by the dedup operator at the end.
    pub retained: usize,
}

/// Build the E1 engine + query; returns the engine and the raw feed.
pub fn e1_setup(dup_prob: f64, presences: usize) -> (Engine, Vec<Reading>) {
    let w = dedup::generate(&dedup::DedupConfig {
        presences,
        duplicate_prob: dup_prob,
        ..dedup::DedupConfig::default()
    });
    let mut engine = Engine::new();
    execute_script(
        &mut engine,
        "CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);
         CREATE STREAM cleaned_readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);
         INSERT INTO cleaned_readings
         SELECT * FROM readings AS r1
         WHERE NOT EXISTS
           (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
            WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id);",
    )
    .expect("static script plans");
    (engine, w.readings)
}

/// Run E1 for one duplicate probability.
pub fn e1_dedup(dup_prob: f64, presences: usize) -> E1Row {
    let (mut engine, readings) = e1_setup(dup_prob, presences);
    let raw = readings.len();
    for r in &readings {
        engine.push("readings", r.to_values()).expect("feed");
    }
    E1Row {
        dup_prob,
        raw,
        cleaned: engine.stream_pushed("cleaned_readings").expect("stream") as usize,
        truth: presences,
        retained: 0,
    }
}

/// Run E1 feeding through [`Engine::push_batch`] in `batch`-sized
/// chunks (the B1 ingestion sweep). Output is identical to `e1_dedup`;
/// only the watermark schedule changes. Returns the row plus the
/// feed-phase wall time in seconds: workload generation, query
/// planning and row materialization happen before the clock starts —
/// B1 measures ingestion, not setup.
pub fn e1_dedup_batched(dup_prob: f64, presences: usize, batch: usize) -> (E1Row, f64) {
    let (mut engine, readings) = e1_setup(dup_prob, presences);
    let raw = readings.len();
    let mut rows: std::collections::VecDeque<Vec<Value>> =
        readings.iter().map(|r| r.to_values()).collect();
    let batch = batch.max(1);
    let start = std::time::Instant::now();
    while !rows.is_empty() {
        let take = rows.len().min(batch);
        engine
            .push_batch_to("readings", rows.drain(..take))
            .expect("feed");
    }
    let feed_secs = start.elapsed().as_secs_f64();
    (
        E1Row {
            dup_prob,
            raw,
            cleaned: engine.stream_pushed("cleaned_readings").expect("stream") as usize,
            truth: presences,
            retained: 0,
        },
        feed_secs,
    )
}

// ------------------------------------------------------------------ E2

/// E2 (Example 2): location tracking into a persistent table.
#[derive(Debug, Clone)]
pub struct E2Row {
    /// Probability of movement per reading.
    pub move_prob: f64,
    /// Location readings fed.
    pub readings: usize,
    /// Rows persisted by the query.
    pub persisted: usize,
    /// Ground truth: distinct (tag, location) pairs.
    pub truth: usize,
    /// Write amplification avoided: readings / persisted.
    pub reduction: f64,
}

/// Run E2 for one movement probability.
pub fn e2_tracking(move_prob: f64) -> E2Row {
    let w = tracking::generate(&tracking::TrackingConfig {
        move_prob,
        ..tracking::TrackingConfig::default()
    });
    let mut engine = Engine::new();
    execute_script(
        &mut engine,
        "CREATE STREAM tag_locations (readerid VARCHAR, tid VARCHAR, tagtime TIMESTAMP, loc VARCHAR);
         CREATE TABLE object_movement (tagid VARCHAR, location VARCHAR, start_time TIMESTAMP);
         INSERT INTO object_movement
         SELECT tid, loc, tagtime
         FROM tag_locations WHERE NOT EXISTS
           (SELECT tagid FROM object_movement
            WHERE tagid = tid AND location = loc);",
    )
    .expect("static script plans");
    for r in &w.readings {
        engine.push("tag_locations", r.to_values()).expect("feed");
    }
    let persisted = engine.table("object_movement").expect("table").len();
    E2Row {
        move_prob,
        readings: w.readings.len(),
        persisted,
        truth: w.distinct_pairs,
        reduction: w.readings.len() as f64 / persisted.max(1) as f64,
    }
}

// ------------------------------------------------------------------ E3

/// E3 (Example 3): EPC-pattern aggregation, LIKE+UDF vs compiled.
#[derive(Debug, Clone)]
pub struct E3Row {
    /// Readings fed.
    pub readings: usize,
    /// Ground-truth matches.
    pub truth: usize,
    /// Count from the verbatim LIKE + extract_serial query.
    pub like_udf: i64,
    /// Count from the compiled `epc_match` query.
    pub compiled: i64,
}

/// The two E3 query variants, pre-planned over a shared engine.
pub fn e3_setup(n: usize, fraction: f64) -> (Engine, Vec<Reading>, usize, Collector, Collector) {
    let w = epc_population::generate(&epc_population::EpcConfig {
        readings: n,
        match_fraction: fraction,
        pattern: "20.*.[5001-9998]".parse().expect("pattern"),
        ..epc_population::EpcConfig::default()
    });
    let mut engine = Engine::new();
    register_epc_udfs(engine.functions_mut());
    register_epc_match_udf(engine.functions_mut());
    execute(
        &mut engine,
        "CREATE STREAM readings (reader_id VARCHAR, tid VARCHAR, read_time TIMESTAMP)",
    )
    .expect("ddl");
    let like = execute(
        &mut engine,
        "SELECT count(tid) FROM readings WHERE tid LIKE '20.%.%'
         AND extract_serial(tid) > 5000
         AND extract_serial(tid) < 9999",
    )
    .expect("like query");
    let like_c = like.collector().expect("collector").clone();
    let compiled = execute(
        &mut engine,
        "SELECT count(tid) FROM readings WHERE epc_match('20.*.[5001-9998]', tid)",
    )
    .expect("compiled query");
    let compiled_c = compiled.collector().expect("collector").clone();
    (engine, w.readings, w.matching, like_c, compiled_c)
}

/// Run E3 once.
pub fn e3_epc(n: usize, fraction: f64) -> E3Row {
    let (mut engine, readings, truth, like_c, compiled_c) = e3_setup(n, fraction);
    for r in &readings {
        engine.push("readings", r.to_values()).expect("feed");
    }
    let last = |c: &Collector| {
        c.take()
            .last()
            .and_then(|t| t.value(0).as_int())
            .unwrap_or(0)
    };
    E3Row {
        readings: readings.len(),
        truth,
        like_udf: last(&like_c),
        compiled: last(&compiled_c),
    }
}

// ------------------------------------------------------------------ E4

/// E4 (Figure 1 / Examples 4, 7): containment detection accuracy.
#[derive(Debug, Clone)]
pub struct E4Row {
    /// Fraction of `t1` that intra-burst gaps may reach.
    pub gap_tightness: f64,
    /// Whether bursts overlap the previous case read (Figure 1(b)).
    pub overlap: bool,
    /// Cases in the workload.
    pub cases: usize,
    /// Containments detected.
    pub detected: usize,
    /// Detections with exact case tag + product count.
    pub exact: usize,
}

/// Run E4 for one gap-tightness setting.
pub fn e4_containment(gap_tightness: f64, overlap: bool, cases: usize) -> E4Row {
    let cfg = packing::PackingConfig {
        cases,
        gap_tightness,
        overlap,
        ..packing::PackingConfig::default()
    };
    let w = packing::generate(&cfg);
    let pat = SeqPattern::new(
        vec![
            Element::star(0).with_star_gap(cfg.t1),
            Element::new(1).with_max_gap(cfg.t0),
        ],
        None,
        PairingMode::Chronicle,
    )
    .expect("pattern");
    let mut det = Detector::new(DetectorConfig::seq(pat)).expect("detector");
    let feed = merge_feeds(vec![
        ("p".into(), w.products.clone()),
        ("c".into(), w.cases.clone()),
    ]);
    let mut detected = Vec::new();
    for (i, item) in feed.iter().enumerate() {
        let port = usize::from(item.stream == "c");
        let t = Tuple::new(item.reading.to_values(), item.reading.ts, i as u64);
        for o in det.on_tuple(port, &t).expect("detect") {
            if let DetectorOutput::Match(m) = o {
                detected.push((
                    m.binding(1)
                        .first()
                        .value(1)
                        .as_str()
                        .expect("tag")
                        .to_string(),
                    m.binding(0).count(),
                ));
            }
        }
    }
    let exact = detected
        .iter()
        .zip(&w.truth)
        .filter(|((tag, count), truth)| {
            *tag == truth.case_tag && *count == truth.product_tags.len()
        })
        .count();
    E4Row {
        gap_tightness,
        overlap,
        cases: w.truth.len(),
        detected: detected.len(),
        exact,
    }
}

// ------------------------------------------------------------------ E5

/// E5 (Example 5 / §3.1.3): exception detection.
#[derive(Debug, Clone)]
pub struct E5Row {
    /// Test runs simulated.
    pub runs: usize,
    /// Violations in the ground truth.
    pub violations: usize,
    /// Alerts raised with active expiration (punctuations on).
    pub alerts: usize,
    /// Alerts with the WindowExpiry cause — the timeouts, each detected
    /// *at its deadline*.
    pub expiry_alerts: usize,
    /// WindowExpiry alerts when the engine never punctuates (ablation):
    /// always 0 — without a heartbeat a timeout is only noticed (late,
    /// and mislabeled as a wrong extension) at the next arrival, or never.
    pub expiry_alerts_without_expiration: usize,
    /// Ground-truth timeout violations.
    pub timeouts: usize,
}

/// Run E5 (with and without active expiration).
pub fn e5_clinic(runs: usize) -> E5Row {
    let cfg = clinic::ClinicConfig {
        runs,
        ..clinic::ClinicConfig::default()
    };
    let w = clinic::generate(&cfg);
    let run = |active_expiration: bool| -> (usize, usize) {
        let pat = SeqPattern::new(
            (0..clinic::OPS).map(Element::new).collect(),
            Some(EventWindow::following(cfg.limit, 0)),
            PairingMode::Consecutive,
        )
        .expect("pattern");
        let mut det = Detector::new(DetectorConfig::exception(pat)).expect("detector");
        let mut alerts = 0;
        let mut expiries = 0;
        let count = |outs: &[DetectorOutput], alerts: &mut usize, expiries: &mut usize| {
            for o in outs {
                if let Some(e) = o.as_exception() {
                    *alerts += 1;
                    if matches!(e.cause, ExceptionCause::WindowExpiry) {
                        *expiries += 1;
                    }
                }
            }
        };
        for (i, (port, reading)) in w.feed.iter().enumerate() {
            let t = Tuple::new(
                vec![
                    Value::str(&reading.reader),
                    Value::str(&reading.tag),
                    Value::Ts(reading.ts),
                ],
                reading.ts,
                i as u64,
            );
            if active_expiration {
                let outs = det.on_punctuation(reading.ts).expect("punctuate");
                count(&outs, &mut alerts, &mut expiries);
            }
            let outs = det.on_tuple(*port, &t).expect("detect");
            count(&outs, &mut alerts, &mut expiries);
        }
        if active_expiration {
            let horizon = w.feed.last().map(|(_, r)| r.ts).unwrap_or(Timestamp::ZERO)
                + cfg.limit
                + Duration::from_secs(1);
            let outs = det.on_punctuation(horizon).expect("punctuate");
            count(&outs, &mut alerts, &mut expiries);
        }
        (alerts, expiries)
    };
    let timeouts = w
        .truth
        .iter()
        .filter(|r| r.kind == clinic::RunKind::Timeout)
        .count();
    let (alerts, expiry_alerts) = run(true);
    let (_, expiry_without) = run(false);
    E5Row {
        runs,
        violations: w.violations,
        alerts,
        expiry_alerts,
        expiry_alerts_without_expiration: expiry_without,
        timeouts,
    }
}

// ------------------------------------------------------------------ E6

/// E6 (§3.1.1 worked example + Example 6): pairing-mode comparison.
#[derive(Debug, Clone)]
pub struct E6Row {
    /// The mode.
    pub mode: PairingMode,
    /// Events on the literal worked history (paper: 4 / 1 / 1 / 0).
    pub worked_example: usize,
    /// Events on a scaled interleaved QC feed (2-minute window).
    pub scaled_matches: usize,
    /// Peak tuples retained during the scaled run.
    pub peak_retained: usize,
    /// Matches the scaled detector counted (== `scaled_matches`).
    pub matches_emitted: u64,
    /// Runs/bindings pruned during the scaled run — the per-mode
    /// operational signature the observability layer surfaces.
    pub prunes: u64,
}

/// The scaled E6 feed: an interleaved QC line, single shared tag space,
/// bounded by a 2-minute PRECEDING window so UNRESTRICTED stays finite.
pub fn e6_feed(products: usize) -> Vec<(usize, Tuple)> {
    let w = qc_line::generate(&qc_line::QcConfig {
        products,
        dropout_prob: 0.0,
        ..qc_line::QcConfig::default()
    });
    let feeds: Vec<(String, Vec<Reading>)> = w
        .feeds
        .iter()
        .enumerate()
        .map(|(i, f)| (format!("{i}"), f.clone()))
        .collect();
    merge_feeds(feeds)
        .into_iter()
        .enumerate()
        .map(|(i, item)| {
            let port: usize = item.stream.parse().expect("port name");
            (
                port,
                Tuple::new(item.reading.to_values(), item.reading.ts, i as u64),
            )
        })
        .collect()
}

/// Run one mode over the worked history and the scaled feed.
pub fn e6_mode(mode: PairingMode, feed: &[(usize, Tuple)]) -> E6Row {
    // Worked history.
    let pat = SeqPattern::new((0..4).map(Element::new).collect(), None, mode).expect("pattern");
    let mut det = Detector::new(DetectorConfig::seq(pat)).expect("detector");
    let mut worked = 0;
    for (i, (port, reading)) in qc_line::worked_history().iter().enumerate() {
        let t = Tuple::new(Vec::new(), reading.ts, i as u64);
        worked += det
            .on_tuple(*port, &t)
            .expect("detect")
            .iter()
            .filter(|o| o.as_match().is_some())
            .count();
    }
    // Scaled feed with a window to bound UNRESTRICTED.
    let pat = SeqPattern::new(
        (0..4).map(Element::new).collect(),
        Some(EventWindow::preceding(Duration::from_mins(2), 3)),
        mode,
    )
    .expect("pattern");
    let mut det = Detector::new(DetectorConfig::seq(pat)).expect("detector");
    let mut matches = 0;
    let mut peak = 0;
    for (port, t) in feed {
        det.on_punctuation(t.ts()).expect("punctuate");
        matches += det
            .on_tuple(*port, t)
            .expect("detect")
            .iter()
            .filter(|o| o.as_match().is_some())
            .count();
        peak = peak.max(det.retained());
    }
    E6Row {
        mode,
        worked_example: worked,
        scaled_matches: matches,
        peak_retained: peak,
        matches_emitted: det.matches_emitted(),
        prunes: det.prunes(),
    }
}

// ------------------------------------------------------------------ E7

/// E7: window sweep over the SEQ operator.
#[derive(Debug, Clone)]
pub struct E7Row {
    /// Window length in seconds.
    pub window_secs: u64,
    /// UNRESTRICTED matches.
    pub unrestricted_matches: usize,
    /// RECENT matches.
    pub recent_matches: usize,
    /// UNRESTRICTED peak retained tuples.
    pub unrestricted_retained: usize,
    /// RECENT peak retained tuples.
    pub recent_retained: usize,
}

/// Run E7 for one window length over a shared feed.
pub fn e7_window(window_secs: u64, feed: &[(usize, Tuple)]) -> E7Row {
    let run = |mode: PairingMode| -> (usize, usize) {
        let pat = SeqPattern::new(
            (0..4).map(Element::new).collect(),
            Some(EventWindow::preceding(Duration::from_secs(window_secs), 3)),
            mode,
        )
        .expect("pattern");
        let mut det = Detector::new(DetectorConfig::seq(pat)).expect("detector");
        let mut matches = 0;
        let mut peak = 0;
        for (port, t) in feed {
            det.on_punctuation(t.ts()).expect("punctuate");
            matches += det
                .on_tuple(*port, t)
                .expect("detect")
                .iter()
                .filter(|o| o.as_match().is_some())
                .count();
            peak = peak.max(det.retained());
        }
        (matches, peak)
    };
    let (u_m, u_r) = run(PairingMode::Unrestricted);
    let (r_m, r_r) = run(PairingMode::Recent);
    E7Row {
        window_secs,
        unrestricted_matches: u_m,
        recent_matches: r_m,
        unrestricted_retained: u_r,
        recent_retained: r_r,
    }
}

// ------------------------------------------------------------------ E8

/// E8 (Example 8): door security.
#[derive(Debug, Clone)]
pub struct E8Row {
    /// Theft fraction configured.
    pub theft_fraction: f64,
    /// Item exits.
    pub exits: usize,
    /// Ground-truth thefts.
    pub thefts: usize,
    /// Alerts raised.
    pub alerts: usize,
    /// Correct alerts.
    pub true_positives: usize,
    /// Mean alert latency in seconds (alert time − item time); the
    /// FOLLOWING half of the window forces latency ≈ τ.
    pub mean_latency_secs: f64,
}

/// Run E8 for one theft fraction.
pub fn e8_door(theft_fraction: f64, exits: usize) -> E8Row {
    let cfg = door::DoorConfig {
        item_exits: exits,
        theft_fraction,
        ..door::DoorConfig::default()
    };
    let w = door::generate(&cfg);
    let mut engine = Engine::new();
    execute(
        &mut engine,
        "CREATE STREAM tag_readings (tagid VARCHAR, tagtype VARCHAR, tagtime TIMESTAMP)",
    )
    .expect("ddl");
    let q = execute(
        &mut engine,
        "SELECT item.tagid, item.tagtime
         FROM tag_readings AS item
         WHERE item.tagtype = 'item' AND NOT EXISTS
           (SELECT * FROM tag_readings AS person
            OVER [1 MINUTES PRECEDING AND FOLLOWING item]
            WHERE person.tagtype = 'person')",
    )
    .expect("query");
    let alerts = q.collector().expect("collector").clone();
    for r in &w.readings {
        engine.push("tag_readings", r.to_values()).expect("feed");
    }
    let horizon =
        w.readings.last().map(|r| r.ts).unwrap_or(Timestamp::ZERO) + Duration::from_mins(5);
    engine.advance_to(horizon).expect("punctuate");
    let rows = alerts.take();
    let truth: std::collections::BTreeSet<&str> = w.thefts.iter().map(|s| s.as_str()).collect();
    let mut true_positives = 0;
    let mut latency_sum = 0.0;
    for r in &rows {
        let tag = r.value(0).as_str().expect("tag");
        if truth.contains(tag) {
            true_positives += 1;
        }
        let item_ts = r.value(1).as_ts().expect("item time");
        latency_sum += (r.ts() - item_ts).as_micros() as f64 / 1e6;
    }
    E8Row {
        theft_fraction,
        exits,
        thefts: truth.len(),
        alerts: rows.len(),
        true_positives,
        mean_latency_secs: if rows.is_empty() {
            0.0
        } else {
            latency_sum / rows.len() as f64
        },
    }
}

// ------------------------------------------------------------------ E9

/// E9: ESL-EV vs the baseline architectures on the fixed-length QC
/// sequence.
#[derive(Debug, Clone)]
pub struct E9Row {
    /// System label.
    pub system: &'static str,
    /// Events produced.
    pub events: usize,
    /// Tuples/instances retained at the end of the run.
    pub retained: usize,
    /// Combinations enumerated (join) — 0 where not applicable.
    pub enumerated: u64,
}

/// The E9 feed: an interleaved multi-product QC line with per-product
/// tags (so partitioned detection has real work to do).
pub fn e9_feed(products: usize) -> Vec<(usize, Tuple)> {
    let w = qc_line::generate(&qc_line::QcConfig {
        products,
        dropout_prob: 0.0,
        ..qc_line::QcConfig::default()
    });
    let feeds: Vec<(String, Vec<Reading>)> = w
        .feeds
        .iter()
        .enumerate()
        .map(|(i, f)| (format!("{i}"), f.clone()))
        .collect();
    merge_feeds(feeds)
        .into_iter()
        .enumerate()
        .map(|(i, item)| {
            let port: usize = item.stream.parse().expect("port");
            (
                port,
                Tuple::new(item.reading.to_values(), item.reading.ts, i as u64),
            )
        })
        .collect()
}

/// ESL-EV partitioned RECENT (the paper's recommended shape for Ex. 6).
pub fn e9_eslev_recent(feed: &[(usize, Tuple)]) -> E9Row {
    let pat = SeqPattern::new(
        (0..4).map(Element::new).collect(),
        None,
        PairingMode::Recent,
    )
    .expect("pattern");
    let cfg = DetectorConfig::seq(pat).with_partition(vec![Expr::col(1); 4]);
    let mut det = Detector::new(cfg).expect("detector");
    let mut events = 0;
    for (port, t) in feed {
        events += det.on_tuple(*port, t).expect("detect").len();
    }
    E9Row {
        system: "eslev SEQ RECENT (partitioned)",
        events,
        retained: det.retained(),
        enumerated: 0,
    }
}

/// ESL-EV partitioned CHRONICLE.
pub fn e9_eslev_chronicle(feed: &[(usize, Tuple)]) -> E9Row {
    let pat = SeqPattern::new(
        (0..4).map(Element::new).collect(),
        None,
        PairingMode::Chronicle,
    )
    .expect("pattern");
    let cfg = DetectorConfig::seq(pat).with_partition(vec![Expr::col(1); 4]);
    let mut det = Detector::new(cfg).expect("detector");
    let mut events = 0;
    for (port, t) in feed {
        events += det.on_tuple(*port, t).expect("detect").len();
    }
    E9Row {
        system: "eslev SEQ CHRONICLE (partitioned)",
        events,
        retained: det.retained(),
        enumerated: 0,
    }
}

/// RCEDA-style graph engine: equality as a post-hoc predicate, no
/// partitioning, no windows.
pub fn e9_rceda(feed: &[(usize, Tuple)]) -> E9Row {
    let pred: RootPredicate = std::sync::Arc::new(|i: &EventInstance| {
        let tag = i.tuples[0].value(1).clone();
        i.tuples.iter().all(|t| t.value(1) == &tag)
    });
    let mut eng = RcedaEngine::new(&EventExpr::seq_chain(4), Context::Unrestricted, Some(pred))
        .expect("graph");
    let mut events = 0;
    for (port, t) in feed {
        events += eng.on_tuple(*port, t).len();
    }
    E9Row {
        system: "RCEDA graph (post-hoc predicate)",
        events,
        retained: eng.retained(),
        enumerated: 0,
    }
}

/// Naive 4-way self-join with the tag-equality predicate per combination.
pub fn e9_naive_join(feed: &[(usize, Tuple)]) -> E9Row {
    let mut nj = NaiveJoinSeq::new(4, Some(1), None).expect("join");
    let mut events = 0;
    for (port, t) in feed {
        events += nj.on_tuple(*port, t).expect("join").len();
    }
    E9Row {
        system: "naive 4-way join",
        events,
        retained: nj.retained(),
        enumerated: nj.enumerated(),
    }
}

/// All four E9 systems over a shared feed.
pub fn e9_compare(products: usize) -> Vec<E9Row> {
    let feed = e9_feed(products);
    vec![
        e9_eslev_recent(&feed),
        e9_eslev_chronicle(&feed),
        e9_rceda(&feed),
        e9_naive_join(&feed),
    ]
}

// ----------------------------------------------------------------- E10

/// E10 (§3.1.2): star-sequence semantics.
#[derive(Debug, Clone)]
pub struct E10Row {
    /// Length of each `a+` run.
    pub run_len: usize,
    /// Number of runs.
    pub runs: usize,
    /// Matches emitted (must equal `runs` — longest match only).
    pub matches: usize,
    /// All groups had exactly `run_len` tuples.
    pub groups_exact: bool,
    /// Online emissions from the trailing-star variant `SEQ(b, a*)`
    /// (must equal `runs × run_len` — one per arrival).
    pub trailing_emissions: usize,
    /// Matches counted by the closed-star detector.
    pub matches_emitted: u64,
    /// Runs pruned by the trailing-star (CONSECUTIVE) detector — each
    /// new `b` breaks the previous open group.
    pub trailing_prunes: u64,
}

/// Run E10 for one run length.
pub fn e10_star(run_len: usize, runs: usize) -> E10Row {
    // Closed star: SEQ(A*, B).
    let pat = SeqPattern::new(
        vec![Element::star(0), Element::new(1)],
        None,
        PairingMode::Chronicle,
    )
    .expect("pattern");
    let mut det = Detector::new(DetectorConfig::seq(pat)).expect("detector");
    let mut seq = 0u64;
    let mut ts = 0u64;
    let mut matches = 0;
    let mut groups_exact = true;
    for _ in 0..runs {
        for _ in 0..run_len {
            ts += 1;
            det.on_tuple(0, &Tuple::new(vec![], Timestamp::from_secs(ts), seq))
                .expect("detect");
            seq += 1;
        }
        ts += 1;
        for o in det
            .on_tuple(1, &Tuple::new(vec![], Timestamp::from_secs(ts), seq))
            .expect("detect")
        {
            if let DetectorOutput::Match(m) = o {
                matches += 1;
                groups_exact &= m.binding(0).count() == run_len;
            }
        }
        seq += 1;
    }
    let closed_matches = det.matches_emitted();
    // Trailing star: SEQ(B, A*) — online emission per arrival.
    let pat = SeqPattern::new(
        vec![Element::new(1), Element::star(0)],
        None,
        PairingMode::Consecutive,
    )
    .expect("pattern");
    let mut det = Detector::new(DetectorConfig::seq(pat)).expect("detector");
    let mut trailing = 0;
    let mut ts = 0u64;
    let mut seq = 0u64;
    for _ in 0..runs {
        ts += 1;
        det.on_tuple(1, &Tuple::new(vec![], Timestamp::from_secs(ts), seq))
            .expect("detect");
        seq += 1;
        for _ in 0..run_len {
            ts += 1;
            trailing += det
                .on_tuple(0, &Tuple::new(vec![], Timestamp::from_secs(ts), seq))
                .expect("detect")
                .len();
            seq += 1;
        }
    }
    E10Row {
        run_len,
        runs,
        matches,
        groups_exact,
        trailing_emissions: trailing,
        matches_emitted: closed_matches,
        trailing_prunes: det.prunes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_cleans_exactly() {
        let r = e1_dedup(0.5, 300);
        assert_eq!(r.cleaned, r.truth);
        assert!(r.raw > r.truth);
    }

    #[test]
    fn e2_persists_truth() {
        let r = e2_tracking(0.1);
        assert_eq!(r.persisted, r.truth);
        assert!(r.reduction > 5.0);
    }

    #[test]
    fn e3_counts_agree() {
        let r = e3_epc(2000, 0.3);
        assert_eq!(r.like_udf as usize, r.truth);
        assert_eq!(r.compiled as usize, r.truth);
    }

    #[test]
    fn e4_perfect_under_threshold() {
        let r = e4_containment(0.6, false, 50);
        assert_eq!(r.detected, r.cases);
        assert_eq!(r.exact, r.cases);
    }

    #[test]
    fn e5_alerts_match_and_ablation_misses_timeouts() {
        let r = e5_clinic(80);
        assert_eq!(r.alerts, r.violations);
        assert_eq!(
            r.expiry_alerts, r.timeouts,
            "each timeout fires at its deadline"
        );
        assert_eq!(r.expiry_alerts_without_expiration, 0);
        assert!(r.timeouts > 0, "workload must include timeouts");
    }

    #[test]
    fn e6_worked_example_counts() {
        let feed = e6_feed(20);
        let rows: Vec<E6Row> = PairingMode::ALL
            .iter()
            .map(|m| e6_mode(*m, &feed))
            .collect();
        let worked: Vec<usize> = rows.iter().map(|r| r.worked_example).collect();
        assert_eq!(worked, vec![4, 1, 1, 0]);
        // History ordering claim: UNRESTRICTED retains the most.
        assert!(rows[0].peak_retained >= rows[1].peak_retained);
        assert!(rows[0].peak_retained >= rows[3].peak_retained);
    }

    #[test]
    fn e7_monotone_in_window() {
        let feed = e6_feed(30);
        let narrow = e7_window(30, &feed);
        let wide = e7_window(600, &feed);
        assert!(wide.unrestricted_matches >= narrow.unrestricted_matches);
        assert!(wide.unrestricted_retained >= narrow.unrestricted_retained);
        assert!(
            wide.recent_retained <= 12,
            "RECENT state is O(pattern), got {}",
            wide.recent_retained
        );
    }

    #[test]
    fn e8_exact_alerts_with_tau_latency() {
        let r = e8_door(0.1, 150);
        assert_eq!(r.alerts, r.thefts);
        assert_eq!(r.true_positives, r.thefts);
        assert!(
            (r.mean_latency_secs - 60.0).abs() < 1.0,
            "latency {}",
            r.mean_latency_secs
        );
    }

    #[test]
    fn e9_systems_agree_on_events_but_not_cost() {
        let rows = e9_compare(40);
        // Completion counts: partitioned RECENT/CHRONICLE find one event
        // per product; RCEDA/naive (unrestricted semantics) find at least
        // as many.
        assert_eq!(rows[0].events, 40);
        assert_eq!(rows[1].events, 40);
        assert!(rows[2].events >= 40);
        assert!(rows[3].events >= 40);
        // Memory: the graph engine and join retain far more than the
        // consuming/partitioned detectors.
        assert!(rows[2].retained > rows[1].retained * 5);
        assert!(rows[3].retained > rows[1].retained * 5);
        assert!(rows[3].enumerated > 0);
    }

    #[test]
    fn e10_longest_match_and_online() {
        let r = e10_star(5, 20);
        assert_eq!(r.matches, 20);
        assert!(r.groups_exact);
        assert_eq!(r.trailing_emissions, 100);
    }
}

// ------------------------------------------------------------ ablations

/// A1: partition lifting on/off — the same RECENT pattern over the E9
/// feed with the tag-equality either lifted into the partition key (the
/// planner's choice) or left as a residual filter over candidate
/// matches.
#[derive(Debug, Clone)]
pub struct A1Row {
    /// Whether equality was lifted into the partition key.
    pub partitioned: bool,
    /// Events emitted.
    pub events: usize,
    /// Final retained tuples.
    pub retained: usize,
}

/// Run one arm of A1.
pub fn a1_partitioning(feed: &[(usize, Tuple)], partitioned: bool) -> A1Row {
    let pat = SeqPattern::new(
        (0..4).map(Element::new).collect(),
        None,
        PairingMode::Recent,
    )
    .expect("pattern");
    let cfg = if partitioned {
        DetectorConfig::seq(pat).with_partition(vec![Expr::col(1); 4])
    } else {
        // Residual check: all four bound tuples carry the same tag.
        DetectorConfig::seq(pat).with_filter(std::sync::Arc::new(|m: &SeqMatch| {
            let tag = m.binding(0).first().value(1).clone();
            Ok(m.bindings.iter().all(|b| b.first().value(1) == &tag))
        }))
    };
    let mut det = Detector::new(cfg).expect("detector");
    let mut events = 0;
    for (port, t) in feed {
        events += det.on_tuple(*port, t).expect("detect").len();
    }
    A1Row {
        partitioned,
        events,
        retained: det.retained(),
    }
}

/// A2: Example 1's two physical plans — the planner's specialized
/// [`Dedup`] operator vs the generic windowed `NOT EXISTS`
/// ([`WindowExists`]) that a naive planner would produce.
#[derive(Debug, Clone)]
pub struct A2Row {
    /// Plan label.
    pub plan: &'static str,
    /// Cleaned readings emitted.
    pub cleaned: usize,
    /// Peak retained state.
    pub peak_retained: usize,
}

/// Run the specialized-Dedup arm.
pub fn a2_dedup_specialized(readings: &[Reading]) -> A2Row {
    use eslev_dsms::ops::{Dedup, Operator};
    let mut op = Dedup::new(vec![Expr::col(0), Expr::col(1)], Duration::from_secs(1));
    let mut out = Vec::new();
    let mut cleaned = 0;
    let mut peak = 0;
    for (i, r) in readings.iter().enumerate() {
        out.clear();
        let t = Tuple::new(r.to_values(), r.ts, i as u64);
        op.on_tuple(0, &t, &mut out).expect("dedup");
        cleaned += out.len();
        peak = peak.max(op.retained());
    }
    A2Row {
        plan: "specialized Dedup",
        cleaned,
        peak_retained: peak,
    }
}

/// Run the generic-WindowExists arm (outer and inner are the same feed).
pub fn a2_dedup_generic(readings: &[Reading]) -> A2Row {
    use eslev_dsms::ops::{Operator, SemiJoinKind, WindowExists};
    use eslev_dsms::window::WindowExtent;
    let pred = Expr::and(
        Expr::eq(Expr::qcol(1, 0), Expr::qcol(0, 0)),
        Expr::eq(Expr::qcol(1, 1), Expr::qcol(0, 1)),
    );
    let mut op = WindowExists::new(
        SemiJoinKind::NotExists,
        WindowExtent::Preceding(Duration::from_secs(1)),
        pred,
        None,
    );
    let mut out = Vec::new();
    let mut cleaned = 0;
    let mut peak = 0;
    for (i, r) in readings.iter().enumerate() {
        out.clear();
        let t = Tuple::new(r.to_values(), r.ts, i as u64);
        op.on_tuple(0, &t, &mut out).expect("outer");
        op.on_tuple(1, &t, &mut out).expect("inner");
        cleaned += out.len();
        peak = peak.max(op.retained());
    }
    // Close trailing windows.
    if let Some(last) = readings.last() {
        out.clear();
        op.on_punctuation(last.ts + Duration::from_secs(2), &mut out)
            .expect("punctuate");
        cleaned += out.len();
    }
    A2Row {
        plan: "generic WindowExists",
        cleaned,
        peak_retained: peak,
    }
}

/// Shared A2 workload.
pub fn a2_workload(presences: usize) -> Vec<Reading> {
    dedup::generate(&dedup::DedupConfig {
        presences,
        duplicate_prob: 0.5,
        ..dedup::DedupConfig::default()
    })
    .readings
}

#[cfg(test)]
mod ablation_tests {
    use super::*;

    #[test]
    fn a1_same_events_different_state() {
        let feed = e9_feed(40);
        let part = a1_partitioning(&feed, true);
        let unpart = a1_partitioning(&feed, false);
        // Partitioned RECENT finds one completion per product. The
        // unpartitioned residual variant uses a single global chain, so
        // cross-tag interleavings break chains and some completions are
        // missed — the correctness argument for lifting equalities.
        assert_eq!(part.events, 40);
        assert!(unpart.events <= part.events);
    }

    #[test]
    fn a2_plans_agree_on_output() {
        let w = a2_workload(400);
        let fast = a2_dedup_specialized(&w);
        let slow = a2_dedup_generic(&w);
        assert_eq!(fast.cleaned, 400);
        assert_eq!(slow.cleaned, 400);
        // The generic plan buffers pending outers + the inner window; the
        // specialized one keeps a key map.
        assert!(slow.peak_retained >= fast.peak_retained);
    }
}

// --------------------------------------------------------- shard scaling

/// A paper workload packaged for the shard router: DDL, one collected
/// continuous query, and a globally time-ordered feed.
#[derive(Debug, Clone)]
pub struct ShardWorkload {
    /// Experiment label (E1 / E6 / E10).
    pub experiment: &'static str,
    /// `CREATE STREAM` (+ derived `INSERT INTO`) script, executed on
    /// every shard.
    pub ddl: String,
    /// The collected query whose merged output is measured.
    pub query: String,
    /// `(stream, values)` rows in timestamp order.
    pub feed: Vec<(String, Vec<Value>)>,
}

/// One sharded-scaling measurement.
#[derive(Debug, Clone)]
pub struct ShardScaleRow {
    /// Experiment label.
    pub experiment: &'static str,
    /// Worker shards.
    pub shards: usize,
    /// Tuples routed in.
    pub rows_in: usize,
    /// Tuples in the merged output.
    pub rows_out: usize,
    /// Routed-tuple count per shard (length == `shards`) — the balance
    /// of the EPC hash partitioning.
    pub per_shard_routed: Vec<u64>,
}

/// E1 duplicate elimination as a sharded workload (the same script as
/// [`e1_setup`], EPC-keyed on `tag_id`).
pub fn shard_workload_e1(presences: usize) -> ShardWorkload {
    let w = dedup::generate(&dedup::DedupConfig {
        presences,
        duplicate_prob: 0.5,
        ..dedup::DedupConfig::default()
    });
    ShardWorkload {
        experiment: "E1",
        ddl: "CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);
              CREATE STREAM cleaned_readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);
              INSERT INTO cleaned_readings
              SELECT * FROM readings AS r1
              WHERE NOT EXISTS
                (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
                 WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id);"
            .to_string(),
        query: "SELECT * FROM cleaned_readings".to_string(),
        feed: w
            .readings
            .iter()
            .map(|r| ("readings".to_string(), r.to_values()))
            .collect(),
    }
}

/// E6 pairing-mode `SEQ` over the interleaved QC line, tag-partitioned
/// by the planner's lifted equalities.
pub fn shard_workload_e6(products: usize) -> ShardWorkload {
    let w = qc_line::generate(&qc_line::QcConfig {
        products,
        ..qc_line::QcConfig::default()
    });
    let feeds: Vec<(String, Vec<Reading>)> = w
        .feeds
        .iter()
        .enumerate()
        .map(|(i, f)| (format!("c{}", i + 1), f.clone()))
        .collect();
    ShardWorkload {
        experiment: "E6",
        ddl: "CREATE STREAM C1 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
              CREATE STREAM C2 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
              CREATE STREAM C3 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
              CREATE STREAM C4 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);"
            .to_string(),
        query: "SELECT C1.tagid, C4.tagtime FROM C1, C2, C3, C4
                WHERE SEQ(C1, C2, C3, C4) MODE RECENT
                AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid AND C1.tagid=C4.tagid"
            .to_string(),
        feed: merge_feeds(feeds)
            .into_iter()
            .map(|item| (item.stream, item.reading.to_values()))
            .collect(),
    }
}

/// E10 star sequence over tag-interleaved runs: each tag cycles
/// `run_len` R1 readings then one R2 boundary, rounds interleaved across
/// tags so adjacent timestamps belong to different tags.
pub fn shard_workload_e10(tags: usize, runs_per_tag: usize, run_len: usize) -> ShardWorkload {
    let mut feed = Vec::new();
    let mut ts = 0u64;
    for _run in 0..runs_per_tag {
        for step in 0..=run_len {
            for tag in 0..tags {
                ts += 1;
                let stream = if step < run_len { "r1" } else { "r2" };
                feed.push((
                    stream.to_string(),
                    vec![
                        Value::str("rd"),
                        Value::str(format!("tag-{tag}")),
                        Value::Ts(Timestamp::from_secs(ts)),
                    ],
                ));
            }
        }
    }
    ShardWorkload {
        experiment: "E10",
        ddl: "CREATE STREAM R1 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
              CREATE STREAM R2 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);"
            .to_string(),
        query: "SELECT COUNT(R1*), R2.tagid FROM R1, R2
                WHERE SEQ(R1*, R2) MODE CHRONICLE AND R1.tagid = R2.tagid"
            .to_string(),
        feed,
    }
}

/// One row of the R1 representation sweep: a paper workload replayed
/// through a single engine under one row representation (interned
/// symbols + compact state keys vs. the seed `Vec<Value>` layout).
#[derive(Debug, Clone)]
pub struct ReprSweepRow {
    /// Experiment label.
    pub experiment: &'static str,
    /// Representation label (`interned` / `seed`).
    pub representation: &'static str,
    /// Tuples fed.
    pub rows_in: usize,
    /// Tuples the collected query produced.
    pub rows_out: usize,
    /// Feed-phase wall time in seconds (planning and workload
    /// generation excluded, mirroring `e1_dedup_batched`).
    pub feed_secs: f64,
    /// Bytes held in encoded state keys across all queries at the end.
    pub state_key_bytes: usize,
    /// Interner dictionary entries at the end (0 under seed).
    pub interner_entries: usize,
    /// Interner dictionary bytes at the end (0 under seed).
    pub interner_bytes: usize,
}

/// Replay `w` through one single-threaded engine under `rep`, timing
/// only the feed phase. The same workloads drive the shard-scaling
/// sweep, so R1 numbers are directly comparable to S1's single-shard
/// baseline.
pub fn run_repr_sweep(w: &ShardWorkload, rep: Representation) -> ReprSweepRow {
    let mut engine = Engine::with_representation(rep);
    execute_script(&mut engine, &w.ddl).expect("static script plans");
    let q = execute(&mut engine, &w.query).expect("static query plans");
    let collector = q.collector().expect("collected query").clone();
    let start = std::time::Instant::now();
    for (stream, values) in &w.feed {
        engine.push(stream, values.clone()).expect("feed");
    }
    let feed_secs = start.elapsed().as_secs_f64();
    let (interner_entries, interner_bytes) = engine.interner_stats();
    ReprSweepRow {
        experiment: w.experiment,
        representation: match rep {
            Representation::Interned => "interned",
            Representation::Seed => "seed",
        },
        rows_in: w.feed.len(),
        rows_out: collector.take().len(),
        feed_secs,
        state_key_bytes: engine.state_key_bytes(),
        interner_entries,
        interner_bytes,
    }
}

/// Replay `w` through a [`ShardedEngine`] at `shards` workers; returns
/// the scaling row plus the router's merged metrics snapshot (router
/// counters and per-shard engine metrics under a `shard` label).
pub fn run_shard_scale(w: &ShardWorkload, shards: usize) -> (ShardScaleRow, MetricsSnapshot) {
    let ddl = w.ddl.clone();
    let query = w.query.clone();
    let mut se = ShardedEngine::build(shards, 1024, ShardSpec::new(), move |e| {
        execute_script(e, &ddl)?;
        let q = execute(e, &query)?;
        Ok(vec![q.collector().expect("collected query").clone()])
    })
    .expect("sharded build");
    for (stream, values) in &w.feed {
        se.push(stream, values.clone()).expect("route");
    }
    se.flush().expect("flush");
    let rows_out = se.take_output(0).expect("merge slot").len();
    let per_shard_routed = se.shard_stats().iter().map(|s| s.routed).collect();
    let metrics = se.metrics_snapshot();
    se.stop().expect("clean stop");
    (
        ShardScaleRow {
            experiment: w.experiment,
            shards,
            rows_in: w.feed.len(),
            rows_out,
            per_shard_routed,
        },
        metrics,
    )
}

/// One row of the F1 fault sweep: a seeded [`FaultPlan`] fired over a
/// shard workload, checked differentially against the uninterrupted
/// single-engine run.
#[derive(Debug, Clone)]
pub struct FaultSweepRow {
    /// Experiment label.
    pub experiment: &'static str,
    /// Worker shards.
    pub shards: usize,
    /// Fault-plan seed.
    pub seed: u64,
    /// Tuples routed in.
    pub rows_in: usize,
    /// Tuples in the merged (recovered) output.
    pub rows_out: usize,
    /// Whether the recovered output equals the uninterrupted reference
    /// exactly (rows, timestamps, order).
    pub matches_reference: bool,
    /// Rendered fault schedule.
    pub faults: Vec<String>,
    /// Shard restarts performed (`eslev_shard_restarts_total`).
    pub restarts: u64,
    /// Journal entries replayed (`eslev_replayed_tuples_total`).
    pub replayed: u64,
    /// Checkpoint rounds (`eslev_checkpoints_total`).
    pub checkpoints: u64,
}

/// Replay `w` through a [`ShardedEngine`] under the faults of
/// `FaultPlan::seeded(seed, ...)` — worker panics, a malformed row, a
/// stale watermark, a mid-feed checkpoint — and compare the recovered
/// merged output against the uninterrupted single-engine reference.
pub fn run_fault_sweep(w: &ShardWorkload, shards: usize, seed: u64) -> FaultSweepRow {
    let plan = FaultPlan::seeded(seed, shards, w.feed.len() as u64);
    // Reference: one engine, no faults except the mirrored malformed
    // rows (which both sides dead-letter).
    let reference: Vec<(Vec<Value>, Timestamp)> = {
        let mut engine = Engine::new();
        execute_script(&mut engine, &w.ddl).expect("ddl plans");
        let q = execute(&mut engine, &w.query).expect("query plans");
        let out = q.collector().expect("collected query").clone();
        let mut cause = 1u64;
        for (stream, values) in &w.feed {
            let mut row = values.clone();
            loop {
                plan.corrupt_only(cause, &mut row);
                let consumed = plan.consumed_at(cause);
                if consumed == 0 {
                    break;
                }
                cause += consumed;
            }
            let _ = engine.push(stream, row);
            cause += 1;
        }
        out.take()
            .into_iter()
            .map(|t| (t.values().to_vec(), t.ts()))
            .collect()
    };
    let ddl = w.ddl.clone();
    let query = w.query.clone();
    let mut se = ShardedEngine::build(shards, 1024, ShardSpec::new(), move |e| {
        execute_script(e, &ddl)?;
        let q = execute(e, &query)?;
        Ok(vec![q.collector().expect("collected query").clone()])
    })
    .expect("sharded build");
    for (stream, values) in &w.feed {
        let mut row = values.clone();
        loop {
            let cause = se.next_cause();
            plan.apply(&mut se, cause, &mut row).expect("fault fires");
            if se.next_cause() == cause {
                break;
            }
        }
        se.push(stream, row).expect("route");
    }
    se.flush().expect("flush recovers crashed shards");
    let got: Vec<(Vec<Value>, Timestamp)> = se
        .take_output(0)
        .expect("merge slot")
        .into_iter()
        .map(|t| (t.values().to_vec(), t.ts()))
        .collect();
    let stats = se.recovery_stats();
    se.stop().expect("clean stop after recovery");
    FaultSweepRow {
        experiment: w.experiment,
        shards,
        seed,
        rows_in: w.feed.len(),
        rows_out: got.len(),
        matches_reference: got == reference,
        faults: plan.faults().map(|f| f.to_string()).collect(),
        restarts: stats.restarts,
        replayed: stats.replayed_tuples,
        checkpoints: stats.checkpoints,
    }
}

/// One row of the L1 latency sweep: sampled ingest→emit tuple latency
/// for a paper workload at one engine configuration. One in 64 admitted
/// tuples is stamped at admission (single engine) or at routing time
/// (sharded), and the stamp is closed at sink emission / merged release
/// — see `eslev_dsms::trace`.
#[derive(Debug, Clone)]
pub struct LatencySweepRow {
    /// Experiment label.
    pub experiment: &'static str,
    /// 0 = single in-process engine; otherwise the worker shard count.
    pub shards: usize,
    /// Rows per `push_batch` call (1 = tuple-at-a-time `push`).
    pub batch: usize,
    /// Tuples fed.
    pub rows_in: usize,
    /// Tuples the collected query produced.
    pub rows_out: usize,
    /// Latency samples recorded (the histogram count).
    pub samples: u64,
    /// Approximate latency percentiles, nanoseconds (log-bucket upper
    /// bounds from `eslev_tuple_latency_ns`).
    pub p50_ns: u64,
    /// 90th percentile, nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Feed-phase wall seconds (routing + flush + merge take when
    /// sharded).
    pub feed_secs: f64,
}

fn latency_of(
    snap: &MetricsSnapshot,
    w: &ShardWorkload,
    shards: usize,
    batch: usize,
) -> (u64, u64, u64, u64) {
    let lat = snap
        .histogram("eslev_tuple_latency_ns", &[])
        .unwrap_or_else(|| {
            panic!(
                "{} shards={shards} batch={batch}: no latency histogram",
                w.experiment
            )
        });
    (
        lat.count,
        lat.quantile(0.5),
        lat.quantile(0.9),
        lat.quantile(0.99),
    )
}

/// Replay `w` through one single-threaded engine at `batch` rows per
/// push, reading the sampled ingest→emit latency histogram. Tracing
/// stays off — latency sampling is always on and allocation-free.
pub fn run_latency_single(w: &ShardWorkload, batch: usize) -> LatencySweepRow {
    let mut engine = Engine::new();
    execute_script(&mut engine, &w.ddl).expect("static script plans");
    let q = execute(&mut engine, &w.query).expect("static query plans");
    let collector = q.collector().expect("collected query").clone();
    let start = std::time::Instant::now();
    if batch <= 1 {
        for (stream, values) in &w.feed {
            engine.push(stream, values.clone()).expect("feed");
        }
    } else {
        for chunk in w.feed.chunks(batch) {
            engine.push_batch(chunk.iter().cloned()).expect("feed");
        }
    }
    let feed_secs = start.elapsed().as_secs_f64();
    let snap = engine.metrics_snapshot();
    let (samples, p50_ns, p90_ns, p99_ns) = latency_of(&snap, w, 0, batch);
    LatencySweepRow {
        experiment: w.experiment,
        shards: 0,
        batch,
        rows_in: w.feed.len(),
        rows_out: collector.take().len(),
        samples,
        p50_ns,
        p90_ns,
        p99_ns,
        feed_secs,
    }
}

/// Replay `w` through a [`ShardedEngine`] at `shards` workers and
/// `batch` rows per push, reading the router's route→merged-release
/// latency histogram (closed when [`ShardedEngine::take_output`]
/// releases the merged rows, so it covers the full cross-thread path).
pub fn run_latency_sharded(w: &ShardWorkload, shards: usize, batch: usize) -> LatencySweepRow {
    let ddl = w.ddl.clone();
    let query = w.query.clone();
    let mut se = ShardedEngine::build(shards, 1024, ShardSpec::new(), move |e| {
        execute_script(e, &ddl)?;
        let q = execute(e, &query)?;
        Ok(vec![q.collector().expect("collected query").clone()])
    })
    .expect("sharded build");
    // Poll the merge slot during the feed (every ~256 rows), like a
    // serving loop would — otherwise every stamped tuple waits for one
    // final end-of-run take and the histogram just measures feed time.
    let mut rows_out = 0usize;
    let mut since_poll = 0usize;
    let start = std::time::Instant::now();
    if batch <= 1 {
        for (stream, values) in &w.feed {
            se.push(stream, values.clone()).expect("route");
            since_poll += 1;
            if since_poll >= 256 {
                since_poll = 0;
                rows_out += se.take_output(0).expect("merge slot").len();
            }
        }
    } else {
        for chunk in w.feed.chunks(batch) {
            se.push_batch(chunk.iter().cloned()).expect("route");
            since_poll += chunk.len();
            if since_poll >= 256 {
                since_poll = 0;
                rows_out += se.take_output(0).expect("merge slot").len();
            }
        }
    }
    se.flush().expect("flush");
    rows_out += se.take_output(0).expect("merge slot").len();
    let feed_secs = start.elapsed().as_secs_f64();
    let snap = se.metrics_snapshot();
    let (samples, p50_ns, p90_ns, p99_ns) = latency_of(&snap, w, shards, batch);
    se.stop().expect("clean stop");
    LatencySweepRow {
        experiment: w.experiment,
        shards,
        batch,
        rows_in: w.feed.len(),
        rows_out,
        samples,
        p50_ns,
        p90_ns,
        p99_ns,
        feed_secs,
    }
}

#[cfg(test)]
mod latency_sweep_tests {
    use super::*;

    #[test]
    fn latency_sweep_reports_samples_and_percentiles() {
        let w = shard_workload_e1(400);
        let single = run_latency_single(&w, 1);
        assert!(single.rows_out > 0);
        assert!(single.samples > 0, "1-in-64 sampling must land");
        assert!(single.p50_ns > 0 && single.p50_ns <= single.p99_ns);
        // Batched feed measures the same pipeline.
        let batched = run_latency_single(&w, 64);
        assert_eq!(batched.rows_out, single.rows_out);
        assert!(batched.samples > 0);
        // Sharded: router route→merged-release latency.
        let sharded = run_latency_sharded(&w, 2, 1);
        assert_eq!(sharded.rows_out, single.rows_out);
        assert!(sharded.samples > 0);
        assert!(sharded.p50_ns > 0 && sharded.p50_ns <= sharded.p99_ns);
    }
}

#[cfg(test)]
mod fault_sweep_tests {
    use super::*;

    #[test]
    fn fault_sweep_recovers_identically() {
        for w in [shard_workload_e1(200), shard_workload_e10(4, 3, 2)] {
            for shards in [2usize, 3] {
                let row = run_fault_sweep(&w, shards, 42);
                assert!(
                    row.matches_reference,
                    "{} N={shards}: recovered output diverged",
                    w.experiment
                );
                assert!(row.restarts >= 1, "plan must force at least one restart");
                assert_eq!(row.checkpoints, 1);
            }
        }
    }
}

#[cfg(test)]
mod shard_scale_tests {
    use super::*;

    #[test]
    fn scaling_preserves_output_cardinality() {
        for w in [
            shard_workload_e1(300),
            shard_workload_e6(20),
            shard_workload_e10(5, 3, 2),
        ] {
            let (one, _) = run_shard_scale(&w, 1);
            assert!(one.rows_out > 0, "{}: trivial workload", w.experiment);
            for n in [2usize, 4] {
                let (row, metrics) = run_shard_scale(&w, n);
                assert_eq!(
                    row.rows_out, one.rows_out,
                    "{} diverged at {n} shards",
                    w.experiment
                );
                assert_eq!(row.per_shard_routed.len(), n);
                assert_eq!(row.per_shard_routed.iter().sum::<u64>(), row.rows_in as u64);
                let labeled = metrics
                    .samples
                    .iter()
                    .filter(|s| s.name == "eslev_shard_tuples_total")
                    .count();
                assert_eq!(labeled, n, "one routed counter per shard");
            }
        }
    }
}

// ------------------------------------------------------------------ M1

/// One row of the M1 multi-query sweep: `queries` paper-shaped variants
/// registered on one engine (shared execution on or off), fed the same
/// reading stream, with discarded sinks so only execution cost is
/// measured.
#[derive(Debug, Clone)]
pub struct MultiSweepRow {
    /// Arm label (`shared` / `independent`).
    pub arm: &'static str,
    /// Queries registered.
    pub queries: usize,
    /// Shared chains after registration (0 when sharing is off).
    pub chains: usize,
    /// Tuples fed.
    pub rows_in: usize,
    /// Registration wall time in seconds.
    pub register_secs: f64,
    /// Feed-phase wall time in seconds.
    pub feed_secs: f64,
    /// Bytes held in encoded state keys across all queries at the end.
    pub state_key_bytes: usize,
    /// Total memo hits across all shared chains (0 when sharing is off).
    pub memo_hits: u64,
}

/// The M1 query pool: variant `i` cycles through three paper-shaped
/// families — alias-renamed copies of the E1 dedup query (one shared
/// chain), E6-style 4-stream `SEQ` detectors in three pairing modes
/// (three chains, and by far the heaviest per-tuple work when run
/// independently), and per-reader dashboard transducers (8 reader
/// groups -> 8 chains, each dashboard keeping only a private residual
/// projection).
fn m1_variant(i: usize) -> String {
    if i % 2 == 1 {
        let mode = ["UNRESTRICTED", "CHRONICLE", "RECENT"][(i / 2) % 3];
        let (a, b, c, d) = (
            format!("w{i}"),
            format!("x{i}"),
            format!("y{i}"),
            format!("z{i}"),
        );
        format!(
            "SELECT {a}.tag_id, {d}.read_time FROM c1 AS {a}, c2 AS {b}, c3 AS {c}, c4 AS {d} \
             WHERE SEQ({a}, {b}, {c}, {d}) MODE {mode} \
             AND {a}.tag_id={b}.tag_id AND {a}.tag_id={c}.tag_id AND {a}.tag_id={d}.tag_id"
        )
    } else if i % 4 == 0 {
        let (a, b) = (format!("a{i}"), format!("b{i}"));
        format!(
            "SELECT * FROM readings AS {a} WHERE NOT EXISTS \
             (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS {b} \
              WHERE {b}.reader_id = {a}.reader_id AND {b}.tag_id = {a}.tag_id)"
        )
    } else {
        let group = (i / 4) % 8;
        let items = match i % 3 {
            0 => "tag_id",
            1 => "tag_id, read_time",
            _ => "read_time",
        };
        format!("SELECT {items} FROM readings WHERE reader_id = 'r{group}'")
    }
}

/// Deterministic M1 feed: five-row blocks of one `readings` row (8
/// readers x 50 tags) followed by one full `c1 -> c2 -> c3 -> c4`
/// product pass (tags recycle every 25 products, so every pairing mode
/// keeps multiple live candidates per tag).
pub fn m1_feed(rows: usize) -> Vec<(String, Vec<Value>)> {
    let mut feed = Vec::with_capacity(rows);
    let mut t = 0usize;
    while feed.len() < rows {
        feed.push((
            "readings".to_string(),
            vec![
                Value::str(format!("r{}", t % 8)),
                Value::str(format!("tag-{}", t % 50)),
                Value::Ts(Timestamp::from_secs((4 * t) as u64)),
            ],
        ));
        for stage in 0..4usize {
            if feed.len() >= rows {
                break;
            }
            feed.push((
                format!("c{}", stage + 1),
                vec![
                    Value::str(format!("s{stage}")),
                    Value::str(format!("tag-{}", t % 25)),
                    Value::Ts(Timestamp::from_secs((4 * t + stage) as u64)),
                ],
            ));
        }
        t += 1;
    }
    feed
}

/// Register `queries` M1 variants on one engine (sharing on or off) and
/// replay `feed`, timing registration and the feed phase separately.
pub fn run_multi_sweep(
    queries: usize,
    shared: bool,
    feed: &[(String, Vec<Value>)],
) -> MultiSweepRow {
    let mut engine = Engine::new();
    engine.set_shared_execution(shared);
    execute_script(
        &mut engine,
        "CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);
         CREATE STREAM c1 (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);
         CREATE STREAM c2 (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);
         CREATE STREAM c3 (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);
         CREATE STREAM c4 (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);",
    )
    .expect("static script plans");
    let start = std::time::Instant::now();
    for i in 0..queries {
        register_with_sink(&mut engine, &m1_variant(i), Sink::Discard).expect("variant plans");
    }
    let register_secs = start.elapsed().as_secs_f64();
    let start = std::time::Instant::now();
    for (stream, values) in feed {
        engine.push(stream, values.clone()).expect("feed");
    }
    let feed_secs = start.elapsed().as_secs_f64();
    let stats = engine.shared_stats();
    MultiSweepRow {
        arm: if shared { "shared" } else { "independent" },
        queries,
        chains: stats.len(),
        rows_in: feed.len(),
        register_secs,
        feed_secs,
        state_key_bytes: engine.state_key_bytes(),
        memo_hits: stats.iter().map(|s| s.memo_hits).sum(),
    }
}

// ------------------------------------------------------------------ O1

/// E1 duplicate elimination for the O1 disorder sweep: the dedup query
/// subscribes to the tolerant `readings` stream *directly* (no derived
/// `INSERT INTO` hop), so the fast arm's speculation actually observes
/// the out-of-order arrivals instead of the already-restored derived
/// feed.
pub fn disorder_workload_e1(presences: usize) -> ShardWorkload {
    let w = dedup::generate(&dedup::DedupConfig {
        presences,
        duplicate_prob: 0.5,
        ..dedup::DedupConfig::default()
    });
    ShardWorkload {
        experiment: "E1",
        ddl: "CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);"
            .to_string(),
        query: "SELECT * FROM readings AS r1
                WHERE NOT EXISTS
                  (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
                   WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)"
            .to_string(),
        feed: w
            .readings
            .iter()
            .map(|r| ("readings".to_string(), r.to_values()))
            .collect(),
    }
}

/// One row of the O1 out-of-order sweep: a paper workload perturbed by
/// the seeded bounded-disorder model and replayed at one reorder slack,
/// once at the consistent level and once at the fast (speculative)
/// level.
#[derive(Debug, Clone)]
pub struct DisorderSweepRow {
    /// Experiment label.
    pub experiment: &'static str,
    /// Perturbation seed.
    pub seed: u64,
    /// Reorder slack, milliseconds.
    pub slack_ms: u64,
    /// Perturbation delay bound, milliseconds.
    pub max_delay_ms: u64,
    /// Tuples fed (after perturbation — same multiset as in order).
    pub rows_in: usize,
    /// Tuples the consistent query produced.
    pub rows_out: usize,
    /// Tuples dead-lettered as late-beyond-slack (consistent arm).
    pub late: u64,
    /// Whether the consistent output equals the in-order reference
    /// byte for byte (expected exactly when `slack_ms >= max_delay_ms`).
    pub matches_reference: bool,
    /// Retraction tuples the fast arm emitted.
    pub retractions: u64,
    /// Whether the fast output, after applying its retractions, equals
    /// the in-order reference (same expectation as `matches_reference`).
    pub fast_reconciles: bool,
    /// Consistent-arm feed-phase wall seconds (push + flush).
    pub feed_secs: f64,
    /// 99th-percentile sampled ingest→emit latency, nanoseconds
    /// (consistent arm; includes reorder-buffer residence).
    pub p99_ns: u64,
}

/// Replay the perturbed `w` at one `(seed, slack)` point: the
/// consistent arm is checked byte-for-byte against the in-order
/// reference, the fast arm is reconciled through its retractions.
pub fn run_disorder_sweep(
    w: &ShardWorkload,
    seed: u64,
    max_delay: Duration,
    slack: Duration,
) -> DisorderSweepRow {
    // In-order reference.
    let reference: Vec<(Vec<Value>, Timestamp)> = {
        let mut engine = Engine::new();
        execute_script(&mut engine, &w.ddl).expect("ddl plans");
        let q = execute(&mut engine, &w.query).expect("query plans");
        let out = q.collector().expect("collected query").clone();
        for (stream, values) in &w.feed {
            engine.push(stream, values.clone()).expect("feed");
        }
        out.take()
            .into_iter()
            .map(|t| (t.values().to_vec(), t.ts()))
            .collect()
    };
    let shuffled = perturb_rows(w.feed.clone(), seed, max_delay);
    let mut streams: Vec<&String> = shuffled.iter().map(|(s, _)| s).collect();
    streams.sort();
    streams.dedup();

    // Consistent arm: reorder buffer restores order, late tuples
    // dead-letter.
    let (rows_out, late, matches_reference, feed_secs, p99_ns) = {
        let mut engine = Engine::new();
        execute_script(&mut engine, &w.ddl).expect("ddl plans");
        for s in &streams {
            engine
                .set_disorder_tolerance(s, slack)
                .expect("tolerant stream");
        }
        let q = execute(&mut engine, &w.query).expect("query plans");
        let out = q.collector().expect("collected query").clone();
        let start = std::time::Instant::now();
        for (stream, values) in &shuffled {
            engine.push(stream, values.clone()).expect("feed");
        }
        engine.flush_disorder().expect("flush disorder");
        let feed_secs = start.elapsed().as_secs_f64();
        let got: Vec<(Vec<Value>, Timestamp)> = out
            .take()
            .into_iter()
            .map(|t| (t.values().to_vec(), t.ts()))
            .collect();
        let p99_ns = engine
            .metrics_snapshot()
            .histogram("eslev_tuple_latency_ns", &[])
            .map_or(0, |h| h.quantile(0.99));
        (
            got.len(),
            engine.late_tuples(),
            got == reference,
            feed_secs,
            p99_ns,
        )
    };

    // Fast arm: speculative emission + retractions, reconciled.
    let (retractions, fast_reconciles) = {
        let mut engine = Engine::new();
        execute_script(&mut engine, &w.ddl).expect("ddl plans");
        for s in &streams {
            engine
                .set_disorder_tolerance(s, slack)
                .expect("tolerant stream");
        }
        let fast_query = format!("{} CONSISTENCY FAST", w.query);
        let q = execute(&mut engine, &fast_query).expect("fast query plans");
        let out = q.collector().expect("collected query").clone();
        for (stream, values) in &shuffled {
            engine.push(stream, values.clone()).expect("feed");
        }
        engine.flush_disorder().expect("flush disorder");
        let mut live: Vec<Tuple> = Vec::new();
        let mut retractions = 0u64;
        for t in out.take() {
            if t.is_retraction() {
                retractions += 1;
                if let Some(pos) = live.iter().rposition(|p| {
                    p.values() == t.values() && p.ts() == t.ts() && p.seq() == t.seq()
                }) {
                    live.remove(pos);
                }
            } else {
                live.push(t);
            }
        }
        let reconciled: Vec<(Vec<Value>, Timestamp)> = live
            .into_iter()
            .map(|t| (t.values().to_vec(), t.ts()))
            .collect();
        (retractions, reconciled == reference)
    };

    DisorderSweepRow {
        experiment: w.experiment,
        seed,
        slack_ms: slack.as_micros() / 1_000,
        max_delay_ms: max_delay.as_micros() / 1_000,
        rows_in: shuffled.len(),
        rows_out,
        late,
        matches_reference,
        retractions,
        fast_reconciles,
        feed_secs,
        p99_ns,
    }
}

#[cfg(test)]
mod disorder_sweep_tests {
    use super::*;

    #[test]
    fn sweep_matches_reference_at_sufficient_slack() {
        let delay = Duration::from_secs(2);
        for w in [disorder_workload_e1(300), shard_workload_e10(5, 4, 3)] {
            // Slack == bound: lossless restore, byte-identical output.
            let row = run_disorder_sweep(&w, 29, delay, delay);
            assert!(
                row.matches_reference,
                "{}: consistent diverged",
                w.experiment
            );
            assert!(
                row.fast_reconciles,
                "{}: fast failed to reconcile",
                w.experiment
            );
            assert_eq!(row.late, 0);
            assert!(
                row.retractions > 0,
                "{}: disorder must provoke retractions",
                w.experiment
            );
        }
        // Slack 0 on the single-stream E1: disorder lands as late dead
        // letters. (Multi-stream workloads keep a natural cross-stream
        // buffer — the release bound is the min across streams — so
        // zero slack does not force drops there.)
        let row = run_disorder_sweep(
            &disorder_workload_e1(300),
            29,
            delay,
            Duration::from_micros(0),
        );
        assert!(row.late > 0, "zero slack must shed tuples");
        assert!(row.rows_out < row.rows_in);
    }
}
