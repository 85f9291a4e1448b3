//! The experiment harness: runs every experiment (E1–E10) and prints the
//! tables recorded in EXPERIMENTS.md, including wall-clock throughput
//! measured inline (best-of-N; use `cargo bench` for the rigorous
//! Criterion numbers).
//!
//! Run with: `cargo run --release -p eslev-bench --bin harness`
//!
//! With `--json <path>` the harness additionally writes every table as a
//! machine-readable JSON document — per-row fields plus best-of-N wall
//! seconds, the engine's full metrics snapshot for a representative E1
//! run, and the detector match/prune counters for E6/E10. If `<path>` is
//! a directory the file is named `BENCH_<yyyy-mm-dd>.json` inside it.
//!
//! The R1 representation sweep always runs: E1/E6/E10 replayed through
//! a single engine under both row representations (interned symbols +
//! compact state keys vs. the seed `Vec<Value>` layout), recording
//! feed-phase throughput, end-of-feed state-key bytes, and interner
//! dictionary size.
//!
//! With `--shards <n>` the harness additionally replays E1/E6/E10
//! through the EPC-partitioned `ShardedEngine` at shard counts
//! 1, 2, 4, … up to `n` (the scaling curve), recording merged-output
//! cardinality, per-shard routing balance, and — at the widest
//! configuration — the full `shard`-labeled metrics snapshot.
//!
//! With `--faults <seed>` (or `--faults seed=<n>`) the harness runs the
//! F1 crash-recovery sweep: E1/E6/E10 through the sharded engine under
//! the seeded fault plan (worker panics, a malformed row, a stale
//! watermark, a mid-feed checkpoint), differentially checked against the
//! uninterrupted single-engine reference. The JSON export carries the
//! recovery counters (`restarts`, `replayed_tuples`, `checkpoints`) and
//! the rendered fault schedule; a divergent recovery fails the run.
//!
//! With `--latency` the harness runs the L1 ingest→emit latency sweep:
//! E1/E6/E10 through the single engine and the sharded engine at
//! 1/2/4/8 workers, batch sizes 1 and 64, reporting the sampled
//! p50/p90/p99 tuple latency (1 in 64 admitted tuples is stamped).
//! With `--trace <path>` it additionally writes a chrome://tracing JSON
//! dump of a flight-recorded E1 run. `--help` prints the full flag list.
//!
//! The JSON export carries a `build` header (git revision, rustc
//! version, sweep configuration) so numbers are comparable across PRs.

use eslev_bench::table::TextTable;
use eslev_bench::*;
use eslev_core::prelude::PairingMode;
use eslev_dsms::prelude::Representation;
use std::fmt::Write as _;
use std::time::Instant;

fn timed<T>(f: impl Fn() -> T, reps: usize) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64());
        result = Some(r);
    }
    (result.expect("reps >= 1"), best)
}

// ------------------------------------------------------- JSON plumbing

/// Minimal JSON object from pre-rendered values (no external deps; the
/// same approach as `MetricsSnapshot::to_json` in eslev-dsms).
fn obj(fields: &[(&str, String)]) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{k}\":{v}");
    }
    s.push('}');
    s
}

fn jstr(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn jf(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn arr(items: Vec<String>) -> String {
    format!("[{}]", items.join(","))
}

/// Today's UTC civil date from the system clock (no date crate in the
/// tree; this is the standard days-to-civil conversion).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    let z = secs.div_euclid(86_400) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

struct Args {
    json_path: Option<std::path::PathBuf>,
    shards: Option<usize>,
    batches: Vec<usize>,
    fault_seed: Option<u64>,
    /// Run the L1 ingest→emit latency sweep.
    latency: bool,
    /// Run the M1 multi-query shared-execution sweep up to this many
    /// registered queries.
    multi: Option<usize>,
    /// Dump a chrome://tracing JSON of a traced E1 run to this path.
    trace_path: Option<std::path::PathBuf>,
    /// Run the O1 out-of-order sweep with this (seed, delay bound in
    /// seconds).
    disorder: Option<(u64, u64)>,
}

/// The full usage screen — printed verbatim by `--help` (exit 0) and
/// pointed at by every flag error (the single `bad` exit path).
const USAGE: &str = "\
usage: harness [FLAGS]

Runs every experiment (E1-E10) plus the always-on sweeps (B1 batched
ingestion, R1 row representation) and prints the tables recorded in
EXPERIMENTS.md. Optional flags add sweeps or exports:

  --json <path>       write every table as machine-readable JSON; if
                      <path> is a directory the file is named
                      BENCH_<yyyy-mm-dd>.json inside it
  --shards <n>        S1 shard-scaling sweep: replay E1/E6/E10 through
                      the EPC-partitioned ShardedEngine at 1,2,4,..,n
                      workers
  --batch <n,n,...>   batch sizes for the B1 ingestion sweep
                      (default 1,8,64,512; size 1 is always included
                      as the baseline)
  --faults <seed>     F1 crash-recovery sweep under the seeded fault
                      plan (also accepts `seed=<n>`), differentially
                      checked against an uninterrupted reference
  --latency           L1 ingest->emit latency sweep (single engine and
                      1/2/4/8 shards, batch 1 and 64, sampled
                      p50/p90/p99)
  --multi <n>         M1 multi-query shared-execution sweep up to n
                      registered queries
  --trace <path>      write a chrome://tracing JSON dump of a
                      flight-recorded E1 run to <path>
  --disorder <seed>[,<delay_secs>]
                      O1 out-of-order sweep: perturb feeds by up to
                      <delay_secs> (default 2) and replay through the
                      reorder buffer
  --help              print this screen and exit
";

/// The one exit path for a bad invocation: message, pointer to
/// `--help`, exit 2.
fn bad(msg: &str) -> ! {
    eprintln!("{msg}\nrun `harness --help` for the full flag list");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut json_path = None;
    let mut shards = None;
    let mut fault_seed = None;
    let mut latency = false;
    let mut trace_path = None;
    let mut multi = None;
    let mut disorder = None;
    // The B1 ingestion sweep always includes size 1 as the baseline.
    let mut batches = vec![1, 8, 64, 512];
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--json" => match args.next() {
                Some(p) => json_path = Some(std::path::PathBuf::from(p)),
                None => bad("--json requires a path"),
            },
            "--shards" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => shards = Some(n),
                _ => bad("--shards needs a positive integer"),
            },
            "--batch" => {
                let parsed = args.next().map(|v| {
                    v.split(',')
                        .map(|s| s.trim().parse::<usize>().ok().filter(|n| *n > 0))
                        .collect::<Option<Vec<usize>>>()
                });
                match parsed {
                    Some(Some(mut sizes)) if !sizes.is_empty() => {
                        if !sizes.contains(&1) {
                            sizes.insert(0, 1);
                        }
                        batches = sizes;
                    }
                    _ => bad("--batch needs a comma-separated list of positive sizes"),
                }
            }
            "--faults" => {
                // Accepts `--faults 42` or `--faults seed=42`.
                let parsed = args
                    .next()
                    .map(|v| v.strip_prefix("seed=").unwrap_or(&v).parse::<u64>().ok());
                match parsed {
                    Some(Some(seed)) => fault_seed = Some(seed),
                    _ => bad("--faults needs a seed (e.g. `--faults 42` or `--faults seed=42`)"),
                }
            }
            "--latency" => latency = true,
            "--multi" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => multi = Some(n),
                _ => bad("--multi needs a positive query count"),
            },
            "--trace" => match args.next() {
                Some(p) => trace_path = Some(std::path::PathBuf::from(p)),
                None => bad("--trace requires a path"),
            },
            "--disorder" => {
                // Accepts `--disorder 42` (2s delay bound) or
                // `--disorder 42,4` (4s delay bound).
                let parsed = args.next().map(|v| {
                    let mut it = v.split(',');
                    let seed = it.next().and_then(|s| s.trim().parse::<u64>().ok());
                    let delay = match it.next() {
                        None => Some(2u64),
                        Some(s) => s.trim().parse::<u64>().ok().filter(|d| *d > 0),
                    };
                    seed.zip(delay).filter(|_| it.next().is_none())
                });
                match parsed {
                    Some(Some(pair)) => disorder = Some(pair),
                    _ => bad(
                        "--disorder needs `<seed>` or `<seed>,<delay_secs>` (e.g. `--disorder 42,2`)",
                    ),
                }
            }
            other => bad(&format!("unknown argument: {other}")),
        }
    }
    Args {
        json_path,
        shards,
        batches,
        fault_seed,
        latency,
        trace_path,
        multi,
        disorder,
    }
}

/// Build metadata for the JSON header: the short git revision and the
/// rustc version, each "unknown" when the tool is unavailable (e.g. a
/// source tarball without `.git`).
fn build_metadata() -> (String, String) {
    let run = |cmd: &str, args: &[&str]| -> Option<String> {
        let out = std::process::Command::new(cmd).args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let git_rev = run("git", &["rev-parse", "--short", "HEAD"])
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = run(
        &std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string()),
        &["--version"],
    )
    .filter(|s| !s.is_empty())
    .unwrap_or_else(|| "unknown".to_string());
    (git_rev, rustc)
}

fn main() {
    let args = parse_args();
    let (json_path, shards_flag, batch_sizes, fault_seed) =
        (args.json_path, args.shards, args.batches, args.fault_seed);
    // (experiment key, JSON value) — filled as each table is printed.
    let mut sections: Vec<(&str, String)> = Vec::new();

    println!("# ESL-EV experiment harness\n");

    // ------------------------------------------------------------- E1
    println!("## E1 — duplicate elimination (Example 1)\n");
    let mut t = TextTable::new(&[
        "dup_prob",
        "raw",
        "cleaned",
        "truth",
        "cleaned_err",
        "kreads/s",
    ]);
    let mut rows = Vec::new();
    for p in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let (row, secs) = timed(|| e1_dedup(p, 5_000), 3);
        t.row(vec![
            format!("{p:.1}"),
            row.raw.to_string(),
            row.cleaned.to_string(),
            row.truth.to_string(),
            format!(
                "{:.4}",
                (row.cleaned as f64 - row.truth as f64).abs() / row.truth as f64
            ),
            format!("{:.0}", row.raw as f64 / secs / 1e3),
        ]);
        rows.push(obj(&[
            ("dup_prob", jf(p)),
            ("raw", row.raw.to_string()),
            ("cleaned", row.cleaned.to_string()),
            ("truth", row.truth.to_string()),
            ("best_secs", jf(secs)),
        ]));
    }
    println!("{}", t.to_markdown());
    // One representative instrumented run: the engine's own metrics
    // snapshot (per-stream, per-query and per-stage counters +
    // latency histograms) embedded verbatim.
    let (mut engine, readings) = e1_setup(0.5, 5_000);
    for r in &readings {
        engine.push("readings", r.to_values()).expect("feed");
    }
    sections.push((
        "E1",
        obj(&[
            ("rows", arr(rows)),
            ("metrics", engine.metrics_snapshot().to_json()),
        ]),
    ));

    // ------------------------------------------------------------- B1
    println!("## B1 — batched ingestion sweep (E1 feed via push_batch)\n");
    let mut t = TextTable::new(&["batch", "raw", "cleaned", "kreads/s", "vs_batch_1"]);
    let mut rows = Vec::new();
    let mut baseline_kps = None;
    // Interleave reps across batch sizes (rather than finishing one
    // size before starting the next) so transient machine noise hits
    // every size equally; report best-of-7 feed-phase time per size.
    let mut best: Vec<Option<(eslev_bench::experiments::E1Row, f64)>> =
        vec![None; batch_sizes.len()];
    for _ in 0..7 {
        for (i, &b) in batch_sizes.iter().enumerate() {
            let cur = e1_dedup_batched(0.5, 20_000, b);
            if best[i].as_ref().is_none_or(|prev| cur.1 < prev.1) {
                best[i] = Some(cur);
            }
        }
    }
    for (i, &b) in batch_sizes.iter().enumerate() {
        let (row, secs) = best[i].clone().expect("seven reps");
        let kps = row.raw as f64 / secs / 1e3;
        let base = *baseline_kps.get_or_insert(kps);
        t.row(vec![
            b.to_string(),
            row.raw.to_string(),
            row.cleaned.to_string(),
            format!("{kps:.0}"),
            format!("{:.2}x", kps / base),
        ]);
        rows.push(obj(&[
            ("batch", b.to_string()),
            ("raw", row.raw.to_string()),
            ("cleaned", row.cleaned.to_string()),
            ("kreads_per_sec", jf(kps)),
            ("speedup_vs_batch_1", jf(kps / base)),
        ]));
    }
    println!("{}", t.to_markdown());
    sections.push(("B1", obj(&[("rows", arr(rows))])));

    // ------------------------------------------------------------- E2
    println!("## E2 — location tracking (Example 2)\n");
    let mut t = TextTable::new(&[
        "move_prob",
        "readings",
        "persisted",
        "truth",
        "write_reduction",
    ]);
    let mut rows = Vec::new();
    for p in [0.01, 0.05, 0.1, 0.25, 0.5] {
        let r = e2_tracking(p);
        t.row(vec![
            format!("{p:.2}"),
            r.readings.to_string(),
            r.persisted.to_string(),
            r.truth.to_string(),
            format!("{:.1}x", r.reduction),
        ]);
        rows.push(obj(&[
            ("move_prob", jf(p)),
            ("readings", r.readings.to_string()),
            ("persisted", r.persisted.to_string()),
            ("truth", r.truth.to_string()),
            ("write_reduction", jf(r.reduction)),
        ]));
    }
    println!("{}", t.to_markdown());
    sections.push(("E2", obj(&[("rows", arr(rows))])));

    // ------------------------------------------------------------- E3
    println!("## E3 — EPC pattern aggregation (Example 3)\n");
    let mut t = TextTable::new(&[
        "readings",
        "match_frac",
        "truth",
        "LIKE+UDF",
        "compiled",
        "kreads/s",
    ]);
    let mut rows = Vec::new();
    for frac in [0.1, 0.3, 0.7] {
        let (row, secs) = timed(|| e3_epc(10_000, frac), 3);
        t.row(vec![
            row.readings.to_string(),
            format!("{frac:.1}"),
            row.truth.to_string(),
            row.like_udf.to_string(),
            row.compiled.to_string(),
            format!("{:.0}", row.readings as f64 / secs / 1e3),
        ]);
        rows.push(obj(&[
            ("readings", row.readings.to_string()),
            ("match_frac", jf(frac)),
            ("truth", row.truth.to_string()),
            ("like_udf", row.like_udf.to_string()),
            ("compiled", row.compiled.to_string()),
            ("best_secs", jf(secs)),
        ]));
    }
    println!("{}", t.to_markdown());
    sections.push(("E3", obj(&[("rows", arr(rows))])));

    // ------------------------------------------------------------- E4
    println!("## E4 — containment detection (Figure 1, Examples 4/7)\n");
    let mut t = TextTable::new(&[
        "gap_tightness",
        "overlap",
        "cases",
        "detected",
        "exact",
        "accuracy",
    ]);
    let mut rows = Vec::new();
    for (tight, overlap) in [
        (0.3, false),
        (0.6, false),
        (0.95, false),
        (0.6, true),
        (0.95, true),
    ] {
        let r = e4_containment(tight, overlap, 200);
        t.row(vec![
            format!("{tight:.2}"),
            overlap.to_string(),
            r.cases.to_string(),
            r.detected.to_string(),
            r.exact.to_string(),
            format!("{:.3}", r.exact as f64 / r.cases as f64),
        ]);
        rows.push(obj(&[
            ("gap_tightness", jf(tight)),
            ("overlap", overlap.to_string()),
            ("cases", r.cases.to_string()),
            ("detected", r.detected.to_string()),
            ("exact", r.exact.to_string()),
        ]));
    }
    println!("{}", t.to_markdown());
    sections.push(("E4", obj(&[("rows", arr(rows))])));

    // ------------------------------------------------------------- E5
    println!("## E5 — workflow exceptions (Example 5, §3.1.3)\n");
    let mut t = TextTable::new(&[
        "runs",
        "violations",
        "alerts",
        "timeouts",
        "expiry_alerts",
        "expiry_without_heartbeat",
    ]);
    let mut rows = Vec::new();
    for runs in [100, 300, 1000] {
        let r = e5_clinic(runs);
        t.row(vec![
            r.runs.to_string(),
            r.violations.to_string(),
            r.alerts.to_string(),
            r.timeouts.to_string(),
            r.expiry_alerts.to_string(),
            r.expiry_alerts_without_expiration.to_string(),
        ]);
        rows.push(obj(&[
            ("runs", r.runs.to_string()),
            ("violations", r.violations.to_string()),
            ("alerts", r.alerts.to_string()),
            ("timeouts", r.timeouts.to_string()),
            ("expiry_alerts", r.expiry_alerts.to_string()),
            (
                "expiry_without_heartbeat",
                r.expiry_alerts_without_expiration.to_string(),
            ),
        ]));
    }
    println!("{}", t.to_markdown());
    sections.push(("E5", obj(&[("rows", arr(rows))])));

    // ------------------------------------------------------------- E6
    println!("## E6 — tuple pairing modes (§3.1.1 worked example + Example 6)\n");
    let feed = e6_feed(40);
    let mut t = TextTable::new(&[
        "mode",
        "worked_example_events",
        "scaled_events",
        "peak_retained",
        "prunes",
        "kelem/s",
    ]);
    let mut rows = Vec::new();
    for mode in PairingMode::ALL {
        let (row, secs) = timed(|| e6_mode(mode, &feed), 3);
        t.row(vec![
            mode.keyword().to_string(),
            row.worked_example.to_string(),
            row.scaled_matches.to_string(),
            row.peak_retained.to_string(),
            row.prunes.to_string(),
            format!("{:.1}", feed.len() as f64 / secs / 1e3),
        ]);
        rows.push(obj(&[
            ("mode", jstr(mode.keyword())),
            ("worked_example_events", row.worked_example.to_string()),
            ("scaled_events", row.scaled_matches.to_string()),
            ("peak_retained", row.peak_retained.to_string()),
            ("matches_emitted", row.matches_emitted.to_string()),
            ("prunes", row.prunes.to_string()),
            ("best_secs", jf(secs)),
        ]));
    }
    println!("{}", t.to_markdown());
    sections.push(("E6", obj(&[("rows", arr(rows))])));

    // ------------------------------------------------------------- E7
    println!("## E7 — windows on SEQ (§3.1.1)\n");
    let mut t = TextTable::new(&[
        "window",
        "unrestricted_matches",
        "recent_matches",
        "unrestricted_retained",
        "recent_retained",
    ]);
    let mut rows = Vec::new();
    for w in [30, 60, 120, 300, 600] {
        let r = e7_window(w, &feed);
        t.row(vec![
            format!("{w}s"),
            r.unrestricted_matches.to_string(),
            r.recent_matches.to_string(),
            r.unrestricted_retained.to_string(),
            r.recent_retained.to_string(),
        ]);
        rows.push(obj(&[
            ("window_secs", w.to_string()),
            ("unrestricted_matches", r.unrestricted_matches.to_string()),
            ("recent_matches", r.recent_matches.to_string()),
            ("unrestricted_retained", r.unrestricted_retained.to_string()),
            ("recent_retained", r.recent_retained.to_string()),
        ]));
    }
    println!("{}", t.to_markdown());
    sections.push(("E7", obj(&[("rows", arr(rows))])));

    // ------------------------------------------------------------- E8
    println!("## E8 — door security (Example 8, §3.2)\n");
    let mut t = TextTable::new(&[
        "theft_frac",
        "exits",
        "thefts",
        "alerts",
        "true_pos",
        "latency_s",
    ]);
    let mut rows = Vec::new();
    for frac in [0.01, 0.05, 0.1, 0.3] {
        let r = e8_door(frac, 500);
        t.row(vec![
            format!("{frac:.2}"),
            r.exits.to_string(),
            r.thefts.to_string(),
            r.alerts.to_string(),
            r.true_positives.to_string(),
            format!("{:.1}", r.mean_latency_secs),
        ]);
        rows.push(obj(&[
            ("theft_frac", jf(frac)),
            ("exits", r.exits.to_string()),
            ("thefts", r.thefts.to_string()),
            ("alerts", r.alerts.to_string()),
            ("true_positives", r.true_positives.to_string()),
            ("mean_latency_secs", jf(r.mean_latency_secs)),
        ]));
    }
    println!("{}", t.to_markdown());
    sections.push(("E8", obj(&[("rows", arr(rows))])));

    // ------------------------------------------------------------- E9
    println!("## E9 — ESL-EV vs standalone engines (§1 claim)\n");
    let mut t = TextTable::new(&["system", "events", "retained", "enumerated", "kelem/s"]);
    let feed = e9_feed(60);
    let runners: Vec<Box<dyn Fn() -> E9Row>> = vec![
        Box::new({
            let f = feed.clone();
            move || e9_eslev_recent(&f)
        }),
        Box::new({
            let f = feed.clone();
            move || e9_eslev_chronicle(&f)
        }),
        Box::new({
            let f = feed.clone();
            move || e9_rceda(&f)
        }),
        Box::new({
            let f = feed.clone();
            move || e9_naive_join(&f)
        }),
    ];
    let mut rows = Vec::new();
    for run in &runners {
        let (row, secs) = timed(run, 3);
        t.row(vec![
            row.system.to_string(),
            row.events.to_string(),
            row.retained.to_string(),
            row.enumerated.to_string(),
            format!("{:.1}", feed.len() as f64 / secs / 1e3),
        ]);
        rows.push(obj(&[
            ("system", jstr(row.system)),
            ("events", row.events.to_string()),
            ("retained", row.retained.to_string()),
            ("enumerated", row.enumerated.to_string()),
            ("best_secs", jf(secs)),
        ]));
    }
    println!("{}", t.to_markdown());
    sections.push(("E9", obj(&[("rows", arr(rows))])));

    // ------------------------------------------------------------ E10
    println!("## E10 — star-sequence semantics (§3.1.2)\n");
    let mut t = TextTable::new(&[
        "run_len",
        "runs",
        "matches",
        "longest_match_exact",
        "trailing_online_emissions",
        "trailing_prunes",
    ]);
    let mut rows = Vec::new();
    for len in [1usize, 5, 20, 100] {
        let r = e10_star(len, 1000 / len.max(1));
        t.row(vec![
            r.run_len.to_string(),
            r.runs.to_string(),
            r.matches.to_string(),
            r.groups_exact.to_string(),
            r.trailing_emissions.to_string(),
            r.trailing_prunes.to_string(),
        ]);
        rows.push(obj(&[
            ("run_len", r.run_len.to_string()),
            ("runs", r.runs.to_string()),
            ("matches", r.matches.to_string()),
            ("longest_match_exact", r.groups_exact.to_string()),
            (
                "trailing_online_emissions",
                r.trailing_emissions.to_string(),
            ),
            ("matches_emitted", r.matches_emitted.to_string()),
            ("trailing_prunes", r.trailing_prunes.to_string()),
        ]));
    }
    println!("{}", t.to_markdown());
    sections.push(("E10", obj(&[("rows", arr(rows))])));

    // ------------------------------------------------------ ablations
    println!("## A1 — equality lifting: partition key vs residual filter\n");
    let feed = e9_feed(60);
    let mut t = TextTable::new(&["arm", "events", "retained", "kelem/s"]);
    let mut rows = Vec::new();
    for partitioned in [true, false] {
        let (row, secs) = timed(|| a1_partitioning(&feed, partitioned), 3);
        let arm = if partitioned {
            "partition key"
        } else {
            "residual filter"
        };
        t.row(vec![
            arm.to_string(),
            row.events.to_string(),
            row.retained.to_string(),
            format!("{:.1}", feed.len() as f64 / secs / 1e3),
        ]);
        rows.push(obj(&[
            ("arm", jstr(arm)),
            ("events", row.events.to_string()),
            ("retained", row.retained.to_string()),
            ("best_secs", jf(secs)),
        ]));
    }
    println!("{}", t.to_markdown());
    sections.push(("A1", obj(&[("rows", arr(rows))])));

    println!("## A2 — Example 1 plans: specialized Dedup vs generic NOT EXISTS\n");
    let w = a2_workload(5_000);
    let mut t = TextTable::new(&["plan", "cleaned", "peak_retained", "kreads/s"]);
    let mut rows = Vec::new();
    for (r, secs) in [
        timed(|| a2_dedup_specialized(&w), 3),
        timed(|| a2_dedup_generic(&w), 3),
    ] {
        t.row(vec![
            r.plan.to_string(),
            r.cleaned.to_string(),
            r.peak_retained.to_string(),
            format!("{:.0}", w.len() as f64 / secs / 1e3),
        ]);
        rows.push(obj(&[
            ("plan", jstr(r.plan)),
            ("cleaned", r.cleaned.to_string()),
            ("peak_retained", r.peak_retained.to_string()),
            ("best_secs", jf(secs)),
        ]));
    }
    println!("{}", t.to_markdown());
    sections.push(("A2", obj(&[("rows", arr(rows))])));

    // -------------------------------------------- representation sweep
    {
        println!("## R1 — row representation: interned symbols vs seed Vec<Value>\n");
        let workloads = [
            shard_workload_e1(4_000),
            shard_workload_e6(60),
            shard_workload_e10(16, 12, 4),
        ];
        let mut t = TextTable::new(&[
            "experiment",
            "representation",
            "rows_in",
            "rows_out",
            "kreads/s",
            "state_key_bytes",
            "interner_entries",
            "interner_bytes",
        ]);
        let mut rows = Vec::new();
        for w in &workloads {
            for rep in [Representation::Seed, Representation::Interned] {
                let (row, secs) = timed(|| run_repr_sweep(w, rep), 3);
                t.row(vec![
                    row.experiment.to_string(),
                    row.representation.to_string(),
                    row.rows_in.to_string(),
                    row.rows_out.to_string(),
                    format!("{:.0}", row.rows_in as f64 / secs / 1e3),
                    row.state_key_bytes.to_string(),
                    row.interner_entries.to_string(),
                    row.interner_bytes.to_string(),
                ]);
                rows.push(obj(&[
                    ("experiment", jstr(row.experiment)),
                    ("representation", jstr(row.representation)),
                    ("rows_in", row.rows_in.to_string()),
                    ("rows_out", row.rows_out.to_string()),
                    ("best_secs", jf(secs)),
                    ("feed_secs", jf(row.feed_secs)),
                    ("state_key_bytes", row.state_key_bytes.to_string()),
                    ("interner_entries", row.interner_entries.to_string()),
                    ("interner_bytes", row.interner_bytes.to_string()),
                ]));
            }
        }
        println!("{}", t.to_markdown());
        sections.push(("R1", obj(&[("rows", arr(rows))])));
    }

    // --------------------------------------------------- shard scaling
    if let Some(max_shards) = shards_flag {
        println!("## S1 — shard scaling (--shards {max_shards})\n");
        let mut counts: Vec<usize> = Vec::new();
        let mut c = 1;
        while c < max_shards {
            counts.push(c);
            c *= 2;
        }
        counts.push(max_shards);
        let workloads = [
            shard_workload_e1(4_000),
            shard_workload_e6(60),
            shard_workload_e10(16, 12, 4),
        ];
        let mut t = TextTable::new(&[
            "experiment",
            "shards",
            "rows_in",
            "rows_out",
            "kreads/s",
            "per_shard_routed",
        ]);
        let mut rows = Vec::new();
        let mut shard_metrics: Vec<(String, String)> = Vec::new();
        for w in &workloads {
            for &n in &counts {
                let ((row, metrics), secs) = timed(|| run_shard_scale(w, n), 3);
                t.row(vec![
                    row.experiment.to_string(),
                    n.to_string(),
                    row.rows_in.to_string(),
                    row.rows_out.to_string(),
                    format!("{:.0}", row.rows_in as f64 / secs / 1e3),
                    format!("{:?}", row.per_shard_routed),
                ]);
                rows.push(obj(&[
                    ("experiment", jstr(row.experiment)),
                    ("shards", n.to_string()),
                    ("rows_in", row.rows_in.to_string()),
                    ("rows_out", row.rows_out.to_string()),
                    ("best_secs", jf(secs)),
                    (
                        "per_shard_routed",
                        arr(row.per_shard_routed.iter().map(|r| r.to_string()).collect()),
                    ),
                ]));
                // Full per-shard metrics for the widest configuration —
                // the `shard`-labeled router + engine counters.
                if n == max_shards {
                    shard_metrics.push((format!("{}_metrics", row.experiment), metrics.to_json()));
                }
            }
        }
        println!("{}", t.to_markdown());
        let mut fields = vec![("rows", arr(rows))];
        for (k, v) in &shard_metrics {
            fields.push((k.as_str(), v.clone()));
        }
        sections.push(("S1", obj(&fields)));
    }

    // ----------------------------------------------------- fault sweep
    if let Some(seed) = fault_seed {
        println!("## F1 — crash-recovery fault sweep (--faults {seed})\n");
        let workloads = [
            shard_workload_e1(600),
            shard_workload_e6(60),
            shard_workload_e10(8, 6, 3),
        ];
        let mut t = TextTable::new(&[
            "experiment",
            "shards",
            "rows_in",
            "rows_out",
            "matches_ref",
            "restarts",
            "replayed",
            "checkpoints",
        ]);
        let mut rows = Vec::new();
        let mut all_match = true;
        for w in &workloads {
            for shards in [2usize, 4] {
                let row = run_fault_sweep(w, shards, seed);
                all_match &= row.matches_reference;
                t.row(vec![
                    row.experiment.to_string(),
                    row.shards.to_string(),
                    row.rows_in.to_string(),
                    row.rows_out.to_string(),
                    row.matches_reference.to_string(),
                    row.restarts.to_string(),
                    row.replayed.to_string(),
                    row.checkpoints.to_string(),
                ]);
                rows.push(obj(&[
                    ("experiment", jstr(row.experiment)),
                    ("shards", row.shards.to_string()),
                    ("seed", row.seed.to_string()),
                    ("rows_in", row.rows_in.to_string()),
                    ("rows_out", row.rows_out.to_string()),
                    ("matches_reference", row.matches_reference.to_string()),
                    ("faults", arr(row.faults.iter().map(|f| jstr(f)).collect())),
                    ("restarts", row.restarts.to_string()),
                    ("replayed_tuples", row.replayed.to_string()),
                    ("checkpoints", row.checkpoints.to_string()),
                ]));
            }
        }
        println!("{}", t.to_markdown());
        sections.push((
            "F1",
            obj(&[("seed", seed.to_string()), ("rows", arr(rows))]),
        ));
        if !all_match {
            eprintln!("F1: recovered output diverged from the uninterrupted reference");
            std::process::exit(1);
        }
    }

    // ---------------------------------------------------- latency sweep
    if args.latency {
        println!("## L1 — sampled ingest→emit tuple latency (--latency)\n");
        let workloads = [
            shard_workload_e1(4_000),
            shard_workload_e6(60),
            shard_workload_e10(16, 12, 4),
        ];
        let mut t = TextTable::new(&[
            "experiment",
            "engine",
            "batch",
            "rows_in",
            "rows_out",
            "samples",
            "p50_us",
            "p90_us",
            "p99_us",
        ]);
        let mut rows = Vec::new();
        let emit = |t: &mut TextTable, rows: &mut Vec<String>, r: &LatencySweepRow| {
            let engine = if r.shards == 0 {
                "single".to_string()
            } else {
                format!("sharded({})", r.shards)
            };
            t.row(vec![
                r.experiment.to_string(),
                engine,
                r.batch.to_string(),
                r.rows_in.to_string(),
                r.rows_out.to_string(),
                r.samples.to_string(),
                format!("{:.1}", r.p50_ns as f64 / 1e3),
                format!("{:.1}", r.p90_ns as f64 / 1e3),
                format!("{:.1}", r.p99_ns as f64 / 1e3),
            ]);
            rows.push(obj(&[
                ("experiment", jstr(r.experiment)),
                ("shards", r.shards.to_string()),
                ("batch", r.batch.to_string()),
                ("rows_in", r.rows_in.to_string()),
                ("rows_out", r.rows_out.to_string()),
                ("samples", r.samples.to_string()),
                ("p50_ns", r.p50_ns.to_string()),
                ("p90_ns", r.p90_ns.to_string()),
                ("p99_ns", r.p99_ns.to_string()),
                ("feed_secs", jf(r.feed_secs)),
            ]));
        };
        for w in &workloads {
            for &batch in &[1usize, 64] {
                let row = run_latency_single(w, batch);
                emit(&mut t, &mut rows, &row);
                for &n in &[1usize, 2, 4, 8] {
                    let row = run_latency_sharded(w, n, batch);
                    emit(&mut t, &mut rows, &row);
                }
            }
        }
        println!("{}", t.to_markdown());
        sections.push(("L1", obj(&[("rows", arr(rows))])));
    }

    // ------------------------------------------------- multi-query sweep
    if let Some(max_queries) = args.multi {
        println!("## M1 — multi-query shared execution (--multi {max_queries})\n");
        // Shared arm scales to the full count; the independent arm is
        // capped at 1000 queries (each one is a full private chain).
        let sizes: Vec<usize> = [1usize, 10, 100, 1_000, 10_000]
            .into_iter()
            .filter(|&s| s <= max_queries)
            .chain((![1, 10, 100, 1_000, 10_000].contains(&max_queries)).then_some(max_queries))
            .collect();
        let indep_cap = max_queries.min(1_000);
        let feed = m1_feed(500);
        let mut t = TextTable::new(&[
            "arm",
            "queries",
            "chains",
            "rows_in",
            "register_s",
            "feed_s",
            "marginal_us_per_query_row",
            "state_key_bytes",
            "memo_hits",
        ]);
        let mut rows = Vec::new();
        // Per-row marginal cost of one extra query: the slope from the
        // single-query baseline of the same arm.
        let mut baselines: [Option<f64>; 2] = [None, None];
        let mut marginals: Vec<(bool, usize, f64)> = Vec::new();
        for &shared in &[true, false] {
            for &n in &sizes {
                if !shared && n > indep_cap {
                    continue;
                }
                let row = run_multi_sweep(n, shared, &feed);
                let per_row = row.feed_secs / row.rows_in as f64;
                let base = *baselines[shared as usize].get_or_insert(per_row);
                let marginal_us = if n > 1 {
                    (per_row - base).max(0.0) * 1e6 / (n - 1) as f64
                } else {
                    f64::NAN
                };
                marginals.push((shared, n, marginal_us));
                t.row(vec![
                    row.arm.to_string(),
                    row.queries.to_string(),
                    row.chains.to_string(),
                    row.rows_in.to_string(),
                    format!("{:.3}", row.register_secs),
                    format!("{:.3}", row.feed_secs),
                    if marginal_us.is_nan() {
                        "-".to_string()
                    } else {
                        format!("{marginal_us:.3}")
                    },
                    row.state_key_bytes.to_string(),
                    row.memo_hits.to_string(),
                ]);
                rows.push(obj(&[
                    ("arm", jstr(row.arm)),
                    ("queries", row.queries.to_string()),
                    ("chains", row.chains.to_string()),
                    ("rows_in", row.rows_in.to_string()),
                    ("register_secs", jf(row.register_secs)),
                    ("feed_secs", jf(row.feed_secs)),
                    ("marginal_us_per_query_row", jf(marginal_us)),
                    ("state_key_bytes", row.state_key_bytes.to_string()),
                    ("memo_hits", row.memo_hits.to_string()),
                ]));
            }
        }
        println!("{}", t.to_markdown());
        // Headline ratio: shared marginal cost at the widest shared
        // size vs independent marginal cost at the widest independent
        // size (the chains-vs-chains slope the design targets).
        let widest = |shared: bool| {
            marginals
                .iter()
                .filter(|(s, n, m)| *s == shared && *n > 1 && m.is_finite())
                .max_by_key(|(_, n, _)| *n)
                .copied()
        };
        let mut fields = vec![("rows", arr(rows))];
        if let (Some((_, sn, sm)), Some((_, in_, im))) = (widest(true), widest(false)) {
            let ratio = im / sm.max(f64::EPSILON);
            println!(
                "shared marginal cost at {sn} queries: {sm:.3} us/query/row; \
                 independent at {in_}: {im:.3} us/query/row ({ratio:.1}x)\n"
            );
            fields.push(("shared_vs_independent_marginal", jf(ratio)));
        }
        sections.push(("M1", obj(&fields)));
    }

    // ---------------------------------------------------- disorder sweep
    if let Some((seed, delay_secs)) = args.disorder {
        println!("## O1 — out-of-order ingestion sweep (--disorder {seed},{delay_secs})\n");
        let delay = eslev_dsms::prelude::Duration::from_secs(delay_secs);
        let workloads = [
            disorder_workload_e1(4_000),
            shard_workload_e6(60),
            shard_workload_e10(16, 12, 4),
        ];
        let mut t = TextTable::new(&[
            "experiment",
            "slack_s",
            "rows_in",
            "rows_out",
            "late",
            "matches_ref",
            "retractions",
            "fast_ok",
            "ktuples/s",
            "p99_us",
        ]);
        let mut rows = Vec::new();
        let mut lossless_ok = true;
        for w in &workloads {
            for slack_s in [0u64, 1, 2, 4, 8] {
                let slack = eslev_dsms::prelude::Duration::from_secs(slack_s);
                let row = run_disorder_sweep(w, seed, delay, slack);
                if slack_s >= delay_secs {
                    // Slack covers the perturbation bound: both levels
                    // must restore the in-order output exactly.
                    lossless_ok &= row.matches_reference && row.fast_reconciles && row.late == 0;
                }
                t.row(vec![
                    row.experiment.to_string(),
                    slack_s.to_string(),
                    row.rows_in.to_string(),
                    row.rows_out.to_string(),
                    row.late.to_string(),
                    row.matches_reference.to_string(),
                    row.retractions.to_string(),
                    row.fast_reconciles.to_string(),
                    format!("{:.0}", row.rows_in as f64 / row.feed_secs / 1e3),
                    format!("{:.1}", row.p99_ns as f64 / 1e3),
                ]);
                rows.push(obj(&[
                    ("experiment", jstr(row.experiment)),
                    ("seed", row.seed.to_string()),
                    ("slack_ms", row.slack_ms.to_string()),
                    ("max_delay_ms", row.max_delay_ms.to_string()),
                    ("rows_in", row.rows_in.to_string()),
                    ("rows_out", row.rows_out.to_string()),
                    ("late", row.late.to_string()),
                    ("matches_reference", row.matches_reference.to_string()),
                    ("retractions", row.retractions.to_string()),
                    ("fast_reconciles", row.fast_reconciles.to_string()),
                    ("feed_secs", jf(row.feed_secs)),
                    (
                        "ktuples_per_sec",
                        jf(row.rows_in as f64 / row.feed_secs / 1e3),
                    ),
                    ("p99_ns", row.p99_ns.to_string()),
                ]));
            }
        }
        println!("{}", t.to_markdown());
        sections.push((
            "O1",
            obj(&[
                ("seed", seed.to_string()),
                ("max_delay_secs", delay_secs.to_string()),
                ("rows", arr(rows)),
            ]),
        ));
        if !lossless_ok {
            eprintln!("O1: output diverged from the in-order reference at slack >= delay bound");
            std::process::exit(1);
        }
    }

    // ------------------------------------------------------- trace dump
    if let Some(path) = &args.trace_path {
        // A traced E1 run: flight recorder on, feed, dump the merged
        // event buffer as chrome://tracing JSON.
        let (mut engine, readings) = e1_setup(0.5, 5_000);
        engine.set_tracing(true);
        for r in &readings {
            engine.push("readings", r.to_values()).expect("feed");
        }
        let events = engine.take_trace();
        let json = eslev_dsms::prelude::chrome_trace_json(&events);
        match std::fs::write(path, json) {
            Ok(()) => println!(
                "chrome://tracing dump of a traced E1 run ({} events) written to {}",
                events.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    println!("(Wall-clock columns are best-of-3 inline timings; run `cargo bench` for Criterion medians.)");

    if let Some(path) = json_path {
        let experiments = obj(&sections
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect::<Vec<_>>());
        // Build metadata makes sweeps comparable across PRs: which
        // commit, which compiler, and which knobs produced the numbers.
        let (git_rev, rustc) = build_metadata();
        let build = obj(&[
            ("git_rev", jstr(&git_rev)),
            ("rustc", jstr(&rustc)),
            (
                "shards",
                shards_flag.map_or("null".to_string(), |n| n.to_string()),
            ),
            (
                "batch_sizes",
                arr(batch_sizes.iter().map(|b| b.to_string()).collect()),
            ),
            ("latency_sweep", args.latency.to_string()),
            (
                "fault_seed",
                fault_seed.map_or("null".to_string(), |s| s.to_string()),
            ),
            (
                "multi",
                args.multi.map_or("null".to_string(), |n| n.to_string()),
            ),
            (
                "disorder",
                args.disorder.map_or("null".to_string(), |(seed, delay)| {
                    obj(&[
                        ("seed", seed.to_string()),
                        ("delay_secs", delay.to_string()),
                    ])
                }),
            ),
        ]);
        let doc = obj(&[
            ("generated", jstr(&today_utc())),
            ("best_of", "3".to_string()),
            ("build", build),
            ("experiments", experiments),
        ]);
        let file = if path.is_dir() {
            path.join(format!("BENCH_{}.json", today_utc()))
        } else {
            path
        };
        match std::fs::write(&file, doc + "\n") {
            Ok(()) => println!("\nJSON results written to {}", file.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", file.display());
                std::process::exit(1);
            }
        }
    }
}
