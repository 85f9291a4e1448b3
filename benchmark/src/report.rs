//! Result files (`bench run --out`, `bench trace --out`), the tables the
//! commands print, and `bench compare`.

use crate::json::Json;
use crate::run::Metric;
use crate::spec::END_TO_END;
use crate::stats::{summarize, verdict, worsening, Better, Summary, Verdict};

/// One workload's section of a result file.
pub struct Section {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub feed_hash: u64,
    pub output_checksum: u64,
    /// One entry per run of the workload, each holding every metric.
    pub runs: Vec<Vec<Metric>>,
}

impl Section {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Per metric: the values of all runs and their summary. A single
    /// run keeps the quartiles of the sample inside that run.
    fn metrics(&self) -> Vec<(&'static str, &'static str, Vec<f64>, Summary)> {
        let first = &self.runs[0];
        first
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let values: Vec<f64> = self.runs.iter().map(|r| r[i].value).collect();
                let summary = if values.len() > 1 {
                    summarize(&values)
                } else {
                    Summary {
                        median: m.value,
                        ..m.sample
                    }
                };
                (m.name, m.unit, values, summary)
            })
            .collect()
    }

    pub fn print(&self) {
        println!(
            "{}: attempted {} failed {} failed_share {} feed {:016x} output {:016x}",
            self.workload,
            self.attempted,
            self.failed,
            self.failed_share(),
            self.feed_hash,
            self.output_checksum
        );
        for (name, unit, _, s) in self.metrics() {
            println!(
                "  {name:<30} {:>16.4} {unit:<6} q1 {:<14.4} q3 {:<14.4} n {}",
                s.median, s.q1, s.q3, s.n
            );
        }
    }

    fn to_json(&self) -> Json {
        let metrics = self.metrics().into_iter().map(|(name, unit, values, s)| {
            (
                name,
                Json::obj([
                    ("unit", Json::str(unit)),
                    ("median", Json::Num(s.median)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("n", Json::Num(s.n as f64)),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            )
        });
        Json::obj([
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failed_share", Json::Num(self.failed_share())),
            ("feed_hash", Json::str(format!("{:016x}", self.feed_hash))),
            (
                "output_checksum",
                Json::str(format!("{:016x}", self.output_checksum)),
            ),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

fn tool(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The build header: what produced the numbers.
pub fn header(command: &str, seed: u64, seconds: f64, runs: usize) -> Json {
    Json::obj([
        ("command", Json::str(command)),
        (
            "git_rev",
            Json::str(tool("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::str(tool("rustc", &["--version"]))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("runs", Json::Num(runs as f64)),
    ])
}

pub fn result_file(header: Json, sections: &[Section]) -> Json {
    Json::obj([
        ("header", header),
        (
            "workloads",
            Json::obj(sections.iter().map(|s| (s.workload, s.to_json()))),
        ),
    ])
}

fn summary_of(metric: &Json) -> Option<Summary> {
    Some(Summary {
        median: metric.get("median")?.as_f64()?,
        q1: metric.get("q1")?.as_f64()?,
        q3: metric.get("q3")?.as_f64()?,
        n: metric.get("n")?.as_f64()? as usize,
    })
}

/// Apply the bounds to two result files: one row per end-to-end metric ×
/// workload with both medians, the ratio and its base, the bound and the
/// verdict. Returns the rows and whether any is `worse`.
pub fn compare(base: &Json, new: &Json) -> Result<(Vec<String>, bool), String> {
    let mut rows = vec![format!(
        "{:<16} {:<22} {:>14} {:>14} {:>18} {:>6}  {}",
        "workload", "metric", "base", "new", "new/base", "bound", "verdict"
    )];
    let mut any_worse = false;
    let workloads = base
        .get("workloads")
        .ok_or("no `workloads` in the base file")?;
    for (workload, section) in workloads.entries() {
        let other = new
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or(format!("`{workload}` is missing from the second file"))?;
        let mut row = |name: &str, b: Summary, n: Summary, better: Better, bound: f64| {
            let v = verdict(&b, &n, better, bound);
            any_worse |= v == Verdict::Worse;
            rows.push(format!(
                "{workload:<16} {name:<22} {:>14.4} {:>14.4} {:>9.4} of {:<8.4} {:>5.1}%  {}",
                b.median,
                n.median,
                if b.median == 0.0 {
                    1.0 + worsening(b.median, n.median, better)
                } else {
                    n.median / b.median
                },
                b.median,
                bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            ));
        };
        for m in &END_TO_END {
            let find = |s: &Json| {
                s.get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(summary_of)
            };
            match (find(section), find(other)) {
                (Some(b), Some(n)) => row(m.name, b, n, m.better, m.bound),
                _ => {
                    return Err(format!(
                        "`{workload}` has no `{}` in one of the files",
                        m.name
                    ))
                }
            }
        }
        // Expected 0, bound 0: any failure on the new side is worse.
        let share = |s: &Json| {
            let v = s
                .get("failed_share")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            Summary {
                median: v,
                q1: v,
                q3: v,
                n: 1,
            }
        };
        row(
            "failed_share",
            share(section),
            share(other),
            Better::Lower,
            0.0,
        );
    }
    Ok((rows, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(tput: f64, spread: f64, failed: u64) -> Json {
        let metric = |name: &'static str, v: f64| Metric {
            value: v,
            ..Metric::of(name, "x", &[v * (1.0 - spread), v, v * (1.0 + spread)])
        };
        let section = Section {
            workload: "e1_tuple",
            attempted: 1000,
            failed,
            feed_hash: 1,
            output_checksum: 2,
            runs: vec![END_TO_END
                .iter()
                .map(|m| metric(m.name, if m.name == "tuples_per_s" { tput } else { 10.0 }))
                .collect()],
        };
        let text = result_file(header("run", 1, 8.0, 1), &[section]).pretty();
        Json::parse(&text).expect("result files read back")
    }

    #[test]
    fn compare_flags_worse_and_unresolved() {
        let verdicts = |a: &Json, b: &Json| {
            let (rows, worse) = compare(a, b).unwrap();
            let of = |metric: &str| {
                let row = rows.iter().find(|r| r.contains(metric)).unwrap();
                row.split_whitespace().last().unwrap().to_string()
            };
            (of("tuples_per_s"), of("failed_share"), worse)
        };
        let base = file(1000.0, 0.001, 0);
        assert_eq!(
            verdicts(&base, &file(990.0, 0.001, 0)),
            ("ok".into(), "ok".into(), false)
        );
        assert_eq!(
            verdicts(&base, &file(700.0, 0.001, 0)),
            ("worse".into(), "ok".into(), true)
        );
        assert_eq!(verdicts(&base, &file(1000.0, 0.5, 0)).0, "unresolved");
        assert_eq!(
            verdicts(&base, &file(1000.0, 0.001, 3)),
            ("ok".into(), "worse".into(), true)
        );
        assert!(compare(&base, &Json::obj([("workloads", Json::obj::<&str>([]))])).is_err());
    }
}
