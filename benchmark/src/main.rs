//! `bench`: see `benchmark/README.md`.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bench run     [--seed <n>] [--seconds <s>] [--runs <k>] [--out <json>]
//! bench trace   [--seed <n>] [--seconds <s>] [--out <json>] [--chrome <json>]
//! bench compare <a.json> <b.json>
//! bench spec
//! ```

use eslev_benchmark::feeds::FULL;
use eslev_benchmark::json::Json;
use eslev_benchmark::report::{compare, header, result_file, Section};
use eslev_benchmark::run::{end_to_end, Metric};
use eslev_benchmark::spec::{benchmark_json, END_TO_END, PER_LAYER, RUN_SECONDS};
use eslev_benchmark::trace::traced;
use eslev_benchmark::workloads::Workload;
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "usage:
  bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  bench run     [--seed <n>] [--seconds <s>] [--runs <k>] [--out <json>]
  bench trace   [--seed <n>] [--seconds <s>] [--out <json>] [--chrome <json>]
  bench compare <a.json> <b.json>
  bench spec";

struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or(format!("unexpected `{flag}`"))?;
            let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        }
        Ok(Flags(flags))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value `{v}` for --{name}")),
        }
    }
}

fn write(path: &str, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{path}: {e}"))
}

fn read(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One workload, one run; the last line of stdout is the driver's result.
fn driver(flags: &Flags) -> Result<bool, String> {
    let name: String = flags.get("workload", String::new())?;
    let w = Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?;
    let seed = flags.get("seed", 1u64)?;
    let seconds = flags.get("seconds", RUN_SECONDS as f64)?;
    let (metrics, attempted, failed): (Vec<Metric>, u64, u64) = if flags.get("trace", 0u8)? == 0 {
        let o = end_to_end(w, seed, seconds, &FULL).map_err(|e| e.to_string())?;
        assert!(o
            .metrics
            .iter()
            .map(|m| m.name)
            .eq(END_TO_END.iter().map(|m| m.name)));
        (o.metrics, o.attempted, o.failed)
    } else {
        let t = traced(w, seed, seconds, &FULL).map_err(|e| e.to_string())?;
        // In the order of the contract, and nothing the contract does not list.
        let listed = PER_LAYER.iter().map(|(name, ..)| {
            let m = t.metrics.iter().find(|m| m.name == *name);
            m.cloned()
                .ok_or(format!("per-layer metric `{name}` was not measured"))
        });
        (listed.collect::<Result<_, _>>()?, t.attempted, t.failed)
    };
    for m in &metrics {
        println!("{:<30} {:>18.4} {}", m.name, m.value, m.unit);
    }
    let values = metrics.iter().map(|m| {
        let fields = [("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
        (m.name, Json::obj(fields))
    });
    let line = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(values)),
    ]);
    println!("{}", line.render());
    // A failed check is reported in the line, not by the exit code.
    Ok(true)
}

/// Every workload, tracing off (`run`) or on (`trace`).
fn all_workloads(command: &str, flags: &Flags) -> Result<bool, String> {
    let seed = flags.get("seed", 1u64)?;
    let seconds = flags.get("seconds", RUN_SECONDS as f64)?;
    let runs = flags.get("runs", 1usize)?.max(1);
    let mut sections = Vec::new();
    let mut chrome = Vec::new();
    for w in Workload::ALL {
        let mut section = Section {
            workload: w.name(),
            attempted: 0,
            failed: 0,
            feed_hash: 0,
            output_checksum: 0,
            runs: Vec::new(),
        };
        for _ in 0..runs {
            if command == "run" {
                let o = end_to_end(w, seed, seconds, &FULL).map_err(|e| e.to_string())?;
                section.attempted += o.attempted;
                section.failed += o.failed;
                section.feed_hash = o.feed_hash;
                section.output_checksum = o.output_checksum;
                section.runs.push(o.metrics);
            } else {
                let t = traced(w, seed, seconds, &FULL).map_err(|e| e.to_string())?;
                section.attempted += t.attempted;
                section.failed += t.failed;
                section.feed_hash = t.feed_hash;
                section.output_checksum = t.output_checksum;
                section.runs.push(t.metrics);
                println!(
                    "{}: spans by name (a layer's self time is its span minus its children)",
                    w.name()
                );
                for (name, t) in t.tracer.by_name() {
                    println!(
                        "  {name:<30} calls {:>7} total {:>11.3} ms self {:>11.3} ms",
                        t.calls,
                        t.total_ns as f64 / 1e6,
                        t.self_ns as f64 / 1e6
                    );
                }
                chrome.extend(t.tracer.chrome_events(sections.len() as u32 + 1));
            }
        }
        section.print();
        sections.push(section);
    }
    if let Some(path) = flags.0.get("out") {
        write(
            path,
            &result_file(header(command, seed, seconds, runs), &sections),
        )?;
    }
    if let Some(path) = flags.0.get("chrome") {
        let doc = Json::obj([("traceEvents", Json::Arr(chrome))]);
        std::fs::write(path, doc.render()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(sections.iter().all(|s| s.failed == 0))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some(command @ ("run" | "trace")) => {
            Flags::parse(&args[1..]).and_then(|flags| all_workloads(command, &flags))
        }
        Some("compare") if args.len() == 3 => read(&args[1]).and_then(|a| {
            let (rows, worse) = compare(&a, &read(&args[2])?)?;
            rows.iter().for_each(|r| println!("{r}"));
            Ok(!worse)
        }),
        Some("spec") => {
            print!("{}", benchmark_json().pretty());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => Flags::parse(&args).and_then(|f| driver(&f)),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
