//! Every workload, every ground-truth check and every metric, on tiny
//! feeds: an API change that breaks the benchmark fails here in seconds.

use eslev_benchmark::feeds::{Feed, TINY};
use eslev_benchmark::json::Json;
use eslev_benchmark::run::end_to_end;
use eslev_benchmark::spec::{benchmark_json, END_TO_END, PER_LAYER};
use eslev_benchmark::trace::traced;
use eslev_benchmark::workloads::Workload;

/// Long enough for the minimum number of passes, no longer.
const SECONDS: f64 = 0.01;

#[test]
fn every_workload_meets_its_ground_truth_on_two_seeds() {
    for seed in [1, 2] {
        let mut e1_outputs = Vec::new();
        for w in Workload::ALL {
            let o = end_to_end(w, seed, SECONDS, &TINY).unwrap();
            assert_eq!(o.failed, 0, "{} seed {seed}", w.name());
            assert!(o.attempted > 0);
            let reported: Vec<_> = o.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let listed: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(reported, listed);
            for m in &o.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {} = {}",
                    w.name(),
                    m.name,
                    m.value
                );
            }
            if w.name().starts_with("e1_") {
                e1_outputs.push(o.output_checksum);
            }
        }
        // The tiny feed is shorter than the paced schedule, so all five
        // e1 workloads see the same readings and must agree.
        assert_eq!(e1_outputs.len(), 5);
        assert!(
            e1_outputs.iter().all(|c| *c == e1_outputs[0]),
            "{e1_outputs:x?}"
        );
    }
}

#[test]
fn the_seed_alone_decides_the_feed() {
    for w in Workload::ALL {
        let feed = |seed| Feed::generate(w, seed, &TINY, 1);
        let (a, b, other) = (feed(7), feed(7), feed(8));
        assert_eq!(a.hash, b.hash, "{}", w.name());
        assert_eq!(a.expected_checksum(), b.expected_checksum());
        assert_ne!(
            a.hash,
            other.hash,
            "{}: the seed reaches the generator",
            w.name()
        );
        let run = |seed| end_to_end(w, seed, SECONDS, &TINY).unwrap();
        let (x, y) = (run(7), run(7));
        assert_eq!(
            (x.feed_hash, x.output_checksum),
            (y.feed_hash, y.output_checksum)
        );
        assert_eq!(x.output_checksum, a.expected_checksum());
    }
}

#[test]
fn a_traced_run_reports_every_per_layer_metric() {
    for w in Workload::ALL {
        let t = traced(w, 3, SECONDS, &TINY).unwrap();
        assert_eq!(t.failed, 0, "{}", w.name());
        for (name, unit, _) in PER_LAYER {
            let found: Vec<_> = t.metrics.iter().filter(|m| m.name == *name).collect();
            assert_eq!(found.len(), 1, "{}: `{name}` reported once", w.name());
            assert_eq!(found[0].unit, *unit, "{name}");
            assert!(found[0].value.is_finite(), "{}: {name}", w.name());
        }
        assert_eq!(t.metrics.len(), PER_LAYER.len(), "nothing unlisted");
        assert!(t
            .tracer
            .spans
            .iter()
            .any(|s| s.name == "feed" && s.parent.is_some()));
    }
}

#[test]
fn benchmark_json_is_the_spec() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    assert_eq!(
        Json::parse(&text).unwrap(),
        benchmark_json(),
        "regenerate with `bench spec`"
    );
    let ok_name = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.0));
    assert!(names.iter().all(|n| ok_name(n)));
    let unique: std::collections::HashSet<_> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "a name is used once");
    assert!(Workload::ALL
        .iter()
        .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
    assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
}
