//! Matrix tests across pattern shapes, modes and windows — including the
//! §3.1.2 multi-star pattern `SEQ(A*, B, C*, D)` that footnote 4's
//! multi-return rule excludes but plain detection must support.

use eslev_core::prelude::*;
use eslev_dsms::expr::Expr;
use eslev_dsms::prelude::{Duration, Timestamp, Tuple, Value};

fn t(secs: u64, seq: u64) -> Tuple {
    Tuple::new(
        vec![Value::Int(secs as i64)],
        Timestamp::from_secs(secs),
        seq,
    )
}

fn run(pat: SeqPattern, feed: &[(usize, u64)]) -> (Vec<SeqMatch>, usize) {
    let mut d = Detector::new(DetectorConfig::seq(pat)).unwrap();
    let mut out = Vec::new();
    for (i, (port, secs)) in feed.iter().enumerate() {
        for o in d.on_tuple(*port, &t(*secs, i as u64)).unwrap() {
            if let DetectorOutput::Match(m) = o {
                out.push(m);
            }
        }
    }
    let retained = d.retained();
    (out, retained)
}

/// §3.1.2: "SEQ(A*, B, C*, D) says that the operator returns true if some
/// A tuples are followed by exactly one B tuple, and followed by some C
/// tuples, and finally followed by one D tuple."
#[test]
fn two_star_pattern_all_modes() {
    let feed: Vec<(usize, u64)> = vec![
        (0, 1), // A
        (0, 2), // A
        (1, 3), // B
        (2, 4), // C
        (2, 5), // C
        (2, 6), // C
        (3, 7), // D
    ];
    for mode in [
        PairingMode::Unrestricted,
        PairingMode::Chronicle,
        PairingMode::Consecutive,
    ] {
        let pat = SeqPattern::new(
            vec![
                Element::star(0),
                Element::new(1),
                Element::star(2),
                Element::new(3),
            ],
            None,
            mode,
        )
        .unwrap();
        let (matches, _) = run(pat, &feed);
        assert_eq!(matches.len(), 1, "{mode}");
        let m = &matches[0];
        assert_eq!(m.binding(0).count(), 2, "{mode}: A* group");
        assert_eq!(m.binding(1).count(), 1, "{mode}: exactly one B");
        assert_eq!(m.binding(2).count(), 3, "{mode}: C* group");
        assert_eq!(m.binding(3).count(), 1, "{mode}: one D");
    }
}

/// The same pattern under RECENT: groups accumulate on the latest chain.
#[test]
fn two_star_pattern_recent() {
    let pat = SeqPattern::new(
        vec![
            Element::star(0),
            Element::new(1),
            Element::star(2),
            Element::new(3),
        ],
        None,
        PairingMode::Recent,
    )
    .unwrap();
    let feed: Vec<(usize, u64)> = vec![(0, 1), (1, 2), (2, 3), (2, 4), (3, 5)];
    let (matches, retained) = run(pat, &feed);
    assert_eq!(matches.len(), 1);
    assert_eq!(matches[0].binding(2).count(), 2);
    assert!(retained <= 10);
}

/// A star that never gets its closing element emits nothing (one-or-more
/// but not standalone), in every mode.
#[test]
fn unclosed_star_never_fires() {
    for mode in PairingMode::ALL {
        let pat = SeqPattern::new(vec![Element::star(0), Element::new(1)], None, mode).unwrap();
        let feed: Vec<(usize, u64)> = (1..20).map(|i| (0usize, i)).collect();
        let (matches, _) = run(pat, &feed);
        assert!(matches.is_empty(), "{mode}");
    }
}

/// Windows combined with partitioning: per-tag QC detection where slow
/// products fall out of the 30 s window.
#[test]
fn window_and_partition_interact() {
    let pat = SeqPattern::new(
        (0..3).map(Element::new).collect(),
        Some(EventWindow::preceding(Duration::from_secs(30), 2)),
        PairingMode::Recent,
    )
    .unwrap();
    let cfg = DetectorConfig::seq(pat).with_partition(vec![Expr::col(0); 3]);
    let mut d = Detector::new(cfg).unwrap();
    let reading = |tag: &str, secs: u64, seq: u64| {
        Tuple::new(vec![Value::str(tag)], Timestamp::from_secs(secs), seq)
    };
    let mut matches = 0;
    // fast: 0 → 10 → 20 (within 30 s); slow: 0 → 10 → 50 (outside).
    let feed = [
        ("fast", 0usize, 0u64),
        ("slow", 0, 1),
        ("fast", 1, 10),
        ("slow", 1, 10),
        ("fast", 2, 20),
        ("slow", 2, 50),
    ];
    for (i, (tag, port, secs)) in feed.iter().enumerate() {
        matches += d
            .on_tuple(*port, &reading(tag, *secs, i as u64))
            .unwrap()
            .iter()
            .filter(|o| o.as_match().is_some())
            .count();
    }
    assert_eq!(matches, 1, "only the fast product completes in-window");
}

/// FOLLOWING window anchored mid-pattern (the §3.1.3 note that the
/// anchor "can not be specified using an equivalent PRECEDING
/// construct"): SEQ(A, B, C) OVER [10 s FOLLOWING B].
#[test]
fn following_window_mid_anchor() {
    let pat = SeqPattern::new(
        (0..3).map(Element::new).collect(),
        Some(EventWindow::following(Duration::from_secs(10), 1)),
        PairingMode::Recent,
    )
    .unwrap();
    // A may be arbitrarily old; only B→C is bounded.
    let ok: Vec<(usize, u64)> = vec![(0, 1), (1, 100), (2, 109)];
    let (m, _) = run(pat.clone(), &ok);
    assert_eq!(m.len(), 1, "old A is fine; B→C within 10 s");
    let late: Vec<(usize, u64)> = vec![(0, 1), (1, 100), (2, 111)];
    let (m, _) = run(pat, &late);
    assert!(m.is_empty(), "C more than 10 s after B violates the window");
}

/// Punctuation-driven purge across every mode and EXCEPTION_SEQ: after
/// quiescence beyond the window, no state survives — neither from a
/// partial sequence nor from completed ones, including the head a
/// completion leaves at a final `PRECEDING` anchor (the RECENT slot that
/// used to keep every partition alive).
#[test]
fn quiescent_purge_matrix() {
    let dur = Duration::from_secs(10);
    let windows = [
        EventWindow::preceding(dur, 2),
        EventWindow::following(dur, 0),
    ];
    let configs = |w: EventWindow| {
        let pat =
            |mode| SeqPattern::new((0..3).map(Element::new).collect(), Some(w), mode).unwrap();
        PairingMode::ALL
            .map(|mode| (mode.keyword(), DetectorConfig::seq(pat(mode))))
            .into_iter()
            .chain([(
                "EXCEPTION_SEQ",
                DetectorConfig::exception(pat(PairingMode::Consecutive)),
            )])
    };
    for w in windows {
        for (label, cfg) in configs(w) {
            // A lone partial.
            let mut d = Detector::new(cfg).unwrap();
            d.on_tuple(0, &t(0, 0)).unwrap();
            d.on_tuple(1, &t(1, 1)).unwrap();
            d.on_punctuation(Timestamp::from_secs(100)).unwrap();
            assert_eq!(d.retained(), 0, "{label} {w:?}: partial");
            assert_eq!(d.partitions(), 0, "{label} {w:?}: partial");
        }
        for (label, cfg) in configs(w) {
            // 120 keys, each completing A, B, C, with a stray A and B
            // left over on some, interleaved and punctuated as the
            // engine does (watermark before every tuple).
            let mut d = Detector::new(cfg.with_partition(vec![Expr::col(0); 3])).unwrap();
            let mut feed: Vec<(u64, usize, i64)> = Vec::new();
            for key in 0..120i64 {
                let base = key as u64 * 2_000;
                feed.extend([
                    (base, 0, key),
                    (base + 1_500, 1, key),
                    (base + 3_000, 2, key),
                ]);
                if key % 3 == 0 {
                    feed.push((base + 3_500, 0, key));
                }
                if key % 4 == 1 {
                    feed.push((base + 4_000, 1, key));
                }
            }
            feed.sort();
            let mut matches = 0;
            for (seq, (ms, port, key)) in feed.iter().enumerate() {
                let ts = Timestamp::from_millis(*ms);
                d.on_punctuation(ts).unwrap();
                let r = Tuple::new(vec![Value::Int(*key), Value::Ts(ts)], ts, seq as u64);
                matches += d
                    .on_tuple(*port, &r)
                    .unwrap()
                    .iter()
                    .filter(|o| o.as_match().is_some())
                    .count();
            }
            assert_eq!(matches, 120, "{label} {w:?}: every key completes");
            assert!(d.partitions() > 0, "{label} {w:?}: live before the horizon");
            let horizon = Timestamp::from_millis(feed.last().unwrap().0) + dur + dur;
            d.on_punctuation(horizon).unwrap();
            assert_eq!(d.retained(), 0, "{label} {w:?}: completed");
            assert_eq!(d.partitions(), 0, "{label} {w:?}: completed");
        }
    }
}

/// The counter-case: past a mid-pattern `PRECEDING` anchor nothing is
/// bounded, so the partial must survive any quiet period —
/// `SEQ(A, B, C) OVER [10 s PRECEDING B]` completes with a C an hour on.
#[test]
fn mid_anchor_partial_completes_late() {
    for mode in PairingMode::ALL {
        let pat = SeqPattern::new(
            (0..3).map(Element::new).collect(),
            Some(EventWindow::preceding(Duration::from_secs(10), 1)),
            mode,
        )
        .unwrap();
        let mut d = Detector::new(DetectorConfig::seq(pat)).unwrap();
        d.on_tuple(0, &t(0, 0)).unwrap();
        d.on_tuple(1, &t(5, 1)).unwrap();
        d.on_punctuation(Timestamp::from_secs(3_600)).unwrap();
        assert_eq!(d.partitions(), 1, "{mode}");
        let out = d.on_tuple(2, &t(3_600, 2)).unwrap();
        assert_eq!(out.len(), 1, "{mode}: the late C completes");
    }
}

/// Element predicates combine with modes: only hot readings participate.
#[test]
fn element_predicates_filter_participants() {
    use eslev_dsms::expr::BinOp;
    let hot = Expr::bin(BinOp::Ge, Expr::col(0), Expr::lit(100i64));
    let pat = SeqPattern::new(
        vec![Element::star(0).with_predicate(hot), Element::new(1)],
        None,
        PairingMode::Consecutive,
    )
    .unwrap();
    let mut d = Detector::new(DetectorConfig::seq(pat)).unwrap();
    let v = |val: i64, secs: u64, seq: u64| {
        Tuple::new(vec![Value::Int(val)], Timestamp::from_secs(secs), seq)
    };
    // Cold reading on port 0 breaks the consecutive run.
    d.on_tuple(0, &v(150, 1, 0)).unwrap();
    d.on_tuple(0, &v(50, 2, 1)).unwrap(); // cold: breaks
    d.on_tuple(0, &v(120, 3, 2)).unwrap();
    d.on_tuple(0, &v(130, 4, 3)).unwrap();
    let out = d.on_tuple(1, &v(0, 5, 4)).unwrap();
    let m = out[0].as_match().unwrap();
    assert_eq!(m.binding(0).count(), 2, "only the post-break hot run");
}

/// Timestamp ties (same second, different arrival) stay deterministic:
/// the joint order is (ts, seq).
#[test]
fn simultaneous_readings_are_ordered_by_arrival() {
    let pat = SeqPattern::new(
        vec![Element::new(0), Element::new(1)],
        None,
        PairingMode::Chronicle,
    )
    .unwrap();
    let mut d = Detector::new(DetectorConfig::seq(pat)).unwrap();
    // B arrives first at t=5, then A at t=5: A cannot precede B.
    d.on_tuple(1, &t(5, 0)).unwrap();
    let out = d.on_tuple(0, &t(5, 1)).unwrap();
    assert!(out.is_empty());
    // Next B (later arrival) pairs with that A.
    let out = d.on_tuple(1, &t(5, 2)).unwrap();
    assert_eq!(out.len(), 1);
}
