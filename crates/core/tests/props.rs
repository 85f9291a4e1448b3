//! Property-based tests for the temporal-operator invariants.

use eslev_core::modes::{engine_for, Exception, ModeEngine};
use eslev_core::prelude::*;
use eslev_core::runs::window_satisfied;
use eslev_dsms::prelude::{Duration, Expr, Timestamp, Tuple, Value};
use proptest::prelude::*;

/// A random joint history over `ports` streams: increasing timestamps
/// with occasional ties, port chosen per entry.
fn history(ports: usize, len: usize) -> impl Strategy<Value = Vec<(usize, Tuple)>> {
    proptest::collection::vec((0..ports, 0u64..4), 0..len).prop_map(|steps| {
        let mut out = Vec::with_capacity(steps.len());
        let mut ts = 0u64;
        for (i, (port, gap)) in steps.into_iter().enumerate() {
            ts += gap; // gap 0 => timestamp tie, broken by seq
            out.push((
                port,
                Tuple::new(
                    vec![Value::Int(ts as i64)],
                    Timestamp::from_secs(ts),
                    i as u64,
                ),
            ));
        }
        out
    })
}

fn pattern(ports: usize, mode: PairingMode, star_first: bool) -> SeqPattern {
    let mut elements: Vec<Element> = (0..ports).map(Element::new).collect();
    if star_first {
        elements[0] = Element::star(0);
    }
    SeqPattern::new(elements, None, mode).unwrap()
}

fn run_detector(pat: SeqPattern, feed: &[(usize, Tuple)]) -> (Vec<SeqMatch>, usize) {
    let mut d = Detector::new(DetectorConfig::seq(pat)).unwrap();
    let mut matches = Vec::new();
    for (port, t) in feed {
        for o in d.on_tuple(*port, t).unwrap() {
            if let DetectorOutput::Match(m) = o {
                matches.push(m);
            }
        }
    }
    let retained = d.retained();
    (matches, retained)
}

proptest! {
    /// Every match's tuples are strictly increasing in (ts, seq) and the
    /// bindings appear in pattern order, in every mode.
    #[test]
    fn matches_are_strictly_ordered(
        feed in history(3, 60),
        mode_idx in 0usize..4,
        star in any::<bool>(),
    ) {
        let mode = PairingMode::ALL[mode_idx];
        let (matches, _) = run_detector(pattern(3, mode, star), &feed);
        for m in &matches {
            let tuples: Vec<&Tuple> = m
                .bindings
                .iter()
                .flat_map(|b| b.tuples().iter())
                .collect();
            for w in tuples.windows(2) {
                prop_assert!(w[1].after(w[0]), "match not strictly ordered: {m}");
            }
            prop_assert_eq!(m.bindings.len(), 3);
        }
    }

    /// RECENT and CONSECUTIVE retain O(pattern) history; CONSECUTIVE at
    /// most one partial run.
    #[test]
    fn bounded_history_modes(feed in history(3, 120)) {
        let (_, recent) = run_detector(pattern(3, PairingMode::Recent, false), &feed);
        prop_assert!(recent <= 6, "RECENT retained {recent}");
        let (_, consec) = run_detector(pattern(3, PairingMode::Consecutive, false), &feed);
        prop_assert!(consec <= 2, "CONSECUTIVE retained {consec}");
    }

    /// CHRONICLE: every tuple participates in at most one match
    /// (identified by its global sequence number).
    #[test]
    fn chronicle_single_participation(feed in history(3, 80), star in any::<bool>()) {
        let (matches, _) = run_detector(pattern(3, PairingMode::Chronicle, star), &feed);
        let mut seen = std::collections::HashSet::new();
        for m in &matches {
            for b in &m.bindings {
                for t in b.tuples() {
                    prop_assert!(seen.insert(t.seq()), "tuple reused across matches");
                }
            }
        }
    }

    /// RECENT and CHRONICLE each produce a subset of UNRESTRICTED's
    /// matches (same pattern, same feed) for star-free patterns.
    #[test]
    fn restricted_modes_are_subsets(feed in history(2, 40)) {
        let key = |m: &SeqMatch| -> Vec<u64> {
            m.bindings.iter().flat_map(|b| b.tuples().iter().map(|t| t.seq())).collect()
        };
        let (unr, _) = run_detector(pattern(2, PairingMode::Unrestricted, false), &feed);
        let all: std::collections::HashSet<Vec<u64>> = unr.iter().map(key).collect();
        for mode in [PairingMode::Recent, PairingMode::Chronicle, PairingMode::Consecutive] {
            let (ms, _) = run_detector(pattern(2, mode, false), &feed);
            for m in &ms {
                prop_assert!(all.contains(&key(m)), "{mode} emitted a non-UNRESTRICTED match");
            }
        }
    }

    /// CONSECUTIVE matches are adjacent on the joint history: the match's
    /// tuples are exactly a contiguous slice of the feed.
    #[test]
    fn consecutive_matches_are_contiguous(feed in history(3, 60)) {
        let (matches, _) = run_detector(pattern(3, PairingMode::Consecutive, false), &feed);
        let seqs: Vec<u64> = feed.iter().map(|(_, t)| t.seq()).collect();
        for m in &matches {
            let used: Vec<u64> = m
                .bindings
                .iter()
                .flat_map(|b| b.tuples().iter().map(|t| t.seq()))
                .collect();
            let start = seqs.iter().position(|s| *s == used[0]).unwrap();
            prop_assert_eq!(&seqs[start..start + used.len()], &used[..]);
        }
    }

    /// Windowed detection never emits a match violating its window, in
    /// any mode, and punctuation purges everything once the stream goes
    /// quiet — for windows that bound every element: `PRECEDING` the last
    /// one, `FOLLOWING` the first. The feed carries no punctuations until
    /// the horizon, so `on_tuple` alone must enforce the window.
    #[test]
    fn windows_are_respected(
        feed in history(2, 60),
        dur_secs in 1u64..20,
        mode_idx in 0usize..4,
        following in any::<bool>(),
        star in 0usize..3,
    ) {
        let dur = Duration::from_secs(dur_secs);
        let window = if following {
            EventWindow::following(dur, 0)
        } else {
            EventWindow::preceding(dur, 1)
        };
        // No star, a star first, or a star last.
        let mut elements = vec![Element::new(0), Element::new(1)];
        if star > 0 {
            elements[star - 1] = Element::star(star - 1);
        }
        let pat = SeqPattern::new(elements, Some(window), PairingMode::ALL[mode_idx]).unwrap();
        let mut d = Detector::new(DetectorConfig::seq(pat.clone())).unwrap();
        for (port, t) in &feed {
            for o in d.on_tuple(*port, t).unwrap() {
                if let DetectorOutput::Match(m) = o {
                    prop_assert!(m.span() <= dur, "match span {} > window {dur}", m.span());
                    prop_assert!(window_satisfied(&pat.window, &m.bindings), "{m}");
                }
            }
        }
        let horizon = feed.last().map(|(_, t)| t.ts()).unwrap_or(Timestamp::ZERO)
            + dur + Duration::from_secs(1);
        d.on_punctuation(horizon).unwrap();
        prop_assert_eq!(d.retained(), 0);
        prop_assert_eq!(d.partitions(), 0);
    }

    /// A trailing star at a `FOLLOWING` anchor: no later element closes
    /// the group, so every tuple it absorbs must itself fall within the
    /// window — again with no punctuation to purge the run in time.
    #[test]
    fn trailing_star_anchor_stays_in_window(
        feed in history(2, 60),
        dur_secs in 1u64..20,
        mode_idx in 0usize..4,
    ) {
        let window = EventWindow::following(Duration::from_secs(dur_secs), 1);
        let pat = SeqPattern::new(
            vec![Element::new(0), Element::star(1)],
            Some(window),
            PairingMode::ALL[mode_idx],
        )
        .unwrap();
        let mut d = Detector::new(DetectorConfig::seq(pat.clone())).unwrap();
        for (port, t) in &feed {
            for o in d.on_tuple(*port, t).unwrap() {
                if let DetectorOutput::Match(m) = o {
                    prop_assert!(window_satisfied(&pat.window, &m.bindings), "{m}");
                }
            }
        }
    }

    /// Star groups obey their gap constraint and longest-match: within a
    /// group consecutive gaps are ≤ the bound, and the tuple right before
    /// the group (same port) is either absent or gap-violating.
    #[test]
    fn star_longest_match(feed in history(2, 60), gap_secs in 1u64..5) {
        let gap = Duration::from_secs(gap_secs);
        let pat = SeqPattern::new(
            vec![Element::star(0).with_star_gap(gap), Element::new(1)],
            None,
            PairingMode::Chronicle,
        )
        .unwrap();
        let (matches, _) = run_detector(pat, &feed);
        for m in &matches {
            let group = m.binding(0).tuples();
            for w in group.windows(2) {
                prop_assert!(w[1].ts() - w[0].ts() <= gap);
            }
            // Longest match: the port-0 tuple immediately before the
            // group start (if any, and unconsumed) must be gap-violating.
            let first = group.first().unwrap();
            let prior = feed
                .iter()
                .filter(|(p, t)| *p == 0 && t.seq() < first.seq())
                .map(|(_, t)| t)
                .next_back();
            if let Some(p) = prior {
                // Either consumed by an earlier match or out of gap.
                let consumed_earlier = matches
                    .iter()
                    .take_while(|mm| mm.ts() <= m.ts())
                    .any(|mm| mm.binding(0).tuples().iter().any(|t| t.seq() == p.seq()));
                prop_assert!(
                    consumed_earlier || first.ts() - p.ts() > gap,
                    "group is not maximal"
                );
            }
        }
    }

    /// EXCEPTION_SEQ partitions arrivals: per partition-free feed, each
    /// tuple causes at most one exception, and completion+exception
    /// levels are within bounds.
    #[test]
    fn exception_levels_bounded(feed in history(3, 60)) {
        let pat = pattern(3, PairingMode::Consecutive, false);
        let mut d = Detector::new(DetectorConfig::exception(pat)).unwrap();
        for (port, t) in &feed {
            let outs = d.on_tuple(*port, t).unwrap();
            let exceptions: Vec<_> = outs.iter().filter(|o| o.as_exception().is_some()).collect();
            prop_assert!(exceptions.len() <= 1, "multiple exceptions for one tuple");
            for o in outs {
                if let DetectorOutput::Exception(e) = o {
                    prop_assert!(e.level >= 1 && e.level <= 3);
                    prop_assert_eq!(e.partial.len(), e.completion_level());
                }
            }
        }
    }
}

/// Brute-force reference for star-free UNRESTRICTED SEQ: every strictly
/// increasing index combination whose ports match the pattern.
fn reference_unrestricted(feed: &[(usize, Tuple)], ports: usize) -> Vec<Vec<u64>> {
    let mut out = Vec::new();
    let n = feed.len();
    fn rec(
        feed: &[(usize, Tuple)],
        ports: usize,
        depth: usize,
        start: usize,
        acc: &mut Vec<u64>,
        out: &mut Vec<Vec<u64>>,
    ) {
        if depth == ports {
            out.push(acc.clone());
            return;
        }
        for i in start..feed.len() {
            if feed[i].0 == depth {
                acc.push(feed[i].1.seq());
                rec(feed, ports, depth + 1, i + 1, acc, out);
                acc.pop();
            }
        }
    }
    let mut acc = Vec::new();
    rec(feed, ports, 0, 0, &mut acc, &mut out);
    let _ = n;
    out
}

proptest! {
    /// The UNRESTRICTED engine agrees exactly with the brute-force
    /// enumeration over the full history (small feeds).
    #[test]
    fn unrestricted_matches_brute_force(feed in history(3, 18)) {
        let (matches, _) = run_detector(pattern(3, PairingMode::Unrestricted, false), &feed);
        let mut got: Vec<Vec<u64>> = matches
            .iter()
            .map(|m| m.bindings.iter().map(|b| b.first().seq()).collect())
            .collect();
        got.sort();
        let mut want = reference_unrestricted(&feed, 3);
        want.sort();
        prop_assert_eq!(got, want);
    }
}

/// The detector's lifecycle before the deadline index, rewritten on the
/// public [`ModeEngine`] API as a reference: one engine per key in
/// creation order, every engine punctuated on every watermark, and the
/// partitions left empty swept after each punctuation.
struct Walk {
    pattern: SeqPattern,
    kind: DetectKind,
    parts: Vec<(i64, Box<dyn ModeEngine>)>,
    matches: u64,
    exceptions: u64,
    created: u64,
    prunes_carry: u64,
}

impl Walk {
    fn new(pattern: SeqPattern, kind: DetectKind) -> Walk {
        Walk {
            pattern,
            kind,
            parts: Vec::new(),
            matches: 0,
            exceptions: 0,
            created: 0,
            prunes_carry: 0,
        }
    }

    fn on_tuple(&mut self, port: usize, t: &Tuple, key: i64) -> Vec<DetectorOutput> {
        let i = match self.parts.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                self.created += 1;
                let engine: Box<dyn ModeEngine> = match self.kind {
                    DetectKind::Seq => engine_for(self.pattern.mode, &self.pattern),
                    DetectKind::ExceptionSeq => Box::new(Exception::new()),
                };
                self.parts.push((key, engine));
                self.parts.len() - 1
            }
        };
        let mut raw = Vec::new();
        self.parts[i]
            .1
            .on_tuple(&self.pattern, port, t, &mut raw)
            .unwrap();
        self.keep(raw)
    }

    fn on_punctuation(&mut self, ts: Timestamp) -> Vec<DetectorOutput> {
        let mut raw = Vec::new();
        for (_, e) in &mut self.parts {
            e.on_punctuation(&self.pattern, ts, &mut raw).unwrap();
        }
        let carry = &mut self.prunes_carry;
        self.parts.retain(|(_, e)| {
            let live = e.retained() > 0;
            if !live {
                *carry += e.prunes();
            }
            live
        });
        self.keep(raw)
    }

    fn keep(&mut self, raw: Vec<DetectorOutput>) -> Vec<DetectorOutput> {
        raw.into_iter()
            .filter(|o| match o {
                DetectorOutput::Match(_) => {
                    self.matches += 1;
                    true
                }
                DetectorOutput::Exception(_) => {
                    let keep = self.kind == DetectKind::ExceptionSeq;
                    self.exceptions += u64::from(keep);
                    keep
                }
            })
            .collect()
    }

    fn counters(&self) -> [u64; 6] {
        [
            self.matches,
            self.exceptions,
            self.created,
            self.prunes_carry + self.parts.iter().map(|(_, e)| e.prunes()).sum::<u64>(),
            self.parts.iter().map(|(_, e)| e.retained() as u64).sum(),
            self.parts.len() as u64,
        ]
    }
}

fn counters(d: &Detector) -> [u64; 6] {
    [
        d.matches_emitted(),
        d.exceptions_emitted(),
        d.partitions_created(),
        d.prunes(),
        d.retained() as u64,
        d.partitions() as u64,
    ]
}

/// splitmix64: a scenario is a pure function of its seed.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// 2–4 elements, at most one star, any mode or EXCEPTION_SEQ, and no
/// window or a `PRECEDING`/`FOLLOWING` one at a random anchor.
fn random_pattern(rng: &mut Mix) -> (SeqPattern, DetectKind) {
    let n = 2 + rng.below(3) as usize;
    let mut elements: Vec<Element> = (0..n).map(Element::new).collect();
    if rng.below(2) == 0 {
        let s = rng.below(n as u64) as usize;
        elements[s] = Element::star(s);
    }
    let dur = Duration::from_secs(1 + rng.below(20));
    let anchor = rng.below(n as u64) as usize;
    let window = match rng.below(5) {
        0 => None,
        1 | 2 => Some(EventWindow::preceding(dur, anchor)),
        _ => Some(EventWindow::following(dur, anchor)),
    };
    let (mode, kind) = match rng.below(5) {
        4 => (PairingMode::Consecutive, DetectKind::ExceptionSeq),
        m => (PairingMode::ALL[m as usize], DetectKind::Seq),
    };
    (SeqPattern::new(elements, window, mode).unwrap(), kind)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The deadline index is the walk, minus the partitions that are not
    /// due: over random patterns, 1–50 keys, timestamp ties, runs of
    /// heartbeat-only punctuations and a save/restore at a random cut, the
    /// detector and the reference emit the same outputs in the same order
    /// and agree on every counter after every step.
    #[test]
    fn deadline_index_equals_walk(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        let (pattern, kind) = random_pattern(&mut rng);
        let keys = 1 + rng.below(50) as i64;
        let steps = rng.below(400) as usize;
        let cut = rng.below(steps as u64 + 1) as usize;
        let config = || DetectorConfig {
            pattern: pattern.clone(),
            kind,
            partition: Some(vec![Expr::col(0); pattern.num_ports()]),
            filter: None,
        };
        let mut d = Detector::new(config()).unwrap();
        let mut walk = Walk::new(pattern.clone(), kind);
        let mut now = 0u64;
        for step in 0..steps {
            if step == cut {
                let saved = d.save_state().unwrap();
                d = Detector::new(config()).unwrap();
                d.restore_state(&saved).unwrap();
            }
            if rng.below(8) == 0 {
                // A run of heartbeats: time passes with no readings.
                for _ in 0..1 + rng.below(4) {
                    now += rng.below(8_000_000);
                    let ts = Timestamp::from_micros(now);
                    prop_assert_eq!(d.on_punctuation(ts).unwrap(), walk.on_punctuation(ts));
                }
            } else {
                // Ties are common: half of the gaps are zero.
                now += rng.below(2) * rng.below(3_000_000);
                let ts = Timestamp::from_micros(now);
                let key = rng.below(keys as u64) as i64;
                let port = rng.below(pattern.num_ports() as u64) as usize;
                let t = Tuple::new(vec![Value::Int(key), Value::Ts(ts)], ts, step as u64);
                prop_assert_eq!(d.on_punctuation(ts).unwrap(), walk.on_punctuation(ts));
                prop_assert_eq!(d.on_tuple(port, &t).unwrap(), walk.on_tuple(port, &t, key));
            }
            prop_assert_eq!(counters(&d), walk.counters(), "step {}", step);
        }
    }
}
