//! UNRESTRICTED mode: every time-ordered combination is an event.
//!
//! Implemented as a nondeterministic set of runs. A tuple that can bind
//! element `k` of a run *forks* the run (the original stays available for
//! later tuples of element `k`, which is what "all possible pairings"
//! means). Star groups do not fork: longest-match makes the group
//! deterministic given the run's earlier bindings, so qualifying tuples
//! are appended in place — but *closing* a group forks, because a later
//! closing tuple closes a (longer) group of the same run.
//!
//! Run count is inherently combinatorial — the paper's motivation for the
//! other three modes. Windows bound it: runs past their window deadline
//! are purged on every punctuation.

use super::{check_contract, contract_probe, ModeEngine};
use crate::binding::DetectorOutput;
use crate::ckpt::{restore_run, save_run};
use crate::pattern::SeqPattern;
use crate::runs::{window_satisfied, Ext, Run};
use eslev_dsms::ckpt::StateNode;
use eslev_dsms::error::Result;
use eslev_dsms::time::Timestamp;
use eslev_dsms::tuple::Tuple;

/// The UNRESTRICTED engine.
#[derive(Default)]
pub struct Unrestricted {
    runs: Vec<Run>,
    prunes: u64,
}

impl Unrestricted {
    /// Fresh engine.
    pub fn new() -> Unrestricted {
        Unrestricted::default()
    }

    /// Number of live runs (for tests and ablation benches).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }
}

impl ModeEngine for Unrestricted {
    fn on_tuple(
        &mut self,
        pat: &SeqPattern,
        port: usize,
        t: &Tuple,
        out: &mut Vec<DetectorOutput>,
    ) -> Result<()> {
        let mut forks: Vec<Run> = Vec::new();
        let mut absorbed_at_zero = false;
        for run in &mut self.runs {
            match run.classify(pat, t, port)? {
                None => {}
                Some(ext @ Ext::Append { idx }) => {
                    // In-place absorption (longest-match star growth).
                    run.apply(pat, ext, t);
                    if idx == 0 {
                        absorbed_at_zero = true;
                    }
                    if idx == pat.len() - 1 {
                        // Trailing star: online emission per arrival.
                        emit(pat, run.snapshot_match(), out);
                    }
                }
                Some(ext @ Ext::Advance { .. }) => {
                    // Fork: the original run remains open for other
                    // tuples that could bind this element later.
                    let mut forked = run.clone();
                    let complete = forked.apply(pat, ext, t);
                    if complete {
                        emit(pat, forked.into_match(), out);
                    } else {
                        if forked.next_elem() == pat.len() - 1
                            && pat.trailing_star()
                            && !forked.group.is_empty()
                        {
                            // Advance into a trailing star starts its
                            // group — emit the first online snapshot (not
                            // on binding the element before it: a star
                            // needs one tuple).
                            emit(pat, forked.snapshot_match(), out);
                        }
                        forks.push(forked);
                    }
                }
            }
        }
        // Seed a new run at element 0.
        let fresh = Run::new();
        if let Some(ext) = fresh.classify(pat, t, port)? {
            // A star element 0 that already absorbed this tuple must not
            // also seed a new group (the group IS the longest run).
            let seed = match ext {
                Ext::Append { .. } => !absorbed_at_zero,
                Ext::Advance { .. } => true,
            };
            if seed {
                let mut run = Run::new();
                let complete = run.apply(pat, ext, t);
                if complete {
                    emit(pat, run.into_match(), out);
                } else {
                    if pat.len() == 1 {
                        unreachable!("patterns have >= 2 elements");
                    }
                    if run.next_elem() == pat.len() - 1
                        && pat.trailing_star()
                        && !run.group.is_empty()
                    {
                        emit(pat, run.snapshot_match(), out);
                    }
                    self.runs.push(run);
                }
            }
        }
        self.runs.append(&mut forks);
        Ok(())
    }

    fn on_punctuation(
        &mut self,
        pat: &SeqPattern,
        ts: Timestamp,
        _out: &mut Vec<DetectorOutput>,
    ) -> Result<()> {
        let probe = contract_probe(self, pat, ts);
        let before = self.runs.len();
        self.runs
            .retain(|r| r.deadline(pat).is_none_or(|d| ts <= d));
        self.prunes += (before - self.runs.len()) as u64;
        check_contract(probe, self);
        Ok(())
    }

    fn next_deadline(&self, pat: &SeqPattern) -> Option<Timestamp> {
        self.runs.iter().filter_map(|r| r.deadline(pat)).min()
    }

    fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    fn retained(&self) -> usize {
        self.runs.iter().map(|r| r.total_tuples()).sum()
    }

    fn prunes(&self) -> u64 {
        self.prunes
    }

    fn save_state(&self) -> Result<StateNode> {
        Ok(StateNode::List(vec![
            StateNode::List(self.runs.iter().map(save_run).collect()),
            StateNode::U64(self.prunes),
        ]))
    }

    fn restore_state(&mut self, _pat: &SeqPattern, state: &StateNode) -> Result<()> {
        self.runs = state
            .item(0)?
            .as_list()?
            .iter()
            .map(restore_run)
            .collect::<Result<Vec<Run>>>()?;
        self.prunes = state.item(1)?.as_u64()?;
        Ok(())
    }
}

fn emit(pat: &SeqPattern, m: crate::binding::SeqMatch, out: &mut Vec<DetectorOutput>) {
    debug_assert!(window_satisfied(&pat.window, &m.bindings));
    out.push(DetectorOutput::Match(m));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::PairingMode;
    use crate::pattern::Element;
    use eslev_dsms::value::Value;

    fn t(secs: u64, seq: u64) -> Tuple {
        Tuple::new(
            vec![Value::Int(secs as i64)],
            Timestamp::from_secs(secs),
            seq,
        )
    }

    fn pat4() -> SeqPattern {
        SeqPattern::new(
            (0..4).map(Element::new).collect(),
            None,
            PairingMode::Unrestricted,
        )
        .unwrap()
    }

    /// The paper's worked example (§3.1.1): joint history
    /// [t1:C1, t2:C1, t3:C2, t4:C3, t5:C3, t6:C2, t7:C4] must yield
    /// exactly 4 events under UNRESTRICTED.
    #[test]
    fn worked_example_yields_four_events() {
        let pat = pat4();
        let mut eng = Unrestricted::new();
        let mut out = Vec::new();
        let history = [
            (0usize, 1u64),
            (0, 2),
            (1, 3),
            (2, 4),
            (2, 5),
            (1, 6),
            (3, 7),
        ];
        for (i, (port, secs)) in history.iter().enumerate() {
            eng.on_tuple(&pat, *port, &t(*secs, i as u64), &mut out)
                .unwrap();
        }
        let matches: Vec<_> = out.iter().filter_map(|o| o.as_match()).collect();
        assert_eq!(matches.len(), 4);
        let mut combos: Vec<Vec<u64>> = matches
            .iter()
            .map(|m| {
                m.bindings
                    .iter()
                    .map(|b| b.first().ts().as_micros() / 1_000_000)
                    .collect()
            })
            .collect();
        combos.sort();
        assert_eq!(
            combos,
            vec![
                vec![1, 3, 4, 7],
                vec![1, 3, 5, 7],
                vec![2, 3, 4, 7],
                vec![2, 3, 5, 7],
            ]
        );
    }

    #[test]
    fn star_longest_match_single_event() {
        // SEQ(A*, B): three As then B → exactly one event with all three.
        let pat = SeqPattern::new(
            vec![Element::star(0), Element::new(1)],
            None,
            PairingMode::Unrestricted,
        )
        .unwrap();
        let mut eng = Unrestricted::new();
        let mut out = Vec::new();
        for i in 0..3u64 {
            eng.on_tuple(&pat, 0, &t(i, i), &mut out).unwrap();
        }
        eng.on_tuple(&pat, 1, &t(10, 3), &mut out).unwrap();
        let matches: Vec<_> = out.iter().filter_map(|o| o.as_match()).collect();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].binding(0).count(), 3);
    }

    #[test]
    fn later_close_reuses_grown_group() {
        // SEQ(A*, B): A A B1 B2 → (AA, B1) and (AA, B2).
        let pat = SeqPattern::new(
            vec![Element::star(0), Element::new(1)],
            None,
            PairingMode::Unrestricted,
        )
        .unwrap();
        let mut eng = Unrestricted::new();
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 0, &t(1, 1), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(2, 2), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(3, 3), &mut out).unwrap();
        let matches: Vec<_> = out.iter().filter_map(|o| o.as_match()).collect();
        assert_eq!(matches.len(), 2);
        assert!(matches.iter().all(|m| m.binding(0).count() == 2));
    }

    #[test]
    fn trailing_star_emits_per_arrival() {
        // SEQ(A, B*): one event per B (paper §3.1.2's online rule).
        let pat = SeqPattern::new(
            vec![Element::new(0), Element::star(1)],
            None,
            PairingMode::Unrestricted,
        )
        .unwrap();
        let mut eng = Unrestricted::new();
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        for i in 1..=3u64 {
            eng.on_tuple(&pat, 1, &t(i, i), &mut out).unwrap();
        }
        let counts: Vec<usize> = out
            .iter()
            .filter_map(|o| o.as_match())
            .map(|m| m.binding(1).count())
            .collect();
        assert_eq!(counts, vec![1, 2, 3]);
    }

    /// Binding the element before a trailing star opens no group, so it
    /// emits nothing: SEQ(A, B, C*) over A, B, C fires once, on C (it
    /// used to fire on B too, with an empty C* binding).
    #[test]
    fn trailing_star_needs_one_tuple() {
        let pat = SeqPattern::new(
            vec![Element::new(0), Element::new(1), Element::star(2)],
            None,
            PairingMode::Unrestricted,
        )
        .unwrap();
        let mut eng = Unrestricted::new();
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(1, 1), &mut out).unwrap();
        assert!(out.is_empty());
        eng.on_tuple(&pat, 2, &t(2, 2), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].as_match().unwrap().binding(2).count(), 1);
    }

    #[test]
    fn window_purges_runs() {
        use crate::pattern::EventWindow;
        use eslev_dsms::time::Duration;
        let pat = SeqPattern::new(
            vec![Element::new(0), Element::new(1)],
            Some(EventWindow::preceding(Duration::from_secs(10), 1)),
            PairingMode::Unrestricted,
        )
        .unwrap();
        let mut eng = Unrestricted::new();
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        assert_eq!(eng.run_count(), 1);
        eng.on_punctuation(&pat, Timestamp::from_secs(11), &mut out)
            .unwrap();
        assert_eq!(eng.run_count(), 0);
        assert_eq!(eng.retained(), 0);
        // A late second element finds nothing.
        eng.on_tuple(&pat, 1, &t(12, 1), &mut out).unwrap();
        assert!(out.iter().all(|o| o.as_match().is_none()));
    }

    #[test]
    fn cross_product_growth_is_real() {
        // 3 As then 3 Bs with SEQ(A, B): 9 matches — the combinatorial
        // behaviour the other modes exist to avoid.
        let pat = SeqPattern::new(
            vec![Element::new(0), Element::new(1)],
            None,
            PairingMode::Unrestricted,
        )
        .unwrap();
        let mut eng = Unrestricted::new();
        let mut out = Vec::new();
        for i in 0..3u64 {
            eng.on_tuple(&pat, 0, &t(i, i), &mut out).unwrap();
        }
        for i in 3..6u64 {
            eng.on_tuple(&pat, 1, &t(i, i), &mut out).unwrap();
        }
        assert_eq!(out.len(), 9);
    }
}
