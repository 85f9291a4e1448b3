//! The EXCEPTION_SEQ / CLEVEL_SEQ engine (§3.1.3).
//!
//! Tracks one current partial sequence (the consecutive interpretation
//! under which the paper defines *Sequence Completion Levels*) and emits
//! an [`ExceptionEvent`] whenever the partial becomes unextendable:
//!
//! 1. **Wrong extension** — an arriving tuple does not match the next
//!    expected element (the paper's RECENT example: `(A, B)` then `B`);
//! 2. **Wrong start** — a tuple arrives with no partial in progress and
//!    does not match the first element (completion level 0);
//! 3. **Window expiry** — the operator's window closes on a partial,
//!    detected by punctuation (*active expiration*: no arrival needed).
//!
//! Normal completions are emitted as `Match` outputs so a single engine
//! serves both `EXCEPTION_SEQ` (keep exceptions) and `CLEVEL_SEQ`
//! (exceptions carry `level − 1 < n`, matches carry `n`).
//!
//! At most one exception is emitted per arriving tuple: a tuple that
//! breaks a partial *and* fails to start a new sequence reports only the
//! break (the paper's scenarios are mutually exclusive per arrival).

use super::{check_contract, contract_probe, ModeEngine};
use crate::binding::{DetectorOutput, ExceptionCause, ExceptionEvent};
use crate::ckpt::{restore_run, save_run};
use crate::pattern::SeqPattern;
use crate::runs::{window_satisfied, Ext, Run};
use eslev_dsms::ckpt::StateNode;
use eslev_dsms::error::Result;
use eslev_dsms::time::Timestamp;
use eslev_dsms::tuple::Tuple;

/// The exception-detection engine.
#[derive(Default)]
pub struct Exception {
    run: Run,
    prunes: u64,
}

impl Exception {
    /// Fresh engine.
    pub fn new() -> Exception {
        Exception::default()
    }

    fn raise(&mut self, cause: ExceptionCause, ts: Timestamp, out: &mut Vec<DetectorOutput>) {
        let level = self.run.completion_level() + 1;
        let partial = self.run.partial_bindings();
        out.push(DetectorOutput::Exception(ExceptionEvent {
            level,
            partial,
            cause,
            ts,
        }));
        if self.run.total_tuples() > 0 {
            self.prunes += 1;
        }
        self.run = Run::new();
    }
}

impl ModeEngine for Exception {
    fn on_tuple(
        &mut self,
        pat: &SeqPattern,
        port: usize,
        t: &Tuple,
        out: &mut Vec<DetectorOutput>,
    ) -> Result<()> {
        match self.run.classify(pat, t, port)? {
            Some(ext @ Ext::Append { idx }) => {
                self.run.apply(pat, ext, t);
                if idx == pat.len() - 1 {
                    out.push(DetectorOutput::Match(self.run.snapshot_match()));
                }
            }
            Some(ext @ Ext::Advance { .. }) => {
                let complete = self.run.apply(pat, ext, t);
                if complete {
                    let m = std::mem::take(&mut self.run).into_match();
                    debug_assert!(window_satisfied(&pat.window, &m.bindings));
                    out.push(DetectorOutput::Match(m));
                } else if self.run.next_elem() == pat.len() - 1
                    && pat.trailing_star()
                    && !self.run.group.is_empty()
                {
                    out.push(DetectorOutput::Match(self.run.snapshot_match()));
                }
            }
            None => {
                let was_empty = self.run.is_untouched();
                let cause = if was_empty {
                    ExceptionCause::WrongStart { tuple: t.clone() }
                } else {
                    ExceptionCause::WrongExtension { tuple: t.clone() }
                };
                self.raise(cause, t.ts(), out);
                if !was_empty {
                    // The offending tuple gets one (silent) chance to
                    // start a new sequence — no second exception.
                    if let Some(ext) = self.run.classify(pat, t, port)? {
                        self.run.apply(pat, ext, t);
                    }
                }
            }
        }
        Ok(())
    }

    fn on_punctuation(
        &mut self,
        pat: &SeqPattern,
        ts: Timestamp,
        out: &mut Vec<DetectorOutput>,
    ) -> Result<()> {
        let probe = contract_probe(self, pat, ts);
        if !self.run.is_untouched() && self.run.deadline(pat).is_some_and(|d| ts > d) {
            self.raise(ExceptionCause::WindowExpiry, ts, out);
        }
        check_contract(probe, self);
        Ok(())
    }

    fn next_deadline(&self, pat: &SeqPattern) -> Option<Timestamp> {
        // An untouched run has no first tuple, hence no deadline.
        self.run.deadline(pat)
    }

    fn is_empty(&self) -> bool {
        self.run.is_untouched()
    }

    fn retained(&self) -> usize {
        self.run.total_tuples()
    }

    fn prunes(&self) -> u64 {
        self.prunes
    }

    fn save_state(&self) -> Result<StateNode> {
        Ok(StateNode::List(vec![
            save_run(&self.run),
            StateNode::U64(self.prunes),
        ]))
    }

    fn restore_state(&mut self, _pat: &SeqPattern, state: &StateNode) -> Result<()> {
        self.run = restore_run(state.item(0)?)?;
        self.prunes = state.item(1)?.as_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::PairingMode;
    use crate::pattern::{Element, EventWindow};
    use eslev_dsms::time::Duration;
    use eslev_dsms::value::Value;

    fn t(secs: u64, seq: u64) -> Tuple {
        Tuple::new(
            vec![Value::Int(secs as i64)],
            Timestamp::from_secs(secs),
            seq,
        )
    }

    /// SEQ(A, B, C) — the clinic pattern of Example 5.
    fn abc() -> SeqPattern {
        SeqPattern::new(
            (0..3).map(Element::new).collect(),
            None,
            PairingMode::Consecutive,
        )
        .unwrap()
    }

    fn abc_windowed(secs: u64) -> SeqPattern {
        SeqPattern::new(
            (0..3).map(Element::new).collect(),
            Some(EventWindow::following(Duration::from_secs(secs), 0)),
            PairingMode::Consecutive,
        )
        .unwrap()
    }

    #[test]
    fn normal_completion_is_a_match() {
        let pat = abc();
        let mut eng = Exception::new();
        let mut out = Vec::new();
        for (i, port) in [0usize, 1, 2].iter().enumerate() {
            eng.on_tuple(&pat, *port, &t(i as u64, i as u64), &mut out)
                .unwrap();
        }
        assert_eq!(out.len(), 1);
        assert!(out[0].as_match().is_some());
    }

    /// The paper's scenario 1: (A, B) then another B → exception at
    /// level k+1 = 3.
    #[test]
    fn wrong_extension_level() {
        let pat = abc();
        let mut eng = Exception::new();
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(1, 1), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(2, 2), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        let e = out[0].as_exception().unwrap();
        assert_eq!(e.level, 3);
        assert_eq!(e.completion_level(), 2);
        assert!(matches!(e.cause, ExceptionCause::WrongExtension { .. }));
        assert_eq!(e.partial.len(), 2);
    }

    /// The paper's scenario 2: after a completed (A,B,C), a lone C cannot
    /// start a sequence → completion level 0, exception level 1.
    #[test]
    fn wrong_start_level() {
        let pat = abc();
        let mut eng = Exception::new();
        let mut out = Vec::new();
        for (i, port) in [0usize, 1, 2].iter().enumerate() {
            eng.on_tuple(&pat, *port, &t(i as u64, i as u64), &mut out)
                .unwrap();
        }
        out.clear();
        eng.on_tuple(&pat, 2, &t(10, 3), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        let e = out[0].as_exception().unwrap();
        assert_eq!(e.level, 1);
        assert!(matches!(e.cause, ExceptionCause::WrongStart { .. }));
        assert!(e.partial.is_empty());
    }

    /// The breaking tuple restarts silently when it matches element 0:
    /// C directly following A raises one exception, then A,B,C completes.
    #[test]
    fn wrong_extension_then_silent_restart() {
        let pat = abc();
        let mut eng = Exception::new();
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 2, &t(1, 1), &mut out).unwrap(); // C after A
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].as_exception().unwrap().level, 2);
        out.clear();
        // A fresh A (after the failed C) starts silently — the C could
        // not start a new sequence, but caused no second exception.
        eng.on_tuple(&pat, 0, &t(2, 2), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(3, 3), &mut out).unwrap();
        eng.on_tuple(&pat, 2, &t(4, 4), &mut out).unwrap();
        assert_eq!(out.len(), 1, "completion only; no extra exception");
        assert!(out[0].as_match().is_some());
    }

    /// Scenario 3: the 1-hour FOLLOWING window expires on a partial —
    /// detected by punctuation alone (active expiration).
    #[test]
    fn window_expiry_exception() {
        let pat = abc_windowed(3600);
        let mut eng = Exception::new();
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(600, 1), &mut out).unwrap();
        eng.on_punctuation(&pat, Timestamp::from_secs(3601), &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        let e = out[0].as_exception().unwrap();
        assert_eq!(e.level, 3);
        assert!(matches!(e.cause, ExceptionCause::WindowExpiry));
        assert_eq!(e.ts, Timestamp::from_secs(3601));
        assert_eq!(eng.retained(), 0);
        // No repeated exception on further punctuation.
        eng.on_punctuation(&pat, Timestamp::from_secs(4000), &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn in_window_completion_no_exception() {
        let pat = abc_windowed(3600);
        let mut eng = Exception::new();
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(1200, 1), &mut out).unwrap();
        eng.on_tuple(&pat, 2, &t(2400, 2), &mut out).unwrap();
        eng.on_punctuation(&pat, Timestamp::from_secs(10_000), &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].as_match().is_some());
    }

    /// A late C that would complete the sequence *outside* the window is
    /// itself a violation: the partial cannot extend in-window.
    #[test]
    fn late_completion_is_wrong_extension() {
        let pat = abc_windowed(10);
        let mut eng = Exception::new();
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(5, 1), &mut out).unwrap();
        eng.on_tuple(&pat, 2, &t(20, 2), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        let e = out[0].as_exception().unwrap();
        assert_eq!(e.level, 3);
        assert!(matches!(e.cause, ExceptionCause::WrongExtension { .. }));
    }
}

#[cfg(test)]
mod star_tests {
    use super::*;
    use crate::mode::PairingMode;
    use crate::pattern::{Element, SeqPattern};
    use eslev_dsms::time::{Duration, Timestamp};
    use eslev_dsms::tuple::Tuple;
    use eslev_dsms::value::Value;

    fn t(secs: u64, seq: u64) -> Tuple {
        Tuple::new(
            vec![Value::Int(secs as i64)],
            Timestamp::from_secs(secs),
            seq,
        )
    }

    /// §3.1.3's closing remark: EXCEPTION_SEQ also allows star sequences.
    /// Pattern: SEQ(A*, B) with an intra-group gap — a gap break inside
    /// the repetition is a wrong extension.
    #[test]
    fn star_prefix_completes_normally() {
        let pat = SeqPattern::new(
            vec![
                Element::star(0).with_star_gap(Duration::from_secs(2)),
                Element::new(1),
            ],
            None,
            PairingMode::Consecutive,
        )
        .unwrap();
        let mut eng = Exception::new();
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 0, &t(1, 1), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(2, 2), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        let m = out[0].as_match().unwrap();
        assert_eq!(m.binding(0).count(), 2);
    }

    #[test]
    fn gap_break_inside_star_is_wrong_extension() {
        let pat = SeqPattern::new(
            vec![
                Element::star(0).with_star_gap(Duration::from_secs(2)),
                Element::new(1),
            ],
            None,
            PairingMode::Consecutive,
        )
        .unwrap();
        let mut eng = Exception::new();
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        // 10 s gap breaks the group: the partial (A*) with one tuple has
        // completion level 1 → exception at level 2.
        eng.on_tuple(&pat, 0, &t(10, 1), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        let e = out[0].as_exception().unwrap();
        assert_eq!(e.level, 2);
        assert!(matches!(e.cause, ExceptionCause::WrongExtension { .. }));
        // The offending tuple silently restarts a new group...
        out.clear();
        eng.on_tuple(&pat, 1, &t(11, 2), &mut out).unwrap();
        // ...which the B then completes.
        assert!(out[0].as_match().is_some());
        assert_eq!(out[0].as_match().unwrap().binding(0).count(), 1);
    }

    #[test]
    fn completion_level_counts_open_group_once() {
        // SEQ(A*, B, C): a partial with 3 accumulated A's stalls at
        // completion level 1 (the star element counts once).
        let pat = SeqPattern::new(
            vec![Element::star(0), Element::new(1), Element::new(2)],
            None,
            PairingMode::Consecutive,
        )
        .unwrap();
        let mut eng = Exception::new();
        let mut out = Vec::new();
        for i in 0..3u64 {
            eng.on_tuple(&pat, 0, &t(i, i), &mut out).unwrap();
        }
        // C arrives where B was expected: break at level 1+1 = 2.
        eng.on_tuple(&pat, 2, &t(5, 5), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        let e = out[0].as_exception().unwrap();
        assert_eq!(e.level, 2);
        assert_eq!(e.partial.len(), 1);
        assert_eq!(e.partial[0].count(), 3, "the whole group is reported");
    }
}
