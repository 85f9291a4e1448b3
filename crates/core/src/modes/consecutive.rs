//! CONSECUTIVE mode: pattern tuples must be adjacent on the *joint tuple
//! history* — the timestamp-ordered union of all participating streams
//! (§3.1.1).
//!
//! Implemented as a single current run: every arriving tuple (the next
//! element of the joint history, since the detector feeds it every tuple
//! of every participating stream) either extends the run or breaks it.
//! A breaking tuple may immediately start a new run when it matches the
//! pattern's first element. History is at most one partial match — the
//! tightest of the four modes.

use super::{check_contract, contract_probe, ModeEngine};
use crate::binding::DetectorOutput;
use crate::ckpt::{restore_run, save_run};
use crate::pattern::SeqPattern;
use crate::runs::{window_satisfied, Ext, Run};
use eslev_dsms::ckpt::StateNode;
use eslev_dsms::error::Result;
use eslev_dsms::time::Timestamp;
use eslev_dsms::tuple::Tuple;

/// The CONSECUTIVE engine.
#[derive(Default)]
pub struct Consecutive {
    run: Run,
    prunes: u64,
}

impl Consecutive {
    /// Fresh engine.
    pub fn new() -> Consecutive {
        Consecutive::default()
    }

    fn restart_with(&mut self, pat: &SeqPattern, t: &Tuple, port: usize) -> Result<()> {
        self.run = Run::new();
        if let Some(ext) = self.run.classify(pat, t, port)? {
            // Patterns have ≥ 2 elements, so a first bind never completes.
            let complete = self.run.apply(pat, ext, t);
            debug_assert!(!complete);
        }
        Ok(())
    }
}

impl ModeEngine for Consecutive {
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
                    // Trailing star: online emission.
                    let snap = self.run.snapshot_match();
                    debug_assert!(window_satisfied(&pat.window, &snap.bindings));
                    out.push(DetectorOutput::Match(snap));
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
                    let snap = self.run.snapshot_match();
                    out.push(DetectorOutput::Match(snap));
                }
            }
            None => {
                // Adjacency broken: the partial is dead; the offending
                // tuple may start a fresh sequence.
                if self.run.total_tuples() > 0 {
                    self.prunes += 1;
                }
                self.restart_with(pat, t, port)?;
            }
        }
        Ok(())
    }

    fn on_punctuation(
        &mut self,
        pat: &SeqPattern,
        ts: Timestamp,
        _out: &mut Vec<DetectorOutput>,
    ) -> Result<()> {
        let probe = contract_probe(self, pat, ts);
        if self.run.deadline(pat).is_some_and(|d| ts > d) {
            self.run = Run::new();
            self.prunes += 1;
        }
        check_contract(probe, self);
        Ok(())
    }

    fn next_deadline(&self, pat: &SeqPattern) -> Option<Timestamp> {
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

    fn pat4() -> SeqPattern {
        SeqPattern::new(
            (0..4).map(Element::new).collect(),
            None,
            PairingMode::Consecutive,
        )
        .unwrap()
    }

    /// The paper's worked example: CONSECUTIVE finds nothing in
    /// [t1:C1, t2:C1, t3:C2, t4:C3, t5:C3, t6:C2, t7:C4].
    #[test]
    fn worked_example_no_event() {
        let pat = pat4();
        let mut eng = Consecutive::new();
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
        assert!(out.is_empty());
    }

    #[test]
    fn clean_history_matches_repeatedly() {
        // A,B,C,A,B,C with SEQ(A,B,C): two matches (Example 5's normal
        // workflow shape).
        let pat = SeqPattern::new(
            (0..3).map(Element::new).collect(),
            None,
            PairingMode::Consecutive,
        )
        .unwrap();
        let mut eng = Consecutive::new();
        let mut out = Vec::new();
        for (i, port) in [0usize, 1, 2, 0, 1, 2].iter().enumerate() {
            eng.on_tuple(&pat, *port, &t(i as u64, i as u64), &mut out)
                .unwrap();
        }
        assert_eq!(out.len(), 2);
        assert_eq!(eng.retained(), 0);
    }

    #[test]
    fn interloper_breaks_and_restarts() {
        // A, B, A, B, C: the third tuple (A) breaks (A,B) and starts
        // over; (A,B,C) from position 3 completes.
        let pat = SeqPattern::new(
            (0..3).map(Element::new).collect(),
            None,
            PairingMode::Consecutive,
        )
        .unwrap();
        let mut eng = Consecutive::new();
        let mut out = Vec::new();
        for (i, port) in [0usize, 1, 0, 1, 2].iter().enumerate() {
            eng.on_tuple(&pat, *port, &t(i as u64, i as u64), &mut out)
                .unwrap();
        }
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].as_match().unwrap().binding(0).first().ts(),
            Timestamp::from_secs(2)
        );
    }

    #[test]
    fn breaking_tuple_that_cannot_start_leaves_empty() {
        let pat = SeqPattern::new(
            (0..3).map(Element::new).collect(),
            None,
            PairingMode::Consecutive,
        )
        .unwrap();
        let mut eng = Consecutive::new();
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 2, &t(1, 1), &mut out).unwrap(); // C breaks, can't start
        assert_eq!(eng.retained(), 0);
        // B alone cannot start either.
        eng.on_tuple(&pat, 1, &t(2, 2), &mut out).unwrap();
        assert_eq!(eng.retained(), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn star_run_with_adjacency() {
        // SEQ(A*, B) CONSECUTIVE: A A B → one match of 2; an interloper
        // inside the group kills it.
        let pat = SeqPattern::new(
            vec![Element::star(0), Element::new(1)],
            None,
            PairingMode::Consecutive,
        )
        .unwrap();
        let mut eng = Consecutive::new();
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 0, &t(1, 1), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(2, 2), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].as_match().unwrap().binding(0).count(), 2);
    }

    #[test]
    fn window_expiry_resets_run() {
        let pat = SeqPattern::new(
            (0..3).map(Element::new).collect(),
            Some(EventWindow::following(Duration::from_secs(10), 0)),
            PairingMode::Consecutive,
        )
        .unwrap();
        let mut eng = Consecutive::new();
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(5, 1), &mut out).unwrap();
        assert_eq!(eng.retained(), 2);
        eng.on_punctuation(&pat, Timestamp::from_secs(11), &mut out)
            .unwrap();
        assert_eq!(eng.retained(), 0);
        // Late C cannot complete the expired run.
        eng.on_tuple(&pat, 2, &t(12, 2), &mut out).unwrap();
        assert!(out.is_empty());
    }
}
