//! CHRONICLE mode: earliest qualifying tuples pair up, and every tuple
//! participates in at most one event (consumed on match).
//!
//! Implemented with one FIFO of unconsumed bindings per element position
//! (groups for star elements, delimited by the `star_gap` constraint).
//! When a tuple arrives that can bind the final element, the engine
//! searches the queues for the lexicographically-earliest chain; on
//! success the participating tuples are removed everywhere — the paper's
//! "once a matching occurs ... the participating tuples can be removed
//! from the tuple history".

use super::{check_contract, contract_probe, ModeEngine};
use crate::binding::{Binding, DetectorOutput, SeqMatch};
use crate::ckpt::{restore_binding, restore_run, save_binding, save_run};
use crate::pattern::{SeqPattern, WindowKind};
use crate::runs::{gap_ok, matches_elem, window_satisfied, Run};
use eslev_dsms::ckpt::StateNode;
use eslev_dsms::error::{DsmsError, Result};
use eslev_dsms::time::Timestamp;
use eslev_dsms::tuple::Tuple;
use std::collections::VecDeque;

/// The CHRONICLE engine.
pub struct Chronicle {
    /// Unconsumed bindings per element position. The final position's
    /// queue stays empty for non-star patterns (a final-element tuple
    /// either completes a chain on arrival or can never complete one).
    queues: Vec<VecDeque<Binding>>,
    /// Active trailing-star run (consumed prefix + growing group).
    trailing: Option<Run>,
    prunes: u64,
}

impl Chronicle {
    /// Fresh engine for `pat`.
    pub fn new(pat: &SeqPattern) -> Chronicle {
        Chronicle {
            queues: (0..pat.len()).map(|_| VecDeque::new()).collect(),
            trailing: None,
            prunes: 0,
        }
    }

    /// Earliest chain through positions `0..last` whose tail `t` can
    /// follow; returns per-position queue indexes.
    fn search_prefix(&self, pat: &SeqPattern, last: usize, t: &Tuple) -> Option<Vec<usize>> {
        let mut chosen = vec![0usize; last];
        self.dfs(pat, 0, last, None, t, &mut chosen)
            .then_some(chosen)
    }

    fn dfs(
        &self,
        pat: &SeqPattern,
        k: usize,
        last: usize,
        prev: Option<&Tuple>,
        t: &Tuple,
        chosen: &mut Vec<usize>,
    ) -> bool {
        if k == last {
            // Bind the arriving tuple itself as element `last`.
            let elem = &pat.elements[last];
            return match prev {
                Some(p) => t.after(p) && gap_ok(elem.max_gap_from_prev, Some(p), t),
                None => true,
            };
        }
        let elem = &pat.elements[k];
        for (i, b) in self.queues[k].iter().enumerate() {
            let first = b.first();
            let ok_order = prev.is_none_or(|p| first.after(p));
            let ok_gap = gap_ok(elem.max_gap_from_prev, prev, first);
            // Everything must precede the completing tuple.
            let ok_before_t = t.after(b.last());
            if ok_order && ok_gap && ok_before_t {
                chosen[k] = i;
                if self.dfs(pat, k + 1, last, Some(b.last()), t, chosen) {
                    return true;
                }
            }
            // Earliest-first: later entries only tried when earlier ones
            // fail downstream (backtracking).
        }
        false
    }

    /// Consume chosen bindings and every other queue occurrence of their
    /// tuples (self-aliased streams enqueue a tuple at several positions).
    fn consume(&mut self, chosen: &[usize]) -> Vec<Binding> {
        let mut used: Vec<Binding> = Vec::with_capacity(chosen.len());
        for (k, &i) in chosen.iter().enumerate() {
            used.push(self.queues[k].remove(i).expect("index from search"));
        }
        let seqs: std::collections::HashSet<u64> = used
            .iter()
            .flat_map(|b| b.tuples().iter().map(|t| t.seq()))
            .collect();
        for q in &mut self.queues {
            let mut rebuilt = VecDeque::with_capacity(q.len());
            for b in q.drain(..) {
                match b {
                    Binding::Single(t) => {
                        if !seqs.contains(&t.seq()) {
                            rebuilt.push_back(Binding::Single(t));
                        }
                    }
                    Binding::Star(g) => {
                        let g: Vec<Tuple> =
                            g.into_iter().filter(|t| !seqs.contains(&t.seq())).collect();
                        if !g.is_empty() {
                            rebuilt.push_back(Binding::Star(g));
                        }
                    }
                }
            }
            *q = rebuilt;
        }
        used
    }

    fn enqueue(&mut self, pat: &SeqPattern, k: usize, t: &Tuple) {
        let elem = &pat.elements[k];
        if elem.star {
            if let Some(Binding::Star(g)) = self.queues[k].back_mut() {
                let tail = g.last().expect("groups are non-empty");
                if t.after(tail) && gap_ok(elem.star_gap, Some(tail), t) {
                    g.push(t.clone());
                    return;
                }
            }
            self.queues[k].push_back(Binding::Star(vec![t.clone()]));
        } else {
            self.queues[k].push_back(Binding::Single(t.clone()));
        }
    }

    /// Which queues a punctuation purges (from which position on) and the
    /// instant a queued binding expires at — it is dropped once stream
    /// time passes it. Completions happen at ≥ the punctuation's time, so:
    /// under `PRECEDING` the final anchor, every queued tuple must lie
    /// within d before the completion; under `FOLLOWING`, a binding at or
    /// after the anchor must lie within d after an anchor that precedes
    /// it, so once its own first tuple is d old no completion can follow.
    /// Other windows bound nothing that is queued.
    fn queue_expiry(pat: &SeqPattern) -> Option<(usize, impl Fn(&Binding) -> Timestamp)> {
        let w = pat.window?;
        let from = match w.kind {
            WindowKind::Preceding if w.anchor == pat.len() - 1 => 0,
            WindowKind::Following => w.anchor,
            WindowKind::Preceding => return None,
        };
        let expiry = move |b: &Binding| {
            let edge = match w.kind {
                WindowKind::Preceding => b.last(),
                WindowKind::Following => b.first(),
            };
            edge.ts().saturating_add(w.dur)
        };
        Some((from, expiry))
    }

    fn emit_if_windowed(
        pat: &SeqPattern,
        bindings: Vec<Binding>,
        out: &mut Vec<DetectorOutput>,
    ) -> bool {
        if window_satisfied(&pat.window, &bindings) {
            out.push(DetectorOutput::Match(SeqMatch { bindings }));
            true
        } else {
            false
        }
    }
}

impl ModeEngine for Chronicle {
    fn on_tuple(
        &mut self,
        pat: &SeqPattern,
        port: usize,
        t: &Tuple,
        out: &mut Vec<DetectorOutput>,
    ) -> Result<()> {
        let n = pat.len();
        let mut consumed_as_final = false;
        for k in pat.candidates(port) {
            if consumed_as_final {
                break;
            }
            if !matches_elem(&pat.elements[k], t, port)? {
                continue;
            }
            if k == n - 1 {
                if pat.trailing_star() {
                    // Extend the active trailing run, else start one.
                    if let Some(run) = &mut self.trailing {
                        let tail = run.group.last().cloned();
                        if tail.as_ref().is_some_and(|tail| {
                            t.after(tail) && gap_ok(pat.elements[k].star_gap, Some(tail), t)
                        }) {
                            run.group.push(t.clone());
                            let snap = run.snapshot_match();
                            if window_satisfied(&pat.window, &snap.bindings) {
                                out.push(DetectorOutput::Match(snap));
                            }
                            continue;
                        }
                        // Gap broke: the run is finished; drop it.
                        self.trailing = None;
                        self.prunes += 1;
                    }
                    if let Some(chosen) = self.search_prefix(pat, n - 1, t) {
                        let mut bindings = self.consume(&chosen);
                        bindings.push(Binding::Star(vec![t.clone()]));
                        let run = Run {
                            bindings: bindings[..n - 1].to_vec(),
                            group: vec![t.clone()],
                        };
                        if window_satisfied(&pat.window, &bindings) {
                            out.push(DetectorOutput::Match(SeqMatch { bindings }));
                        }
                        self.trailing = Some(run);
                    }
                } else if let Some(chosen) = self.search_prefix(pat, n - 1, t) {
                    let mut bindings = self.consume(&chosen);
                    bindings.push(Binding::Single(t.clone()));
                    // Window rejection forfeits the chain (tuples were
                    // consumed); incremental checks below make this rare,
                    // and the prefix purge keeps queues in-window.
                    if Self::emit_if_windowed(pat, bindings, out) {
                        consumed_as_final = true;
                    }
                }
            } else {
                self.enqueue(pat, k, t);
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
        if let Some((from, expiry)) = Self::queue_expiry(pat) {
            for q in &mut self.queues[from..] {
                while q.front().is_some_and(|b| expiry(b) < ts) {
                    q.pop_front();
                    self.prunes += 1;
                }
            }
        }
        if let Some(run) = &self.trailing {
            if run.deadline(pat).is_some_and(|d| ts > d) {
                self.trailing = None;
                self.prunes += 1;
            }
        }
        check_contract(probe, self);
        Ok(())
    }

    fn next_deadline(&self, pat: &SeqPattern) -> Option<Timestamp> {
        let queued = Self::queue_expiry(pat).and_then(|(from, expiry)| {
            self.queues[from..]
                .iter()
                .filter_map(|q| q.front().map(&expiry))
                .min()
        });
        let trailing = self.trailing.as_ref().and_then(|r| r.deadline(pat));
        queued.into_iter().chain(trailing).min()
    }

    fn is_empty(&self) -> bool {
        self.trailing.is_none() && self.queues.iter().all(VecDeque::is_empty)
    }

    fn retained(&self) -> usize {
        self.queues
            .iter()
            .flat_map(|q| q.iter())
            .map(|b| b.count())
            .sum::<usize>()
            + self.trailing.as_ref().map_or(0, |r| r.total_tuples())
    }

    fn prunes(&self) -> u64 {
        self.prunes
    }

    fn save_state(&self) -> Result<StateNode> {
        let queues = self
            .queues
            .iter()
            .map(|q| StateNode::List(q.iter().map(save_binding).collect()))
            .collect();
        let trailing = match &self.trailing {
            None => StateNode::Unit,
            Some(run) => save_run(run),
        };
        Ok(StateNode::List(vec![
            StateNode::List(queues),
            trailing,
            StateNode::U64(self.prunes),
        ]))
    }

    fn restore_state(&mut self, _pat: &SeqPattern, state: &StateNode) -> Result<()> {
        let queues = state.item(0)?.as_list()?;
        if queues.len() != self.queues.len() {
            return Err(DsmsError::ckpt(format!(
                "chronicle engine has {} queues, checkpoint has {}",
                self.queues.len(),
                queues.len()
            )));
        }
        for (q, node) in self.queues.iter_mut().zip(queues) {
            q.clear();
            for b in node.as_list()? {
                q.push_back(restore_binding(b)?);
            }
        }
        self.trailing = match state.item(1)? {
            StateNode::Unit => None,
            run => Some(restore_run(run)?),
        };
        self.prunes = state.item(2)?.as_u64()?;
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
            PairingMode::Chronicle,
        )
        .unwrap()
    }

    /// The paper's worked example: CHRONICLE returns only
    /// (t1:C1, t3:C2, t4:C3, t7:C4), and the tuples are consumed.
    #[test]
    fn worked_example_earliest_chain_consumed() {
        let pat = pat4();
        let mut eng = Chronicle::new(&pat);
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
        assert_eq!(out.len(), 1);
        let secs: Vec<u64> = out[0]
            .as_match()
            .unwrap()
            .bindings
            .iter()
            .map(|b| b.first().ts().as_micros() / 1_000_000)
            .collect();
        assert_eq!(secs, vec![1, 3, 4, 7]);
        // Consumption: a second C4 can still match the leftovers
        // (t2:C1, t6:C2, t5:C3)? No — t6:C2 follows t5:C3, so no chain.
        eng.on_tuple(&pat, 3, &t(8, 7), &mut out).unwrap();
        assert_eq!(out.len(), 1, "leftover tuples form no ordered chain");
    }

    #[test]
    fn consumption_prevents_reuse() {
        // SEQ(A, B): A B B → first B consumes A; second B finds nothing.
        let pat = SeqPattern::new(
            vec![Element::new(0), Element::new(1)],
            None,
            PairingMode::Chronicle,
        )
        .unwrap();
        let mut eng = Chronicle::new(&pat);
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(1, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(2, 1), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(3, 2), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(eng.retained(), 0);
    }

    #[test]
    fn earliest_first_pairing() {
        // SEQ(A, B): A1 A2 B1 B2 → (A1,B1), (A2,B2).
        let pat = SeqPattern::new(
            vec![Element::new(0), Element::new(1)],
            None,
            PairingMode::Chronicle,
        )
        .unwrap();
        let mut eng = Chronicle::new(&pat);
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(1, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 0, &t(2, 1), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(3, 2), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(4, 3), &mut out).unwrap();
        assert_eq!(out.len(), 2);
        let firsts: Vec<u64> = out
            .iter()
            .map(|o| o.as_match().unwrap().binding(0).first().ts().as_micros() / 1_000_000)
            .collect();
        assert_eq!(firsts, vec![1, 2]);
    }

    /// Example 7: SEQ(R1*, R2) MODE CHRONICLE — containment. Two packing
    /// rounds with a gap break between them.
    #[test]
    fn containment_two_cases() {
        let pat = SeqPattern::new(
            vec![
                Element::star(0).with_star_gap(Duration::from_secs(1)),
                Element::new(1).with_max_gap(Duration::from_secs(5)),
            ],
            None,
            PairingMode::Chronicle,
        )
        .unwrap();
        let mut eng = Chronicle::new(&pat);
        let mut out = Vec::new();
        let ms = |ms: u64, seq: u64| Tuple::new(vec![], Timestamp::from_millis(ms), seq);
        // Case 1: 3 products at 0/400/800 ms, case read at 2 s.
        for (i, m) in [0u64, 400, 800].iter().enumerate() {
            eng.on_tuple(&pat, 0, &ms(*m, i as u64), &mut out).unwrap();
        }
        eng.on_tuple(&pat, 1, &ms(2000, 3), &mut out).unwrap();
        // Case 2: 2 products at 10/10.5 s, case read at 11 s.
        eng.on_tuple(&pat, 0, &ms(10_000, 4), &mut out).unwrap();
        eng.on_tuple(&pat, 0, &ms(10_500, 5), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &ms(11_000, 6), &mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].as_match().unwrap().binding(0).count(), 3);
        assert_eq!(out[1].as_match().unwrap().binding(0).count(), 2);
        assert_eq!(eng.retained(), 0, "matched tuples are consumed");
    }

    #[test]
    fn star_gap_break_without_case_keeps_groups_separate() {
        let pat = SeqPattern::new(
            vec![
                Element::star(0).with_star_gap(Duration::from_secs(1)),
                Element::new(1).with_max_gap(Duration::from_secs(5)),
            ],
            None,
            PairingMode::Chronicle,
        )
        .unwrap();
        let mut eng = Chronicle::new(&pat);
        let mut out = Vec::new();
        // Two product bursts, then one case: earliest group wins.
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 0, &t(10, 1), &mut out).unwrap(); // gap break
        eng.on_tuple(&pat, 1, &t(12, 2), &mut out).unwrap();
        // Earliest group [t0] violates max_gap (12 − 0 > 5): falls through
        // to the second group [t10], which qualifies.
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].as_match().unwrap().binding(0).first().ts(),
            Timestamp::from_secs(10)
        );
        assert_eq!(eng.retained(), 1, "unmatched first burst remains queued");
    }

    #[test]
    fn trailing_star_online_with_consumed_prefix() {
        // SEQ(A, B*): B tuples emit online; prefix A is consumed once.
        let pat = SeqPattern::new(
            vec![Element::new(0), Element::star(1)],
            None,
            PairingMode::Chronicle,
        )
        .unwrap();
        let mut eng = Chronicle::new(&pat);
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        for i in 1..=3u64 {
            eng.on_tuple(&pat, 1, &t(i, i), &mut out).unwrap();
        }
        let counts: Vec<usize> = out
            .iter()
            .map(|o| o.as_match().unwrap().binding(1).count())
            .collect();
        assert_eq!(counts, vec![1, 2, 3]);
    }

    #[test]
    fn preceding_window_purges_queues() {
        let pat = SeqPattern::new(
            vec![Element::new(0), Element::new(1)],
            Some(EventWindow::preceding(Duration::from_secs(10), 1)),
            PairingMode::Chronicle,
        )
        .unwrap();
        let mut eng = Chronicle::new(&pat);
        let mut out = Vec::new();
        for i in 0..50u64 {
            eng.on_tuple(&pat, 0, &t(i, i), &mut out).unwrap();
        }
        eng.on_punctuation(&pat, Timestamp::from_secs(100), &mut out)
            .unwrap();
        assert_eq!(eng.retained(), 0);
    }

    #[test]
    fn following_window_purges_anchor_queue() {
        let pat = SeqPattern::new(
            vec![Element::new(0), Element::new(1)],
            Some(EventWindow::following(Duration::from_secs(10), 0)),
            PairingMode::Chronicle,
        )
        .unwrap();
        let mut eng = Chronicle::new(&pat);
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        eng.on_punctuation(&pat, Timestamp::from_secs(11), &mut out)
            .unwrap();
        assert_eq!(eng.retained(), 0);
        // And the in-window path still matches.
        eng.on_tuple(&pat, 0, &t(20, 1), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(25, 2), &mut out).unwrap();
        assert_eq!(out.len(), 1);
    }

    /// Under `FOLLOWING`, a queued binding after the anchor can only pair
    /// with an anchor that precedes it, so it dies with its own window —
    /// it used to stay queued forever once the anchors were purged.
    #[test]
    fn following_window_purges_queues_past_the_anchor() {
        // SEQ(A, B, C) OVER [10 s FOLLOWING A]; C never comes.
        let pat = SeqPattern::new(
            (0..3).map(Element::new).collect(),
            Some(EventWindow::following(Duration::from_secs(10), 0)),
            PairingMode::Chronicle,
        )
        .unwrap();
        let mut eng = Chronicle::new(&pat);
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(2, 1), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(3, 2), &mut out).unwrap();
        assert_eq!(eng.next_deadline(&pat), Some(Timestamp::from_secs(10)));
        eng.on_punctuation(&pat, Timestamp::from_secs(12), &mut out)
            .unwrap();
        assert_eq!(eng.next_deadline(&pat), Some(Timestamp::from_secs(12)));
        eng.on_punctuation(&pat, Timestamp::from_secs(14), &mut out)
            .unwrap();
        assert!(eng.is_empty());
        assert_eq!(eng.retained(), 0);
    }

    /// The same purge unblocks a star past the anchor: a dead group no
    /// longer absorbs later tuples, so a fresh anchor can match again.
    #[test]
    fn dead_star_group_past_the_anchor_no_longer_blocks() {
        // SEQ(A, B*, C) OVER [10 s FOLLOWING A], no star gap.
        let pat = SeqPattern::new(
            vec![Element::new(0), Element::star(1), Element::new(2)],
            Some(EventWindow::following(Duration::from_secs(10), 0)),
            PairingMode::Chronicle,
        )
        .unwrap();
        let mut eng = Chronicle::new(&pat);
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(5, 1), &mut out).unwrap();
        eng.on_punctuation(&pat, Timestamp::from_secs(16), &mut out)
            .unwrap();
        eng.on_tuple(&pat, 0, &t(17, 2), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(18, 3), &mut out).unwrap();
        eng.on_tuple(&pat, 2, &t(19, 4), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        let m = out[0].as_match().unwrap();
        assert_eq!(m.binding(1).first().ts(), Timestamp::from_secs(18));
    }
}

#[cfg(test)]
mod backtracking_tests {
    use super::*;
    use crate::mode::PairingMode;
    use crate::pattern::Element;
    use eslev_dsms::time::Duration;

    fn t(secs: u64, seq: u64) -> Tuple {
        Tuple::new(vec![], Timestamp::from_secs(secs), seq)
    }

    /// The earliest-first DFS must backtrack: the earliest A cannot pair
    /// with any B satisfying the gap, but the second A can.
    #[test]
    fn dfs_backtracks_past_infeasible_earliest() {
        // SEQ(A, B) with B within 2 s of A.
        let pat = SeqPattern::new(
            vec![
                Element::new(0),
                Element::new(1).with_max_gap(Duration::from_secs(2)),
            ],
            None,
            PairingMode::Chronicle,
        )
        .unwrap();
        let mut eng = Chronicle::new(&pat);
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap(); // A@0
        eng.on_tuple(&pat, 0, &t(9, 1), &mut out).unwrap(); // A@9
        eng.on_tuple(&pat, 1, &t(10, 2), &mut out).unwrap(); // B@10
        assert_eq!(out.len(), 1);
        let m = out[0].as_match().unwrap();
        assert_eq!(m.binding(0).first().ts(), Timestamp::from_secs(9));
        // A@0 is still queued (not consumed by the failed probe).
        assert_eq!(eng.retained(), 1);
    }

    /// Three-deep backtracking: earliest chains fail at the last element
    /// repeatedly; the engine must still find the unique feasible chain.
    #[test]
    fn deep_backtracking_finds_feasible_chain() {
        // SEQ(A, B, C): C within 3 s of B, B within 3 s of A.
        let pat = SeqPattern::new(
            vec![
                Element::new(0),
                Element::new(1).with_max_gap(Duration::from_secs(3)),
                Element::new(2).with_max_gap(Duration::from_secs(3)),
            ],
            None,
            PairingMode::Chronicle,
        )
        .unwrap();
        let mut eng = Chronicle::new(&pat);
        let mut out = Vec::new();
        // A@0 pairs with B@2, but then no C within 3 of B@2 exists;
        // the feasible chain is A@10, B@12, C@14.
        for (port, secs, seq) in [
            (0usize, 0u64, 0u64),
            (1, 2, 1),
            (0, 10, 2),
            (1, 12, 3),
            (2, 14, 4),
        ] {
            eng.on_tuple(&pat, port, &t(secs, seq), &mut out).unwrap();
        }
        assert_eq!(out.len(), 1);
        let m = out[0].as_match().unwrap();
        let starts: Vec<u64> = m
            .bindings
            .iter()
            .map(|b| b.first().ts().as_micros() / 1_000_000)
            .collect();
        assert_eq!(starts, vec![10, 12, 14]);
    }
}
