//! Partial-match runs — the shared machinery of the pairing-mode engines.
//!
//! A [`Run`] is a partial sequence: bindings for a prefix of the pattern's
//! elements plus, when the next element is a star, its *open group* of
//! accumulated tuples. The paper's longest-match rule (§3.1.2) falls out
//! of this representation: a star group absorbs every qualifying tuple
//! until the *next* element's tuple arrives, so by construction the group
//! is maximal when it closes.

use crate::binding::{Binding, SeqMatch};
use crate::pattern::{Element, EventWindow, SeqPattern, WindowKind};
use eslev_dsms::error::Result;
use eslev_dsms::time::Timestamp;
use eslev_dsms::tuple::Tuple;

/// How a tuple can advance a run (computed by [`Run::classify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ext {
    /// Append the tuple to the open star group of element `idx`
    /// (starting the group when it is empty).
    Append {
        /// Star element index (always the run's next element).
        idx: usize,
    },
    /// Close the open group (if any) and bind element `idx` with the
    /// tuple (starting a fresh open group when element `idx` is a star).
    Advance {
        /// Element index being bound.
        idx: usize,
    },
}

/// A partial match.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Completed bindings for elements `0..bindings.len()`.
    pub bindings: Vec<Binding>,
    /// Open star group for element `bindings.len()` (empty when that
    /// element is not a star or has not started).
    pub group: Vec<Tuple>,
}

impl Run {
    /// A fresh, empty run.
    pub fn new() -> Run {
        Run::default()
    }

    /// Index of the next element to fill.
    pub fn next_elem(&self) -> usize {
        self.bindings.len()
    }

    /// Whether the run has bound (or started) anything.
    pub fn is_untouched(&self) -> bool {
        self.bindings.is_empty() && self.group.is_empty()
    }

    /// Completed elements, counting a non-empty open star group as
    /// completed (a star needs only one tuple) — this is the paper's
    /// *Sequence Completion Level* of the partial.
    pub fn completion_level(&self) -> usize {
        self.bindings.len() + usize::from(!self.group.is_empty())
    }

    /// The most recently bound tuple (open-group tail, else the last
    /// binding's last tuple).
    pub fn last_tuple(&self) -> Option<&Tuple> {
        self.group
            .last()
            .or_else(|| self.bindings.last().map(|b| b.last()))
    }

    /// Timestamp of the first tuple in the run.
    pub fn first_ts(&self) -> Option<Timestamp> {
        self.bindings
            .first()
            .map(|b| b.first().ts())
            .or_else(|| self.group.first().map(|t| t.ts()))
    }

    /// When the window anchored at element `anchor` starts for this run:
    /// the anchor binding's first tuple (or the open group's first tuple
    /// when the anchor is the currently accumulating star).
    pub fn anchor_start(&self, anchor: usize) -> Option<Timestamp> {
        if anchor < self.bindings.len() {
            Some(self.bindings[anchor].first().ts())
        } else if anchor == self.bindings.len() {
            self.group.first().map(|t| t.ts())
        } else {
            None
        }
    }

    /// Total tuples held by the run (the history-size metric).
    pub fn total_tuples(&self) -> usize {
        self.bindings.iter().map(|b| b.count()).sum::<usize>() + self.group.len()
    }

    /// Determine whether (and how) `t` extends this run under `pat`.
    ///
    /// Checks, in order: element port + predicate, strict `(ts, seq)`
    /// progression, the gap constraints, and the event window. Returns at
    /// most one action — given the run's state the extension is
    /// deterministic; *which runs exist* is what distinguishes the modes.
    pub fn classify(&self, pat: &SeqPattern, t: &Tuple, port: usize) -> Result<Option<Ext>> {
        let next = self.next_elem();
        if next >= pat.len() {
            return Ok(None);
        }
        // Strict progression: the tuple must come after everything bound.
        if let Some(prev) = self.last_tuple() {
            if !t.after(prev) {
                return Ok(None);
            }
        }
        let elem = &pat.elements[next];
        if elem.star {
            if self.group.is_empty() {
                // Starting the star group.
                if matches_elem(elem, t, port)?
                    && gap_ok(elem.max_gap_from_prev, self.last_tuple(), t)
                    && self.window_ok(pat, next, t)
                {
                    return Ok(Some(Ext::Append { idx: next }));
                }
                return Ok(None);
            }
            // Group open: absorb, or close via the next element.
            if matches_elem(elem, t, port)?
                && gap_ok(elem.star_gap, self.group.last(), t)
                && self.window_ok(pat, next, t)
            {
                return Ok(Some(Ext::Append { idx: next }));
            }
            if next + 1 < pat.len() {
                let succ = &pat.elements[next + 1];
                if matches_elem(succ, t, port)?
                    && gap_ok(succ.max_gap_from_prev, self.group.last(), t)
                    && self.window_ok(pat, next + 1, t)
                {
                    return Ok(Some(Ext::Advance { idx: next + 1 }));
                }
            }
            return Ok(None);
        }
        // Plain element.
        if matches_elem(elem, t, port)?
            && gap_ok(elem.max_gap_from_prev, self.last_tuple(), t)
            && self.window_ok(pat, next, t)
        {
            return Ok(Some(Ext::Advance { idx: next }));
        }
        Ok(None)
    }

    /// Would binding element `idx` with `t` respect the event window?
    fn window_ok(&self, pat: &SeqPattern, idx: usize, t: &Tuple) -> bool {
        let Some(w) = &pat.window else { return true };
        match w.kind {
            WindowKind::Preceding => {
                // Elements 0..=anchor within [anchor_ts − d, anchor_ts]:
                // it suffices that the anchor lands within d of the run's
                // first tuple — and for a star anchor, that each group
                // tuple does.
                if idx == w.anchor {
                    if let Some(first) = self.first_ts() {
                        return t.ts().since(first).is_some_and(|g| g <= w.dur);
                    }
                }
                true
            }
            WindowKind::Following => {
                // Elements anchor..n within [anchor_start, anchor_start+d]
                // — including the tuples a star anchor's group absorbs.
                if idx >= w.anchor {
                    if let Some(start) = self.anchor_start(w.anchor) {
                        return t.ts().since(start).is_some_and(|g| g <= w.dur);
                    }
                }
                true
            }
        }
    }

    /// The instant after which this run can no longer complete within its
    /// window; `None` when unconstrained. Drives purging (SEQ) and the
    /// window-expiry exceptions of §3.1.3 (EXCEPTION_SEQ).
    pub fn deadline(&self, pat: &SeqPattern) -> Option<Timestamp> {
        let w = pat.window.as_ref()?;
        match w.kind {
            WindowKind::Preceding => {
                // Until the anchor is closed, everything must stay within
                // d of the run's first tuple.
                if self.bindings.len() <= w.anchor {
                    self.first_ts().map(|f| f + w.dur)
                } else {
                    None
                }
            }
            WindowKind::Following => self.anchor_start(w.anchor).map(|s| s + w.dur),
        }
    }

    /// Apply an extension. Returns `true` when the run is now a complete
    /// match of a pattern that does *not* end in a star. (Trailing-star
    /// runs stay open and emit snapshots per append.)
    pub fn apply(&mut self, pat: &SeqPattern, ext: Ext, t: &Tuple) -> bool {
        match ext {
            Ext::Append { idx } => {
                debug_assert_eq!(idx, self.next_elem());
                debug_assert!(pat.elements[idx].star);
                self.group.push(t.clone());
                false
            }
            Ext::Advance { idx } => {
                if !self.group.is_empty() {
                    debug_assert_eq!(idx, self.bindings.len() + 1);
                    self.bindings
                        .push(Binding::Star(std::mem::take(&mut self.group)));
                }
                debug_assert_eq!(idx, self.bindings.len());
                if pat.elements[idx].star {
                    self.group.push(t.clone());
                    false
                } else {
                    self.bindings.push(Binding::Single(t.clone()));
                    self.bindings.len() == pat.len()
                }
            }
        }
    }

    /// The complete match (for runs whose every element is bound).
    pub fn into_match(self) -> SeqMatch {
        debug_assert!(self.group.is_empty());
        SeqMatch {
            bindings: self.bindings,
        }
    }

    /// Snapshot match for a trailing-star run: completed bindings plus
    /// the current open group (online emission, §3.1.2).
    pub fn snapshot_match(&self) -> SeqMatch {
        debug_assert!(!self.group.is_empty());
        let mut bindings = self.bindings.clone();
        bindings.push(Binding::Star(self.group.clone()));
        SeqMatch { bindings }
    }

    /// Bindings of the partial for exception reporting (open group closed
    /// into a star binding).
    pub fn partial_bindings(&self) -> Vec<Binding> {
        let mut b = self.bindings.clone();
        if !self.group.is_empty() {
            b.push(Binding::Star(self.group.clone()));
        }
        b
    }
}

/// Does `t` (arriving on `port`) satisfy element `e`'s port + predicate?
pub fn matches_elem(e: &Element, t: &Tuple, port: usize) -> Result<bool> {
    if e.port != port {
        return Ok(false);
    }
    match &e.predicate {
        None => Ok(true),
        Some(p) => p.eval_bool(&[t]),
    }
}

/// Gap check: `t` within `limit` after `prev` (vacuously true without a
/// limit or predecessor).
pub fn gap_ok(limit: Option<eslev_dsms::time::Duration>, prev: Option<&Tuple>, t: &Tuple) -> bool {
    match (limit, prev) {
        (Some(d), Some(p)) => t.ts().since(p.ts()).is_some_and(|g| g <= d),
        _ => true,
    }
}

/// Final safety check: a complete set of bindings satisfies the window.
/// Modes check incrementally; this is the belt-and-braces invariant used
/// in debug assertions and property tests.
pub fn window_satisfied(window: &Option<EventWindow>, bindings: &[Binding]) -> bool {
    let Some(w) = window else { return true };
    if w.anchor >= bindings.len() {
        return false;
    }
    match w.kind {
        WindowKind::Preceding => {
            let anchor_end = bindings[w.anchor].last().ts();
            bindings[..=w.anchor].iter().all(|b| {
                b.tuples()
                    .iter()
                    .all(|t| anchor_end.since(t.ts()).is_some_and(|g| g <= w.dur))
            })
        }
        WindowKind::Following => {
            let anchor_start = bindings[w.anchor].first().ts();
            bindings[w.anchor..].iter().all(|b| {
                b.tuples()
                    .iter()
                    .all(|t| t.ts().since(anchor_start).is_some_and(|g| g <= w.dur))
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::PairingMode;
    use crate::pattern::Element;
    use eslev_dsms::time::Duration;
    use eslev_dsms::value::Value;

    fn t(secs: u64, seq: u64) -> Tuple {
        Tuple::new(
            vec![Value::Int(secs as i64)],
            Timestamp::from_secs(secs),
            seq,
        )
    }

    fn seq2() -> SeqPattern {
        SeqPattern::new(
            vec![Element::new(0), Element::new(1)],
            None,
            PairingMode::Unrestricted,
        )
        .unwrap()
    }

    fn star_then_case() -> SeqPattern {
        // SEQ(R1*, R2) with star_gap 1 s and max_gap 5 s (Example 7).
        SeqPattern::new(
            vec![
                Element::star(0).with_star_gap(Duration::from_secs(1)),
                Element::new(1).with_max_gap(Duration::from_secs(5)),
            ],
            None,
            PairingMode::Chronicle,
        )
        .unwrap()
    }

    #[test]
    fn plain_advance_and_complete() {
        let pat = seq2();
        let mut run = Run::new();
        let a = t(1, 0);
        assert_eq!(
            run.classify(&pat, &a, 0).unwrap(),
            Some(Ext::Advance { idx: 0 })
        );
        assert!(!run.apply(&pat, Ext::Advance { idx: 0 }, &a));
        let b = t(2, 1);
        // Wrong port does not extend.
        assert_eq!(run.classify(&pat, &b, 0).unwrap(), None);
        assert_eq!(
            run.classify(&pat, &b, 1).unwrap(),
            Some(Ext::Advance { idx: 1 })
        );
        assert!(run.apply(&pat, Ext::Advance { idx: 1 }, &b));
        let m = run.into_match();
        assert_eq!(m.ts(), Timestamp::from_secs(2));
    }

    #[test]
    fn strict_progression_rejects_simultaneous_and_earlier() {
        let pat = seq2();
        let mut run = Run::new();
        let a = t(5, 10);
        run.apply(&pat, Ext::Advance { idx: 0 }, &a);
        // Same (ts, seq-earlier) tuple on port 1 is not "after".
        let earlier = t(5, 3);
        assert_eq!(run.classify(&pat, &earlier, 1).unwrap(), None);
        // Same ts but later seq IS after (tie broken by arrival).
        let later = t(5, 11);
        assert!(run.classify(&pat, &later, 1).unwrap().is_some());
    }

    #[test]
    fn star_group_absorbs_until_gap_breaks() {
        let pat = star_then_case();
        let mut run = Run::new();
        let millis = |ms: u64, seq: u64| Tuple::new(vec![], Timestamp::from_millis(ms), seq);
        let p1 = millis(0, 0);
        let p2 = millis(800, 1);
        let p3 = millis(3000, 2); // gap 2.2 s > star_gap 1 s
        assert_eq!(
            run.classify(&pat, &p1, 0).unwrap(),
            Some(Ext::Append { idx: 0 })
        );
        run.apply(&pat, Ext::Append { idx: 0 }, &p1);
        assert_eq!(
            run.classify(&pat, &p2, 0).unwrap(),
            Some(Ext::Append { idx: 0 })
        );
        run.apply(&pat, Ext::Append { idx: 0 }, &p2);
        assert_eq!(run.classify(&pat, &p3, 0).unwrap(), None, "gap broken");
        // Case within 5 s of p2 closes the group.
        let case = millis(2000, 3);
        assert_eq!(
            run.classify(&pat, &case, 1).unwrap(),
            Some(Ext::Advance { idx: 1 })
        );
        assert!(run.apply(&pat, Ext::Advance { idx: 1 }, &case));
        let m = run.into_match();
        assert_eq!(m.binding(0).count(), 2);
        assert_eq!(m.binding(1).count(), 1);
    }

    #[test]
    fn star_requires_at_least_one() {
        let pat = star_then_case();
        let run = Run::new();
        // A case with no products cannot advance (star is one-or-more).
        let case = t(1, 0);
        assert_eq!(run.classify(&pat, &case, 1).unwrap(), None);
    }

    #[test]
    fn max_gap_from_prev_enforced_on_close() {
        let pat = star_then_case();
        let mut run = Run::new();
        let p = t(0, 0);
        run.apply(&pat, Ext::Append { idx: 0 }, &p);
        let late_case = t(10, 1); // 10 s > 5 s
        assert_eq!(run.classify(&pat, &late_case, 1).unwrap(), None);
    }

    #[test]
    fn preceding_window_checked_at_anchor() {
        // SEQ(A, B) OVER [10 s PRECEDING B].
        let pat = SeqPattern::new(
            vec![Element::new(0), Element::new(1)],
            Some(EventWindow::preceding(Duration::from_secs(10), 1)),
            PairingMode::Unrestricted,
        )
        .unwrap();
        let mut run = Run::new();
        run.apply(&pat, Ext::Advance { idx: 0 }, &t(0, 0));
        assert_eq!(run.deadline(&pat), Some(Timestamp::from_secs(10)));
        assert!(run.classify(&pat, &t(15, 1), 1).unwrap().is_none());
        assert!(run.classify(&pat, &t(9, 1), 1).unwrap().is_some());
    }

    #[test]
    fn following_window_checked_after_anchor() {
        // SEQ(A, B, C) OVER [10 s FOLLOWING A].
        let pat = SeqPattern::new(
            vec![Element::new(0), Element::new(1), Element::new(2)],
            Some(EventWindow::following(Duration::from_secs(10), 0)),
            PairingMode::Consecutive,
        )
        .unwrap();
        let mut run = Run::new();
        run.apply(&pat, Ext::Advance { idx: 0 }, &t(100, 0));
        assert_eq!(run.deadline(&pat), Some(Timestamp::from_secs(110)));
        assert!(run.classify(&pat, &t(105, 1), 1).unwrap().is_some());
        run.apply(&pat, Ext::Advance { idx: 1 }, &t(105, 1));
        assert!(run.classify(&pat, &t(111, 2), 2).unwrap().is_none());
        assert!(run.classify(&pat, &t(110, 2), 2).unwrap().is_some());
    }

    #[test]
    fn star_anchor_group_stays_within_following_window() {
        // SEQ(A, B*) OVER [10 s FOLLOWING B]: no later element closes the
        // group, so the group itself must be bounded.
        let pat = SeqPattern::new(
            vec![Element::new(0), Element::star(1)],
            Some(EventWindow::following(Duration::from_secs(10), 1)),
            PairingMode::Unrestricted,
        )
        .unwrap();
        let mut run = Run::new();
        run.apply(&pat, Ext::Advance { idx: 0 }, &t(0, 0));
        assert!(run.classify(&pat, &t(100, 1), 1).unwrap().is_some());
        run.apply(&pat, Ext::Advance { idx: 1 }, &t(100, 1));
        assert!(run.classify(&pat, &t(110, 2), 1).unwrap().is_some());
        assert!(run.classify(&pat, &t(111, 2), 1).unwrap().is_none());
    }

    #[test]
    fn window_satisfied_final_check() {
        let w = Some(EventWindow::preceding(Duration::from_secs(5), 1));
        let good = vec![Binding::Single(t(3, 0)), Binding::Single(t(6, 1))];
        let bad = vec![Binding::Single(t(0, 0)), Binding::Single(t(6, 1))];
        assert!(window_satisfied(&w, &good));
        assert!(!window_satisfied(&w, &bad));
        assert!(window_satisfied(&None, &bad));
    }

    #[test]
    fn completion_level_counts_open_group() {
        let pat = star_then_case();
        let mut run = Run::new();
        assert_eq!(run.completion_level(), 0);
        run.apply(&pat, Ext::Append { idx: 0 }, &t(0, 0));
        assert_eq!(run.completion_level(), 1);
    }

    #[test]
    fn snapshot_and_partial_bindings() {
        let pat = star_then_case();
        let mut run = Run::new();
        run.apply(&pat, Ext::Append { idx: 0 }, &t(0, 0));
        run.apply(&pat, Ext::Append { idx: 0 }, &t(1, 1));
        let snap = run.snapshot_match();
        assert_eq!(snap.binding(0).count(), 2);
        let partial = run.partial_bindings();
        assert_eq!(partial.len(), 1);
        assert_eq!(run.total_tuples(), 2);
    }

    #[test]
    fn predicate_gates_matching() {
        let pat = SeqPattern::new(
            vec![
                Element::new(0)
                    .with_predicate(Expr::eq(eslev_dsms::expr::Expr::col(0), Expr::lit(7i64))),
                Element::new(1),
            ],
            None,
            PairingMode::Unrestricted,
        )
        .unwrap();
        use eslev_dsms::expr::Expr;
        let run = Run::new();
        let bad = Tuple::new(vec![Value::Int(3)], Timestamp::from_secs(1), 0);
        let good = Tuple::new(vec![Value::Int(7)], Timestamp::from_secs(1), 0);
        assert_eq!(run.classify(&pat, &bad, 0).unwrap(), None);
        assert!(run.classify(&pat, &good, 0).unwrap().is_some());
    }
}
