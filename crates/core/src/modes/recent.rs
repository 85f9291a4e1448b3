//! RECENT mode: an incoming tuple pairs with the most recent qualifying
//! tuple of each other stream.
//!
//! Implemented as the paper's worked derivation (§3.1.1) suggests: one
//! *chain node* per element position, holding that position's most recent
//! qualifying binding plus a frozen pointer to the position-before chain
//! it qualified against. A new arrival at position `k` replaces
//! `latest[k]`; snapshots already captured by `latest[k+1..]` keep their
//! (older) parents — exactly how the example picks `C3:t5`'s parent
//! `C2:t3` even though `C2:t6` arrived later.
//!
//! History is O(pattern length) chains per partition — the "aggressive
//! purge" the paper credits this mode with. Under a window every head
//! that can still matter carries a deadline, so a partition dies once
//! its window has passed: a `PRECEDING` window bounds every position up
//! to its anchor (including a final anchor, whose head is never a
//! parent), a `FOLLOWING` window every position from its anchor on.
//! Only heads past a mid-pattern `PRECEDING` anchor, or before a
//! `FOLLOWING` one, live until replaced — they may complete at any time.

use super::{check_contract, contract_probe, ModeEngine};
use crate::binding::{Binding, DetectorOutput, SeqMatch};
use crate::ckpt::{restore_binding, save_binding};
use crate::pattern::{SeqPattern, WindowKind};
use crate::runs::{gap_ok, matches_elem, window_satisfied};
use eslev_dsms::ckpt::StateNode;
use eslev_dsms::error::{DsmsError, Result};
use eslev_dsms::time::Timestamp;
use eslev_dsms::tuple::Tuple;
use std::sync::Arc;

struct ChainNode {
    binding: Binding,
    parent: Option<Arc<ChainNode>>,
    /// Timestamp of the chain's first tuple (for PRECEDING windows).
    first_ts: Timestamp,
    /// Start of the window anchor, once the anchor position is in the
    /// chain (for FOLLOWING windows).
    anchor_start: Option<Timestamp>,
    /// Instant past which this node can no longer complete in-window.
    deadline: Option<Timestamp>,
}

/// The RECENT engine.
pub struct Recent {
    latest: Vec<Option<Arc<ChainNode>>>,
    prunes: u64,
}

impl Recent {
    /// Fresh engine for `pat`.
    pub fn new(pat: &SeqPattern) -> Recent {
        Recent {
            latest: (0..pat.len()).map(|_| None).collect(),
            prunes: 0,
        }
    }

    fn node_for(
        &self,
        pat: &SeqPattern,
        k: usize,
        binding: Binding,
        parent: Option<Arc<ChainNode>>,
    ) -> ChainNode {
        let first_ts = parent
            .as_ref()
            .map(|p| p.first_ts)
            .unwrap_or_else(|| binding.first().ts());
        let mut anchor_start = parent.as_ref().and_then(|p| p.anchor_start);
        if pat.window.is_some_and(|w| w.anchor == k) {
            anchor_start = Some(binding.first().ts());
        }
        ChainNode {
            binding,
            parent,
            first_ts,
            anchor_start,
            deadline: Self::deadline(pat, k, first_ts, anchor_start),
        }
    }

    /// Instant past which a head at position `k` can no longer complete
    /// in-window (`None`: it may complete at any later time).
    fn deadline(
        pat: &SeqPattern,
        k: usize,
        first_ts: Timestamp,
        anchor_start: Option<Timestamp>,
    ) -> Option<Timestamp> {
        let w = pat.window.as_ref()?;
        match w.kind {
            // Up to the anchor, everything must stay within d of the
            // chain's first tuple. A head at a final anchor is never a
            // parent, and (as a trailing star) grows only within d of
            // `first_ts`, so it expires too; past a mid-pattern anchor
            // nothing is bounded — SEQ(A, B, C) OVER [10 s PRECEDING B]
            // may complete with a C an hour later.
            WindowKind::Preceding if k < w.anchor || (k == w.anchor && k == pat.len() - 1) => {
                Some(first_ts + w.dur)
            }
            WindowKind::Following => anchor_start.map(|s| s + w.dur),
            WindowKind::Preceding => None,
        }
    }

    /// Window admissibility of binding position `k` at time `ts` onto
    /// `chain`: the parent chain for a fresh binding, or the group's own
    /// node when a star group grows (so a group at the anchor stays within
    /// its own window, whatever newer chain sits in the slot before).
    fn window_ok(
        &self,
        pat: &SeqPattern,
        k: usize,
        ts: Timestamp,
        chain: Option<&ChainNode>,
    ) -> bool {
        let Some(w) = &pat.window else { return true };
        let start = match w.kind {
            WindowKind::Preceding if k == w.anchor => chain.map(|c| c.first_ts),
            WindowKind::Following if k >= w.anchor => chain.and_then(|c| c.anchor_start),
            _ => None,
        };
        start.is_none_or(|s| ts.since(s).is_some_and(|g| g <= w.dur))
    }

    fn chain_to_match(node: &Arc<ChainNode>) -> SeqMatch {
        let mut bindings = Vec::new();
        let mut cur = Some(node);
        while let Some(n) = cur {
            bindings.push(n.binding.clone());
            cur = n.parent.as_ref();
        }
        bindings.reverse();
        SeqMatch { bindings }
    }
}

impl ModeEngine for Recent {
    fn on_tuple(
        &mut self,
        pat: &SeqPattern,
        port: usize,
        t: &Tuple,
        out: &mut Vec<DetectorOutput>,
    ) -> Result<()> {
        let n = pat.len();
        // Process candidate positions from the back so that a tuple which
        // fits several positions chains with *previous* state rather than
        // with itself (SEQ(A, A): the second A completes via the first,
        // then becomes the new latest[0]).
        for k in pat.candidates(port).rev() {
            let elem = &pat.elements[k];
            if !matches_elem(elem, t, port)? {
                continue;
            }
            // The parent chain this binding would qualify against.
            let parent: Option<Arc<ChainNode>> = if k == 0 {
                None
            } else {
                match &self.latest[k - 1] {
                    Some(p) => Some(p.clone()),
                    None => continue, // nothing to follow yet
                }
            };
            if let Some(p) = &parent {
                // Strict progression + inter-element gap.
                if !t.after(p.binding.last()) {
                    continue;
                }
                if !gap_ok(elem.max_gap_from_prev, Some(p.binding.last()), t) {
                    continue;
                }
            }
            if !self.window_ok(pat, k, t.ts(), parent.as_deref()) {
                continue;
            }
            let mut grew_group = false;
            let new_node = if elem.star {
                // Extend the current group when the gap and its own
                // window allow (copy-on-write: snapshots held as parents
                // elsewhere are frozen); otherwise start a fresh group
                // against the parent chain.
                match &self.latest[k] {
                    Some(cur)
                        if t.after(cur.binding.last())
                            && gap_ok(elem.star_gap, Some(cur.binding.last()), t)
                            && self.window_ok(pat, k, t.ts(), Some(cur)) =>
                    {
                        let mut g = cur.binding.tuples().to_vec();
                        g.push(t.clone());
                        grew_group = true;
                        self.node_for(pat, k, Binding::Star(g), cur.parent.clone())
                    }
                    _ => {
                        if k > 0 && parent.is_none() {
                            continue;
                        }
                        self.node_for(pat, k, Binding::Star(vec![t.clone()]), parent)
                    }
                }
            } else {
                self.node_for(pat, k, Binding::Single(t.clone()), parent)
            };
            let arc = Arc::new(new_node);
            // Replacing an occupied slot is RECENT's "aggressive purge":
            // the old head is discarded (snapshots held as parents stay
            // alive). Growing a star group keeps its tuples, so it does
            // not count.
            if self.latest[k].is_some() && !grew_group {
                self.prunes += 1;
            }
            self.latest[k] = Some(arc.clone());
            if k == n - 1 {
                // Completion (including online trailing-star snapshots).
                let m = Self::chain_to_match(&arc);
                if m.bindings.len() == n {
                    debug_assert!(window_satisfied(&pat.window, &m.bindings));
                    out.push(DetectorOutput::Match(m));
                }
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
        for slot in &mut self.latest {
            if slot
                .as_ref()
                .is_some_and(|node| node.deadline.is_some_and(|d| ts > d))
            {
                *slot = None;
                self.prunes += 1;
            }
        }
        check_contract(probe, self);
        Ok(())
    }

    fn next_deadline(&self, _pat: &SeqPattern) -> Option<Timestamp> {
        self.latest
            .iter()
            .flatten()
            .filter_map(|n| n.deadline)
            .min()
    }

    fn is_empty(&self) -> bool {
        self.latest.iter().all(Option::is_none)
    }

    fn retained(&self) -> usize {
        // Shared parents counted once via the live heads.
        let mut seen = std::collections::HashSet::new();
        let mut total = 0;
        for slot in self.latest.iter().flatten() {
            let mut cur: Option<&Arc<ChainNode>> = Some(slot);
            while let Some(node) = cur {
                let key = Arc::as_ptr(node) as usize;
                if seen.insert(key) {
                    total += node.binding.count();
                }
                cur = node.parent.as_ref();
            }
        }
        total
    }

    fn prunes(&self) -> u64 {
        self.prunes
    }

    fn save_state(&self) -> Result<StateNode> {
        // Flatten the chain DAG into a node table, parents before
        // children and deduplicated by pointer identity, so the Arc
        // sharing between slots survives the round trip (the engine's
        // O(pattern-length) history bound depends on it).
        let mut index = std::collections::HashMap::new();
        let mut nodes: Vec<StateNode> = Vec::new();
        let mut slots: Vec<StateNode> = Vec::new();
        for slot in &self.latest {
            let Some(head) = slot else {
                slots.push(StateNode::Unit);
                continue;
            };
            let mut chain = Vec::new();
            let mut cur = Some(head);
            while let Some(n) = cur {
                chain.push(n.clone());
                cur = n.parent.as_ref();
            }
            for n in chain.iter().rev() {
                let ptr = Arc::as_ptr(n) as usize;
                if index.contains_key(&ptr) {
                    continue;
                }
                let parent = match &n.parent {
                    None => StateNode::Unit,
                    Some(p) => StateNode::U64(index[&(Arc::as_ptr(p) as usize)] as u64),
                };
                nodes.push(StateNode::List(vec![
                    save_binding(&n.binding),
                    parent,
                    StateNode::ts(n.first_ts),
                    StateNode::opt_ts(n.anchor_start),
                    StateNode::opt_ts(n.deadline),
                ]));
                index.insert(ptr, nodes.len() - 1);
            }
            slots.push(StateNode::U64(index[&(Arc::as_ptr(head) as usize)] as u64));
        }
        Ok(StateNode::List(vec![
            StateNode::List(nodes),
            StateNode::List(slots),
            StateNode::U64(self.prunes),
        ]))
    }

    fn restore_state(&mut self, pat: &SeqPattern, state: &StateNode) -> Result<()> {
        let node_items = state.item(0)?.as_list()?;
        let mut nodes: Vec<Arc<ChainNode>> = Vec::with_capacity(node_items.len());
        for (i, item) in node_items.iter().enumerate() {
            let parent = match item.item(1)? {
                StateNode::Unit => None,
                idx => {
                    let idx = idx.as_usize()?;
                    if idx >= i {
                        return Err(DsmsError::ckpt("chain-node parent must precede child"));
                    }
                    Some(nodes[idx].clone())
                }
            };
            nodes.push(Arc::new(ChainNode {
                binding: restore_binding(item.item(0)?)?,
                parent,
                first_ts: item.item(2)?.as_ts()?,
                anchor_start: item.item(3)?.as_opt_ts()?,
                deadline: item.item(4)?.as_opt_ts()?,
            }));
        }
        let slot_items = state.item(1)?.as_list()?;
        if slot_items.len() != self.latest.len() {
            return Err(DsmsError::ckpt(format!(
                "recent engine has {} slots, checkpoint has {}",
                self.latest.len(),
                slot_items.len()
            )));
        }
        self.latest = slot_items
            .iter()
            .map(|s| match s {
                StateNode::Unit => Ok(None),
                idx => nodes
                    .get(idx.as_usize()?)
                    .cloned()
                    .map(Some)
                    .ok_or_else(|| DsmsError::ckpt("chain-slot index out of range")),
            })
            .collect::<Result<Vec<_>>>()?;
        // Checkpoints from before final-anchor heads expired carry no
        // deadline there; re-derive it so restored state still dies. The
        // final head is never a parent, so replacing it unshares nothing.
        let last = self.latest.len() - 1;
        if let Some(head) = &mut self.latest[last] {
            let deadline = Self::deadline(pat, last, head.first_ts, head.anchor_start);
            if head.deadline != deadline {
                *head = Arc::new(ChainNode {
                    binding: head.binding.clone(),
                    parent: head.parent.clone(),
                    first_ts: head.first_ts,
                    anchor_start: head.anchor_start,
                    deadline,
                });
            }
        }
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
            PairingMode::Recent,
        )
        .unwrap()
    }

    /// The paper's worked example: RECENT must return exactly
    /// (t2:C1, t3:C2, t5:C3, t7:C4).
    #[test]
    fn worked_example_single_event() {
        let pat = pat4();
        let mut eng = Recent::new(&pat);
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
        assert_eq!(matches.len(), 1);
        let secs: Vec<u64> = matches[0]
            .bindings
            .iter()
            .map(|b| b.first().ts().as_micros() / 1_000_000)
            .collect();
        assert_eq!(secs, vec![2, 3, 5, 7]);
    }

    /// The C2:t6 tuple is "not qualifying" (it follows C3:t5); the paper
    /// explains the chain must keep C2:t3. Verify the frozen-parent rule
    /// across a second completion.
    #[test]
    fn frozen_parents_survive_replacement() {
        let pat = pat4();
        let mut eng = Recent::new(&pat);
        let mut out = Vec::new();
        for (i, (port, secs)) in [(0usize, 1u64), (1, 3), (2, 4), (1, 6), (3, 7)]
            .iter()
            .enumerate()
        {
            eng.on_tuple(&pat, *port, &t(*secs, i as u64), &mut out)
                .unwrap();
        }
        // latest[1] was replaced by t6 after latest[2] snapshotted t3;
        // the match must use t3, not t6.
        let m = out[0].as_match().unwrap();
        assert_eq!(m.binding(1).first().ts(), Timestamp::from_secs(3));
    }

    #[test]
    fn replacement_uses_most_recent() {
        // SEQ(A, B): A1 A2 B → match is (A2, B).
        let pat = SeqPattern::new(
            vec![Element::new(0), Element::new(1)],
            None,
            PairingMode::Recent,
        )
        .unwrap();
        let mut eng = Recent::new(&pat);
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(1, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 0, &t(2, 1), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(3, 2), &mut out).unwrap();
        let m = out[0].as_match().unwrap();
        assert_eq!(m.binding(0).first().ts(), Timestamp::from_secs(2));
        // Each later B re-fires against the same chain.
        eng.on_tuple(&pat, 1, &t(4, 3), &mut out).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn history_is_constant_size() {
        let pat = pat4();
        let mut eng = Recent::new(&pat);
        let mut out = Vec::new();
        for i in 0..1000u64 {
            eng.on_tuple(&pat, (i % 3) as usize, &t(i, i), &mut out)
                .unwrap();
        }
        // At most one (single-tuple) node per position, parents shared.
        assert!(eng.retained() <= 8, "retained {}", eng.retained());
    }

    #[test]
    fn self_aliased_stream_chains_without_self_pairing() {
        // SEQ(A, A) on one port: two arrivals → one match (a1, a2).
        let pat = SeqPattern::new(
            vec![Element::new(0), Element::new(0)],
            None,
            PairingMode::Recent,
        )
        .unwrap();
        let mut eng = Recent::new(&pat);
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(1, 0), &mut out).unwrap();
        assert!(out.is_empty(), "a single tuple must not pair with itself");
        eng.on_tuple(&pat, 0, &t(2, 1), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        let m = out[0].as_match().unwrap();
        assert_eq!(m.binding(0).first().ts(), Timestamp::from_secs(1));
        assert_eq!(m.binding(1).first().ts(), Timestamp::from_secs(2));
    }

    #[test]
    fn star_group_accumulates_and_emits() {
        // SEQ(R1*, R2) RECENT: group grows, case closes it.
        let pat = SeqPattern::new(
            vec![
                Element::star(0).with_star_gap(Duration::from_secs(1)),
                Element::new(1).with_max_gap(Duration::from_secs(5)),
            ],
            None,
            PairingMode::Recent,
        )
        .unwrap();
        let mut eng = Recent::new(&pat);
        let mut out = Vec::new();
        let ms = |ms: u64, seq: u64| Tuple::new(vec![], Timestamp::from_millis(ms), seq);
        eng.on_tuple(&pat, 0, &ms(0, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 0, &ms(500, 1), &mut out).unwrap();
        eng.on_tuple(&pat, 0, &ms(900, 2), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &ms(1500, 3), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].as_match().unwrap().binding(0).count(), 3);
        // Gap break starts a new group: next case pairs with it only.
        eng.on_tuple(&pat, 0, &ms(10_000, 4), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &ms(10_500, 5), &mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].as_match().unwrap().binding(0).count(), 1);
    }

    #[test]
    fn preceding_window_rejects_and_purges() {
        // SEQ(A, B) OVER [10 s PRECEDING B].
        let pat = SeqPattern::new(
            vec![Element::new(0), Element::new(1)],
            Some(EventWindow::preceding(Duration::from_secs(10), 1)),
            PairingMode::Recent,
        )
        .unwrap();
        let mut eng = Recent::new(&pat);
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(20, 1), &mut out).unwrap();
        assert!(out.is_empty());
        // Punctuation purges the stale A node.
        assert!(eng.retained() > 0);
        eng.on_punctuation(&pat, Timestamp::from_secs(30), &mut out)
            .unwrap();
        assert_eq!(eng.retained(), 0);
    }

    /// The head at a final `PRECEDING` anchor is never a parent: it
    /// expires with its window, so the engine empties (it used to be kept
    /// forever, and so was its partition).
    #[test]
    fn final_anchor_head_expires() {
        // SEQ(A, B) OVER [10 s PRECEDING B], and the trailing-star form.
        for b in [Element::new(1), Element::star(1)] {
            let pat = SeqPattern::new(
                vec![Element::new(0), b],
                Some(EventWindow::preceding(Duration::from_secs(10), 1)),
                PairingMode::Recent,
            )
            .unwrap();
            let mut eng = Recent::new(&pat);
            let mut out = Vec::new();
            eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
            eng.on_tuple(&pat, 1, &t(4, 1), &mut out).unwrap();
            eng.on_tuple(&pat, 1, &t(6, 2), &mut out).unwrap();
            assert_eq!(out.len(), 2);
            assert_eq!(eng.next_deadline(&pat), Some(Timestamp::from_secs(10)));
            eng.on_punctuation(&pat, Timestamp::from_secs(10), &mut out)
                .unwrap();
            assert!(!eng.is_empty(), "ts = deadline is not past it");
            eng.on_punctuation(&pat, Timestamp::from_secs(11), &mut out)
                .unwrap();
            assert!(eng.is_empty());
            assert_eq!(eng.retained(), 0);
            assert_eq!(eng.next_deadline(&pat), None);
        }
    }

    /// A star group grows only within its *own* chain's window: a newer
    /// parent chain in the slot before must not let an older group grow
    /// past it (that emitted window-violating matches).
    #[test]
    fn star_group_grows_within_its_own_window() {
        // SEQ(A, B*) OVER [10 s PRECEDING B].
        let pat = SeqPattern::new(
            vec![Element::new(0), Element::star(1)],
            Some(EventWindow::preceding(Duration::from_secs(10), 1)),
            PairingMode::Recent,
        )
        .unwrap();
        let mut eng = Recent::new(&pat);
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(5, 1), &mut out).unwrap();
        eng.on_tuple(&pat, 0, &t(8, 2), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(12, 3), &mut out).unwrap();
        assert_eq!(out.len(), 2);
        let m = out[1].as_match().unwrap();
        assert!(window_satisfied(&pat.window, &m.bindings));
        assert_eq!(m.binding(0).first().ts(), Timestamp::from_secs(8));
        assert_eq!(m.binding(1).count(), 1, "a fresh group, not [B5, B12]");
    }

    #[test]
    fn following_window_bounds_completion() {
        // SEQ(A, B, C) OVER [10 s FOLLOWING A].
        let pat = SeqPattern::new(
            vec![Element::new(0), Element::new(1), Element::new(2)],
            Some(EventWindow::following(Duration::from_secs(10), 0)),
            PairingMode::Recent,
        )
        .unwrap();
        let mut eng = Recent::new(&pat);
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(5, 1), &mut out).unwrap();
        eng.on_tuple(&pat, 2, &t(15, 2), &mut out).unwrap();
        assert!(
            out.is_empty(),
            "C at 15 s violates FOLLOWING 10 s of A at 0"
        );
        // In-window completion works.
        eng.on_tuple(&pat, 0, &t(20, 3), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(22, 4), &mut out).unwrap();
        eng.on_tuple(&pat, 2, &t(28, 5), &mut out).unwrap();
        assert_eq!(out.len(), 1);
    }
}
