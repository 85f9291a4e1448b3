//! Sequence pattern definitions — the abstract syntax of the paper's
//! `SEQ(E1, E2*, ..., En) OVER [window] MODE m` operator.
//!
//! A pattern is an ordered list of [`Element`]s. Each element names the
//! input port (stream) its tuples come from, may be a *star* element
//! (Kleene repetition with longest-match semantics, §3.1.2), may carry a
//! per-tuple predicate, and may carry the two timing constraints the
//! paper's examples use:
//!
//! * `max_gap_from_prev` — bound on `this.ts − previous_binding.ts`
//!   (Example 7's `R2.tagtime − LAST(R1*).tagtime ≤ 5 SECONDS`);
//! * `star_gap` — bound between consecutive tuples *inside* a star group
//!   (Example 7's `R1.tagtime − R1.previous.tagtime ≤ 1 SECONDS`,
//!   i.e. the paper's `previous` operator).

use crate::mode::PairingMode;
use eslev_dsms::error::{DsmsError, Result};
use eslev_dsms::expr::Expr;
use eslev_dsms::time::Duration;

/// One position of a sequence pattern.
#[derive(Debug, Clone)]
pub struct Element {
    /// Which detector input port this element's tuples arrive on. Several
    /// elements may share a port (self-aliased streams, footnote 1).
    pub port: usize,
    /// Star (repeating, one-or-more) element.
    pub star: bool,
    /// Predicate a tuple must satisfy to bind here (evaluated with the
    /// candidate tuple as relation 0).
    pub predicate: Option<Expr>,
    /// Max allowed gap between the previous element's (last) tuple and
    /// this element's (first) tuple.
    pub max_gap_from_prev: Option<Duration>,
    /// For star elements: max gap between consecutive tuples of the group.
    pub star_gap: Option<Duration>,
}

impl Element {
    /// Plain (non-star, unconstrained) element reading from `port`.
    pub fn new(port: usize) -> Element {
        Element {
            port,
            star: false,
            predicate: None,
            max_gap_from_prev: None,
            star_gap: None,
        }
    }

    /// Star element reading from `port`.
    pub fn star(port: usize) -> Element {
        Element {
            star: true,
            ..Element::new(port)
        }
    }

    /// Attach a tuple predicate.
    pub fn with_predicate(mut self, p: Expr) -> Element {
        self.predicate = Some(p);
        self
    }

    /// Bound the gap from the previous element.
    pub fn with_max_gap(mut self, d: Duration) -> Element {
        self.max_gap_from_prev = Some(d);
        self
    }

    /// Bound the intra-group gap (star elements only; the paper's
    /// `previous` operator).
    pub fn with_star_gap(mut self, d: Duration) -> Element {
        self.star_gap = Some(d);
        self
    }
}

/// Which way an event-operator window extends from its anchor element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// `OVER [d PRECEDING E_i]` — every element up to and including the
    /// anchor must lie within `d` before the anchor's tuple.
    Preceding,
    /// `OVER [d FOLLOWING E_i]` — every element from the anchor on must
    /// lie within `d` after the anchor's tuple.
    Following,
}

/// A sliding window applied to the event operator itself (§3.1.1), with
/// the FOLLOWING extension of §3.1.3 that lets it anchor at any element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventWindow {
    /// Window length.
    pub dur: Duration,
    /// Index of the anchor element.
    pub anchor: usize,
    /// Direction.
    pub kind: WindowKind,
}

impl EventWindow {
    /// `d PRECEDING element i`.
    pub fn preceding(dur: Duration, anchor: usize) -> EventWindow {
        EventWindow {
            dur,
            anchor,
            kind: WindowKind::Preceding,
        }
    }

    /// `d FOLLOWING element i`.
    pub fn following(dur: Duration, anchor: usize) -> EventWindow {
        EventWindow {
            dur,
            anchor,
            kind: WindowKind::Following,
        }
    }
}

/// A full `SEQ` pattern: elements + optional window + pairing mode.
#[derive(Debug, Clone)]
pub struct SeqPattern {
    /// Ordered pattern elements.
    pub elements: Vec<Element>,
    /// Optional window over the whole operator.
    pub window: Option<EventWindow>,
    /// Tuple pairing mode (§3.1.1). Default: UNRESTRICTED.
    pub mode: PairingMode,
}

impl SeqPattern {
    /// Build and validate a pattern.
    ///
    /// Rules enforced:
    /// * at least two elements (a 1-element "sequence" is just a filter);
    /// * a window anchor must index an existing element;
    /// * `star_gap` only on star elements;
    /// * adjacent elements may repeat a port, but two *consecutive star*
    ///   elements on the same port are ambiguous (any split of one run
    ///   matches both) and are rejected.
    pub fn new(
        elements: Vec<Element>,
        window: Option<EventWindow>,
        mode: PairingMode,
    ) -> Result<SeqPattern> {
        if elements.len() < 2 {
            return Err(DsmsError::plan("SEQ needs at least two elements"));
        }
        if let Some(w) = &window {
            if w.anchor >= elements.len() {
                return Err(DsmsError::plan(format!(
                    "window anchor {} out of range (pattern has {} elements)",
                    w.anchor,
                    elements.len()
                )));
            }
        }
        for (i, e) in elements.iter().enumerate() {
            if e.star_gap.is_some() && !e.star {
                return Err(DsmsError::plan(format!(
                    "element {i}: star_gap on a non-star element"
                )));
            }
            if i > 0 {
                let prev = &elements[i - 1];
                if e.star && prev.star && e.port == prev.port {
                    return Err(DsmsError::plan(format!(
                        "elements {} and {i}: consecutive star elements on the same stream are ambiguous",
                        i - 1
                    )));
                }
            }
        }
        Ok(SeqPattern {
            elements,
            window,
            mode,
        })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Never true (patterns have ≥ 2 elements); provided for idiom.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Number of input ports the pattern reads (max port + 1).
    pub fn num_ports(&self) -> usize {
        self.elements.iter().map(|e| e.port).max().unwrap_or(0) + 1
    }

    /// Indexes of elements a tuple arriving on `port` could bind to.
    pub fn candidates(&self, port: usize) -> impl DoubleEndedIterator<Item = usize> + '_ {
        self.elements
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.port == port)
            .map(|(i, _)| i)
    }

    /// Whether the final element is a star (online per-arrival emission).
    pub fn trailing_star(&self) -> bool {
        self.elements.last().is_some_and(|e| e.star)
    }

    /// Number of star elements (multi-return rows allowed only when 1,
    /// footnote 4 of the paper).
    pub fn star_count(&self) -> usize {
        self.elements.iter().filter(|e| e.star).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_basic_pattern() {
        // SEQ(C1, C2, C3, C4) — Example 6.
        let p = SeqPattern::new(
            (0..4).map(Element::new).collect(),
            None,
            PairingMode::Unrestricted,
        )
        .unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.num_ports(), 4);
        assert!(!p.trailing_star());
        assert_eq!(p.star_count(), 0);
    }

    #[test]
    fn containment_pattern_shape() {
        // SEQ(R1*, R2) MODE CHRONICLE with both gaps — Example 7.
        let p = SeqPattern::new(
            vec![
                Element::star(0).with_star_gap(Duration::from_secs(1)),
                Element::new(1).with_max_gap(Duration::from_secs(5)),
            ],
            None,
            PairingMode::Chronicle,
        )
        .unwrap();
        assert_eq!(p.star_count(), 1);
        assert!(!p.trailing_star());
        assert_eq!(p.candidates(0).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn rejects_single_element() {
        assert!(SeqPattern::new(vec![Element::new(0)], None, PairingMode::Recent).is_err());
    }

    #[test]
    fn rejects_bad_anchor() {
        let w = EventWindow::preceding(Duration::from_secs(1), 5);
        assert!(SeqPattern::new(
            vec![Element::new(0), Element::new(1)],
            Some(w),
            PairingMode::Recent
        )
        .is_err());
    }

    #[test]
    fn rejects_star_gap_on_plain_element() {
        let mut e = Element::new(0);
        e.star_gap = Some(Duration::from_secs(1));
        assert!(SeqPattern::new(vec![e, Element::new(1)], None, PairingMode::Recent).is_err());
    }

    #[test]
    fn rejects_adjacent_same_port_stars() {
        assert!(SeqPattern::new(
            vec![Element::star(0), Element::star(0)],
            None,
            PairingMode::Unrestricted
        )
        .is_err());
        // Different ports are fine: SEQ(A*, B, C*, D) from §3.1.2.
        assert!(SeqPattern::new(
            vec![
                Element::star(0),
                Element::new(1),
                Element::star(2),
                Element::new(3)
            ],
            None,
            PairingMode::Unrestricted
        )
        .is_ok());
    }

    #[test]
    fn shared_ports_are_candidates() {
        // SEQ(A, A) over one stream (self-alias, footnote 1).
        let p = SeqPattern::new(
            vec![Element::new(0), Element::new(0)],
            None,
            PairingMode::Consecutive,
        )
        .unwrap();
        assert_eq!(p.candidates(0).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(p.num_ports(), 1);
    }
}
