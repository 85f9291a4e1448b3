//! Per-mode detection engines.
//!
//! Each engine holds the tuple history shape its mode permits and turns
//! arriving tuples into [`DetectorOutput`]s. The [`Detector`] picks an
//! engine per partition based on the pattern's [`PairingMode`] (or the
//! exception engine for `EXCEPTION_SEQ`).
//!
//! [`Detector`]: crate::detector::Detector
//! [`PairingMode`]: crate::mode::PairingMode

mod chronicle;
mod consecutive;
mod exception;
mod recent;
mod unrestricted;

pub use chronicle::Chronicle;
pub use consecutive::Consecutive;
pub use exception::Exception;
pub use recent::Recent;
pub use unrestricted::Unrestricted;

use crate::binding::DetectorOutput;
use crate::mode::PairingMode;
use crate::pattern::SeqPattern;
use eslev_dsms::ckpt::StateNode;
use eslev_dsms::error::Result;
use eslev_dsms::time::Timestamp;
use eslev_dsms::tuple::Tuple;

/// The common engine interface.
pub trait ModeEngine: Send {
    /// Process a tuple arriving on `port`; append outputs.
    fn on_tuple(
        &mut self,
        pat: &SeqPattern,
        port: usize,
        t: &Tuple,
        out: &mut Vec<DetectorOutput>,
    ) -> Result<()>;

    /// Stream time advanced: purge expired state, fire expiry exceptions.
    /// A no-op whenever `ts` ≤ [`ModeEngine::next_deadline`] (or there is
    /// none) — the detector relies on this to skip engines that are not
    /// due, and debug builds assert it.
    fn on_punctuation(
        &mut self,
        pat: &SeqPattern,
        ts: Timestamp,
        out: &mut Vec<DetectorOutput>,
    ) -> Result<()>;

    /// The earliest `d` such that `on_punctuation(ts)` with `ts > d`
    /// could change state or emit; `None` while nothing can expire.
    /// O(pattern) for every engine but UNRESTRICTED, which is O(runs) —
    /// the same order as its `on_tuple`.
    fn next_deadline(&self, pat: &SeqPattern) -> Option<Timestamp>;

    /// Whether the engine retains nothing (`retained() == 0`, without
    /// counting).
    fn is_empty(&self) -> bool;

    /// Tuples currently retained (the paper's history-size metric).
    fn retained(&self) -> usize;

    /// Bindings or runs discarded so far — by window expiry, adjacency
    /// breaks or mode-specific overwrites. The per-mode pruning rate is
    /// what differentiates the four pairing modes operationally, so it is
    /// surfaced as an observability counter. Default: never prunes.
    fn prunes(&self) -> u64 {
        0
    }

    /// Serialize the engine's state for a checkpoint.
    fn save_state(&self) -> Result<StateNode>;

    /// Restore state saved by [`ModeEngine::save_state`] into a fresh
    /// engine built for `pat`.
    fn restore_state(&mut self, pat: &SeqPattern, state: &StateNode) -> Result<()>;
}

/// Entry half of the debug-build check of the
/// [`ModeEngine::on_punctuation`] contract: whether `eng` reports itself
/// due at `ts`, and its prune count. Every engine counts a prune for each
/// state change a punctuation makes (and emits only alongside one), so
/// an unchanged count is an unchanged engine. Release builds skip the
/// deadline scan.
fn contract_probe(eng: &dyn ModeEngine, pat: &SeqPattern, ts: Timestamp) -> (bool, u64) {
    let due = cfg!(debug_assertions) && eng.next_deadline(pat).is_some_and(|d| ts > d);
    (due, eng.prunes())
}

/// Exit half of [`contract_probe`].
fn check_contract((due, prunes): (bool, u64), eng: &dyn ModeEngine) {
    debug_assert!(
        due || prunes == eng.prunes(),
        "on_punctuation acted at or before the engine's next_deadline"
    );
}

/// Instantiate the engine for a mode (SEQ detection).
pub fn engine_for(mode: PairingMode, pat: &SeqPattern) -> Box<dyn ModeEngine> {
    match mode {
        PairingMode::Unrestricted => Box::new(Unrestricted::new()),
        PairingMode::Recent => Box::new(Recent::new(pat)),
        PairingMode::Chronicle => Box::new(Chronicle::new(pat)),
        PairingMode::Consecutive => Box::new(Consecutive::new()),
    }
}

#[cfg(test)]
mod ckpt_tests {
    use super::*;
    use crate::pattern::Element;
    use eslev_dsms::value::Value;

    fn t(secs: u64, seq: u64) -> Tuple {
        Tuple::new(
            vec![Value::Int(secs as i64)],
            Timestamp::from_secs(secs),
            seq,
        )
    }

    /// Suspend/resume equivalence: feeding the worked example with a
    /// save/restore in the middle must behave exactly like an
    /// uninterrupted engine — same outputs, same retained history, same
    /// prune counters — for every pairing mode.
    #[test]
    fn save_restore_mid_stream_is_transparent() {
        let history = crate::joint::worked_example();
        for mode in PairingMode::ALL {
            let pat = SeqPattern::new((0..4).map(Element::new).collect(), None, mode).unwrap();
            let mut reference = engine_for(mode, &pat);
            let mut first_half = engine_for(mode, &pat);
            let mut ref_out = Vec::new();
            let mut out = Vec::new();
            for e in &history[..4] {
                reference
                    .on_tuple(&pat, e.port, &e.tuple, &mut ref_out)
                    .unwrap();
                first_half
                    .on_tuple(&pat, e.port, &e.tuple, &mut out)
                    .unwrap();
            }
            let saved = first_half.save_state().unwrap();
            let mut resumed = engine_for(mode, &pat);
            resumed.restore_state(&pat, &saved).unwrap();
            drop(first_half);
            for e in &history[4..] {
                reference
                    .on_tuple(&pat, e.port, &e.tuple, &mut ref_out)
                    .unwrap();
                resumed.on_tuple(&pat, e.port, &e.tuple, &mut out).unwrap();
            }
            assert_eq!(out, ref_out, "{mode:?} outputs diverge after restore");
            assert_eq!(resumed.retained(), reference.retained(), "{mode:?}");
            assert_eq!(resumed.prunes(), reference.prunes(), "{mode:?}");
        }
    }

    /// The RECENT engine's O(pattern-length) history bound relies on
    /// parent chains being shared between slots; the round trip must
    /// preserve that sharing, not expand the DAG into trees.
    #[test]
    fn recent_restore_preserves_chain_sharing() {
        let pat = SeqPattern::new(
            (0..4).map(Element::new).collect(),
            None,
            PairingMode::Recent,
        )
        .unwrap();
        let mut eng = Recent::new(&pat);
        let mut out = Vec::new();
        for i in 0..100u64 {
            eng.on_tuple(&pat, (i % 3) as usize, &t(i, i), &mut out)
                .unwrap();
        }
        let before = eng.retained();
        let saved = eng.save_state().unwrap();
        let mut resumed = Recent::new(&pat);
        resumed.restore_state(&pat, &saved).unwrap();
        assert_eq!(resumed.retained(), before);
        for i in 100..1100u64 {
            resumed
                .on_tuple(&pat, (i % 3) as usize, &t(i, i), &mut out)
                .unwrap();
        }
        assert!(resumed.retained() <= 8, "retained {}", resumed.retained());
    }

    /// Exception-engine partials survive suspension: the window-expiry
    /// exception still fires from a punctuation after restore.
    #[test]
    fn exception_partial_survives_restore() {
        use crate::pattern::EventWindow;
        use eslev_dsms::time::Duration;
        let pat = SeqPattern::new(
            (0..3).map(Element::new).collect(),
            Some(EventWindow::following(Duration::from_secs(3600), 0)),
            PairingMode::Consecutive,
        )
        .unwrap();
        let mut eng = Exception::new();
        let mut out = Vec::new();
        eng.on_tuple(&pat, 0, &t(0, 0), &mut out).unwrap();
        eng.on_tuple(&pat, 1, &t(600, 1), &mut out).unwrap();
        let saved = eng.save_state().unwrap();
        let mut resumed = Exception::new();
        resumed.restore_state(&pat, &saved).unwrap();
        resumed
            .on_punctuation(&pat, Timestamp::from_secs(4000), &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        let e = out[0].as_exception().unwrap();
        assert_eq!(e.level, 3);
    }
}
