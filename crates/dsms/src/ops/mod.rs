//! Physical operators for continuous queries.
//!
//! A continuous query is a tree of operators fed by one or more source
//! streams. Operators are push-based: the engine calls [`Operator::on_tuple`]
//! for each arrival on an input port and [`Operator::on_punctuation`] when
//! stream time advances, and the operator appends any produced tuples to
//! the output vector. Punctuations are what give FOLLOWING windows and
//! `EXCEPTION_SEQ` their *active expiration* behaviour — results that must
//! be emitted even when no further tuple arrives.

mod aggregate;
mod dedup;
mod exists;
mod join;
mod project;
mod select;
mod shared;
mod speculative;

pub use aggregate::{AggSpec, AggWindow, Emission, WindowAggregate};
pub use dedup::Dedup;
pub use exists::{SemiJoinKind, WindowExists};
pub use join::BinaryJoin;
pub use project::Project;
pub use select::Select;
pub use shared::{SharedCore, SharedCoreRef, SharedTap};
pub use speculative::SpeculativeGate;

use crate::ckpt::StateNode;
use crate::error::{DsmsError, Result};
use crate::key::KeyCodec;
use crate::obs::{Histogram, HistogramSnapshot};
use crate::time::Timestamp;
use crate::tuple::Tuple;

/// How often per-stage wall-clock samples are taken: every tuple whose
/// per-stage input ordinal is a multiple of this power of two. Sampling
/// keeps the two `Instant::now` calls off the hot path while still
/// filling the latency histograms quickly.
const WALL_SAMPLE_MASK: u64 = 63;

/// Per-operator observability report: what flowed through, what is held,
/// and (when the operator is driven by an instrumented parent such as
/// [`Chain`] or the engine) how long invocations took.
#[derive(Clone, Debug, Default)]
pub struct OpReport {
    /// Operator name as shown in plans.
    pub name: String,
    /// Tuples fed into the operator.
    pub tuples_in: u64,
    /// Tuples the operator produced.
    pub tuples_out: u64,
    /// Batch invocations the operator served (0 when uninstrumented).
    pub batches: u64,
    /// Tuples currently retained in operator state.
    pub retained: usize,
    /// Encoded bytes of the operator's state keys.
    pub state_bytes: usize,
    /// Operator-specific counters (e.g. `suppressed`, `matches`).
    pub counters: Vec<(String, u64)>,
    /// Sampled wall-clock per invocation, in nanoseconds.
    pub wall_ns: Option<HistogramSnapshot>,
    /// Sub-operator reports (chain stages, detector internals).
    pub children: Vec<OpReport>,
}

impl OpReport {
    /// A report with only name and retention filled in — what an
    /// uninstrumented operator can say about itself.
    pub fn leaf(name: &str, retained: usize) -> OpReport {
        OpReport {
            name: name.to_string(),
            retained,
            ..OpReport::default()
        }
    }

    /// Indented multi-line rendering for plan/EXPLAIN display.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth);
        out.push_str(&format!(
            "{indent}{}  in={} out={} retained={}",
            self.name, self.tuples_in, self.tuples_out, self.retained
        ));
        if self.batches > 0 {
            out.push_str(&format!(" batches={}", self.batches));
        }
        if self.state_bytes > 0 {
            out.push_str(&format!(" state_bytes={}", self.state_bytes));
        }
        for (k, v) in &self.counters {
            out.push_str(&format!(" {k}={v}"));
        }
        if let Some(w) = &self.wall_ns {
            if w.count > 0 {
                out.push_str(&format!(
                    " wall_mean={:.0}ns wall_p99<={}ns samples={}",
                    w.mean(),
                    w.quantile(0.99),
                    w.count
                ));
            }
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

/// A push-based streaming operator.
pub trait Operator: Send {
    /// Handle a tuple arriving on input `port`; append outputs to `out`.
    fn on_tuple(&mut self, port: usize, t: &Tuple, out: &mut Vec<Tuple>) -> Result<()>;

    /// Handle a whole batch of tuples arriving in order on input `port`.
    ///
    /// The default just loops [`Operator::on_tuple`]; operators with
    /// per-invocation overhead worth amortizing (stage traversal, wall
    /// sampling, buffer churn) override it. Implementations must produce
    /// exactly the tuples the per-tuple loop would — the engine's batched
    /// path relies on that equivalence for its differential guarantees.
    fn process_batch(&mut self, port: usize, batch: &[Tuple], out: &mut Vec<Tuple>) -> Result<()> {
        for t in batch {
            self.on_tuple(port, t, out)?;
        }
        Ok(())
    }

    /// Stream time has advanced to `ts`: expire state, emit anything whose
    /// window has closed. Default: nothing to do.
    fn on_punctuation(&mut self, _ts: Timestamp, _out: &mut Vec<Tuple>) -> Result<()> {
        Ok(())
    }

    /// Whether [`Operator::on_punctuation`] can emit output or observably
    /// change a later output (window-close emission, timeout detection,
    /// periodic reports). Operators whose punctuation handling is pure
    /// state hygiene — purging entries that could never influence another
    /// result — return `false`, which lets the engine coalesce the
    /// per-tuple auto-watermarks of a batch into a single punctuation
    /// without changing any output. Defaults to `true` (conservative:
    /// unknown operators keep the exact per-tuple watermark schedule).
    fn punctuation_sensitive(&self) -> bool {
        true
    }

    /// Number of input ports this operator expects.
    fn num_ports(&self) -> usize {
        1
    }

    /// Operator name for plan display.
    fn name(&self) -> &str;

    /// Adopt the engine's key codec at registration time. Stateful
    /// operators that key maps on [`crate::key::StateKey`] store the
    /// codec here so their encoding matches the engine's representation
    /// (interned symbols or raw seed bytes). Default: nothing to bind.
    fn bind_interner(&mut self, _codec: &KeyCodec) {}

    /// Total encoded bytes of the operator's state keys — the
    /// state-size metric the R1 representation sweep reports. Computed
    /// on demand (never on the hot path). Default: no keyed state.
    fn state_key_bytes(&self) -> usize {
        0
    }

    /// Approximate number of tuples currently retained in operator state —
    /// the metric the paper's Tuple Pairing Modes are designed to bound.
    fn retained(&self) -> usize {
        0
    }

    /// Observability report. The default covers name and retention;
    /// composite operators override it to expose per-stage flow counts,
    /// latency histograms and operator-specific counters.
    fn report(&self) -> OpReport {
        OpReport::leaf(self.name(), self.retained())
    }

    /// Capture the operator's mutable state as a [`StateNode`] tree for
    /// checkpointing. Stateless operators keep the default (`Unit`);
    /// every operator that retains tuples or accumulators overrides both
    /// this and [`Operator::restore_state`] so that a restored engine is
    /// observationally identical to the captured one.
    fn save_state(&self) -> Result<StateNode> {
        Ok(StateNode::Unit)
    }

    /// Rebuild the operator's mutable state from a tree produced by
    /// [`Operator::save_state`] on a structurally identical operator.
    /// The default accepts only `Unit` — restoring real state into an
    /// operator that never saves any is a checkpoint-shape error.
    fn restore_state(&mut self, state: &StateNode) -> Result<()> {
        match state {
            StateNode::Unit => Ok(()),
            _ => Err(DsmsError::ckpt(format!(
                "operator `{}` does not support state restore",
                self.name()
            ))),
        }
    }
}

/// Flow counters and sampled latency for one chain stage.
struct StageStats {
    tuples_in: u64,
    tuples_out: u64,
    batches: u64,
    wall: Histogram,
}

impl StageStats {
    fn new() -> StageStats {
        StageStats {
            tuples_in: 0,
            tuples_out: 0,
            batches: 0,
            wall: Histogram::new(),
        }
    }
}

/// A single-input chain of operators: the output of each stage feeds the
/// next. This is the shape of every transducer in the paper's examples.
///
/// The chain is the pipeline's instrumentation point: it counts tuples
/// into and out of every stage and keeps a sampled wall-clock histogram
/// per stage, surfaced through [`Operator::report`].
pub struct Chain {
    stages: Vec<Box<dyn Operator>>,
    stats: Vec<StageStats>,
    name: String,
}

impl Chain {
    /// Build a chain; every stage must be single-input.
    pub fn new(stages: Vec<Box<dyn Operator>>) -> Chain {
        debug_assert!(stages.iter().all(|s| s.num_ports() == 1));
        let name = stages
            .iter()
            .map(|s| s.name().to_string())
            .collect::<Vec<_>>()
            .join(" -> ");
        let stats = stages.iter().map(|_| StageStats::new()).collect();
        Chain {
            stages,
            stats,
            name,
        }
    }

    fn run_from(&mut self, start: usize, input: &Tuple, out: &mut Vec<Tuple>) -> Result<()> {
        self.run_batch_from(start, std::slice::from_ref(input), out)
    }

    fn run_batch_from(
        &mut self,
        start: usize,
        batch: &[Tuple],
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        // Stage-at-a-time through the remaining pipeline: the whole batch
        // flows through a stage before the next one runs, so the two
        // `Instant::now` calls and the flow counters are paid once per
        // stage per batch, not once per tuple. Each stage may fan out
        // (nothing or many); an emptied batch short-circuits the tail.
        let stages = &mut self.stages[start..];
        let stats = &mut self.stats[start..];
        if stages.is_empty() {
            out.extend_from_slice(batch);
            return Ok(());
        }
        let mut current: Vec<Tuple> = Vec::new();
        for (i, (stage, st)) in stages.iter_mut().zip(stats.iter_mut()).enumerate() {
            let input: &[Tuple] = if i == 0 { batch } else { &current };
            // Sample when the batch starts on or crosses a 1-in-64 tuple
            // ordinal, so the sampling rate is independent of batch size.
            let sampled = st.tuples_in & WALL_SAMPLE_MASK == 0
                || (st.tuples_in >> 6) != ((st.tuples_in + input.len() as u64) >> 6);
            st.tuples_in += input.len() as u64;
            st.batches += 1;
            let mut next = Vec::new();
            let started = sampled.then(std::time::Instant::now);
            stage.process_batch(0, input, &mut next)?;
            if let Some(s) = started {
                st.wall.record_duration(s.elapsed());
            }
            st.tuples_out += next.len() as u64;
            current = next;
            if current.is_empty() {
                return Ok(());
            }
        }
        out.append(&mut current);
        Ok(())
    }
}

impl Operator for Chain {
    fn on_tuple(&mut self, port: usize, t: &Tuple, out: &mut Vec<Tuple>) -> Result<()> {
        debug_assert_eq!(port, 0);
        self.run_from(0, t, out)
    }

    fn process_batch(&mut self, port: usize, batch: &[Tuple], out: &mut Vec<Tuple>) -> Result<()> {
        debug_assert_eq!(port, 0);
        self.run_batch_from(0, batch, out)
    }

    fn on_punctuation(&mut self, ts: Timestamp, out: &mut Vec<Tuple>) -> Result<()> {
        // A punctuation may release buffered tuples at any stage; those
        // must then flow through the *rest* of the chain.
        for i in 0..self.stages.len() {
            let mut released = Vec::new();
            self.stages[i].on_punctuation(ts, &mut released)?;
            self.stats[i].tuples_out += released.len() as u64;
            if !released.is_empty() {
                if i + 1 < self.stages.len() {
                    self.run_batch_from(i + 1, &released, out)?;
                } else {
                    out.append(&mut released);
                }
            }
        }
        Ok(())
    }

    fn punctuation_sensitive(&self) -> bool {
        self.stages.iter().any(|s| s.punctuation_sensitive())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn bind_interner(&mut self, codec: &KeyCodec) {
        for stage in &mut self.stages {
            stage.bind_interner(codec);
        }
    }

    fn state_key_bytes(&self) -> usize {
        self.stages.iter().map(|s| s.state_key_bytes()).sum()
    }

    fn retained(&self) -> usize {
        self.stages.iter().map(|s| s.retained()).sum()
    }

    fn report(&self) -> OpReport {
        let children = self
            .stages
            .iter()
            .zip(&self.stats)
            .map(|(stage, stats)| {
                let mut r = stage.report();
                r.tuples_in = stats.tuples_in;
                r.tuples_out = stats.tuples_out;
                r.batches = stats.batches;
                r.state_bytes = stage.state_key_bytes();
                r.wall_ns = Some(stats.wall.snapshot());
                r
            })
            .collect();
        OpReport {
            name: "chain".to_string(),
            retained: self.retained(),
            children,
            ..OpReport::default()
        }
    }

    fn save_state(&self) -> Result<StateNode> {
        // Stage flow counters and wall histograms are observability-only
        // (they never influence output) and restart fresh on restore.
        Ok(StateNode::List(
            self.stages
                .iter()
                .map(|s| s.save_state())
                .collect::<Result<_>>()?,
        ))
    }

    fn restore_state(&mut self, state: &StateNode) -> Result<()> {
        let items = state.as_list()?;
        if items.len() != self.stages.len() {
            return Err(DsmsError::ckpt(format!(
                "chain `{}` has {} stages, checkpoint has {}",
                self.name,
                self.stages.len(),
                items.len()
            )));
        }
        for (stage, st) in self.stages.iter_mut().zip(items) {
            stage.restore_state(st)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::value::Value;

    fn t(v: i64, secs: u64) -> Tuple {
        Tuple::new(vec![Value::Int(v)], Timestamp::from_secs(secs), secs)
    }

    #[test]
    fn chain_pipes_through_stages() {
        // select v > 2 then project v*10.
        use crate::expr::BinOp;
        let sel = Select::new(Expr::bin(BinOp::Gt, Expr::col(0), Expr::lit(2i64)));
        let proj = Project::new(vec![Expr::bin(BinOp::Mul, Expr::col(0), Expr::lit(10i64))]);
        let mut chain = Chain::new(vec![Box::new(sel), Box::new(proj)]);
        let mut out = Vec::new();
        chain.on_tuple(0, &t(1, 1), &mut out).unwrap();
        chain.on_tuple(0, &t(5, 2), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value(0), &Value::Int(50));
        assert!(chain.name().contains("select"));
    }

    #[test]
    fn chain_report_tracks_per_stage_flow() {
        use crate::expr::BinOp;
        let sel = Select::new(Expr::bin(BinOp::Gt, Expr::col(0), Expr::lit(2i64)));
        let proj = Project::new(vec![Expr::col(0)]);
        let mut chain = Chain::new(vec![Box::new(sel), Box::new(proj)]);
        let mut out = Vec::new();
        for v in [1i64, 3, 5, 0] {
            chain
                .on_tuple(0, &t(v, v.unsigned_abs()), &mut out)
                .unwrap();
        }
        let r = chain.report();
        assert_eq!(r.children.len(), 2);
        // Stage 0 (select) saw all 4, passed 2; stage 1 saw those 2.
        assert_eq!(r.children[0].tuples_in, 4);
        assert_eq!(r.children[0].tuples_out, 2);
        assert_eq!(r.children[1].tuples_in, 2);
        assert_eq!(r.children[1].tuples_out, 2);
        // Every on_tuple is one batch for stage 0; stage 1 only runs
        // when stage 0 emits.
        assert_eq!(r.children[0].batches, 4);
        assert_eq!(r.children[1].batches, 2);
        // The first invocation of each stage is always wall-sampled.
        assert!(r.children[0].wall_ns.as_ref().unwrap().count >= 1);
        let text = r.render();
        assert!(text.contains("select"));
        assert!(text.contains("in=4 out=2"));
    }
}
