//! The planner: compiles parsed ESL-EV statements into engine state —
//! schemas for DDL, operator pipelines + sinks for continuous queries.
//!
//! Continuous `SELECT`s compile in three phases:
//!
//! 1. **build** — [`crate::plan::build_logical`] lowers the statement to
//!    a naive [`LogicalPlan`] that names the query shape (transducer,
//!    aggregate, windowed/table EXISTS, SEQ detector) but leaves every
//!    `WHERE` conjunct in place;
//! 2. **rewrite** — [`crate::plan::rewrite_logical`] runs the named
//!    rewrite pass (predicate pushdown, SEQ conjunct classification,
//!    partition-key lifting, dedup specialization, index-probe lifting,
//!    projection pruning, state-bound annotation);
//! 3. **lower** — this module turns the *rewritten* tree into physical
//!    operators: a `SEQ` node becomes a [`DetectorOp`] whose element
//!    predicates / timing gaps / partition keys come straight off the
//!    IR, a `Dedup` node the dedicated [`Dedup`] operator (Example 1),
//!    `SemiJoin` a [`WindowExists`], `Lookup` a [`TableExists`]
//!    (Example 2), `Aggregate` a [`WindowAggregate`] (Example 3), and
//!    everything else a select/project transducer chain.
//!
//! `EXPLAIN` renders phases 1 and 2 (plus the physical summary), so what
//! it prints is exactly what runs.

use crate::ast::*;
use crate::plan::{build_logical, is_aggregate_item, rewrite_logical, LogicalPlan, SeqPlan};
use crate::scope::{compile_scalar, Scope};
use eslev_core::binding::DetectorOutput;
use eslev_core::detector::{Detector, DetectorConfig};
use eslev_core::op::DetectorOp;
use eslev_core::pattern::{Element, EventWindow, SeqPattern, WindowKind};
use eslev_dsms::engine::{Collector, Consistency, Engine, QueryId, Sink};
use eslev_dsms::error::{DsmsError, Result};
use eslev_dsms::expr::Expr;
use eslev_dsms::lookup::TableExists;
use eslev_dsms::ops::{
    AggSpec, AggWindow, Chain, Dedup, Emission, OpReport, Operator, Project, Select, SemiJoinKind,
    WindowAggregate, WindowExists,
};
use eslev_dsms::schema::{Schema, SchemaRef};
use eslev_dsms::tuple::Tuple;
use eslev_dsms::value::{Value, ValueType};
use eslev_dsms::window::WindowExtent;
use std::sync::Arc;

/// Result of executing one statement.
pub enum ExecOutcome {
    /// DDL applied.
    Created,
    /// One-shot UPDATE/DELETE applied to this many rows.
    Modified(usize),
    /// Continuous query registered with a stream/table sink.
    Registered(QueryId),
    /// Bare SELECT registered; results accumulate in the collector.
    Collected(QueryId, Collector),
}

impl ExecOutcome {
    /// The collector, when this outcome has one.
    pub fn collector(&self) -> Option<&Collector> {
        match self {
            ExecOutcome::Collected(_, c) => Some(c),
            _ => None,
        }
    }
}

/// Parse and execute a whole `;`-separated script.
pub fn execute_script(engine: &mut Engine, sql: &str) -> Result<Vec<ExecOutcome>> {
    let stmts = crate::parser::parse_script(sql)?;
    let mut outcomes = Vec::with_capacity(stmts.len());
    for stmt in &stmts {
        outcomes.push(apply(engine, stmt)?);
    }
    Ok(outcomes)
}

/// Parse and execute exactly one statement.
pub fn execute(engine: &mut Engine, sql: &str) -> Result<ExecOutcome> {
    let stmt = crate::parser::parse_statement(sql)?;
    apply(engine, &stmt)
}

/// Plan a statement without registering it and describe the plan: the
/// naive logical tree, the rewrites that fired, the rewritten tree, and
/// the physical summary (operator + feeding streams). DDL statements
/// describe the schema they would create.
pub fn explain(engine: &Engine, sql: &str) -> Result<String> {
    let stmt = crate::parser::parse_statement(sql)?;
    Ok(match &stmt {
        Statement::CreateStream { name, columns } => {
            format!("CREATE STREAM {name} ({} columns)", columns.len())
        }
        Statement::CreateTable { name, columns } => {
            format!("CREATE TABLE {name} ({} columns)", columns.len())
        }
        Statement::InsertInto { target, select } => {
            explain_select(engine, select, &format!("INSERT INTO {target}"))?
        }
        Statement::Select(select) => explain_select(engine, select, "collect")?,
        Statement::Update { table, sets, .. } => {
            format!("UPDATE {table} ({} assignments)", sets.len())
        }
        Statement::Delete { table, .. } => format!("DELETE FROM {table}"),
    })
}

fn explain_select(engine: &Engine, sel: &SelectStmt, sink: &str) -> Result<String> {
    let (naive, optimized, applied) = plan_logical(engine, sel)?;
    let plan = lower(engine, sel, optimized.clone())?;
    let mut s = String::from("logical:\n");
    s.push_str(&naive.render());
    if applied.is_empty() {
        s.push_str("rewrites: (none)\n");
    } else {
        s.push_str(&format!("rewrites: {}\n", applied.join(", ")));
        s.push_str("optimized:\n");
        s.push_str(&optimized.render());
    }
    s.push_str(&format!(
        "physical: {} <- [{}] {} -> {sink}",
        plan.name,
        plan.sources.join(", "),
        plan.op.name(),
    ));
    if engine.shared_execution() {
        let fp = crate::fingerprint::shared_fingerprint(sel, &optimized);
        s.push_str(&format!("\nshared: fingerprint=0x{:016x}", fp.hash));
        if let Some(subs) = engine.shared_subscribers(fp.hash, &fp.canon) {
            s.push_str(&format!(" shared_by=[{}]", subs.join(", ")));
        }
    }
    Ok(s)
}

/// `EXPLAIN ANALYZE`: the optimized logical plan annotated per node with
/// the live runtime stats (rows in/out, batch count, sampled wall time,
/// state bytes) of the registered query the statement lowers to, plus
/// the raw per-operator report tree. `input` is either a SELECT /
/// INSERT statement — the query must already be registered, since the
/// analysis reads its counters — or the name of a registered query, in
/// which case only the runtime tree is rendered.
pub fn explain_analyze(engine: &Engine, input: &str) -> Result<String> {
    let input = input.trim();
    if let Some(r) = engine.query_report_by_name(input) {
        return Ok(format!("query: {input}\nruntime:\n{}", indent_report(&r)));
    }
    let stmt = crate::parser::parse_statement(input)?;
    let sel = match &stmt {
        Statement::Select(s) => s,
        Statement::InsertInto { select, .. } => select,
        _ => {
            return Err(DsmsError::plan(
                "EXPLAIN ANALYZE takes a SELECT/INSERT statement or a registered query name",
            ))
        }
    };
    let (_, optimized, applied) = plan_logical(engine, sel)?;
    let lowered = lower(engine, sel, optimized.clone())?;
    let report = engine.query_report_by_name(&lowered.name).ok_or_else(|| {
        DsmsError::unknown(format!(
            "registered query `{}` — EXPLAIN ANALYZE reads live runtime stats, \
             so register (execute) the query and feed it first",
            lowered.name
        ))
    })?;
    // Pre-order flatten; each logical node claims the first unclaimed
    // report whose operator name matches its shape (exact stage name
    // first, then a fused-operator head like `exists -> project`).
    let mut flat: Vec<&OpReport> = Vec::new();
    flatten_report(&report, &mut flat);
    let mut claimed = vec![false; flat.len()];
    let mut s = String::from("optimized:\n");
    s.push_str(&optimized.render_with(&mut |node| {
        let want = physical_name_of(node)?;
        let idx = flat
            .iter()
            .enumerate()
            .position(|(i, r)| !claimed[i] && r.name == want)
            .or_else(|| {
                flat.iter()
                    .enumerate()
                    .position(|(i, r)| !claimed[i] && r.name.split(" -> ").next() == Some(want))
            })?;
        claimed[idx] = true;
        Some(analyze_annotation(flat[idx]))
    }));
    if !applied.is_empty() {
        s.push_str(&format!("rewrites: {}\n", applied.join(", ")));
    }
    if engine.shared_execution() {
        let fp = crate::fingerprint::shared_fingerprint(sel, &optimized);
        if let Some(subs) = engine.shared_subscribers(fp.hash, &fp.canon) {
            s.push_str(&format!(
                "shared: fingerprint=0x{:016x} shared_by=[{}]\n",
                fp.hash,
                subs.join(", ")
            ));
        }
    }
    s.push_str(&format!("runtime: query `{}`\n", lowered.name));
    s.push_str(&indent_report(&report));
    Ok(s)
}

fn flatten_report<'a>(r: &'a OpReport, out: &mut Vec<&'a OpReport>) {
    out.push(r);
    for c in &r.children {
        flatten_report(c, out);
    }
}

/// The physical operator name a logical node lowers to (`None` for
/// nodes with no operator of their own: sources, windows).
fn physical_name_of(node: &LogicalPlan) -> Option<&'static str> {
    Some(match node {
        LogicalPlan::Dedup { .. } => "dedup",
        LogicalPlan::Filter { .. } => "select",
        LogicalPlan::Project { .. } => "project",
        LogicalPlan::Lookup { negated, .. } => {
            if *negated {
                "table-not-exists"
            } else {
                "table-exists"
            }
        }
        LogicalPlan::SemiJoin { negated, .. } => {
            if *negated {
                "not-exists"
            } else {
                "exists"
            }
        }
        LogicalPlan::Aggregate { .. } => "aggregate",
        LogicalPlan::Seq(_) => "seq-detector",
        LogicalPlan::Source { .. } | LogicalPlan::Window { .. } => return None,
    })
}

/// The bracketed runtime annotation appended to a plan line.
fn analyze_annotation(r: &OpReport) -> String {
    let mut s = format!("  [rows {} -> {}", r.tuples_in, r.tuples_out);
    if r.batches > 0 {
        s.push_str(&format!(", batches {}", r.batches));
    }
    if let Some(w) = &r.wall_ns {
        if w.count > 0 {
            s.push_str(&format!(", wall p50 {}ns", w.quantile(0.5)));
        }
    }
    if r.state_bytes > 0 {
        s.push_str(&format!(", state {}B", r.state_bytes));
    }
    s.push_str(&format!(", retained {}]", r.retained));
    s
}

fn indent_report(r: &OpReport) -> String {
    r.render().lines().map(|l| format!("  {l}\n")).collect()
}

fn apply(engine: &mut Engine, stmt: &Statement) -> Result<ExecOutcome> {
    match stmt {
        Statement::CreateStream { name, columns } => {
            let time_col = columns
                .iter()
                .find(|(_, ty)| *ty == ValueType::Ts)
                .map(|(n, _)| n.clone())
                .ok_or_else(|| {
                    DsmsError::schema(format!(
                        "stream `{name}` needs a TIMESTAMP column for event time"
                    ))
                })?;
            let cols: Vec<(&str, ValueType)> =
                columns.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            let schema = Arc::new(Schema::new(name.clone(), cols, Some(&time_col))?);
            engine.create_stream(schema)?;
            Ok(ExecOutcome::Created)
        }
        Statement::CreateTable { name, columns } => {
            let cols: Vec<(&str, ValueType)> =
                columns.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            let schema = Arc::new(Schema::new(name.clone(), cols, None)?);
            engine.create_table(schema)?;
            Ok(ExecOutcome::Created)
        }
        Statement::InsertInto { target, select } => {
            let sink = if engine.stream_schema(target).is_ok() {
                Sink::Stream(target.clone())
            } else if engine.table(target).is_ok() {
                Sink::Table(target.clone())
            } else {
                return Err(DsmsError::unknown(format!("insert target `{target}`")));
            };
            let id = register_select(engine, select, sink)?;
            Ok(ExecOutcome::Registered(id))
        }
        Statement::Select(select) => {
            let c = Collector::new();
            let id = register_select(engine, select, Sink::Collect(c.clone()))?;
            Ok(ExecOutcome::Collected(id, c))
        }
        Statement::Update {
            table,
            sets,
            where_clause,
        } => {
            let t = engine.table(table)?;
            let scope = Scope::new(vec![(table.clone(), t.schema().clone())]);
            let pred = match where_clause {
                None => Expr::lit(true),
                Some(w) => compile_scalar(w, &scope, engine.functions())?,
            };
            let mut total = 0;
            for (col, expr) in sets {
                let value = compile_scalar(expr, &scope, engine.functions())?;
                total = t.update_map(&pred, col, |row| value.eval(&[row]))?;
            }
            Ok(ExecOutcome::Modified(total))
        }
        Statement::Delete {
            table,
            where_clause,
        } => {
            let t = engine.table(table)?;
            let scope = Scope::new(vec![(table.clone(), t.schema().clone())]);
            let pred = match where_clause {
                None => Expr::lit(true),
                Some(w) => compile_scalar(w, &scope, engine.functions())?,
            };
            Ok(ExecOutcome::Modified(t.delete(&pred)?))
        }
    }
}

struct Plan {
    name: String,
    sources: Vec<String>,
    op: Box<dyn Operator>,
}

/// A lowered plan split for shared execution: the (shareable) core and
/// the per-query residual stage, when the shape has one.
struct SplitPlan {
    core: Plan,
    residual: Option<Box<dyn Operator>>,
}

impl SplitPlan {
    fn unsplit(core: Plan) -> SplitPlan {
        SplitPlan {
            core,
            residual: None,
        }
    }
}

/// Register a continuous `SELECT` (or the select of an `INSERT INTO`)
/// with an explicit sink — the programmatic twin of [`execute`] for
/// harnesses that fan out many queries without wanting a collector per
/// query (pass [`Sink::Discard`]). Honors the engine's shared-execution
/// setting exactly like [`execute`].
pub fn register_with_sink(engine: &mut Engine, sql: &str, sink: Sink) -> Result<QueryId> {
    let stmt = crate::parser::parse_statement(sql)?;
    let sel = match &stmt {
        Statement::Select(s) => s,
        Statement::InsertInto { select, .. } => select,
        _ => {
            return Err(DsmsError::plan(
                "register_with_sink takes a SELECT or INSERT INTO statement",
            ))
        }
    };
    register_select(engine, sel, sink)
}

/// Register a planned SELECT, routing through the shared-subplan
/// registry when the engine has shared execution enabled.
fn register_select(engine: &mut Engine, sel: &SelectStmt, sink: Sink) -> Result<QueryId> {
    let (_, optimized, _) = plan_logical(engine, sel)?;
    let consistency = sel.consistency.unwrap_or_default();
    if consistency == Consistency::Fast {
        // A fast query's operator tree is wrapped in a speculative gate
        // whose retraction state is private to the query — it cannot
        // attach to a shared chain, whose core runs once for all
        // subscribers at the consistent level.
        let plan = lower(engine, sel, optimized)?;
        let sources: Vec<&str> = plan.sources.iter().map(|s| s.as_str()).collect();
        return engine.register_query_with(plan.name, sources, plan.op, sink, consistency);
    }
    if engine.shared_execution() {
        let fp = crate::fingerprint::shared_fingerprint(sel, &optimized);
        let split = lower_with(engine, sel, optimized, true)?;
        let sources: Vec<&str> = split.core.sources.iter().map(|s| s.as_str()).collect();
        let label = split.core.name.clone();
        // Later subscribers to the same chain get a `#n` suffix so each
        // query keeps a distinguishable name in stats / EXPLAIN output.
        let n = engine
            .shared_subscribers(fp.hash, &fp.canon)
            .map_or(0, |s| s.len());
        let name = if n == 0 {
            label.clone()
        } else {
            format!("{label}#{n}")
        };
        return engine.register_shared(
            name,
            sources,
            fp.hash,
            &fp.canon,
            &label,
            split.core.op,
            split.residual,
            sink,
        );
    }
    let plan = lower(engine, sel, optimized)?;
    let sources: Vec<&str> = plan.sources.iter().map(|s| s.as_str()).collect();
    engine.register_query(plan.name, sources, plan.op, sink)
}

/// Phases 1+2: naive logical plan, rewritten plan, applied rewrites.
fn plan_logical(
    engine: &Engine,
    sel: &SelectStmt,
) -> Result<(LogicalPlan, LogicalPlan, Vec<String>)> {
    if sel.from.is_empty() {
        return Err(DsmsError::plan("FROM clause is required"));
    }
    if !sel.order_by.is_empty() || sel.limit.is_some() {
        return Err(DsmsError::plan(
            "ORDER BY / LIMIT apply to ad-hoc snapshot queries (eslev_lang::ad_hoc),              not continuous ones — a stream has no final order",
        ));
    }
    let naive = build_logical(engine, sel)?;
    let (optimized, applied) = rewrite_logical(engine, sel, naive.clone())?;
    Ok((naive, optimized, applied))
}

/// Phase 3: lower the rewritten logical plan to physical operators.
fn lower(engine: &Engine, sel: &SelectStmt, plan: LogicalPlan) -> Result<Plan> {
    Ok(lower_with(engine, sel, plan, false)?.core)
}

/// Phase 3, split-aware: with `split`, shapes whose final stage is a
/// pure per-query projection return it separately as the residual, so
/// the stateful core can be shared across fingerprint-equal queries.
/// Fused shapes (dedup, aggregate, SEQ) never split — they share as a
/// whole when the full canonical form matches.
fn lower_with(
    engine: &Engine,
    sel: &SelectStmt,
    plan: LogicalPlan,
    split: bool,
) -> Result<SplitPlan> {
    // Peel the projection/filter shell: projections compile from the
    // select list (aliases and all), shell filters become the shape's
    // outer conjuncts.
    let mut outer: Vec<AstExpr> = Vec::new();
    let mut shell = plan;
    let core = loop {
        match shell {
            LogicalPlan::Project { input, .. } => shell = *input,
            LogicalPlan::Filter { input, predicates } => {
                outer.extend(predicates);
                shell = *input;
            }
            other => break other,
        }
    };
    match core {
        LogicalPlan::Seq(seq) => Ok(SplitPlan::unsplit(lower_seq(engine, sel, &seq)?)),
        LogicalPlan::Dedup { keys, window, .. } => {
            let stream = sel.from[0].name.clone();
            let key: Vec<Expr> = keys.iter().map(|(c, _)| Expr::col(*c)).collect();
            Ok(SplitPlan::unsplit(Plan {
                name: format!("dedup:{stream}"),
                sources: vec![stream],
                op: Box::new(Dedup::new(key, window)),
            }))
        }
        LogicalPlan::SemiJoin {
            outer: outer_branch,
            negated,
            ..
        } => {
            let (_, sub) = exists_parts(sel)
                .ok_or_else(|| DsmsError::plan("EXISTS sub-query missing from statement"))?;
            // Pushdown moved the outer conjuncts into the probe branch.
            let mut outer_preds: Vec<&AstExpr> = Vec::new();
            collect_filters(&outer_branch, &mut outer_preds);
            outer_preds.extend(outer.iter());
            plan_window_exists(engine, sel, negated, sub, &outer_preds, split)
        }
        LogicalPlan::Lookup {
            input,
            negated,
            probe,
            ..
        } => {
            let (_, sub) = exists_parts(sel)
                .ok_or_else(|| DsmsError::plan("EXISTS sub-query missing from statement"))?;
            let mut outer_preds: Vec<&AstExpr> = Vec::new();
            collect_filters(&input, &mut outer_preds);
            outer_preds.extend(outer.iter());
            plan_table_exists(engine, sel, negated, sub, &outer_preds, probe, split)
        }
        LogicalPlan::Aggregate { input, .. } => {
            let mut preds: Vec<&AstExpr> = Vec::new();
            collect_filters(&input, &mut preds);
            preds.extend(outer.iter());
            Ok(SplitPlan::unsplit(plan_aggregate(engine, sel, &preds)?))
        }
        LogicalPlan::Source { .. } | LogicalPlan::Window { .. } => {
            let refs: Vec<&AstExpr> = outer.iter().collect();
            plan_transducer(engine, sel, &refs, split)
        }
        LogicalPlan::Filter { .. } | LogicalPlan::Project { .. } => {
            unreachable!("shell peeling consumed filters and projections")
        }
    }
}

/// Compile the select list into a projection stage, unless it is `*`.
fn projection_stage(
    sel: &SelectStmt,
    scope: &Scope,
    engine: &Engine,
) -> Result<Option<Box<dyn Operator>>> {
    if matches!(sel.items[..], [SelectItem::Wildcard]) {
        return Ok(None);
    }
    let exprs = sel
        .items
        .iter()
        .map(|i| match i {
            SelectItem::Wildcard => Err(DsmsError::plan("mixed `*` and columns")),
            SelectItem::Expr { expr, .. } => compile_scalar(expr, scope, engine.functions()),
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(Some(Box::new(Project::new(exprs))))
}

/// Gather the predicates of every `Filter` on the chain below `plan`,
/// walking through windows, in top-down order.
fn collect_filters<'a>(plan: &'a LogicalPlan, out: &mut Vec<&'a AstExpr>) {
    match plan {
        LogicalPlan::Filter { input, predicates } => {
            out.extend(predicates.iter());
            collect_filters(input, out);
        }
        LogicalPlan::Window { input, .. } => collect_filters(input, out),
        _ => {}
    }
}

/// The statement's `[NOT] EXISTS` conjunct, when present.
fn exists_parts(sel: &SelectStmt) -> Option<(bool, &SelectStmt)> {
    sel.where_clause
        .as_ref()
        .map(split_conjuncts)
        .unwrap_or_default()
        .into_iter()
        .find_map(|c| match c {
            AstExpr::Exists { negated, subquery } => Some((*negated, &**subquery)),
            _ => None,
        })
}

fn stream_schema_for(engine: &Engine, item: &FromItem) -> Result<SchemaRef> {
    engine.stream_schema(&item.name)
}

// --------------------------------------------------------- simple shapes

fn plan_transducer(
    engine: &Engine,
    sel: &SelectStmt,
    conjuncts: &[&AstExpr],
    split: bool,
) -> Result<SplitPlan> {
    if sel.from.len() != 1 {
        return Err(DsmsError::plan(
            "multi-stream FROM without SEQ is not supported (use SEQ or a sub-query)",
        ));
    }
    let schema = stream_schema_for(engine, &sel.from[0])?;
    let scope = Scope::new(vec![(sel.from[0].binding().to_string(), schema.clone())]);
    let mut stages: Vec<Box<dyn Operator>> = Vec::new();
    if !conjuncts.is_empty() {
        let pred = compile_conjunction(conjuncts, &scope, engine)?;
        stages.push(Box::new(Select::new(pred)));
    }
    let mut residual: Option<Box<dyn Operator>> = None;
    if let Some(project) = projection_stage(sel, &scope, engine)? {
        if split {
            residual = Some(Box::new(Chain::new(vec![project])));
        } else {
            stages.push(project);
        }
    }
    if stages.is_empty() {
        stages.push(Box::new(Select::new(Expr::lit(true))));
    }
    Ok(SplitPlan {
        core: Plan {
            name: format!("select:{}", sel.from[0].name),
            sources: vec![sel.from[0].name.clone()],
            op: Box::new(Chain::new(stages)),
        },
        residual,
    })
}

fn compile_conjunction(conjuncts: &[&AstExpr], scope: &Scope, engine: &Engine) -> Result<Expr> {
    let mut it = conjuncts.iter();
    let first = it
        .next()
        .ok_or_else(|| DsmsError::plan("empty conjunction"))?;
    let mut e = compile_scalar(first, scope, engine.functions())?;
    for c in it {
        e = Expr::and(e, compile_scalar(c, scope, engine.functions())?);
    }
    Ok(e)
}

fn plan_aggregate(engine: &Engine, sel: &SelectStmt, conjuncts: &[&AstExpr]) -> Result<Plan> {
    if sel.from.len() != 1 {
        return Err(DsmsError::plan("aggregation reads a single stream"));
    }
    let schema = stream_schema_for(engine, &sel.from[0])?;
    let scope = Scope::new(vec![(sel.from[0].binding().to_string(), schema)]);
    let mut stages: Vec<Box<dyn Operator>> = Vec::new();
    if !conjuncts.is_empty() {
        stages.push(Box::new(Select::new(compile_conjunction(
            conjuncts, &scope, engine,
        )?)));
    }
    // Grouping: explicit GROUP BY, else the non-aggregate select items.
    let mut group_by: Vec<Expr> = sel
        .group_by
        .iter()
        .map(|g| compile_scalar(g, &scope, engine.functions()))
        .collect::<Result<_>>()?;
    let mut specs = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Expr { expr, .. } if is_aggregate_item(engine, item) => {
                let AstExpr::Call { name, args } = expr else {
                    unreachable!()
                };
                let agg = engine
                    .aggregates()
                    .get(name)
                    .ok_or_else(|| DsmsError::unknown(format!("aggregate `{name}`")))?;
                let arg = compile_scalar(&args[0], &scope, engine.functions())?;
                specs.push(AggSpec { agg, arg });
            }
            SelectItem::Expr { expr, .. } => {
                if sel.group_by.is_empty() {
                    group_by.push(compile_scalar(expr, &scope, engine.functions())?);
                }
            }
            SelectItem::Wildcard => {
                return Err(DsmsError::plan("`*` is not valid with aggregates"));
            }
        }
    }
    // Sliding window from the FROM item's OVER clause.
    let window = match &sel.from[0].window {
        None => None,
        Some(w) if w.kind == AstWindowKind::Preceding && w.anchor.is_none() => {
            Some(match w.length {
                WindowLength::Time(d) => AggWindow::Range(d),
                WindowLength::Rows(n) => AggWindow::Rows(n),
            })
        }
        Some(_) => {
            return Err(DsmsError::plan(
                "aggregation windows must be `RANGE d|ROWS n PRECEDING CURRENT`",
            ))
        }
    };
    stages.push(Box::new(WindowAggregate::new(
        group_by,
        specs,
        window,
        Emission::PerArrival,
    )));
    Ok(Plan {
        name: format!("aggregate:{}", sel.from[0].name),
        sources: vec![sel.from[0].name.clone()],
        op: Box::new(Chain::new(stages)),
    })
}

// ---------------------------------------------------------------- EXISTS

#[allow(clippy::too_many_arguments)]
fn plan_table_exists(
    engine: &Engine,
    sel: &SelectStmt,
    negated: bool,
    sub: &SelectStmt,
    outer_conjuncts: &[&AstExpr],
    probe: Option<(String, AstExpr)>,
    split: bool,
) -> Result<SplitPlan> {
    if sel.from.len() != 1 || sub.from.len() != 1 {
        return Err(DsmsError::plan(
            "correlated EXISTS joins one stream to one table",
        ));
    }
    let outer_schema = stream_schema_for(engine, &sel.from[0])?;
    let table = engine.table(&sub.from[0].name)?;
    let outer_binding = sel.from[0].binding().to_string();
    let inner_binding = sub.from[0].binding().to_string();
    let outer_scope = Scope::new(vec![(outer_binding.clone(), outer_schema.clone())]);
    // Correlated scope: outer = rel 0, table = rel 1; unqualified names
    // resolve inner-first.
    let scope = Scope::new(vec![
        (outer_binding, outer_schema.clone()),
        (inner_binding, table.schema().clone()),
    ])
    .with_search_order(vec![1, 0]);

    let mut stages: Vec<Box<dyn Operator>> = Vec::new();
    if !outer_conjuncts.is_empty() {
        stages.push(Box::new(Select::new(compile_conjunction(
            outer_conjuncts,
            &outer_scope,
            engine,
        )?)));
    }
    let sub_conjuncts: Vec<&AstExpr> = sub
        .where_clause
        .as_ref()
        .map(split_conjuncts)
        .unwrap_or_default();
    let pred = if sub_conjuncts.is_empty() {
        Expr::lit(true)
    } else {
        compile_conjunction(&sub_conjuncts, &scope, engine)?
    };
    // Index probe: lifted by the rewriter (`table.col = outer-expr`).
    let probe = match probe {
        None => None,
        Some((col, key_ast)) => Some((
            col,
            compile_scalar(&key_ast, &outer_scope, engine.functions())?,
        )),
    };
    stages.push(Box::new(TableExists::new(table, pred, negated, probe)?));
    let mut residual: Option<Box<dyn Operator>> = None;
    if let Some(project) = projection_stage(sel, &outer_scope, engine)? {
        if split {
            residual = Some(Box::new(Chain::new(vec![project])));
        } else {
            stages.push(project);
        }
    }
    Ok(SplitPlan {
        core: Plan {
            name: format!("table-exists:{}", sel.from[0].name),
            sources: vec![sel.from[0].name.clone()],
            op: Box::new(Chain::new(stages)),
        },
        residual,
    })
}

fn to_extent(w: &AstWindow) -> Result<WindowExtent> {
    match w.length {
        WindowLength::Rows(n) => {
            if w.kind == AstWindowKind::Preceding {
                Ok(WindowExtent::Rows(n))
            } else {
                Err(DsmsError::plan("ROWS windows only support PRECEDING"))
            }
        }
        WindowLength::Time(d) => Ok(match w.kind {
            AstWindowKind::Preceding => WindowExtent::Preceding(d),
            AstWindowKind::Following => WindowExtent::Following(d),
            AstWindowKind::PrecedingAndFollowing => WindowExtent::PrecedingAndFollowing(d),
        }),
    }
}

fn plan_window_exists(
    engine: &Engine,
    sel: &SelectStmt,
    negated: bool,
    sub: &SelectStmt,
    outer_conjuncts: &[&AstExpr],
    split: bool,
) -> Result<SplitPlan> {
    if sel.from.len() != 1 || sub.from.len() != 1 {
        return Err(DsmsError::plan(
            "windowed EXISTS correlates one outer stream with one inner stream",
        ));
    }
    let outer_item = &sel.from[0];
    let inner_item = &sub.from[0];
    let outer_schema = stream_schema_for(engine, outer_item)?;
    let inner_schema = stream_schema_for(engine, inner_item)?;
    let window = inner_item
        .window
        .as_ref()
        .ok_or_else(|| DsmsError::plan("the EXISTS sub-query's stream needs an OVER window"))?;
    // The window must anchor at the outer tuple (CURRENT or its alias) —
    // that is exactly the §3.2 "window synchronized across the sub-query
    // boundary".
    if let Some(anchor) = &window.anchor {
        if anchor != outer_item.binding() {
            return Err(DsmsError::plan(format!(
                "sub-query window anchors at `{anchor}`, expected outer alias `{}`",
                outer_item.binding()
            )));
        }
    }
    let outer_binding = outer_item.binding().to_string();
    let inner_binding = inner_item.binding().to_string();
    let outer_scope = Scope::new(vec![(outer_binding.clone(), outer_schema.clone())]);
    let pair_scope = Scope::new(vec![
        (outer_binding, outer_schema.clone()),
        (inner_binding, inner_schema.clone()),
    ])
    .with_search_order(vec![1, 0]);

    let sub_conjuncts: Vec<&AstExpr> = sub
        .where_clause
        .as_ref()
        .map(split_conjuncts)
        .unwrap_or_default();

    // (Example 1's dedup specialization is a *rewrite* now: the IR pass
    // replaces the whole SemiJoin tree with a Dedup node, so this
    // lowering only sees genuine semi-joins.)
    let pred = if sub_conjuncts.is_empty() {
        Expr::lit(true)
    } else {
        compile_conjunction(&sub_conjuncts, &pair_scope, engine)?
    };
    let outer_filter = if outer_conjuncts.is_empty() {
        None
    } else {
        Some(compile_conjunction(outer_conjuncts, &outer_scope, engine)?)
    };
    let kind = if negated {
        SemiJoinKind::NotExists
    } else {
        SemiJoinKind::Exists
    };
    let exists = WindowExists::new(kind, to_extent(window)?, pred, outer_filter);
    let project = projection_stage(sel, &outer_scope, engine)?;
    let name = format!("window-exists:{}", outer_item.name);
    let sources = vec![outer_item.name.clone(), inner_item.name.clone()];
    let (op, residual): (Box<dyn Operator>, Option<Box<dyn Operator>>) = match project {
        None => (Box::new(exists), None),
        Some(p) if split => (
            Box::new(exists),
            Some(Box::new(Chain::new(vec![p])) as Box<dyn Operator>),
        ),
        Some(p) => (
            Box::new(TwoPortChain::new(Box::new(exists), Chain::new(vec![p]))),
            None,
        ),
    };
    Ok(SplitPlan {
        core: Plan { name, sources, op },
        residual,
    })
}

/// A two-input head operator followed by a single-input chain; needed
/// because [`Chain`] itself is single-input.
struct TwoPortChain {
    head: Box<dyn Operator>,
    tail: Chain,
    name: String,
}

impl TwoPortChain {
    fn new(head: Box<dyn Operator>, tail: Chain) -> TwoPortChain {
        let name = format!("{} -> {}", head.name(), tail.name());
        TwoPortChain { head, tail, name }
    }

    fn run_tail(&mut self, produced: Vec<Tuple>, out: &mut Vec<Tuple>) -> Result<()> {
        for t in produced {
            self.tail.on_tuple(0, &t, out)?;
        }
        Ok(())
    }
}

impl Operator for TwoPortChain {
    fn on_tuple(&mut self, port: usize, t: &Tuple, out: &mut Vec<Tuple>) -> Result<()> {
        let mut produced = Vec::new();
        self.head.on_tuple(port, t, &mut produced)?;
        self.run_tail(produced, out)
    }

    fn on_punctuation(
        &mut self,
        ts: eslev_dsms::time::Timestamp,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        let mut produced = Vec::new();
        self.head.on_punctuation(ts, &mut produced)?;
        self.run_tail(produced, out)?;
        self.tail.on_punctuation(ts, out)
    }

    fn num_ports(&self) -> usize {
        self.head.num_ports()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn retained(&self) -> usize {
        self.head.retained() + self.tail.retained()
    }
}

// ------------------------------------------------------------------- SEQ

/// Projection instructions for SEQ-query outputs.
enum ProjItem {
    /// `alias.col` for a non-star element (last = only tuple).
    LastCol { elem: usize, col: usize },
    /// `FIRST(a*).col`.
    FirstCol { elem: usize, col: usize },
    /// `COUNT(a*)`.
    Count { elem: usize },
    /// `alias.col` on a star element: expands to one row per group tuple
    /// (footnote 4's multi-return).
    PerStar { elem: usize, col: usize },
}

fn lower_seq(engine: &Engine, sel: &SelectStmt, seq: &SeqPlan) -> Result<Plan> {
    // Element-ordered scope: rel i = element i (aliases in SEQ order).
    let rels: Vec<(String, SchemaRef)> = seq
        .elements
        .iter()
        .map(|e| Ok((e.alias.clone(), engine.stream_schema(&e.stream)?)))
        .collect::<Result<_>>()?;
    let elem_scope = Scope::new(rels);
    let elem_alias: Vec<String> = seq.elements.iter().map(|e| e.alias.clone()).collect();
    let elem_of = |alias: &str| elem_alias.iter().position(|a| a == alias);

    // Elements carry the rewriter's classification: pushed-down
    // predicates and folded timing gaps.
    let mut elements = Vec::with_capacity(seq.elements.len());
    for (i, e) in seq.elements.iter().enumerate() {
        let mut el = if e.star {
            Element::star(e.port)
        } else {
            Element::new(e.port)
        };
        el.max_gap_from_prev = e.max_gap_from_prev;
        el.star_gap = e.star_gap;
        if !e.predicates.is_empty() {
            let single = Scope::new(vec![(e.alias.clone(), elem_scope.schema(i).clone())]);
            let refs: Vec<&AstExpr> = e.predicates.iter().collect();
            el.predicate = Some(compile_conjunction(&refs, &single, engine)?);
        }
        elements.push(el);
    }

    // Event window (shape validated at build; re-derived here).
    let ev_window = match &seq.window {
        None => None,
        Some(w) => {
            let anchor_alias = w.anchor.as_ref().ok_or_else(|| {
                DsmsError::plan("SEQ windows anchor at a sequence argument, not CURRENT")
            })?;
            let anchor = elem_of(anchor_alias)
                .ok_or_else(|| DsmsError::unknown(format!("window anchor `{anchor_alias}`")))?;
            let kind = match w.kind {
                AstWindowKind::Preceding => WindowKind::Preceding,
                AstWindowKind::Following => WindowKind::Following,
                AstWindowKind::PrecedingAndFollowing => {
                    return Err(DsmsError::plan(
                        "PRECEDING AND FOLLOWING applies to sub-query windows, not SEQ",
                    ))
                }
            };
            let dur = w.dur().ok_or_else(|| {
                DsmsError::plan("SEQ operator windows are time-based (RANGE), not ROWS")
            })?;
            Some(EventWindow { dur, anchor, kind })
        }
    };

    // Residual match filter over the last-tuple row (everything the
    // rewriter could not classify into elements/partition/gaps).
    let residual_filter = if seq.residual.is_empty() {
        None
    } else {
        // Residuals evaluate over the last-tuple row; rewrite LAST(a*).c
        // to a plain column first.
        let rewritten: Vec<AstExpr> = seq
            .residual
            .iter()
            .map(rewrite_last_to_col)
            .collect::<Result<Vec<_>>>()?;
        let refs: Vec<&AstExpr> = rewritten.iter().collect();
        let expr = compile_conjunction(&refs, &elem_scope, engine)?;
        Some(
            Arc::new(move |m: &eslev_core::binding::SeqMatch| expr.eval_bool(&m.row_last()))
                as eslev_core::detector::MatchFilter,
        )
    };

    let pattern = SeqPattern::new(elements, ev_window, seq.mode)?;
    let n = pattern.len();
    let star_count = pattern.star_count();

    // Projection.
    let mut proj: Vec<ProjItem> = Vec::new();
    for item in &sel.items {
        let SelectItem::Expr { expr, .. } = item else {
            return Err(DsmsError::plan("`SELECT *` is not supported with SEQ"));
        };
        match expr {
            AstExpr::Col { qualifier, name } => {
                let (elem, col) = resolve_seq_col(qualifier.as_deref(), name, &elem_scope)?;
                if pattern.elements[elem].star {
                    if star_count > 1 {
                        return Err(DsmsError::plan(
                            "per-tuple star columns need a single star argument (footnote 4)",
                        ));
                    }
                    proj.push(ProjItem::PerStar { elem, col });
                } else {
                    proj.push(ProjItem::LastCol { elem, col });
                }
            }
            AstExpr::StarAgg {
                kind: agg,
                alias,
                column,
            } => {
                let elem = elem_of(alias).ok_or_else(|| {
                    DsmsError::unknown(format!("star aggregate over unknown `{alias}`"))
                })?;
                if !pattern.elements[elem].star {
                    return Err(DsmsError::plan(format!("`{alias}` is not a star argument")));
                }
                match agg {
                    StarAggKind::Count => proj.push(ProjItem::Count { elem }),
                    StarAggKind::First | StarAggKind::Last => {
                        let col_name = column.as_ref().expect("enforced by parser");
                        let col = elem_scope.schema(elem).require_column(col_name)?;
                        proj.push(if *agg == StarAggKind::First {
                            ProjItem::FirstCol { elem, col }
                        } else {
                            ProjItem::LastCol { elem, col }
                        });
                    }
                }
            }
            other => {
                return Err(DsmsError::plan(format!(
                    "unsupported SEQ select item `{other}`"
                )))
            }
        }
    }

    let mut config = match seq.kind {
        SeqKind::Seq => DetectorConfig::seq(pattern),
        SeqKind::ExceptionSeq | SeqKind::ClevelSeq => DetectorConfig::exception(pattern),
    };
    if let Some(keys) = &seq.partition {
        let key_exprs: Vec<Expr> = keys.iter().map(|(c, _)| Expr::col(*c)).collect();
        config = config.with_partition(key_exprs);
    }
    if let Some(f) = residual_filter {
        config = config.with_filter(f);
    }
    let detector = Detector::new(config)?;
    let stmt_kind = seq.kind;
    let level_cmp = seq.level_cmp;
    let project: eslev_core::op::OutputProjection = Box::new(move |o: &DetectorOutput| {
        let rows = match (o, stmt_kind) {
            // SEQ emits completed matches only (exceptions never reach
            // here: the detector runs in Seq kind).
            (DetectorOutput::Match(m), SeqKind::Seq) => {
                project_bindings(&proj, Some(&m.bindings), m.ts())
            }
            // EXCEPTION_SEQ is true exactly when a violation occurred.
            (DetectorOutput::Match(_), SeqKind::ExceptionSeq) => Vec::new(),
            (DetectorOutput::Exception(e), SeqKind::ExceptionSeq) => {
                project_bindings(&proj, Some(&e.partial), e.ts)
            }
            // CLEVEL_SEQ filters both by the level comparison: a
            // completed sequence has level n, a stalled one its
            // completion level.
            (DetectorOutput::Match(m), SeqKind::ClevelSeq) => match level_cmp {
                Some((op, lit)) if level_passes(op, n as i64, lit) => {
                    project_bindings(&proj, Some(&m.bindings), m.ts())
                }
                _ => Vec::new(),
            },
            (DetectorOutput::Exception(e), SeqKind::ClevelSeq) => match level_cmp {
                Some((op, lit)) if level_passes(op, e.completion_level() as i64, lit) => {
                    project_bindings(&proj, Some(&e.partial), e.ts)
                }
                _ => Vec::new(),
            },
            (DetectorOutput::Exception(_), SeqKind::Seq) => Vec::new(),
        };
        Ok(rows)
    });
    let op = DetectorOp::new(detector, project);
    Ok(Plan {
        name: format!("seq:{}", elem_alias.join(",")),
        sources: sel.from.iter().map(|f| f.name.clone()).collect(),
        op: Box::new(op),
    })
}

fn level_passes(op: AstBinOp, level: i64, lit: i64) -> bool {
    match op {
        AstBinOp::Lt => level < lit,
        AstBinOp::Le => level <= lit,
        AstBinOp::Gt => level > lit,
        AstBinOp::Ge => level >= lit,
        AstBinOp::Eq => level == lit,
        AstBinOp::Ne => level != lit,
        _ => false,
    }
}

fn project_bindings(
    proj: &[ProjItem],
    bindings: Option<&[eslev_core::binding::Binding]>,
    ts: eslev_dsms::time::Timestamp,
) -> Vec<Tuple> {
    let bindings = bindings.unwrap_or(&[]);
    let value_of = |item: &ProjItem, star_idx: Option<usize>| -> Value {
        match item {
            ProjItem::LastCol { elem, col } => bindings
                .get(*elem)
                .map(|b| b.last().value(*col).clone())
                .unwrap_or(Value::Null),
            ProjItem::FirstCol { elem, col } => bindings
                .get(*elem)
                .map(|b| b.first().value(*col).clone())
                .unwrap_or(Value::Null),
            ProjItem::Count { elem } => bindings
                .get(*elem)
                .map(|b| Value::Int(b.count() as i64))
                .unwrap_or(Value::Null),
            ProjItem::PerStar { elem, col } => match (bindings.get(*elem), star_idx) {
                (Some(b), Some(i)) => b.tuples()[i].value(*col).clone(),
                (Some(b), None) => b.last().value(*col).clone(),
                (None, _) => Value::Null,
            },
        }
    };
    // Multi-return expansion when a PerStar item exists and the star
    // element is bound.
    let star_elem = proj.iter().find_map(|p| match p {
        ProjItem::PerStar { elem, .. } => Some(*elem),
        _ => None,
    });
    let rows: Vec<Option<usize>> = match star_elem.and_then(|e| bindings.get(e)) {
        Some(b) => (0..b.count()).map(Some).collect(),
        None => vec![None],
    };
    rows.into_iter()
        .map(|idx| {
            let vals: Vec<Value> = proj.iter().map(|p| value_of(p, idx)).collect();
            Tuple::new(vals, ts, 0)
        })
        .collect()
}

fn resolve_seq_col(
    qualifier: Option<&str>,
    name: &str,
    elem_scope: &Scope,
) -> Result<(usize, usize)> {
    elem_scope.resolve_column(qualifier, name)
}

/// Rewrite `LAST(a*).col` to `a.col` (the last-tuple row convention used
/// by residual filters); rejects FIRST/COUNT, which have no row-level
/// equivalent.
fn rewrite_last_to_col(c: &AstExpr) -> Result<AstExpr> {
    Ok(match c {
        AstExpr::StarAgg {
            kind: StarAggKind::Last,
            alias,
            column,
        } => AstExpr::Col {
            qualifier: Some(alias.clone()),
            name: column.clone().expect("parser enforces projection"),
        },
        AstExpr::StarAgg { .. } => {
            return Err(DsmsError::plan(
                "FIRST/COUNT star aggregates are not supported in residual predicates",
            ))
        }
        AstExpr::Bin(op, a, b) => AstExpr::Bin(
            *op,
            Box::new(rewrite_last_to_col(a)?),
            Box::new(rewrite_last_to_col(b)?),
        ),
        AstExpr::Not(e) => AstExpr::Not(Box::new(rewrite_last_to_col(e)?)),
        AstExpr::IsNull { expr, negated } => AstExpr::IsNull {
            expr: Box::new(rewrite_last_to_col(expr)?),
            negated: *negated,
        },
        AstExpr::Like(e, p) => AstExpr::Like(Box::new(rewrite_last_to_col(e)?), p.clone()),
        AstExpr::Call { name, args } => AstExpr::Call {
            name: name.clone(),
            args: args
                .iter()
                .map(rewrite_last_to_col)
                .collect::<Result<Vec<_>>>()?,
        },
        other => other.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eslev_dsms::time::Timestamp;

    /// Deterministic LCG so the property test needs no external crates.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn setup() -> Engine {
        let mut e = Engine::new();
        execute_script(
            &mut e,
            "CREATE STREAM sa (tagid VARCHAR, val INT, t TIMESTAMP);
             CREATE STREAM sb (tagid VARCHAR, val INT, t TIMESTAMP)",
        )
        .unwrap();
        e
    }

    #[test]
    fn explain_analyze_annotates_optimized_plan() {
        let mut e = Engine::new();
        execute_script(
            &mut e,
            "CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP)",
        )
        .unwrap();
        let dedup_sql = "SELECT * FROM readings AS r1 WHERE NOT EXISTS \
            (SELECT * FROM TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2 \
             WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)";
        // Not registered yet: there are no live counters to read.
        assert!(explain_analyze(&e, dedup_sql).is_err());
        execute(&mut e, dedup_sql).unwrap();
        for i in 0..10u64 {
            e.push(
                "readings",
                vec![
                    Value::str("r1"),
                    Value::str(if i % 2 == 0 { "a" } else { "b" }),
                    Value::Ts(Timestamp::from_secs(i)),
                ],
            )
            .unwrap();
        }
        let s = explain_analyze(&e, dedup_sql).unwrap();
        assert!(s.contains("Dedup key=[reader_id, tag_id]"), "{s}");
        assert!(s.contains("[rows 10 -> "), "{s}");
        assert!(s.contains("runtime: query `dedup:readings`"), "{s}");
        // A registered name alone renders the raw runtime tree.
        let by_name = explain_analyze(&e, "dedup:readings").unwrap();
        assert!(by_name.contains("runtime:"), "{by_name}");
        assert!(by_name.contains("dedup"), "{by_name}");
    }

    #[test]
    fn explain_analyze_covers_seq_detectors() {
        let mut e = setup();
        let sql = "SELECT a.tagid, b.val FROM sa AS a, sb AS b \
                   WHERE SEQ(a, b) AND a.tagid = b.tagid";
        execute(&mut e, sql).unwrap();
        for i in 0..6u64 {
            let stream = if i % 2 == 0 { "sa" } else { "sb" };
            e.push(
                stream,
                vec![
                    Value::str("t1"),
                    Value::Int(i as i64),
                    Value::Ts(Timestamp::from_secs(i)),
                ],
            )
            .unwrap();
        }
        let s = explain_analyze(&e, sql).unwrap();
        assert!(s.contains("Seq mode="), "{s}");
        assert!(s.contains("batches 6"), "{s}");
        assert!(s.contains("wall p50"), "{s}");
        assert!(s.contains("seq-detector"), "{s}");
    }

    /// The rewrite pass is an *optimization*: for UNRESTRICTED pairing
    /// (no tuple consumption), classifying conjuncts into element
    /// predicates / partition keys must not change which matches a SEQ
    /// query emits. Lower the naive plan (everything residual) and the
    /// rewritten plan (classified) side by side on randomized predicates
    /// and identical data, and require byte-identical output.
    #[test]
    fn rewrites_preserve_semantics_on_random_predicates() {
        let mut rng = Lcg(0x5eed_cafe);
        for trial in 0..25 {
            let mut preds: Vec<String> = Vec::new();
            if rng.below(3) > 0 {
                preds.push("a.tagid = b.tagid".to_string());
            }
            for alias in ["a", "b"] {
                match rng.below(4) {
                    0 => preds.push(format!("{alias}.val < {}", rng.below(40))),
                    1 => preds.push(format!("{alias}.val >= {}", rng.below(40))),
                    2 => preds.push(format!("{alias}.val = {}", rng.below(6))),
                    _ => {}
                }
            }
            let mut sql = String::from(
                "SELECT a.tagid, b.val FROM sa AS a, sb AS b \
                 WHERE SEQ(a, b) MODE UNRESTRICTED",
            );
            for p in &preds {
                sql.push_str(" AND ");
                sql.push_str(p);
            }

            // Engine 1: the naive logical plan lowered with no rewrites —
            // every conjunct lands in the detector's residual filter.
            let mut e1 = setup();
            let stmt = crate::parser::parse_statement(&sql).unwrap();
            let Statement::Select(sel) = &stmt else {
                unreachable!()
            };
            let naive = build_logical(&e1, sel).unwrap();
            let plan = lower(&e1, sel, naive).unwrap();
            let sources: Vec<&str> = plan.sources.iter().map(|s| s.as_str()).collect();
            let (_, c1) = e1.register_collected(plan.name, sources, plan.op).unwrap();

            // Engine 2: the full build → rewrite → lower pipeline.
            let mut e2 = setup();
            let ExecOutcome::Collected(_, c2) = execute(&mut e2, &sql).unwrap() else {
                unreachable!()
            };

            let rows: Vec<(&str, String, i64, u64)> = (0..120)
                .map(|i| {
                    let stream = if rng.below(2) == 0 { "sa" } else { "sb" };
                    let tag = format!("tag{}", rng.below(5));
                    (stream, tag, rng.below(40) as i64, i)
                })
                .collect();
            for (stream, tag, val, i) in &rows {
                for e in [&mut e1, &mut e2] {
                    e.push(
                        stream,
                        vec![
                            Value::str(tag.as_str()),
                            Value::Int(*val),
                            Value::Ts(Timestamp::from_secs(*i)),
                        ],
                    )
                    .unwrap();
                }
            }
            let out1: Vec<_> = c1
                .take()
                .iter()
                .map(|t| (t.values().to_vec(), t.ts()))
                .collect();
            let out2: Vec<_> = c2
                .take()
                .iter()
                .map(|t| (t.values().to_vec(), t.ts()))
                .collect();
            assert_eq!(out1, out2, "trial {trial} diverged for `{sql}`");
            assert!(
                trial > 3 || !out1.is_empty() || preds.iter().any(|p| p.contains("= ")),
                "sanity: early trials should usually produce output"
            );
        }
    }
}
