//! The interactive ESL-EV shell (see `src/bin/eslev.rs`).
//!
//! A line-oriented REPL over one [`Engine`] — or, with `--shards N`, an
//! EPC-partitioned [`ShardedEngine`]: SQL statements end with `;` and
//! execute through the language front-end (broadcast to every shard in
//! sharded mode); `?`-prefixed queries run as ad-hoc snapshot queries;
//! `.`-commands drive simulation — feeding scenario workloads, advancing
//! stream time, materializing windows and inspecting query state. The
//! logic lives here (library) so tests can drive the shell without a
//! subprocess.

use crate::prelude::*;
use eslev_dsms::engine::QueryStats;
use std::fmt::Write as _;

/// The engine behind the shell: one inline engine, or a shard router in
/// front of N worker-thread engines. One lives per shell, so the size
/// skew between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum Backend {
    Single(Engine),
    Sharded(ShardedEngine),
}

/// Where `.poll` reads a query's rows from.
enum PollSource {
    /// Single mode: the collector itself.
    Local(Collector),
    /// Sharded mode: a merge slot of the router.
    Merged(usize),
}

/// Summary of one statement's effect, shippable across the worker-thread
/// boundary in sharded mode.
enum SqlEffect {
    Created,
    Modified(usize),
    Registered,
    Collected(String),
}

/// REPL state: the engine plus collectors of registered SELECTs.
pub struct Repl {
    backend: Backend,
    /// `(query name, poll source)` for bare SELECTs, in registration order.
    collectors: Vec<(String, PollSource)>,
    /// Partial statement buffer (until `;`).
    pending: String,
}

impl Default for Repl {
    fn default() -> Self {
        Repl::new()
    }
}

impl Repl {
    /// Fresh single-engine shell with EPC UDFs pre-registered.
    pub fn new() -> Repl {
        let mut engine = Engine::new();
        register_epc_udfs(engine.functions_mut());
        register_epc_match_udf(engine.functions_mut());
        Repl {
            backend: Backend::Single(engine),
            collectors: Vec::new(),
            pending: String::new(),
        }
    }

    /// Fresh shell over an EPC-partitioned [`ShardedEngine`] with
    /// `shards` workers. SQL statements are broadcast to every shard;
    /// `.poll` reads deterministically merged output.
    pub fn with_shards(shards: usize) -> Result<Repl, DsmsError> {
        Repl::with_config(Some(shards), false)
    }

    /// Fresh shell with every option explicit: optional sharding,
    /// multi-query shared execution (`--share`), which routes
    /// fingerprint-equal continuous queries through one physical chain
    /// per engine (inspect it with `SHOW SHARED`).
    pub fn with_config(shards: Option<usize>, share: bool) -> Result<Repl, DsmsError> {
        match shards {
            None => {
                let mut r = Repl::new();
                let Backend::Single(e) = &mut r.backend else {
                    unreachable!()
                };
                e.set_shared_execution(share);
                Ok(r)
            }
            Some(n) => {
                let se = ShardedEngine::build(n, 1024, ShardSpec::new(), move |e| {
                    e.set_shared_execution(share);
                    register_epc_udfs(e.functions_mut());
                    register_epc_match_udf(e.functions_mut());
                    Ok(vec![])
                })?;
                Ok(Repl {
                    backend: Backend::Sharded(se),
                    collectors: Vec::new(),
                    pending: String::new(),
                })
            }
        }
    }

    /// Access to the underlying engine (tests).
    ///
    /// # Panics
    /// In sharded mode — the engines live on their worker threads.
    pub fn engine(&self) -> &Engine {
        match &self.backend {
            Backend::Single(e) => e,
            Backend::Sharded(_) => panic!("engine() is single-mode only; use sharded()"),
        }
    }

    /// The shard router, when running with `--shards` (tests).
    pub fn sharded(&self) -> Option<&ShardedEngine> {
        match &self.backend {
            Backend::Sharded(se) => Some(se),
            Backend::Single(_) => None,
        }
    }

    /// Feed one input line; returns the text to print (possibly empty,
    /// e.g. while a multi-line statement is still open).
    pub fn line(&mut self, input: &str) -> String {
        let trimmed = input.trim();
        if trimmed.is_empty() {
            return String::new();
        }
        if self.pending.is_empty() {
            if let Some(cmd) = trimmed.strip_prefix('.') {
                return self.command(cmd);
            }
            if let Some(q) = trimmed.strip_prefix('?') {
                return self.ad_hoc(q);
            }
            // Observability statements are intercepted before the SQL
            // parser: they are shell-level, not part of the language.
            if let Some(out) = self.observability(trimmed) {
                return out;
            }
        }
        self.pending.push_str(input);
        self.pending.push('\n');
        if !trimmed.ends_with(';') {
            return String::new();
        }
        let stmt = std::mem::take(&mut self.pending);
        self.execute(&stmt)
    }

    fn execute(&mut self, sql: &str) -> String {
        match &mut self.backend {
            Backend::Single(engine) => match execute_script(engine, sql) {
                Err(e) => format!("error: {e}"),
                Ok(outcomes) => {
                    let mut fx = Vec::new();
                    let mut sources = Vec::new();
                    for o in outcomes {
                        match o {
                            ExecOutcome::Created => fx.push(SqlEffect::Created),
                            ExecOutcome::Modified(n) => fx.push(SqlEffect::Modified(n)),
                            ExecOutcome::Registered(_) => fx.push(SqlEffect::Registered),
                            ExecOutcome::Collected(id, c) => {
                                fx.push(SqlEffect::Collected(engine.query_name(id).to_string()));
                                sources.push(PollSource::Local(c));
                            }
                        }
                    }
                    self.render_effects(fx, sources)
                }
            },
            Backend::Sharded(se) => {
                let owned = sql.to_string();
                let res = se.exec_with_outputs(move |e| {
                    let outcomes = execute_script(e, &owned)?;
                    let mut fx = Vec::new();
                    let mut collectors = Vec::new();
                    for o in outcomes {
                        match o {
                            ExecOutcome::Created => fx.push(SqlEffect::Created),
                            ExecOutcome::Modified(n) => fx.push(SqlEffect::Modified(n)),
                            ExecOutcome::Registered(_) => fx.push(SqlEffect::Registered),
                            ExecOutcome::Collected(id, c) => {
                                fx.push(SqlEffect::Collected(e.query_name(id).to_string()));
                                collectors.push(c);
                            }
                        }
                    }
                    Ok((fx, collectors))
                });
                match res {
                    Err(e) => format!("error: {e}"),
                    Ok((mut per_shard, slots)) => {
                        // Shards are replicas; shard 0's summary speaks
                        // for all, and the new merge slots line up with
                        // its Collected entries in order.
                        let fx = if per_shard.is_empty() {
                            Vec::new()
                        } else {
                            per_shard.remove(0)
                        };
                        let sources = slots.into_iter().map(PollSource::Merged).collect();
                        self.render_effects(fx, sources)
                    }
                }
            }
        }
    }

    /// Render statement effects, registering any collected queries.
    fn render_effects(&mut self, fx: Vec<SqlEffect>, sources: Vec<PollSource>) -> String {
        let mut out = String::new();
        let mut sources = sources.into_iter();
        for f in fx {
            match f {
                SqlEffect::Created => out.push_str("created.\n"),
                SqlEffect::Modified(n) => {
                    let _ = writeln!(out, "{n} rows modified.");
                }
                SqlEffect::Registered => out.push_str("continuous query registered.\n"),
                SqlEffect::Collected(name) => {
                    let Some(src) = sources.next() else { continue };
                    let _ = writeln!(
                        out,
                        "collecting query #{} ({name}); read it with .poll {}",
                        self.collectors.len(),
                        self.collectors.len()
                    );
                    self.collectors.push((name, src));
                }
            }
        }
        out
    }

    /// Route one row to the backend.
    fn push_row(&mut self, stream: &str, values: Vec<Value>) -> Result<(), DsmsError> {
        match &mut self.backend {
            Backend::Single(e) => e.push(stream, values),
            Backend::Sharded(se) => se.push(stream, values),
        }
    }

    /// Stream-time high-water mark of the backend (scenario re-runs
    /// shift their timestamps past it).
    fn current_time(&self) -> Timestamp {
        match &self.backend {
            Backend::Single(e) => e.now(),
            Backend::Sharded(se) => se.sent_watermarks().high_water(),
        }
    }

    /// Advance stream time on the backend.
    fn advance_time(&mut self, ts: Timestamp) -> Result<(), DsmsError> {
        match &mut self.backend {
            Backend::Single(e) => e.advance_to(ts),
            Backend::Sharded(se) => se.advance_to(ts),
        }
    }

    /// A stream's schema (shard 0 speaks for all in sharded mode).
    fn schema_of(&self, stream: &str) -> Result<SchemaRef, DsmsError> {
        match &self.backend {
            Backend::Single(e) => e.stream_schema(stream),
            Backend::Sharded(se) => {
                let name = stream.to_string();
                se.exec_all(move |e| e.stream_schema(&name))?
                    .into_iter()
                    .next()
                    .unwrap_or_else(|| Err(DsmsError::plan("sharded engine has no shards")))
            }
        }
    }

    /// Run DDL, tolerating duplicate-name errors (so scenarios re-run).
    fn ensure_ddl(&mut self, ddl: &str) -> Result<(), DsmsError> {
        match &mut self.backend {
            Backend::Single(engine) => {
                for stmt in ddl.split(';').filter(|s| !s.trim().is_empty()) {
                    match execute(engine, stmt) {
                        Ok(_) => {}
                        Err(DsmsError::Duplicate(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
                Ok(())
            }
            Backend::Sharded(se) => {
                let owned = ddl.to_string();
                se.exec_with_outputs(move |e| {
                    for stmt in owned.split(';').filter(|s| !s.trim().is_empty()) {
                        match execute(e, stmt) {
                            Ok(_) => {}
                            Err(DsmsError::Duplicate(_)) => {}
                            Err(e) => return Err(e),
                        }
                    }
                    Ok(((), Vec::new()))
                })?;
                Ok(())
            }
        }
    }

    /// Merged per-query flow counters (summed across shards).
    fn merged_query_stats(&self) -> Result<Vec<QueryStats>, DsmsError> {
        match &self.backend {
            Backend::Single(e) => Ok(e.query_stats()),
            Backend::Sharded(se) => {
                let per_shard = se.exec_all(|e| e.query_stats())?;
                let mut iter = per_shard.into_iter();
                let mut base = iter.next().unwrap_or_default();
                for stats in iter {
                    for (b, s) in base.iter_mut().zip(stats) {
                        b.active |= s.active;
                        b.emitted += s.emitted;
                        b.retained += s.retained;
                        b.tuples_in += s.tuples_in;
                        b.tuples_out += s.tuples_out;
                        b.state_key_bytes += s.state_key_bytes;
                        // Worst shard speaks for the tail latency.
                        b.wall_p99_ns = b.wall_p99_ns.max(s.wall_p99_ns);
                    }
                }
                Ok(base)
            }
        }
    }

    /// Merged per-stream stats (pushes summed, stream time maxed).
    fn merged_stream_stats(&self) -> Result<Vec<StreamInfo>, DsmsError> {
        match &self.backend {
            Backend::Single(e) => Ok(e.stream_stats()),
            Backend::Sharded(se) => {
                let per_shard = se.exec_all(|e| e.stream_stats())?;
                let mut iter = per_shard.into_iter();
                let mut base = iter.next().unwrap_or_default();
                for stats in iter {
                    for (b, s) in base.iter_mut().zip(stats) {
                        b.pushed += s.pushed;
                        b.last_ts = b.last_ts.max(s.last_ts);
                        b.buffered += s.buffered;
                        b.lag_ms = b.lag_ms.max(s.lag_ms);
                    }
                }
                Ok(base)
            }
        }
    }

    /// Interner dictionary size `(entries, bytes)`, summed across shards
    /// (each shard owns an independent dictionary, so the sum is what
    /// the whole process holds).
    fn merged_interner_stats(&self) -> Result<(usize, usize), DsmsError> {
        match &self.backend {
            Backend::Single(e) => Ok(e.interner_stats()),
            Backend::Sharded(se) => {
                let per_shard = se.exec_all(|e| e.interner_stats())?;
                Ok(per_shard
                    .into_iter()
                    .fold((0, 0), |(en, by), (e, b)| (en + e, by + b)))
            }
        }
    }

    fn metrics_snapshot(&self) -> MetricsSnapshot {
        match &self.backend {
            Backend::Single(e) => e.metrics_snapshot(),
            Backend::Sharded(se) => se.metrics_snapshot(),
        }
    }

    /// Handle `SHOW STATS`, `SHOW STREAMS`, `SHOW SHARDS`, `SHOW
    /// RECOVERY`, `CHECKPOINT` and `EXPLAIN <query>` (case-insensitive,
    /// optional trailing `;`). Returns `None` when the line is not one
    /// of them, letting it flow to the SQL front-end.
    fn observability(&mut self, trimmed: &str) -> Option<String> {
        let stmt = trimmed.trim_end_matches(';').trim();
        let mut words = stmt.split_whitespace();
        let first = words.next()?.to_ascii_uppercase();
        match first.as_str() {
            "SHOW" => {
                let what = words.next()?.to_ascii_uppercase();
                if words.next().is_some() {
                    return None;
                }
                match what.as_str() {
                    "STATS" => Some(match self.merged_query_stats() {
                        Ok(s) => {
                            let mut out = render_stats(&s);
                            match self.merged_interner_stats() {
                                Ok((entries, bytes)) => {
                                    let _ =
                                        writeln!(out, "interner entries={entries} bytes={bytes}");
                                }
                                Err(e) => {
                                    let _ = writeln!(out, "interner error: {e}");
                                }
                            }
                            out
                        }
                        Err(e) => format!("error: {e}"),
                    }),
                    "STREAMS" => Some(match self.merged_stream_stats() {
                        Ok(s) => render_streams(&s),
                        Err(e) => format!("error: {e}"),
                    }),
                    "SHARDS" => Some(self.show_shards()),
                    "SHARED" => Some(self.show_shared()),
                    "RECOVERY" => Some(self.show_recovery()),
                    "REJECTED" => Some(self.show_rejected()),
                    _ => None,
                }
            }
            "CHECKPOINT" => {
                if words.next().is_some() {
                    return None;
                }
                Some(self.run_checkpoint())
            }
            "EXPLAIN" => {
                let name = words.next()?;
                if name.eq_ignore_ascii_case("ANALYZE") {
                    // `EXPLAIN ANALYZE <sql|name>`: the optimized plan
                    // annotated with live per-operator runtime stats.
                    let arg = stmt[first.len()..].trim_start()[name.len()..].trim();
                    if arg.is_empty() {
                        return Some("usage: EXPLAIN ANALYZE <sql statement | query name>".into());
                    }
                    return Some(self.explain_analyze(arg));
                }
                if words.next().is_some() {
                    // Multi-word: `EXPLAIN <sql>` renders the logical
                    // plan (naive, rewrites, optimized) for a statement
                    // without registering it.
                    let sql = stmt[first.len()..].trim();
                    return Some(match &self.backend {
                        Backend::Single(engine) => match eslev_lang::explain(engine, sql) {
                            Ok(s) => s,
                            Err(e) => format!("error: {e}"),
                        },
                        Backend::Sharded(se) => {
                            let owned = sql.to_string();
                            match se.exec_all(move |e| eslev_lang::explain(e, &owned)) {
                                Err(e) => format!("error: {e}"),
                                Ok(rs) => match rs.into_iter().next() {
                                    Some(Ok(s)) => s,
                                    Some(Err(e)) => format!("error: {e}"),
                                    None => "error: no shards".to_string(),
                                },
                            }
                        }
                    });
                }
                match &self.backend {
                    Backend::Single(engine) => match engine.query_report_by_name(name) {
                        Some(r) => Some(r.render()),
                        None => Some(format!(
                            "error: no query named `{name}` — SHOW STATS lists them"
                        )),
                    },
                    Backend::Sharded(se) => {
                        let owned = name.to_string();
                        let reports = se
                            .exec_all(move |e| e.query_report_by_name(&owned).map(|r| r.render()));
                        Some(match reports {
                            Err(e) => format!("error: {e}"),
                            Ok(rs) => match rs.into_iter().next().flatten() {
                                Some(r) => {
                                    format!("shard 0 (other shards run identical plans):\n{r}")
                                }
                                None => format!(
                                    "error: no query named `{name}` — SHOW STATS lists them"
                                ),
                            },
                        })
                    }
                }
            }
            _ => None,
        }
    }

    /// Render `EXPLAIN ANALYZE <sql|name>` via
    /// [`eslev_lang::explain_analyze`]. Sharded mode reads shard 0 —
    /// every shard runs an identical plan, only the slice of data
    /// differs.
    fn explain_analyze(&self, arg: &str) -> String {
        match &self.backend {
            Backend::Single(engine) => match eslev_lang::explain_analyze(engine, arg) {
                Ok(s) => s,
                Err(e) => format!("error: {e}"),
            },
            Backend::Sharded(se) => {
                let owned = arg.to_string();
                match se.exec_all(move |e| eslev_lang::explain_analyze(e, &owned)) {
                    Err(e) => format!("error: {e}"),
                    Ok(rs) => match rs.into_iter().next() {
                        Some(Ok(s)) => {
                            format!("shard 0 (other shards run identical plans):\n{s}")
                        }
                        Some(Err(e)) => format!("error: {e}"),
                        None => "error: no shards".to_string(),
                    },
                }
            }
        }
    }

    /// `.trace on|off` toggles the flight recorder; `.trace <path>`
    /// drains the recorded events (merged across shards in sharded
    /// mode) into a chrome://tracing JSON file.
    fn trace_cmd(&mut self, args: &[&str]) -> String {
        match args.first().copied() {
            Some(toggle @ ("on" | "off")) => {
                let on = toggle == "on";
                let res = match &mut self.backend {
                    Backend::Single(e) => {
                        e.set_tracing(on);
                        Ok(())
                    }
                    Backend::Sharded(se) => se.set_tracing(on),
                };
                match res {
                    Ok(()) => format!("tracing {}.", if on { "enabled" } else { "disabled" }),
                    Err(e) => format!("error: {e}"),
                }
            }
            Some(path) => {
                let events = match &mut self.backend {
                    Backend::Single(e) => Ok(e.take_trace()),
                    Backend::Sharded(se) => se.take_trace(),
                };
                match events {
                    Err(e) => format!("error: {e}"),
                    Ok(events) if events.is_empty() => {
                        "no trace events recorded — `.trace on` first, then feed data.".to_string()
                    }
                    Ok(events) => match std::fs::write(path, chrome_trace_json(&events)) {
                        Ok(()) => format!(
                            "wrote {} trace events to `{path}` — load it at chrome://tracing.",
                            events.len()
                        ),
                        Err(e) => format!("error: cannot write `{path}`: {e}"),
                    },
                }
            }
            None => "usage: .trace on|off|<path.json>".to_string(),
        }
    }

    /// Render `SHOW SHARED`: one row per shared subplan chain. Sharded
    /// mode merges the per-shard rows (every shard runs identical
    /// chains, so flow counters sum and the subscriber list is shared).
    fn show_shared(&self) -> String {
        let stats = match &self.backend {
            Backend::Single(e) => {
                if !e.shared_execution() {
                    return "shared execution is off — restart with --share to fuse \
                            fingerprint-equal queries.\n"
                        .to_string();
                }
                e.shared_stats()
            }
            Backend::Sharded(se) => {
                let per_shard = match se.exec_all(|e| (e.shared_execution(), e.shared_stats())) {
                    Ok(s) => s,
                    Err(e) => return format!("error: {e}"),
                };
                if per_shard.iter().any(|(on, _)| !on) {
                    return "shared execution is off — restart with --share to fuse \
                            fingerprint-equal queries.\n"
                        .to_string();
                }
                let mut iter = per_shard.into_iter().map(|(_, s)| s);
                let mut base = iter.next().unwrap_or_default();
                for stats in iter {
                    for (b, s) in base.iter_mut().zip(stats) {
                        b.tuples_in += s.tuples_in;
                        b.memo_hits += s.memo_hits;
                        b.retained += s.retained;
                        b.state_key_bytes += s.state_key_bytes;
                    }
                }
                base
            }
        };
        let mut out = String::new();
        for s in &stats {
            let _ = writeln!(
                out,
                "chain {:<24} fp=0x{:016x} shared_by=[{}] active={} in={} memo_hits={} \
                 retained={} key_bytes={}",
                s.label,
                s.fingerprint,
                s.subscribers.join(", "),
                s.active_subscribers,
                s.tuples_in,
                s.memo_hits,
                s.retained,
                s.state_key_bytes,
            );
        }
        if out.is_empty() {
            out.push_str("no shared chains yet — register two fingerprint-equal queries.\n");
        }
        out
    }

    /// Render `SHOW SHARDS`: per-shard routing and progress.
    fn show_shards(&self) -> String {
        let Backend::Sharded(se) = &self.backend else {
            return "not sharded — restart with --shards N to partition by EPC.\n".to_string();
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} shards, low watermark {}",
            se.shards(),
            se.low_watermark()
        );
        for s in se.shard_stats() {
            let _ = writeln!(
                out,
                "shard {:<3} routed={:<10} queue={:<6} cause={:<10} watermark={}",
                s.shard, s.routed, s.queue_depth, s.processed_cause, s.watermark
            );
        }
        let routes = se.routing();
        if routes.is_empty() {
            out.push_str("no routes resolved yet (routes bind on first push).\n");
        } else {
            for (stream, rule) in routes {
                let _ = writeln!(out, "route {stream:<24} {rule}");
            }
        }
        out
    }

    /// Render `SHOW REJECTED`: the bounded dead-letter buffer — rows
    /// rejected at ingest, tagged `malformed` (schema violation) or
    /// `late` (behind the disorder slack). Sharded mode merges the
    /// router's own rejections with every shard engine's buffer.
    fn show_rejected(&self) -> String {
        let letters: Vec<(Option<usize>, DeadLetter)> = match &self.backend {
            Backend::Single(e) => e.dead_letters().map(|d| (None, d.clone())).collect(),
            Backend::Sharded(se) => match se.dead_letters() {
                Ok(ls) => ls,
                Err(e) => return format!("error: {e}"),
            },
        };
        if letters.is_empty() {
            return "no rejected rows (buffer keeps the newest 256).\n".to_string();
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} rejected row(s), oldest first (buffer keeps the newest 256):",
            letters.len()
        );
        for (shard, d) in &letters {
            let origin = match shard {
                None => "-".to_string(),
                Some(i) => i.to_string(),
            };
            let row: Vec<String> = d.values.iter().map(|v| v.to_string()).collect();
            let _ = writeln!(
                out,
                "shard {:<3} stream {:<16} reason {:<9} [{}]  {}",
                origin,
                d.stream,
                d.reason.to_string(),
                row.join(", "),
                d.error
            );
        }
        out
    }

    /// Render `CHECKPOINT`: snapshot every stateful operator (and, when
    /// sharded, truncate the replayed journal prefix).
    fn run_checkpoint(&mut self) -> String {
        match &mut self.backend {
            Backend::Single(engine) => match engine.checkpoint() {
                Ok(ckpt) => format!(
                    "checkpoint taken ({} bytes of operator state).\n",
                    ckpt.to_bytes().len()
                ),
                Err(e) => format!("error: {e}"),
            },
            Backend::Sharded(se) => match se.checkpoint() {
                Ok(()) => {
                    let stats = se.recovery_stats();
                    let mut out = String::new();
                    let _ = writeln!(
                        out,
                        "checkpoint taken across {} shards (round {}).",
                        se.shards(),
                        stats.checkpoints
                    );
                    for s in &stats.shards {
                        let _ = writeln!(
                            out,
                            "shard {:<3} checkpoint_cause={:<10} journal_len={}",
                            s.shard,
                            s.checkpoint_cause
                                .map_or_else(|| "-".to_string(), |c| c.to_string()),
                            s.journal_len
                        );
                    }
                    out
                }
                Err(e) => format!("error: {e}"),
            },
        }
    }

    /// Render `SHOW RECOVERY`: checkpoint/restart/replay counters and
    /// per-shard journal state.
    fn show_recovery(&self) -> String {
        let Backend::Sharded(se) = &self.backend else {
            return "not sharded — restart with --shards N for supervised recovery \
                    (CHECKPOINT still snapshots operator state in-process).\n"
                .to_string();
        };
        let stats = se.recovery_stats();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "checkpoints={} restarts={} replayed_tuples={}",
            stats.checkpoints, stats.restarts, stats.replayed_tuples
        );
        for s in &stats.shards {
            let _ = writeln!(
                out,
                "shard {:<3} journal_len={:<8} appended={:<10} checkpoint_cause={:<10} last_panic={}",
                s.shard,
                s.journal_len,
                s.journal_appended,
                s.checkpoint_cause.map_or_else(|| "-".to_string(), |c| c.to_string()),
                s.last_panic.as_deref().unwrap_or("-")
            );
        }
        out
    }

    fn ad_hoc(&mut self, sql: &str) -> String {
        match &self.backend {
            Backend::Single(engine) => match ad_hoc(engine, sql) {
                Err(e) => format!("error: {e}"),
                Ok(rows) => render_rows(&rows),
            },
            Backend::Sharded(_) => {
                "error: ad-hoc snapshot queries are not supported with --shards".to_string()
            }
        }
    }

    fn command(&mut self, cmd: &str) -> String {
        let mut parts = cmd.split_whitespace();
        let verb = parts.next().unwrap_or("");
        let args: Vec<&str> = parts.collect();
        match verb {
            "help" => HELP.to_string(),
            "stats" => match self.merged_query_stats() {
                Ok(s) => render_stats(&s),
                Err(e) => format!("error: {e}"),
            },
            "metrics" => match args.first().copied().unwrap_or("prom") {
                "prom" => self.metrics_snapshot().to_prometheus(),
                "json" => self.metrics_snapshot().to_json(),
                other => format!("unknown format `{other}` — use prom or json"),
            },
            "advance" => match args.first().and_then(|s| s.parse::<u64>().ok()) {
                Some(secs) => {
                    let target = self.current_time() + Duration::from_secs(secs);
                    match self.advance_time(target) {
                        Ok(()) => format!("stream time advanced to {target}"),
                        Err(e) => format!("error: {e}"),
                    }
                }
                None => "usage: .advance <seconds>".to_string(),
            },
            "materialize" => match (args.first(), args.get(1).and_then(|s| s.parse::<u64>().ok())) {
                (Some(stream), Some(secs)) => match &mut self.backend {
                    Backend::Single(engine) => match engine
                        .materialize(stream, WindowExtent::Preceding(Duration::from_secs(secs)))
                    {
                        Ok(_) => format!("materialized `{stream}` over the last {secs} s; query it with ?SELECT ..."),
                        Err(e) => format!("error: {e}"),
                    },
                    Backend::Sharded(_) => {
                        "error: .materialize is not supported with --shards".to_string()
                    }
                },
                _ => "usage: .materialize <stream> <seconds>".to_string(),
            },
            "tolerate" => match (args.first(), args.get(1).and_then(|s| s.parse::<f64>().ok())) {
                (Some(stream), Some(secs)) if secs >= 0.0 => {
                    let slack = Duration::from_micros((secs * 1_000_000.0) as u64);
                    let res = match &mut self.backend {
                        Backend::Single(engine) => engine.set_disorder_tolerance(stream, slack),
                        Backend::Sharded(se) => se.set_disorder_tolerance(stream, slack),
                    };
                    match res {
                        Ok(()) => format!(
                            "`{stream}` now tolerates {secs} s of disorder; \
                             late-beyond-slack rows land in SHOW REJECTED"
                        ),
                        Err(e) => format!("error: {e}"),
                    }
                }
                _ => "usage: .tolerate <stream> <seconds>".to_string(),
            },
            "poll" => {
                let idx = args.first().and_then(|s| s.parse::<usize>().ok());
                match idx {
                    Some(i) => match self.poll(i) {
                        Some(out) => out,
                        None => format!("no collected query #{i}"),
                    },
                    None => {
                        let mut out = String::new();
                        for (i, (name, src)) in self.collectors.iter().enumerate() {
                            let pending = match src {
                                PollSource::Local(c) => c.len(),
                                PollSource::Merged(slot) => match &self.backend {
                                    Backend::Sharded(se) => se.buffered(*slot),
                                    Backend::Single(_) => 0,
                                },
                            };
                            let _ = writeln!(out, "#{i} {name}: {pending} rows pending");
                        }
                        if out.is_empty() {
                            out.push_str("no collected queries.\n");
                        }
                        out
                    }
                }
            }
            "trace" => self.trace_cmd(&args),
            "feed" => match (args.first(), args.get(1)) {
                (Some(stream), Some(path)) => self.feed_csv(stream, path),
                _ => "usage: .feed <stream> <file.csv>   (columns in schema order;                       TIMESTAMP columns as seconds, e.g. 12.5)"
                    .to_string(),
            },
            "scenario" => self.scenario(&args),
            "quit" | "exit" => "bye.".to_string(),
            other => format!("unknown command `.{other}` — try .help"),
        }
    }

    /// Drain one collected query; `None` when the index is unknown.
    fn poll(&mut self, i: usize) -> Option<String> {
        let (name, src) = self.collectors.get(i)?;
        let name = name.clone();
        let rows = match src {
            PollSource::Local(c) => c.take(),
            PollSource::Merged(slot) => {
                let slot = *slot;
                let Backend::Sharded(se) = &mut self.backend else {
                    return Some(format!("{name}: merge slot without a sharded backend"));
                };
                // Flush so the merge frontier covers everything routed.
                if let Err(e) = se.flush() {
                    return Some(format!("error: {e}"));
                }
                match se.take_output(slot) {
                    Ok(rows) => rows,
                    Err(e) => return Some(format!("error: {e}")),
                }
            }
        };
        Some(format!(
            "{name}: {} new rows\n{}",
            rows.len(),
            render_rows(&rows)
        ))
    }

    /// Generate and feed a named scenario workload; creates the streams
    /// the scenario needs when absent.
    fn scenario(&mut self, args: &[&str]) -> String {
        use crate::rfid::scenario as sc;
        let Some(name) = args.first() else {
            return "usage: .scenario <dedup|packing|clinic|door|qc|tracking|vitals> [n]"
                .to_string();
        };
        let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(100);
        // Re-running a scenario must not rewind stream time: shift every
        // generated timestamp past the engine's current high-water mark.
        let base = Duration::from_micros(self.current_time().as_micros());
        let shift = move |ts: Timestamp| ts + base;
        let result: Result<String, DsmsError> = (|| match *name {
            "dedup" => {
                self.ensure_ddl(
                    "CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP)",
                )?;
                let w = sc::dedup::generate(&sc::dedup::DedupConfig {
                    presences: n,
                    ..Default::default()
                });
                for r in &w.readings {
                    self.push_row(
                        "readings",
                        vec![
                            Value::str(&r.reader),
                            Value::str(&r.tag),
                            Value::Ts(shift(r.ts)),
                        ],
                    )?;
                }
                Ok(format!(
                    "fed {} raw readings ({} physical presences) into `readings`",
                    w.readings.len(),
                    w.unique_presences
                ))
            }
            "packing" => {
                self.ensure_ddl(
                    "CREATE STREAM R1 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
                     CREATE STREAM R2 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP)",
                )?;
                let w = sc::packing::generate(&sc::packing::PackingConfig {
                    cases: n,
                    ..Default::default()
                });
                let feed = merge_feeds(vec![
                    ("r1".into(), w.products.clone()),
                    ("r2".into(), w.cases.clone()),
                ]);
                for item in &feed {
                    self.push_row(
                        &item.stream,
                        vec![
                            Value::str(&item.reading.reader),
                            Value::str(&item.reading.tag),
                            Value::Ts(shift(item.reading.ts)),
                        ],
                    )?;
                }
                Ok(format!(
                    "fed {} product + {} case readings into `R1`/`R2` ({} cases of truth)",
                    w.products.len(),
                    w.cases.len(),
                    w.truth.len()
                ))
            }
            "clinic" => {
                self.ensure_ddl(
                    "CREATE STREAM A1 (staff VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
                     CREATE STREAM A2 (staff VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
                     CREATE STREAM A3 (staff VARCHAR, tagid VARCHAR, tagtime TIMESTAMP)",
                )?;
                let w = sc::clinic::generate(&sc::clinic::ClinicConfig {
                    runs: n,
                    ..Default::default()
                });
                let streams = ["a1", "a2", "a3"];
                for (port, r) in &w.feed {
                    self.push_row(
                        streams[*port],
                        vec![
                            Value::str(&r.reader),
                            Value::str(&r.tag),
                            Value::Ts(shift(r.ts)),
                        ],
                    )?;
                }
                Ok(format!(
                    "fed {} operations ({} runs, {} violations) into `A1`/`A2`/`A3`; \
                     .advance past the deadline to flush timeouts",
                    w.feed.len(),
                    w.truth.len(),
                    w.violations
                ))
            }
            "door" => {
                self.ensure_ddl(
                    "CREATE STREAM tag_readings (tagid VARCHAR, tagtype VARCHAR, tagtime TIMESTAMP)",
                )?;
                let w = sc::door::generate(&sc::door::DoorConfig {
                    item_exits: n,
                    ..Default::default()
                });
                for r in &w.readings {
                    self.push_row(
                        "tag_readings",
                        vec![
                            Value::str(&r.tag),
                            Value::str(r.tagtype),
                            Value::Ts(shift(r.ts)),
                        ],
                    )?;
                }
                Ok(format!(
                    "fed {} door readings ({} thefts of truth) into `tag_readings`",
                    w.readings.len(),
                    w.thefts.len()
                ))
            }
            "qc" => {
                self.ensure_ddl(
                    "CREATE STREAM C1 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
                     CREATE STREAM C2 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
                     CREATE STREAM C3 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP);
                     CREATE STREAM C4 (readerid VARCHAR, tagid VARCHAR, tagtime TIMESTAMP)",
                )?;
                let w = sc::qc_line::generate(&sc::qc_line::QcConfig {
                    products: n,
                    ..Default::default()
                });
                let feeds: Vec<(String, Vec<Reading>)> = w
                    .feeds
                    .iter()
                    .enumerate()
                    .map(|(i, f)| (format!("c{}", i + 1), f.clone()))
                    .collect();
                for item in merge_feeds(feeds) {
                    self.push_row(
                        &item.stream,
                        vec![
                            Value::str(&item.reading.reader),
                            Value::str(&item.reading.tag),
                            Value::Ts(shift(item.reading.ts)),
                        ],
                    )?;
                }
                Ok(format!(
                    "fed the QC line ({} products, {} completed) into `C1`..`C4`",
                    n,
                    w.completed.len()
                ))
            }
            "tracking" => {
                self.ensure_ddl(
                    "CREATE STREAM tag_locations (readerid VARCHAR, tid VARCHAR, tagtime TIMESTAMP, loc VARCHAR)",
                )?;
                let w = sc::tracking::generate(&sc::tracking::TrackingConfig::default());
                for r in &w.readings {
                    self.push_row(
                        "tag_locations",
                        vec![
                            Value::str(&r.reader),
                            Value::str(&r.tag),
                            Value::Ts(shift(r.ts)),
                            Value::str(&r.location),
                        ],
                    )?;
                }
                Ok(format!(
                    "fed {} location readings ({} distinct pairs) into `tag_locations`",
                    w.readings.len(),
                    w.distinct_pairs
                ))
            }
            "vitals" => {
                self.ensure_ddl("CREATE STREAM vitals (patient VARCHAR, bp INT, t TIMESTAMP)")?;
                let w = sc::vitals::generate(&sc::vitals::VitalsConfig::default());
                for r in &w.readings {
                    self.push_row(
                        "vitals",
                        vec![
                            Value::str(&r.patient),
                            Value::Int(r.bp),
                            Value::Ts(shift(r.ts)),
                        ],
                    )?;
                }
                Ok(format!(
                    "fed {} vitals readings ({} episodes) into `vitals`",
                    w.readings.len(),
                    w.episodes.len()
                ))
            }
            other => Ok(format!("unknown scenario `{other}` — try .help")),
        })();
        match result {
            Ok(s) => s,
            Err(e) => format!("error: {e}"),
        }
    }
}

impl Repl {
    /// Feed a headerless CSV file into a stream: one reading per line,
    /// columns in schema order, TIMESTAMP columns given in (fractional)
    /// seconds. Lines starting with `#` are skipped.
    fn feed_csv(&mut self, stream: &str, path: &str) -> String {
        let schema = match self.schema_of(stream) {
            Ok(s) => s,
            Err(e) => return format!("error: {e}"),
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return format!("error: cannot read `{path}`: {e}"),
        };
        let mut pushed = 0usize;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            if fields.len() != schema.arity() {
                return format!(
                    "error: line {}: expected {} fields, got {} (pushed {pushed} rows)",
                    lineno + 1,
                    schema.arity(),
                    fields.len()
                );
            }
            let mut values = Vec::with_capacity(fields.len());
            for (f, col) in fields.iter().zip(&schema.columns) {
                let v = match col.ty {
                    ValueType::Str => Ok(Value::str(*f)),
                    ValueType::Int => f.parse::<i64>().map(Value::Int).map_err(|e| e.to_string()),
                    ValueType::Float => f
                        .parse::<f64>()
                        .map(Value::Float)
                        .map_err(|e| e.to_string()),
                    ValueType::Bool => f
                        .parse::<bool>()
                        .map(Value::Bool)
                        .map_err(|e| e.to_string()),
                    ValueType::Ts => f
                        .parse::<f64>()
                        .map(|secs| Value::Ts(Timestamp::from_micros((secs * 1e6) as u64)))
                        .map_err(|e| e.to_string()),
                    ValueType::Null => Ok(Value::Null),
                };
                match v {
                    Ok(v) => values.push(v),
                    Err(e) => {
                        return format!(
                            "error: line {}: bad `{}` for column {}: {e} (pushed {pushed} rows)",
                            lineno + 1,
                            f,
                            col.name
                        )
                    }
                }
            }
            if let Err(e) = self.push_row(stream, values) {
                return format!("error: line {}: {e} (pushed {pushed} rows)", lineno + 1);
            }
            pushed += 1;
        }
        format!("fed {pushed} rows from `{path}` into `{stream}`")
    }
}

fn render_rows(rows: &[Tuple]) -> String {
    let mut out = String::new();
    for r in rows.iter().take(50) {
        let _ = writeln!(out, "{r}");
    }
    if rows.len() > 50 {
        let _ = writeln!(out, "... ({} more rows)", rows.len() - 50);
    }
    out
}

fn render_stats(stats: &[QueryStats]) -> String {
    let mut out = String::new();
    for s in stats {
        let _ = writeln!(
            out,
            "{} {:<32} in={:<8} out={:<8} emitted={:<8} retained={:<8} key_bytes={:<8} p99={}ns",
            if s.active { "live" } else { "dead" },
            s.name,
            s.tuples_in,
            s.tuples_out,
            s.emitted,
            s.retained,
            s.state_key_bytes,
            s.wall_p99_ns
        );
    }
    if out.is_empty() {
        out.push_str("no queries registered.\n");
    }
    out
}

fn render_streams(streams: &[StreamInfo]) -> String {
    let mut out = String::new();
    for s in streams {
        let _ = write!(
            out,
            "{:<24} pushed={:<10} last_ts={:<14} lag_ms={}",
            s.name,
            s.pushed,
            s.last_ts.to_string(),
            s.lag_ms
        );
        if let Some(slack) = s.disorder_slack {
            let _ = write!(out, " buffered={} slack={slack}", s.buffered);
        }
        out.push('\n');
    }
    if out.is_empty() {
        out.push_str("no streams registered.\n");
    }
    out
}

const HELP: &str = r#"ESL-EV shell:
  <SQL statement>;           run a CREATE / INSERT INTO / SELECT statement
                             (bare SELECTs collect; read them with .poll)
  ?SELECT ...                one-shot ad-hoc snapshot query
                             (needs a table or a .materialize'd stream)
  SHOW STATS                 per-query flow counters (in/out/emitted/retained)
  SHOW STREAMS               per-stream push counts and stream time
  SHOW SHARDS                per-shard routing and progress (with --shards N)
  SHOW SHARED                shared subplan chains and subscribers (with --share)
  SHOW REJECTED              dead-lettered rows (malformed / late-beyond-slack)
  EXPLAIN <query>            per-operator counters and sampled latencies
  EXPLAIN <SQL statement>    logical plan, applied rewrites, physical summary
  EXPLAIN ANALYZE <sql|name> optimized plan annotated with live runtime
                             stats (rows, batches, wall ns, state bytes)
  .feed <stream> <file.csv>  feed a headerless CSV (cols in schema order,
                             TIMESTAMP columns as fractional seconds)
  .scenario <name> [n]       feed a simulated workload:
                             dedup | packing | clinic | door | qc | tracking | vitals
  .advance <seconds>         advance stream time (fires window expirations)
  .materialize <stream> <s>  keep the last <s> seconds queryable via ?SELECT
  .tolerate <stream> <s>     reorder out-of-order arrivals up to <s> seconds;
                             later rows go to SHOW REJECTED as late
  .poll [i]                  drain collected rows of query i (or list all)
  .stats                     per-query emitted/retained counters
  .metrics [prom|json]       full metrics snapshot (Prometheus text or JSON)
  .trace on|off|<path.json>  toggle the flight recorder / dump recorded
                             events as chrome://tracing JSON
  .help                      this text
  .quit                      exit
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_and_unknown_commands() {
        let mut r = Repl::new();
        assert!(r.line(".help").contains(".scenario"));
        assert!(r.line(".bogus").contains("unknown command"));
        assert!(r.line("").is_empty());
    }

    #[test]
    fn ddl_query_feed_poll_cycle() {
        let mut r = Repl::new();
        let out = r.line(
            "CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);",
        );
        assert!(out.contains("created"), "{out}");
        // Multi-line statement.
        assert!(r.line("SELECT tag_id FROM readings").is_empty());
        let out = r.line("WHERE reader_id = 'gate-reader';");
        assert!(out.contains(".poll 0"), "{out}");
        let out = r.line(".scenario dedup 50");
        assert!(out.contains("physical presences"), "{out}");
        let out = r.line(".poll 0");
        assert!(out.contains("new rows"), "{out}");
        assert!(out.contains("tag-"), "{out}");
    }

    #[test]
    fn adhoc_and_materialize() {
        let mut r = Repl::new();
        r.line("CREATE STREAM vitals (patient VARCHAR, bp INT, t TIMESTAMP);");
        let out = r.line("?SELECT * FROM vitals");
        assert!(out.contains("materialize"), "{out}");
        let out = r.line(".materialize vitals 3600");
        assert!(out.contains("materialized"), "{out}");
        r.line(".scenario vitals");
        let out = r.line("?SELECT count(bp) FROM vitals");
        assert!(!out.contains("error"), "{out}");
    }

    #[test]
    fn scenario_reruns_without_duplicate_errors() {
        let mut r = Repl::new();
        assert!(!r.line(".scenario packing 10").contains("error"));
        assert!(!r.line(".scenario packing 10").contains("error"));
    }

    #[test]
    fn advance_and_stats() {
        let mut r = Repl::new();
        r.line("CREATE STREAM s (tagid VARCHAR, t TIMESTAMP);");
        r.line("SELECT tagid FROM s;");
        let out = r.line(".advance 60");
        assert!(out.contains("advanced"), "{out}");
        let out = r.line(".stats");
        assert!(out.contains("live"), "{out}");
    }

    #[test]
    fn feed_csv_round_trip() {
        let mut r = Repl::new();
        r.line("CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);");
        r.line("SELECT tag_id FROM readings;");
        let dir = std::env::temp_dir().join("eslev-test-feed");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("readings.csv");
        std::fs::write(
            &path,
            "# reader, tag, seconds\ngate,tag-1,1.5\ngate,tag-2,2.25\n",
        )
        .unwrap();
        let out = r.line(&format!(".feed readings {}", path.display()));
        assert!(out.contains("fed 2 rows"), "{out}");
        let out = r.line(".poll 0");
        assert!(out.contains("tag-1") && out.contains("tag-2"), "{out}");
        // Bad arity reported with line number.
        std::fs::write(&path, "only-two,fields\n").unwrap();
        let out = r.line(&format!(".feed readings {}", path.display()));
        assert!(out.contains("line 1"), "{out}");
        // Missing file / unknown stream.
        assert!(r.line(".feed readings /no/such/file.csv").contains("error"));
        assert!(r
            .line(&format!(".feed ghost {}", path.display()))
            .contains("error"));
    }

    #[test]
    fn show_stats_show_streams_and_explain() {
        let mut r = Repl::new();
        r.line("CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);");
        r.line("SELECT tag_id FROM readings WHERE reader_id <> '';");
        r.line(".scenario dedup 20");
        // Case-insensitive, trailing semicolon optional.
        let out = r.line("show stats;");
        assert!(out.contains("live"), "{out}");
        assert!(out.contains("in="), "{out}");
        assert!(out.contains("key_bytes="), "{out}");
        assert!(out.contains("interner entries="), "{out}");
        let out = r.line("SHOW STREAMS");
        assert!(out.contains("readings"), "{out}");
        assert!(out.contains("pushed="), "{out}");
        let name = r.engine().query_stats()[0].name.clone();
        let out = r.line(&format!("EXPLAIN {name};"));
        assert!(out.contains("in="), "{out}");
        let out = r.line("EXPLAIN no_such_query");
        assert!(out.contains("error"), "{out}");
        // Non-observability SHOW-like SQL still reaches the parser.
        let out = r.line("SHOW STATS EXTRA WORDS;");
        assert!(out.starts_with("error:"), "{out}");
    }

    #[test]
    fn explain_statement_renders_logical_plan() {
        let mut r = Repl::new();
        r.line("CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);");
        let out = r.line("EXPLAIN SELECT tag_id FROM readings;");
        assert!(out.contains("logical:"), "{out}");
        assert!(out.contains("rewrites:"), "{out}");
        assert!(out.contains("physical:"), "{out}");
        // The statement was only planned, never registered.
        assert!(r.engine().query_stats().is_empty());
        // Errors surface instead of falling through to the SQL parser.
        let out = r.line("EXPLAIN SELECT nope FROM ghost");
        assert!(out.starts_with("error:"), "{out}");
    }

    #[test]
    fn explain_analyze_statement_and_name() {
        let mut r = Repl::new();
        r.line("CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);");
        r.line("SELECT tag_id FROM readings WHERE reader_id <> '';");
        r.line(".scenario dedup 20");
        let out = r.line("EXPLAIN ANALYZE SELECT tag_id FROM readings WHERE reader_id <> '';");
        assert!(out.contains("optimized:"), "{out}");
        assert!(out.contains("[rows "), "{out}");
        let name = r.engine().query_stats()[0].name.clone();
        let out = r.line(&format!("explain analyze {name}"));
        assert!(out.contains("runtime:"), "{out}");
        let out = r.line("EXPLAIN ANALYZE");
        assert!(out.contains("usage:"), "{out}");
        let out = r.line("EXPLAIN ANALYZE no_such_query;");
        assert!(out.starts_with("error:"), "{out}");
    }

    #[test]
    fn sharded_explain_analyze_reads_shard_zero() {
        let mut r = Repl::with_shards(2).unwrap();
        r.line("CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);");
        r.line("SELECT tag_id FROM readings WHERE reader_id <> '';");
        r.line(".scenario dedup 30");
        let out = r.line("EXPLAIN ANALYZE SELECT tag_id FROM readings WHERE reader_id <> '';");
        assert!(out.contains("shard 0"), "{out}");
        assert!(out.contains("[rows "), "{out}");
    }

    #[test]
    fn trace_command_round_trip() {
        let mut r = Repl::new();
        r.line("CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);");
        r.line("SELECT tag_id FROM readings;");
        // Nothing recorded while tracing is off.
        let dir = std::env::temp_dir().join("eslev-test-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        r.line(".scenario dedup 10");
        let out = r.line(&format!(".trace {}", path.display()));
        assert!(out.contains("no trace events"), "{out}");
        // Toggle on, feed enough rows to cross the 1-in-64 sampling
        // boundary a few times, dump.
        assert!(r.line(".trace on").contains("enabled"));
        r.line(".scenario dedup 100");
        let out = r.line(&format!(".trace {}", path.display()));
        assert!(out.contains("trace events"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("tuple-admitted"), "{json}");
        assert!(r.line(".trace off").contains("disabled"));
        assert!(r.line(".trace").contains("usage"));
        assert!(r
            .line(".trace /no/such/dir/trace.json")
            .contains("no trace events"));
    }

    #[test]
    fn sharded_trace_merges_shards() {
        let mut r = Repl::with_shards(2).unwrap();
        r.line("CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);");
        r.line("SELECT tag_id FROM readings;");
        assert!(r.line(".trace on").contains("enabled"));
        r.line(".scenario dedup 40");
        r.line(".poll 0");
        let dir = std::env::temp_dir().join("eslev-test-trace-sharded");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let out = r.line(&format!(".trace {}", path.display()));
        assert!(out.contains("trace events"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        // Per-shard timelines carry their shard as the pid.
        assert!(json.contains("\"pid\":0"), "{json}");
        assert!(json.contains("\"pid\":1"), "{json}");
    }

    #[test]
    fn stats_and_streams_show_latency_columns() {
        let mut r = Repl::new();
        r.line("CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);");
        r.line("SELECT tag_id FROM readings;");
        r.line(".scenario dedup 20");
        let out = r.line("SHOW STATS");
        assert!(out.contains("p99="), "{out}");
        let out = r.line("SHOW STREAMS");
        assert!(out.contains("lag_ms="), "{out}");
    }

    #[test]
    fn metrics_command_exports_prom_and_json() {
        let mut r = Repl::new();
        r.line("CREATE STREAM s (tagid VARCHAR, t TIMESTAMP);");
        r.line("SELECT tagid FROM s;");
        let prom = r.line(".metrics");
        assert!(prom.contains("eslev_punctuations_total"), "{prom}");
        assert!(prom.contains("eslev_query_tuples_in_total"), "{prom}");
        let json = r.line(".metrics json");
        assert!(json.contains("\"metrics\""), "{json}");
        assert!(r.line(".metrics xml").contains("unknown format"));
    }

    #[test]
    fn sql_errors_are_reported_inline() {
        let mut r = Repl::new();
        let out = r.line("SELECT * FROM missing;");
        assert!(out.starts_with("error:"), "{out}");
        // The shell recovers for the next statement.
        let out = r.line("CREATE STREAM s (tagid VARCHAR, t TIMESTAMP);");
        assert!(out.contains("created"), "{out}");
    }

    #[test]
    fn show_shards_in_single_mode_points_at_flag() {
        let mut r = Repl::new();
        let out = r.line("SHOW SHARDS;");
        assert!(out.contains("--shards"), "{out}");
    }

    #[test]
    fn show_rejected_lists_dead_letters_with_reasons() {
        let mut r = Repl::new();
        r.line("CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);");
        let out = r.line("SHOW REJECTED;");
        assert!(out.contains("no rejected rows"), "{out}");
        if let Backend::Single(e) = &mut r.backend {
            let _ = e.push("readings", vec![Value::Int(1)]);
            e.set_disorder_tolerance("readings", Duration::from_millis(100))
                .unwrap();
            for ms in [1000u64, 2000] {
                e.push(
                    "readings",
                    vec![
                        Value::str("r"),
                        Value::str("t"),
                        Value::Ts(Timestamp::from_millis(ms)),
                    ],
                )
                .unwrap();
            }
            e.push(
                "readings",
                vec![
                    Value::str("r"),
                    Value::str("too-late"),
                    Value::Ts(Timestamp::from_millis(10)),
                ],
            )
            .unwrap();
        }
        let out = r.line("SHOW REJECTED;");
        assert!(out.contains("2 rejected"), "{out}");
        assert!(out.contains("malformed"), "{out}");
        assert!(out.contains("late"), "{out}");
    }

    #[test]
    fn show_rejected_merges_router_and_shard_buffers() {
        let mut r = Repl::with_shards(2).unwrap();
        r.line("CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);");
        if let Backend::Sharded(se) = &mut r.backend {
            se.set_disorder_tolerance("readings", Duration::from_millis(100))
                .unwrap();
            for (ms, tag) in [(1000u64, "a"), (2000, "b")] {
                se.push(
                    "readings",
                    vec![
                        Value::str("r"),
                        Value::str(tag),
                        Value::Ts(Timestamp::from_millis(ms)),
                    ],
                )
                .unwrap();
            }
            // Behind the released frontier (1000): rejected at the router.
            se.push(
                "readings",
                vec![
                    Value::str("r"),
                    Value::str("too-late"),
                    Value::Ts(Timestamp::from_millis(10)),
                ],
            )
            .unwrap();
            se.flush().unwrap();
            assert_eq!(se.late_tuples(), 1);
        }
        let out = r.line("SHOW REJECTED;");
        assert!(out.contains("1 rejected"), "{out}");
        assert!(out.contains("late"), "{out}");
        assert!(out.contains("shard -"), "{out}");
    }

    #[test]
    fn tolerate_command_buffers_and_dead_letters_via_repl_surface() {
        let mut r = Repl::new();
        r.line("CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);");
        r.line("SELECT tag_id FROM readings;");
        assert!(r.line(".tolerate ghost 1").contains("error"));
        assert!(r.line(".tolerate readings").contains("usage"));
        let out = r.line(".tolerate readings 1");
        assert!(out.contains("tolerates"), "{out}");
        // Out-of-order CSV: 5.0 then 6.0 releases 5.0 (slack 1 s); the
        // straggler at 1.0 is behind the released frontier → dead letter.
        let dir = std::env::temp_dir().join("eslev-test-tolerate");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disorder.csv");
        std::fs::write(&path, "gate,tag-a,5.0\ngate,tag-b,6.0\ngate,tag-late,1.0\n").unwrap();
        let out = r.line(&format!(".feed readings {}", path.display()));
        assert!(out.contains("fed 3 rows"), "{out}");
        let out = r.line("SHOW STREAMS");
        assert!(out.contains("slack="), "{out}");
        let out = r.line("SHOW REJECTED");
        assert!(out.contains("late"), "{out}");
        assert!(out.contains("tag-late"), "{out}");
        // Only the in-order prefix reached the query; tag-b is buffered.
        let out = r.line(".poll 0");
        assert!(out.contains("tag-a") && !out.contains("tag-late"), "{out}");
    }

    #[test]
    fn sharded_ddl_query_scenario_poll_cycle() {
        let mut r = Repl::with_shards(4).unwrap();
        let out = r.line(
            "CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);",
        );
        assert!(out.contains("created"), "{out}");
        let out = r.line("SELECT tag_id FROM readings WHERE reader_id <> '';");
        assert!(out.contains(".poll 0"), "{out}");
        let out = r.line(".scenario dedup 50");
        assert!(out.contains("physical presences"), "{out}");
        let out = r.line(".poll 0");
        assert!(out.contains("new rows"), "{out}");
        assert!(out.contains("tag-"), "{out}");
        // SHOW SHARDS renders per-shard progress and the resolved route.
        let out = r.line("SHOW SHARDS;");
        assert!(out.contains("4 shards"), "{out}");
        assert!(out.contains("route readings"), "{out}");
        assert!(out.contains("key("), "{out}");
        // Aggregated stats and streams.
        let out = r.line("SHOW STATS;");
        assert!(out.contains("live"), "{out}");
        let out = r.line("SHOW STREAMS;");
        assert!(out.contains("readings"), "{out}");
        // Metrics carry shard labels.
        let json = r.line(".metrics json");
        assert!(json.contains("eslev_shard_tuples_total"), "{json}");
        // Advance and unsupported commands answer gracefully.
        assert!(r.line(".advance 60").contains("advanced"));
        assert!(r.line(".materialize readings 10").contains("--shards"));
        assert!(r.line("?SELECT * FROM readings").contains("--shards"));
    }

    #[test]
    fn checkpoint_and_show_recovery_statements() {
        // Single mode: CHECKPOINT snapshots in-process, SHOW RECOVERY
        // points at the sharded flag.
        let mut r = Repl::new();
        r.line("CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);");
        r.line("SELECT tag_id FROM readings;");
        r.line(".scenario dedup 20");
        let out = r.line("CHECKPOINT;");
        assert!(out.contains("checkpoint taken"), "{out}");
        let out = r.line("SHOW RECOVERY;");
        assert!(out.contains("--shards"), "{out}");

        // Sharded mode: CHECKPOINT reports per-shard causes and SHOW
        // RECOVERY the counters; case-insensitive like the other
        // observability statements.
        let mut r = Repl::with_shards(3).unwrap();
        r.line("CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);");
        r.line("SELECT tag_id FROM readings;");
        r.line(".scenario dedup 30");
        let out = r.line("checkpoint");
        assert!(out.contains("across 3 shards"), "{out}");
        assert!(out.contains("checkpoint_cause="), "{out}");
        let out = r.line("show recovery");
        assert!(out.contains("checkpoints=1"), "{out}");
        assert!(out.contains("restarts=0"), "{out}");
        assert!(out.contains("journal_len="), "{out}");
        // Extra words flow through to the SQL parser, like SHOW STATS.
        let out = r.line("CHECKPOINT NOW;");
        assert!(out.starts_with("error:"), "{out}");
    }

    #[test]
    fn sharded_output_matches_single_mode() {
        // The same REPL session in single and 3-shard mode must poll the
        // same rows in the same order.
        let mut rows = Vec::new();
        for mode in [1usize, 3] {
            let mut r = if mode == 1 {
                Repl::new()
            } else {
                Repl::with_shards(mode).unwrap()
            };
            r.line(
                "CREATE STREAM readings (reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP);",
            );
            r.line("SELECT tag_id FROM readings;");
            let dir = std::env::temp_dir().join("eslev-test-shard-feed");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("rows.csv");
            std::fs::write(
                &path,
                "g,tag-1,1.0\ng,tag-2,1.5\ng,tag-1,2.0\ng,tag-3,2.5\ng,tag-2,3.0\n",
            )
            .unwrap();
            let out = r.line(&format!(".feed readings {}", path.display()));
            assert!(out.contains("fed 5 rows"), "{out}");
            rows.push(r.line(".poll 0"));
        }
        assert_eq!(rows[0], rows[1], "sharded poll must match single mode");
    }
}
