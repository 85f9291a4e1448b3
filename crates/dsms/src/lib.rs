//! # eslev-dsms — the DSMS substrate
//!
//! An in-memory data stream management system in the style of ESL /
//! Stream Mill: registered append-only streams of typed tuples, persistent
//! tables, continuous queries built from push-based operators, sliding
//! windows (including the paper's FOLLOWING and PRECEDING-AND-FOLLOWING
//! extensions), extensible aggregates (UDAs) and scalar functions (UDFs),
//! and punctuation-driven *active expiration*.
//!
//! The temporal event operators of the paper live one layer up in
//! `eslev-core`; this crate provides everything §2 of the paper claims a
//! SQL-based stream language already handles well: duplicate elimination,
//! ad-hoc queries, context retrieval, database updates and aggregation.
//!
//! ```
//! use eslev_dsms::prelude::*;
//!
//! // Example 1 of the paper: duplicate elimination with a 1 s window.
//! let mut engine = Engine::new();
//! engine.create_stream(Schema::readings("readings")).unwrap();
//! let dedup = Dedup::new(vec![Expr::col(0), Expr::col(1)], Duration::from_secs(1));
//! let (_, cleaned) = engine
//!     .register_collected("dedup", vec!["readings"], Box::new(dedup))
//!     .unwrap();
//! for (ms, tag) in [(0u64, "tag1"), (300, "tag1"), (1500, "tag1")] {
//!     engine
//!         .push(
//!             "readings",
//!             vec![
//!                 Value::str("reader1"),
//!                 Value::str(tag),
//!                 Value::Ts(Timestamp::from_millis(ms)),
//!             ],
//!         )
//!         .unwrap();
//! }
//! assert_eq!(cleaned.len(), 2); // the 300 ms re-read is suppressed
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agg;
pub mod ckpt;
pub mod driver;
pub mod engine;
pub mod error;
pub mod expr;
pub mod fault;
pub mod hash;
pub mod intern;
pub mod journal;
pub mod key;
pub mod lookup;
pub mod obs;
pub mod ops;
pub mod schema;
pub mod shard;
pub mod snapshot;
pub mod table;
pub mod time;
pub mod trace;
pub mod tuple;
pub mod value;
pub mod window;

/// One-stop imports for building queries against the substrate.
pub mod prelude {
    pub use crate::agg::{Aggregate, AggregateRegistry, ClosureUda};
    pub use crate::ckpt::{EngineCheckpoint, StateNode, CHECKPOINT_VERSION};
    pub use crate::driver::{EngineDriver, EngineInput};
    pub use crate::engine::{
        Collector, Consistency, DeadLetter, Engine, QueryId, QueryStats, RejectReason, Sink,
        StreamInfo,
    };
    pub use crate::error::{DsmsError, Result};
    pub use crate::expr::{BinOp, Expr, FunctionRegistry, LikePattern};
    pub use crate::fault::{Fault, FaultPlan};
    pub use crate::intern::{InternerRef, Representation, StrInterner, Sym};
    pub use crate::journal::{Journal, JournalEntry};
    pub use crate::key::{KeyCodec, StateKey};
    pub use crate::lookup::{MissPolicy, TableExists, TableLookup};
    pub use crate::obs::{
        Counter, Gauge, Histogram, HistogramSnapshot, MetricSample, MetricValue, MetricsSnapshot,
        Registry,
    };
    pub use crate::ops::{
        AggSpec, AggWindow, BinaryJoin, Chain, Dedup, Emission, OpReport, Operator, Project,
        Select, SemiJoinKind, SpeculativeGate, WindowAggregate, WindowExists,
    };
    pub use crate::schema::{Column, Schema, SchemaRef};
    pub use crate::shard::{
        shard_of, RecoveryStats, RouteRule, ShardRecovery, ShardSpec, ShardStats, ShardedEngine,
        WatermarkAggregator, EPC_KEY_COLUMNS,
    };
    pub use crate::snapshot::{MaterializedWindow, SnapshotRef};
    pub use crate::table::{Table, TableRef};
    pub use crate::time::{Duration, Timestamp};
    pub use crate::trace::{
        chrome_trace_json, FlightRecorder, LatencyStamps, TraceEvent, TraceKind,
    };
    pub use crate::tuple::{Sign, StreamItem, Tuple};
    pub use crate::value::{Value, ValueType};
    pub use crate::window::{WindowBuffer, WindowExtent};
}
