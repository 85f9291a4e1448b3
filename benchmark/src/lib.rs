//! The repo's benchmark: seven paper workloads, end-to-end metrics,
//! per-layer attribution from outside the engine, and an A/A gate.
//! See `README.md` beside this crate.

pub mod alloc;
pub mod clock;
pub mod feeds;
pub mod json;
pub mod probes;
pub mod report;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
