//! Shared, engine-free parts of the performance ledger (see README.md):
//! workload definitions, the metric registry and result files, order
//! statistics, and the span recorder. Nothing here links an engine crate,
//! so the `ledger` harness keeps building when an engine API moves; only
//! `ledger-trace` (src/bin/ledger-trace/layers.rs) names engine items.

pub mod report;
pub mod span;
pub mod spec;
pub mod stats;
