//! Span-tree profiling and persistent campaign history over the
//! telemetry event stream.
//!
//! The telemetry layer records *what happened*; this crate answers
//! *where the time went* and *whether it is getting worse*:
//!
//! - [`span_tree`] folds span end-events into a hierarchical profile
//!   (per-node self/total time, call counts, min/max/mean) rendered as a
//!   sorted text tree or folded stacks for flamegraph tooling. Spans
//!   record their parent, worker spans included, so the aggregated
//!   shape is independent of `--jobs`.
//! - [`trace`] exports the same spans as Chrome `trace_event` JSON,
//!   loadable in Perfetto or `chrome://tracing`, one thread row per
//!   worker — and validates the B/E pairing contract.
//! - [`history`] appends one record per campaign to
//!   `.stbus/history.jsonl`, keyed by a content hash of the workload,
//!   and compares runs of the same workload to flag per-phase
//!   performance regressions.
//!
//! The `stbus-regress --profile` / `stbus-regress history` CLI surfaces
//! all three.

pub mod history;
pub mod span_tree;
pub mod trace;

pub use history::{
    compare_records, content_key, find_baseline, render_comparison, render_trend, CampaignShape,
    Comparison, HistoryRecord, HistoryStore, HostInfo, PhaseDelta, HISTORY_SCHEMA, MIN_PHASE_US,
};
pub use span_tree::{
    build_profile, build_tree, collect_spans, Profile, ProfileNode, ProfileOptions, SpanNode,
    SpanRecord,
};
pub use trace::{trace_json, validate_trace, TraceStats};
