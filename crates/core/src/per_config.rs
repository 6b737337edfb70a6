//! Testbench state that depends on the configuration alone, built once
//! per configuration on each thread.
//!
//! A testbench is built once per configuration and then runs any test on
//! any view, so every run of a configuration declares the same coverage
//! bins, the same hit-site table and the same trace ports. Each thread
//! keeps that state for the last configuration it ran, shared with the
//! runs through `Arc`s, the way [`crate::cell`] keeps the last cell's
//! views; a run of another configuration replaces all of it. The key is
//! the whole [`NodeConfig`], so two configurations that differ in any
//! field never share state. Each part is built the first time a run asks
//! for it: a run that captures no trace builds no trace shape.
//!
//! The trace's change lists are the one part that grows with the run.
//! The trace shape records, per port, the most snapshots a run of the
//! configuration has reached on the thread, and the next run reserves
//! that much up front instead of regrowing each list from empty.

use crate::coverage::CoverageShape;
use crate::vcd_dump::TraceShape;
use stbus_protocol::NodeConfig;
use std::cell::RefCell;
use std::sync::Arc;

/// The state kept for the last configuration run on this thread.
#[derive(Default)]
struct Kept {
    config: Option<NodeConfig>,
    coverage: Option<Arc<CoverageShape>>,
    trace: Option<Arc<TraceShape>>,
}

thread_local! {
    static KEPT: RefCell<Kept> = RefCell::default();
}

/// The kept part `slot` for `config`, built with `build` when it is
/// missing; a different configuration first drops every kept part.
fn kept<T>(
    config: &NodeConfig,
    slot: fn(&mut Kept) -> &mut Option<Arc<T>>,
    build: fn(&NodeConfig) -> T,
) -> Arc<T> {
    KEPT.with_borrow_mut(|kept| {
        if kept.config.as_ref() != Some(config) {
            *kept = Kept {
                config: Some(config.clone()),
                ..Kept::default()
            };
        }
        Arc::clone(slot(kept).get_or_insert_with(|| Arc::new(build(config))))
    })
}

/// The declared coverage bins and hit sites of `config`.
pub(crate) fn coverage_shape(config: &NodeConfig) -> Arc<CoverageShape> {
    kept(config, |k| &mut k.coverage, CoverageShape::new)
}

/// The trace ports of `config` and their high-water marks.
pub(crate) fn trace_shape(config: &NodeConfig) -> Arc<TraceShape> {
    kept(config, |k| &mut k.trace, TraceShape::new)
}
