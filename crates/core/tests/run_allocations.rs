//! Allocation budget of a run's fixed cost. Once a configuration has run
//! on a thread, the next run of it builds nothing the configuration
//! alone decides: functional coverage allocates only its per-run
//! counters, trace capture records into change lists already reserved to
//! their length, and a disabled telemetry handle makes its spans and
//! fetches its counters without allocating. A std-only counting
//! allocator counts the allocations made on the calling thread.

use catg::{CycleRecord, FunctionalCoverage, VcdDump};
use stbus_protocol::{DutInputs, DutOutputs, NodeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use telemetry::{Json, MetricsRegistry, Telemetry};

struct Counting;

thread_local! {
    // Per thread, so tests running side by side do not count each
    // other's allocations. Both are const-initialized and need no
    // destructor, so the allocator may touch them.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (r, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn functional_coverage_allocates_only_its_per_run_counters() {
    let cfg = NodeConfig::reference();
    let first = FunctionalCoverage::new(&cfg);
    let (second, n) = allocations(|| FunctionalCoverage::new(&cfg));
    // Hits, wait cycles, last grants and requesters.
    assert_eq!(
        n, 4,
        "a second FunctionalCoverage::new made {n} allocations"
    );
    assert_eq!(second.report(), first.report());
}

/// Cycles of traffic that change every port often.
fn records(cfg: &NodeConfig) -> Vec<CycleRecord> {
    (0..300u64)
        .map(|cycle| {
            let mut inputs = DutInputs::idle(cfg);
            let mut outputs = DutOutputs::idle(cfg);
            for (i, port) in inputs.initiator.iter_mut().enumerate() {
                port.req = !(cycle + i as u64).is_multiple_of(3);
                port.cell.addr = cycle / 2 * 16;
                port.r_gnt = cycle.is_multiple_of(2);
            }
            for (t, port) in outputs.target.iter_mut().enumerate() {
                port.req = (cycle + t as u64).is_multiple_of(4);
                port.cell.addr = cycle * 8;
            }
            CycleRecord {
                cycle,
                inputs,
                outputs,
            }
        })
        .collect()
}

#[test]
fn trace_capture_does_not_regrow_a_change_list() {
    let cfg = NodeConfig::reference();
    let records = records(&cfg);
    let capture = |dump: &mut VcdDump| {
        for rec in &records {
            dump.record(rec);
        }
    };
    let mut first = VcdDump::new(&cfg);
    capture(&mut first);
    let first = first.finish_trace();
    assert!(first.ports().iter().all(|p| p.len() > 100), "ports changed");

    let mut second = VcdDump::new(&cfg);
    let ((), n) = allocations(|| capture(&mut second));
    assert_eq!(n, 0, "recording a second run made {n} allocations");
    assert_eq!(second.finish_trace(), first);
}

#[test]
fn an_existing_metric_is_fetched_without_allocating() {
    let metrics = MetricsRegistry::new();
    metrics.counter("tb.runs").inc();
    metrics.gauge("tb.depth").set(1);
    metrics.histogram("tb.wait", &[1, 10]).observe(3);
    let (_, n) = allocations(|| {
        metrics.counter("tb.runs").inc();
        metrics.gauge("tb.depth").set(2);
        metrics.histogram("tb.wait", &[1, 10]).observe(4);
    });
    assert_eq!(n, 0, "fetching existing metrics made {n} allocations");
    let snap = metrics.snapshot();
    assert_eq!(snap.counters["tb.runs"], 2);
    assert_eq!(snap.gauges["tb.depth"], 2);
    assert_eq!(snap.histograms["tb.wait"].count, 2);
}

#[test]
fn a_disabled_span_with_fields_allocates_nothing() {
    let tel = Telemetry::disabled();
    let (_, n) = allocations(|| {
        let mut span = tel.span("tb.run").field("seed", Json::from(7u64));
        span.add_field("view", Json::Null);
        span.end([("cycles", Json::from(100u64))]);
        tel.span("cell.elaborate").field("reused", Json::from(true));
    });
    assert_eq!(n, 0, "disabled spans made {n} allocations");
}
