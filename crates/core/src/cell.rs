//! The cell primitive: one test under one seed on a set of design views,
//! and the STBA comparisons between them. Every campaign mode describes
//! its work as [`CellSpec`]s and runs each through [`run_cell`]; where the
//! modes differ, the difference is a field of the spec, while fan-out,
//! caching and reduction stay with the callers. The views are elaborated
//! on the calling worker: the RTL simulator is single-threaded.
//!
//! Each worker thread keeps the views its last cell elaborated. A cell
//! whose configuration and view descriptions equal them (injected bugs
//! included) reuses them instead of elaborating again: the RTL view is
//! rewound to its just-elaborated state ([`RtlNode::rewind`]), and the
//! BCA and TLM views rely on the reset every run starts with. A reused
//! view produces byte-identical results, coverage and engine counters.
//!
//! A later view that publishes no engine counters (today the BCA view) is
//! replayed against the port log of the cell's first view: it steps
//! through the logged inputs, and when its outputs match on every cycle
//! it takes the first view's verdict instead of running the environment
//! again ([`Testbench`]'s replay, DESIGN §28). The log lives as long as
//! the cell.
//!
//! [`RtlNode::rewind`]: stbus_rtl::RtlNode::rewind

use crate::testbench::{PortLog, RunResult, TestSpec, Testbench, TestbenchOptions};
use crate::views::{Elaborated, ViewSpec};
use sim_kernel::ActivityCoverage;
use stba::{compare_trace_transactions_with, compare_traces_with, AlignmentReport};
use stbus_protocol::{DutView, NodeConfig};
use std::cell::RefCell;
use std::collections::BTreeMap;
use telemetry::{Json, Telemetry};

/// Per-port `(port, matching, total)` figures of one comparison.
pub type PortFigures = Vec<(String, u64, u64)>;

/// How a view's trace is compared against the cell's first view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Compare {
    /// Not compared.
    None,
    /// Cycle by cycle: the paper's discipline.
    Cycle,
    /// By committed transaction order: the discipline of an untimed view.
    Transactions,
    /// Both, cycle first.
    Both,
}

/// Everything one cell needs, as plain `Send` data.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// The configuration every view is elaborated for.
    pub config: NodeConfig,
    /// The test run on every view.
    pub test: TestSpec,
    /// The seed shared by every view.
    pub seed: u64,
    /// The views in run order, each with its comparison against the
    /// first view (whose own is [`Compare::None`]).
    pub views: Vec<(ViewSpec, Compare)>,
    /// Compare only when both runs passed (the Figure 4 rule). Mutation
    /// qualification unsets it: its alignment evidence must exist for
    /// failing runs too.
    pub gated: bool,
    /// Emit the comparisons' `stba.*` span, counters and divergence
    /// warnings. The hunt's probes unset it: they compare silently.
    pub compare_events: bool,
    /// Publish each view's engine counters (`kernel.*`, `tlm.*`).
    pub attach_metrics: bool,
    /// Wrap each view run in a span of this name, with the config, test,
    /// seed and view as fields.
    pub run_span: Option<&'static str>,
}

impl CellSpec {
    /// A gated cell with comparison events, no engine counters and no
    /// per-run span.
    pub fn new(
        config: NodeConfig,
        test: TestSpec,
        seed: u64,
        views: Vec<(ViewSpec, Compare)>,
    ) -> CellSpec {
        CellSpec {
            config,
            test,
            seed,
            views,
            gated: true,
            compare_events: true,
            attach_metrics: false,
            run_span: None,
        }
    }
}

/// What one view of a cell produced.
#[derive(Clone, Debug)]
pub struct ViewRun {
    /// The run's result, trace included.
    pub result: RunResult,
    /// Cycle alignment against the first view, when compared.
    pub cycle: Option<PortFigures>,
    /// Transaction-order alignment against the first view, when compared.
    pub transactions: Option<PortFigures>,
    /// Whether this view's comparisons ran (a comparison that could not
    /// align the traces leaves its figures `None` but still counts).
    pub compared: bool,
}

impl ViewRun {
    /// The lowest per-port rate of this view's comparison (cycle figures
    /// first), as [`AlignmentReport::min_rate`] gives it; `None` when no
    /// comparison ran.
    pub fn min_rate(&self) -> Option<f64> {
        let ports = self.cycle.as_ref().or(self.transactions.as_ref())?;
        Some(min_rate(ports).unwrap_or(1.0))
    }
}

/// What one cell produced.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// One entry per view, in [`CellSpec::views`] order.
    pub runs: Vec<ViewRun>,
    /// Structural coverage of the cell's RTL view, when it had one.
    pub rtl_activity: Option<ActivityCoverage>,
}

/// Matching over total, an empty port reading as fully aligned (like
/// [`stba::PortAlignment::rate`]).
pub fn port_rate(matching: u64, total: u64) -> f64 {
    if total == 0 {
        1.0
    } else {
        matching as f64 / total as f64
    }
}

/// The minimum per-port rate of `figures`; `None` without ports.
pub fn min_rate(figures: &[(String, u64, u64)]) -> Option<f64> {
    figures
        .iter()
        .map(|(_, m, t)| port_rate(*m, *t))
        .reduce(f64::min)
}

/// Per-port figures summed over several comparisons, in port order: the
/// paper's campaign alignment, aligned cycles over total cycles per port.
pub fn sum_ports<'a>(figures: impl IntoIterator<Item = &'a PortFigures>) -> PortFigures {
    let mut per_port: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (port, m, t) in figures.into_iter().flatten() {
        let e = per_port.entry(port).or_default();
        e.0 += m;
        e.1 += t;
    }
    per_port
        .into_iter()
        .map(|(port, (m, t))| (port.to_owned(), m, t))
        .collect()
}

/// A view elaborated by an earlier cell on this thread.
struct KeptView {
    spec: ViewSpec,
    view: Elaborated,
    /// Whether a metrics registry is attached that reuse keeps: the TLM
    /// view keeps its registry across resets, rewinding the RTL view
    /// detaches its own and the BCA view attaches none.
    metered: bool,
}

/// The views the last cell on this thread ran, all of one configuration.
#[derive(Default)]
struct KeptViews {
    config: Option<NodeConfig>,
    views: Vec<KeptView>,
}

thread_local! {
    static KEPT: RefCell<KeptViews> = RefCell::default();
}

/// Runs one cell on the calling thread: every view in order, then each
/// requested comparison against the first view. The testbench captures a
/// trace only when a view is compared. Views the previous cell on this
/// thread elaborated are reused when they match (see the module docs).
pub fn run_cell(spec: &CellSpec, tel: &Telemetry) -> CellOutcome {
    let compares = spec.views.iter().any(|(_, c)| *c != Compare::None);
    let bench = Testbench::new(
        spec.config.clone(),
        TestbenchOptions {
            capture_trace: compares,
            telemetry: tel.clone(),
            ..TestbenchOptions::default()
        },
    );
    // Taken out for the cell: a run that panics leaves nothing behind.
    let mut kept = KEPT.take();
    if kept.config.as_ref() != Some(&spec.config) {
        kept = KeptViews {
            config: Some(spec.config.clone()),
            views: Vec::new(),
        };
    }
    let replays = spec.views.iter().skip(1).any(|(view, _)| view.replays());
    let mut log = replays.then(PortLog::default);
    let mut rtl_activity = None;
    let mut runs: Vec<ViewRun> = Vec::with_capacity(spec.views.len());
    let mut used = Vec::with_capacity(spec.views.len());
    // A disabled handle builds none of the spans' fields.
    let fields = tel.is_enabled();
    for (view, _) in &spec.views {
        let span = spec.run_span.map(|name| {
            let span = tel.span(name);
            if !fields {
                return span;
            }
            span.field("config", Json::from(spec.config.name.as_str()))
                .field("test", Json::from(spec.test.name.as_str()))
                .field("seed", Json::from(spec.seed))
                .field("view", Json::from(view.kind().to_string()))
        });
        // A view that publishes into a registry the rewind cannot detach
        // is only reused by a cell that attaches one anyway.
        let reusable = kept
            .views
            .iter()
            .position(|k| k.spec == *view && (spec.attach_metrics || !k.metered));
        let mut elaborating = tel.span("cell.elaborate");
        if fields {
            elaborating = elaborating
                .field("view", Json::from(view.kind().to_string()))
                .field("reused", Json::from(reusable.is_some()));
        }
        let mut kept_view = match reusable {
            Some(i) => {
                let mut k = kept.views.swap_remove(i);
                if let Elaborated::Rtl(node) = &mut k.view {
                    node.rewind();
                }
                k
            }
            None => KeptView {
                spec: view.clone(),
                view: view.elaborate(&spec.config),
                metered: false,
            },
        };
        drop(elaborating);
        kept_view.metered = spec.attach_metrics && matches!(view, ViewSpec::Tlm(_));
        let dut: &mut dyn DutView = match &mut kept_view.view {
            Elaborated::Rtl(node) => node.as_mut(),
            Elaborated::Other(dut) => dut.as_mut(),
        };
        if spec.attach_metrics {
            dut.attach_metrics(tel.metrics());
        }
        let (test, seed) = (&spec.test, spec.seed);
        let result = match (runs.first(), &log) {
            (None, _) => bench.run_logged(dut, test, seed, log.as_mut()),
            (Some(first), Some(log)) if view.replays() => {
                bench.replay(dut, test, seed, log, &first.result)
            }
            (Some(_), _) => bench.run(dut, test, seed),
        };
        if let Some(span) = span {
            let passed = Json::from(result.passed());
            span.end([("cycles", Json::from(result.cycles)), ("passed", passed)]);
        }
        if let Elaborated::Rtl(node) = &kept_view.view {
            rtl_activity = Some(node.activity_coverage());
        }
        runs.push(ViewRun {
            result,
            cycle: None,
            transactions: None,
            compared: false,
        });
        used.push(kept_view);
    }
    // Only this cell's views stay: one set per thread at most.
    kept.views = used;
    KEPT.set(kept);

    let figures = |r: AlignmentReport| -> PortFigures {
        let ports = r.ports.into_iter();
        ports
            .map(|p| (p.port, p.matching_cycles, p.total_cycles))
            .collect()
    };
    let silent = Telemetry::disabled();
    let tel = if spec.compare_events { tel } else { &silent };
    if let Some((first, rest)) = runs.split_first_mut() {
        for (run, &(_, compare)) in rest.iter_mut().zip(&spec.views[1..]) {
            let both_passed = first.result.passed() && run.result.passed();
            if compare == Compare::None || spec.gated && !both_passed {
                continue;
            }
            let (Some(a), Some(b)) = (&first.result.trace, &run.result.trace) else {
                continue;
            };
            if matches!(compare, Compare::Cycle | Compare::Both) {
                run.cycle = compare_traces_with(a, b, tel).ok().map(figures);
            }
            if matches!(compare, Compare::Transactions | Compare::Both) {
                run.transactions = compare_trace_transactions_with(a, b, tel).ok().map(figures);
            }
            run.compared = true;
        }
    }
    CellOutcome { runs, rtl_activity }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_lib;
    use sim_kernel::SimBackend;
    use stbus_bca::{BcaBug, Fidelity};
    use stbus_protocol::ViewKind;
    use stbus_rtl::RtlBug;
    use telemetry::{MemorySink, MetricsSnapshot};

    fn pair(bca: ViewSpec) -> CellSpec {
        CellSpec::new(
            NodeConfig::reference(),
            tests_lib::random_mixed(8),
            1,
            vec![
                (ViewSpec::of(ViewKind::Rtl), Compare::None),
                (bca, Compare::Cycle),
            ],
        )
    }

    #[test]
    fn clean_pair_runs_both_views_and_compares() {
        let exact = ViewSpec::Bca(Fidelity::Exact, Vec::new());
        let outcome = run_cell(&pair(exact), &Telemetry::disabled());
        assert_eq!(outcome.runs.len(), 2);
        assert_eq!(outcome.runs[0].result.view, ViewKind::Rtl);
        assert_eq!(outcome.runs[1].result.view, ViewKind::Bca);
        assert!(outcome.runs.iter().all(|r| r.result.passed()));
        assert_eq!(outcome.runs[1].min_rate(), Some(1.0));
        assert!(outcome.runs[1].transactions.is_none());
        assert!(outcome.runs[0].cycle.is_none());
        assert!(outcome.rtl_activity.is_some());
    }

    #[test]
    fn a_failing_run_skips_the_gated_comparison_only() {
        let buggy = ViewSpec::Bca(Fidelity::Exact, vec![BcaBug::DroppedByteEnables]);
        let mut spec = pair(buggy);
        let gated = run_cell(&spec, &Telemetry::disabled());
        assert!(!gated.runs[1].result.passed());
        assert!(gated.runs[1].cycle.is_none());
        assert!(!gated.runs[1].compared);
        spec.gated = false;
        let ungated = run_cell(&spec, &Telemetry::disabled());
        assert!(ungated.runs[1].cycle.is_some());
        assert!(ungated.runs[1].compared);
    }

    /// Everything a cell produced.
    fn digest(outcome: &CellOutcome) -> String {
        format!("{outcome:?}")
    }

    /// One cell's digest, metrics snapshot and, per view, whether its
    /// elaboration was a reuse.
    type Ran = (String, MetricsSnapshot, Vec<bool>);

    fn run_observed(cell: &CellSpec) -> Ran {
        let (sink, handle) = MemorySink::new();
        let tel = Telemetry::builder().with_sink(Box::new(sink)).build();
        let outcome = run_cell(cell, &tel);
        tel.flush();
        let reused = handle
            .events()
            .iter()
            .filter(|e| e.scope == "cell.elaborate.end")
            .map(|e| e.field("reused").and_then(Json::as_bool).expect("reused"))
            .collect();
        (digest(&outcome), tel.metrics().snapshot(), reused)
    }

    /// Runs `cells` in order on a new thread, which has no kept views.
    fn on_fresh_thread(cells: Vec<CellSpec>) -> Vec<Ran> {
        std::thread::spawn(move || cells.iter().map(run_observed).collect())
            .join()
            .expect("cells run")
    }

    fn cell(config: &NodeConfig, seed: u64, views: &[(ViewSpec, Compare)]) -> CellSpec {
        CellSpec {
            attach_metrics: true,
            run_span: Some("test.cell"),
            ..CellSpec::new(
                config.clone(),
                tests_lib::random_mixed(4),
                seed,
                views.to_vec(),
            )
        }
    }

    /// The view sets of the reuse tests: RTL on both engines, bugs in
    /// RTL and BCA, BCA at both fidelities, and the TLM view.
    fn view_sets() -> Vec<Vec<(ViewSpec, Compare)>> {
        let rtl = |engine, bugs: &[RtlBug]| (ViewSpec::Rtl(engine, bugs.to_vec()), Compare::None);
        let bca =
            |fidelity, bugs: &[BcaBug]| (ViewSpec::Bca(fidelity, bugs.to_vec()), Compare::Cycle);
        let tlm = (ViewSpec::Tlm(Vec::new()), Compare::Both);
        vec![
            vec![rtl(SimBackend::Event, &[]), bca(Fidelity::Exact, &[])],
            vec![
                rtl(SimBackend::Compiled, &[]),
                bca(Fidelity::Relaxed, &[]),
                tlm,
            ],
            vec![
                rtl(SimBackend::Compiled, &[RtlBug::DroppedGrantHold]),
                bca(Fidelity::Exact, &[BcaBug::DroppedByteEnables]),
            ],
        ]
    }

    #[test]
    fn a_reused_view_runs_like_a_freshly_elaborated_one() {
        let config = NodeConfig::reference();
        for views in view_sets() {
            let first = cell(&config, 1, &views);
            let second = cell(&config, 2, &views);
            let after = on_fresh_thread(vec![first.clone(), second.clone(), first.clone()]);
            let fresh = on_fresh_thread(vec![second]);
            assert!(after[0].2.iter().all(|r| !r), "nothing to reuse yet");
            assert!(after[1].2.iter().all(|r| *r), "same config and views");
            assert_eq!(after[1].0, fresh[0].0, "{views:?}: outcome");
            assert_eq!(after[1].1, fresh[0].1, "{views:?}: metrics");
            let again = on_fresh_thread(vec![first]);
            assert_eq!(after[2].0, again[0].0, "{views:?}: outcome, rerun");
            assert_eq!(after[2].1, again[0].1, "{views:?}: metrics, rerun");
        }
    }

    #[test]
    fn an_unmetered_cell_leaves_the_last_registry_alone() {
        let config = NodeConfig::reference();
        for views in view_sets() {
            let metered = cell(&config, 1, &views);
            let unmetered = CellSpec {
                attach_metrics: false,
                ..cell(&config, 2, &views)
            };
            // Only the TLM view keeps a registry the rewind cannot detach.
            let reusable: Vec<bool> = views
                .iter()
                .map(|(view, _)| !matches!(view, ViewSpec::Tlm(_)))
                .collect();
            let (outcome, fresh) = std::thread::spawn(move || {
                let tel = Telemetry::builder().build();
                run_cell(&metered, &tel);
                let published = tel.metrics().snapshot();
                let outcome = run_observed(&unmetered);
                assert_eq!(tel.metrics().snapshot(), published, "{views:?}");
                (outcome, on_fresh_thread(vec![unmetered]))
            })
            .join()
            .expect("cells run");
            assert_eq!((&outcome.0, &outcome.1), (&fresh[0].0, &fresh[0].1));
            assert_eq!(outcome.2, reusable);
        }
    }

    #[test]
    fn another_config_or_view_is_elaborated_afresh() {
        let reference = NodeConfig::reference();
        let other = NodeConfig {
            name: "other".to_owned(),
            ..NodeConfig::reference()
        };
        let clean = view_sets().remove(0);
        let mut buggy_rtl = clean.clone();
        buggy_rtl[0].0 = ViewSpec::Rtl(SimBackend::Event, vec![RtlBug::DroppedGrantHold]);
        let mut compiled = clean.clone();
        compiled[0].0 = ViewSpec::Rtl(SimBackend::Compiled, Vec::new());
        let mut relaxed = clean.clone();
        relaxed[1].0 = ViewSpec::Bca(Fidelity::Relaxed, Vec::new());
        let ran = on_fresh_thread(vec![
            cell(&reference, 1, &clean),
            cell(&other, 1, &clean),
            cell(&other, 1, &buggy_rtl),
            cell(&other, 1, &compiled),
            cell(&other, 1, &relaxed),
            cell(&other, 1, &relaxed),
        ]);
        let reused: Vec<&[bool]> = ran.iter().map(|r| r.2.as_slice()).collect();
        assert_eq!(
            reused,
            [
                &[false, false][..],
                &[false, false],
                &[false, true],
                &[false, true],
                &[false, false],
                &[true, true],
            ]
        );
        // The bug-injected view was not handed a clean node.
        let fresh = on_fresh_thread(vec![cell(&other, 1, &buggy_rtl)]);
        assert_eq!(ran[2].0, fresh[0].0);
    }

    #[test]
    fn port_figures_fold_like_the_paper() {
        let figures = |f: &[(&str, u64, u64)]| -> PortFigures {
            f.iter().map(|(p, m, t)| (p.to_string(), *m, *t)).collect()
        };
        assert_eq!(min_rate(&[]), None);
        assert_eq!(min_rate(&figures(&[("p0", 0, 0)])), Some(1.0));
        assert_eq!(
            min_rate(&figures(&[("p0", 3, 4), ("p1", 1, 1)])),
            Some(0.75)
        );
        let a = figures(&[("p1", 1, 2), ("p0", 3, 4)]);
        let b = figures(&[("p0", 1, 1)]);
        assert_eq!(sum_ports([&a, &b]), figures(&[("p0", 4, 5), ("p1", 1, 2)]));
    }
}
