//! A cell's later BCA view is replayed against its first view's port log
//! and takes the first view's verdict when every output matches
//! (DESIGN §28). Whichever way each view ran, `run_cell` must give what
//! independent `Testbench::run`s on freshly elaborated views give: the
//! same `RunResult`s and the same alignment figures. The `replayed` field
//! of each `tb.run` span says which way a view ran.

use catg::cell::{run_cell, CellSpec, Compare, PortFigures};
use catg::PORT_LOG_CYCLES;
use catg::{tests_lib, RunResult, SimBackend, TestSpec, Testbench, TestbenchOptions, ViewSpec};
use stba::{compare_trace_transactions, compare_traces, AlignmentReport};
use stbus_bca::{BcaBug, Fidelity};
use stbus_protocol::{ArbitrationKind, Architecture, NodeConfig, ProtocolType};
use telemetry::{Json, MemorySink, Telemetry};

fn rtl() -> (ViewSpec, Compare) {
    (ViewSpec::Rtl(SimBackend::Event, Vec::new()), Compare::None)
}

fn bca(fidelity: Fidelity, bugs: &[BcaBug]) -> (ViewSpec, Compare) {
    (ViewSpec::Bca(fidelity, bugs.to_vec()), Compare::Cycle)
}

/// The sweep's `cfg02`: a Type 3 shared bus on which the relaxed BCA view
/// answers error responses on other cycles than the RTL view.
fn cfg02() -> NodeConfig {
    NodeConfig::builder("cfg02")
        .initiators(3)
        .targets(2)
        .bus_bytes(8)
        .protocol(ProtocolType::Type3)
        .architecture(Architecture::SharedBus)
        .arbitration(ArbitrationKind::FixedPriority)
        .build()
        .expect("valid")
}

/// A named cell and whether its BCA view is expected to replay.
struct Case {
    name: &'static str,
    cell: CellSpec,
    bca_replays: bool,
}

fn case(
    name: &'static str,
    config: NodeConfig,
    test: TestSpec,
    views: Vec<(ViewSpec, Compare)>,
    bca_replays: bool,
) -> Case {
    Case {
        name,
        cell: CellSpec::new(config, test, 1, views),
        bca_replays,
    }
}

fn cases() -> Vec<Case> {
    let reference = NodeConfig::reference();
    let tlm = (ViewSpec::Tlm(Vec::new()), Compare::Both);
    vec![
        case(
            "exact",
            reference.clone(),
            tests_lib::random_mixed(8),
            vec![rtl(), bca(Fidelity::Exact, &[])],
            true,
        ),
        case(
            "relaxed",
            reference.clone(),
            tests_lib::basic_read_write(8),
            vec![rtl(), bca(Fidelity::Relaxed, &[])],
            true,
        ),
        case(
            "cfg02 relaxed",
            cfg02(),
            tests_lib::error_responses(10),
            vec![rtl(), bca(Fidelity::Relaxed, &[])],
            false,
        ),
        case(
            "programming port",
            tests_lib::qualification::prog_hunt(),
            tests_lib::priority_prog(25),
            vec![rtl(), bca(Fidelity::Exact, &[])],
            true,
        ),
        case(
            "three views",
            reference.clone(),
            tests_lib::random_mixed(8),
            vec![rtl(), bca(Fidelity::Exact, &[]), tlm],
            true,
        ),
        case(
            "injected bug",
            reference.clone(),
            tests_lib::random_mixed(8),
            vec![rtl(), bca(Fidelity::Exact, &[BcaBug::DroppedByteEnables])],
            false,
        ),
        case(
            "longer than the log",
            reference,
            tests_lib::random_mixed(1000),
            vec![rtl(), bca(Fidelity::Exact, &[])],
            false,
        ),
    ]
}

/// A comparison's per-port figures, as `run_cell` reports them.
fn figures(report: AlignmentReport) -> PortFigures {
    let ports = report.ports.into_iter();
    ports
        .map(|p| (p.port, p.matching_cycles, p.total_cycles))
        .collect()
}

/// Every view of `cell` run on its own freshly elaborated model, and the
/// cycle and transaction-order figures of each view against the first.
fn independently(cell: &CellSpec) -> Vec<(RunResult, Option<PortFigures>, Option<PortFigures>)> {
    let bench = Testbench::new(
        cell.config.clone(),
        TestbenchOptions {
            capture_trace: true,
            ..TestbenchOptions::default()
        },
    );
    let results: Vec<RunResult> = cell
        .views
        .iter()
        .map(|(view, _)| bench.run(view.build(&cell.config).as_mut(), &cell.test, cell.seed))
        .collect();
    let first = &results[0];
    results
        .iter()
        .zip(&cell.views)
        .map(|(run, (_, compare))| {
            let both_passed = first.passed() && run.passed();
            let (a, b) = (first.trace.as_ref().unwrap(), run.trace.as_ref().unwrap());
            let wanted = |c: Compare| *compare == Compare::Both || *compare == c;
            let compared = *compare != Compare::None && both_passed;
            let cycle = (compared && wanted(Compare::Cycle))
                .then(|| figures(compare_traces(a, b).unwrap()));
            let transactions = (compared && wanted(Compare::Transactions))
                .then(|| figures(compare_trace_transactions(a, b).unwrap()));
            (run.clone(), cycle, transactions)
        })
        .collect()
}

/// Runs `cell` through `run_cell`; returns the outcome's per-view result
/// and figures, and per view the `replayed` field of its `tb.run` span.
type Ran = (
    Vec<(RunResult, Option<PortFigures>, Option<PortFigures>)>,
    Vec<(String, bool)>,
);

fn through_run_cell(cell: &CellSpec) -> Ran {
    let (sink, handle) = MemorySink::new();
    let tel = Telemetry::builder().with_sink(Box::new(sink)).build();
    let outcome = run_cell(cell, &tel);
    tel.flush();
    let spans = handle
        .events()
        .iter()
        .filter(|e| e.scope == "tb.run.end")
        .map(|e| {
            let view = e.field("view").and_then(Json::as_str).expect("view");
            let replayed = e.field("replayed").and_then(Json::as_bool);
            (view.to_owned(), replayed.expect("replayed"))
        })
        .collect();
    let runs = outcome
        .runs
        .into_iter()
        .map(|run| (run.result, run.cycle, run.transactions))
        .collect();
    (runs, spans)
}

#[test]
fn a_replayed_or_fallen_back_cell_equals_independent_runs() {
    let mut bca_replays = Vec::new();
    for Case {
        name,
        cell,
        bca_replays: expected,
    } in cases()
    {
        let (runs, spans) = through_run_cell(&cell);
        let alone = independently(&cell);
        assert_eq!(runs.len(), alone.len(), "{name}");
        if name == "longer than the log" {
            // Past the cap the BCA view runs in full, and still aligns.
            assert!(runs[0].0.cycles > PORT_LOG_CYCLES, "{}", runs[0].0.cycles);
            let figures = runs[1].1.as_ref().expect("compared");
            assert!(figures.iter().all(|(_, m, t)| m == t));
        }
        if name == "programming port" {
            assert!(!cell.test.prog_schedule.is_empty() && cell.config.prog_port);
        }
        for ((ran, want), (view, _)) in runs.iter().zip(&alone).zip(&cell.views) {
            let kind = view.kind();
            assert_eq!(ran.0.view, kind, "{name}");
            assert_eq!(
                format!("{:?}", ran.0),
                format!("{:?}", want.0),
                "{name}: {kind}"
            );
            assert_eq!(ran.1, want.1, "{name}: {kind} cycle figures");
            assert_eq!(ran.2, want.2, "{name}: {kind} transaction figures");
        }
        // One span per view; only the BCA view ever replays.
        let views: Vec<String> = cell
            .views
            .iter()
            .map(|(v, _)| v.kind().to_string())
            .collect();
        assert_eq!(
            spans.iter().map(|(v, _)| v.clone()).collect::<Vec<_>>(),
            views,
            "{name}"
        );
        for (view, replayed) in &spans {
            if view == "BCA" {
                assert_eq!(*replayed, expected, "{name}: BCA replayed");
                bca_replays.push(*replayed);
            } else {
                assert!(!replayed, "{name}: {view} never replays");
            }
        }
    }
    assert!(bca_replays.contains(&true) && bca_replays.contains(&false));
}

/// A replayed BCA run feeds the same `tb.*` counters as a simulated one.
#[test]
fn a_replayed_run_publishes_the_counters_of_a_simulated_one() {
    let cell = cases().remove(0).cell;
    let replayed = Telemetry::builder().build();
    run_cell(&cell, &replayed);
    let simulated = Telemetry::builder().build();
    let bench = Testbench::new(
        cell.config.clone(),
        TestbenchOptions {
            capture_trace: true,
            telemetry: simulated.clone(),
            ..TestbenchOptions::default()
        },
    );
    for (view, _) in &cell.views {
        bench.run(view.build(&cell.config).as_mut(), &cell.test, cell.seed);
    }
    let tb = |tel: &Telemetry| -> Vec<(String, u64)> {
        let counters = tel.metrics().snapshot().counters;
        counters
            .into_iter()
            .filter(|(name, _)| name.starts_with("tb."))
            .collect()
    };
    assert_eq!(tb(&replayed), tb(&simulated));
    assert!(tb(&replayed).contains(&("tb.runs".to_owned(), 2)));
}
