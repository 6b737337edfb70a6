//! Work-count pins for the event kernel, the default engine and the
//! reference oracle. A fixed small campaign must do exactly the recorded
//! amount of kernel work — delta cycles, process activations, settles,
//! signal commits and the deltas-per-settle distribution — reach exactly
//! the recorded structural coverage in every cell, and render exactly the
//! recorded stripped manifest. Hot-path changes to the scheduler or the
//! RTL node must leave all of these untouched; a change here is a change
//! of kernel semantics, not of speed.
//!
//! The last test widens the per-cell pins to the whole 40-configuration
//! standard matrix (one seed, intensity 10): every RTL run's `kernel.*`
//! counters, its deltas-per-settle histogram, a digest of its activity
//! coverage and the digest of its typed port trace, compared with
//! `fixtures/event_kernel_pins.txt`. Re-record that fixture (run with
//! `STBUS_BLESS_KERNEL_PINS=1`) only for an intended change of kernel
//! semantics, and only from the commit before that change.

use catg::{TestSpec, Testbench, TestbenchOptions};
use sim_kernel::ActivityCoverage;
use stbus_protocol::{DutView, NodeConfig};
use stbus_regression::{run_regression, standard_configs, RegressionOptions, RegressionReport};
use stbus_rtl::RtlNode;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Indices into the standard matrix: a 2×2 fixed-priority shared bus, a
/// 4×3 variable-priority full crossbar with the programming port, and
/// the pipelined node.
const CONFIGS: [usize; 3] = [0, 11, 39];
const SEED: u64 = 1;

fn configs() -> Vec<NodeConfig> {
    let all = standard_configs();
    CONFIGS.iter().map(|&i| all[i].clone()).collect()
}

fn tests() -> Vec<TestSpec> {
    vec![
        catg::tests_lib::basic_read_write(10),
        catg::tests_lib::random_mixed(10),
        catg::tests_lib::priority_prog(10),
    ]
}

fn campaign() -> RegressionReport {
    let options = RegressionOptions {
        seeds: vec![SEED],
        jobs: 1,
        ..RegressionOptions::default()
    };
    run_regression(&configs(), &tests(), &options)
}

/// 64-bit FNV-1a, the digest the cell store keys with.
fn digest(text: &str) -> u64 {
    cache::fnv64(text.as_bytes())
}

fn render_coverage(cov: &ActivityCoverage) -> String {
    let mut out = String::new();
    for p in &cov.processes {
        out.push_str(&format!("process {} {}\n", p.name, p.runs));
    }
    for b in &cov.branches {
        out.push_str(&format!("branch {} {}\n", b.name, b.hits));
    }
    out
}

#[test]
fn campaign_kernel_work_and_manifest_match_the_pins() {
    let report = campaign();
    assert_eq!(report.engine, sim_kernel::SimBackend::Event);

    let counters: Vec<(&str, u64)> = report
        .metrics
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("kernel."))
        .map(|(name, v)| (name.as_str(), *v))
        .collect();
    assert_eq!(
        counters,
        [
            ("kernel.delta_cycles", 1661),
            ("kernel.process_activations", 1661),
            ("kernel.settle_calls", 2819),
            ("kernel.signal_commits", 9389),
            ("kernel.time_steps", 0),
            ("kernel.timed_events", 0),
        ]
    );

    let hist = &report.metrics.histograms["kernel.deltas_per_settle"];
    assert_eq!(
        (hist.count, hist.sum, hist.max),
        (2819, 1661, 2),
        "deltas_per_settle count/sum/max"
    );
    assert_eq!(hist.bounds, [1, 2, 4, 8, 16, 32, 64, 128]);
    assert_eq!(
        hist.buckets,
        [2257, 562, 0, 0, 0, 0, 0, 0, 0],
        "deltas_per_settle buckets"
    );

    let manifest = report.manifest_json().render_pretty();
    assert_eq!(
        digest(&manifest),
        5622645863122944092,
        "stripped manifest digest"
    );
}

#[test]
fn every_cell_reaches_the_pinned_activity_coverage() {
    // (config index, test, node_comb runs, node_seq runs, coverage digest)
    let pins = [
        (0, "basic_read_write", 150, 75, 10568704687945359318),
        (0, "random_mixed", 176, 91, 16076505315952227625),
        (0, "priority_prog", 126, 62, 16245414473088355529),
        (11, "basic_read_write", 160, 83, 3856027181589024673),
        (11, "random_mixed", 111, 55, 15387691176753249840),
        (11, "priority_prog", 58, 28, 17236234861935085945),
        (39, "basic_read_write", 146, 77, 15520430126268419826),
        (39, "random_mixed", 114, 58, 2033617269477876865),
        (39, "priority_prog", 67, 33, 6388692015676647004),
    ];
    let mut got = Vec::new();
    for (c, config) in CONFIGS.iter().zip(configs()) {
        let bench = Testbench::new(config.clone(), TestbenchOptions::default());
        for spec in tests() {
            let mut rtl = RtlNode::new(config.clone());
            bench.run(&mut rtl, &spec, SEED);
            let cov = rtl.activity_coverage();
            let runs = |name: &str| {
                cov.processes
                    .iter()
                    .find(|p| p.name == name)
                    .map_or(0, |p| p.runs)
            };
            got.push((
                *c,
                spec.name.clone(),
                runs("node_comb"),
                runs("node_seq"),
                digest(&render_coverage(&cov)),
            ));
        }
    }
    let got: Vec<(usize, &str, u64, u64, u64)> = got
        .iter()
        .map(|(c, t, comb, seq, d)| (*c, t.as_str(), *comb, *seq, *d))
        .collect();
    assert_eq!(got, pins);
}

/// One fixture line per RTL run of the standard matrix: the run's kernel
/// work counters, its deltas-per-settle histogram, and digests of its
/// activity coverage and typed port trace.
fn full_matrix_observed() -> String {
    const INTENSITY: usize = 10;
    let mut out = String::new();
    for config in standard_configs() {
        let bench = Testbench::new(
            config.clone(),
            TestbenchOptions {
                capture_trace: true,
                ..TestbenchOptions::default()
            },
        );
        for spec in catg::tests_lib::all(INTENSITY) {
            let registry = telemetry::MetricsRegistry::new();
            let mut rtl = RtlNode::new(config.clone());
            rtl.attach_metrics(&registry);
            let result = bench.run(&mut rtl, &spec, SEED);
            let snap = registry.snapshot();
            let _ = write!(out, "{} {} {SEED}", config.name, spec.name);
            for (name, v) in snap
                .counters
                .iter()
                .filter(|(n, _)| n.starts_with("kernel."))
            {
                let _ = write!(out, " {}={v}", &name["kernel.".len()..]);
            }
            let hist = &snap.histograms["kernel.deltas_per_settle"];
            let _ = write!(
                out,
                " dps={}/{}/{}/{:?}",
                hist.count, hist.sum, hist.max, hist.buckets
            );
            let trace = result.trace.as_ref().expect("trace captured");
            let _ = writeln!(
                out,
                " cov={:016x} trace={:016x}",
                digest(&render_coverage(&rtl.activity_coverage())),
                trace.digest()
            );
        }
    }
    out
}

#[test]
fn every_cell_of_the_standard_matrix_matches_the_kernel_fixture() {
    let got = full_matrix_observed();
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/event_kernel_pins.txt");
    if std::env::var_os("STBUS_BLESS_KERNEL_PINS").is_some() {
        std::fs::write(&path, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("read fixture");
    assert_eq!(got.lines().count(), 480, "40 configs x 12 tests");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "kernel work, coverage or trace changed");
    }
    assert_eq!(got, want);
}

#[test]
fn internal_kernel_traces_match_the_pins() {
    // Every committed change of every kernel signal, wires and registers,
    // as the node's internal-trace VCD of the `random_mixed` run.
    // (config index, digest of the VCD of every internal kernel signal)
    let pins = [
        (0, 11346672801604630808),
        (11, 17102222778963575520),
        (39, 8104581121602690979),
    ];
    let mut got = Vec::new();
    for (c, config) in CONFIGS.iter().zip(configs()) {
        let bench = Testbench::new(config.clone(), TestbenchOptions::default());
        let mut rtl = RtlNode::new(config);
        rtl.enable_internal_trace();
        bench.run(&mut rtl, &tests()[1], SEED);
        let vcd = rtl.internal_trace_vcd().expect("tracing enabled");
        got.push((*c, digest(&vcd)));
    }
    assert_eq!(got, pins);
}
