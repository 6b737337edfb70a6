//! Work-count pins for the event kernel, the default engine and the
//! reference oracle. A fixed small campaign must do exactly the recorded
//! amount of kernel work — delta cycles, process activations, settles,
//! signal commits and the deltas-per-settle distribution — reach exactly
//! the recorded structural coverage in every cell, and render exactly the
//! recorded stripped manifest. Hot-path changes to the scheduler or the
//! RTL node must leave all of these untouched; a change here is a change
//! of kernel semantics, not of speed.

use catg::{TestSpec, Testbench, TestbenchOptions};
use sim_kernel::ActivityCoverage;
use stbus_protocol::NodeConfig;
use stbus_regression::{run_regression, standard_configs, RegressionOptions, RegressionReport};
use stbus_rtl::RtlNode;

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
    let mut report = run_regression(&configs(), &tests(), &options);
    report.strip_timings();
    report
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
