//! The per-configuration testbench state each thread keeps (declared
//! coverage bins, trace ports and their reserved lengths) must never
//! leak from one configuration into another. Configurations run in the
//! order A, B, A on one thread give exactly the coverage reports and
//! trace digests they give on fresh threads, where B differs from A only
//! in a field that changes the declared bins.

use catg::{build_view, tests_lib, CoverageReport, Testbench, TestbenchOptions};
use stbus_protocol::{NodeConfig, ProtocolType, ViewKind};

/// The coverage report and trace digest of one run per view.
fn run(config: &NodeConfig) -> Vec<(CoverageReport, u64)> {
    let bench = Testbench::new(
        config.clone(),
        TestbenchOptions {
            capture_trace: true,
            ..TestbenchOptions::default()
        },
    );
    let spec = tests_lib::random_mixed(6);
    [ViewKind::Rtl, ViewKind::Bca]
        .into_iter()
        .map(|kind| {
            let mut dut = build_view(config, kind);
            let result = bench.run(dut.as_mut(), &spec, 3);
            assert!(result.passed(), "{} on {kind}", config.name);
            let trace = result.trace.expect("trace captured");
            (result.coverage, trace.digest())
        })
        .collect()
}

fn on_fresh_thread(configs: Vec<NodeConfig>) -> Vec<Vec<(CoverageReport, u64)>> {
    std::thread::spawn(move || configs.iter().map(run).collect())
        .join()
        .expect("runs")
}

#[test]
fn a_b_a_on_one_thread_matches_fresh_threads() {
    let a = NodeConfig::reference();
    let variants = [
        NodeConfig {
            protocol: ProtocolType::Type2,
            ..a.clone()
        },
        NodeConfig {
            prog_port: !a.prog_port,
            ..a.clone()
        },
        NodeConfig {
            bus_bytes: a.bus_bytes * 2,
            ..a.clone()
        },
    ];
    let declared = |runs: &[(CoverageReport, u64)]| -> Vec<(String, String)> {
        let groups = &runs[0].0.groups;
        let bins = groups
            .iter()
            .flat_map(|g| g.bins.keys().map(|b| (g.name.clone(), b.clone())));
        bins.collect()
    };
    let fresh_a = on_fresh_thread(vec![a.clone()]).remove(0);
    for b in variants {
        let fresh_b = on_fresh_thread(vec![b.clone()]).remove(0);
        assert_ne!(
            declared(&fresh_a),
            declared(&fresh_b),
            "B declares other bins"
        );
        let aba = on_fresh_thread(vec![a.clone(), b.clone(), a.clone()]);
        assert_eq!(aba[0], fresh_a, "A first");
        assert_eq!(aba[1], fresh_b, "B after A");
        assert_eq!(aba[2], fresh_a, "A after B");
    }
}
