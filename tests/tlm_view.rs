//! The TLM functional view (the paper's future-work extension) through
//! the same common environment: functionally clean, bus-inaccurate —
//! demonstrating why the flow has separate functional and bus-accurate
//! phases.

use catg::{tests_lib, Testbench, TestbenchOptions};
use stbus_protocol::NodeConfig;
use stbus_rtl::RtlNode;
use stbus_tlm::TlmNode;

#[test]
fn tlm_view_passes_the_functional_suite() {
    let cfg = NodeConfig::reference();
    let bench = Testbench::new(cfg.clone(), TestbenchOptions::default());
    let mut tlm = TlmNode::new(cfg.clone());
    for spec in tests_lib::all(15) {
        let result = bench.run(&mut tlm, &spec, 6);
        assert!(
            result.passed(),
            "TLM failed {}: {:?} {:?} {:?}",
            spec.name,
            result.checker.violations,
            result.scoreboard_errors,
            result.anomalies
        );
    }
}

#[test]
fn tlm_view_reaches_the_same_functional_coverage() {
    let cfg = NodeConfig::reference();
    let bench = Testbench::new(cfg.clone(), TestbenchOptions::default());
    let mut tlm = TlmNode::new(cfg.clone());
    let mut coverage: Option<catg::CoverageReport> = None;
    for spec in tests_lib::all(30) {
        for seed in [1u64, 2, 3] {
            let result = bench.run(&mut tlm, &spec, seed);
            assert!(result.passed(), "{}", spec.name);
            match &mut coverage {
                Some(c) => c.merge(&result.coverage),
                None => coverage = Some(result.coverage.clone()),
            }
        }
    }
    let coverage = coverage.expect("ran");
    // The untimed view can never stall a request, so the wait-time bins
    // are unreachable by construction; every *behavioral* group must be
    // full.
    for group in &coverage.groups {
        if group.name == "stall" {
            assert!(group.bins["zero"] > 0, "zero-wait grants observed");
            continue;
        }
        assert_eq!(
            group.coverage(),
            1.0,
            "group {} has holes on the TLM view: {:?}",
            group.name,
            group.holes().collect::<Vec<_>>()
        );
    }
}

#[test]
fn tlm_view_is_not_bus_accurate() {
    // The same run that aligns ≥99% for the BCA view stays far below the
    // sign-off threshold for the untimed TLM view — TLM belongs in the
    // functional phase, not the bus-accurate one.
    let cfg = NodeConfig::reference();
    let bench = Testbench::new(
        cfg.clone(),
        TestbenchOptions {
            capture_vcd: true,
            ..TestbenchOptions::default()
        },
    );
    let mut rtl = RtlNode::new(cfg.clone());
    let mut tlm = TlmNode::new(cfg.clone());
    let spec = tests_lib::lru_fairness(25);
    let a = bench.run(&mut rtl, &spec, 1);
    let b = bench.run(&mut tlm, &spec, 1);
    assert!(a.passed() && b.passed());
    let report = stba::compare_vcd(
        a.vcd.as_ref().expect("captured"),
        b.vcd.as_ref().expect("captured"),
        catg::vcd_cycle_time(),
    )
    .expect("same tree");
    assert!(
        !report.signed_off(stba::SIGNOFF_RATE),
        "an untimed model must not pass bus-accurate sign-off: {report}"
    );
}

#[test]
fn tlm_completes_faster_than_cycle_accurate_views() {
    // No arbitration stalls: the TLM run drains in fewer cycles under
    // contention.
    let cfg = NodeConfig::reference();
    let bench = Testbench::new(cfg.clone(), TestbenchOptions::default());
    let spec = tests_lib::latency_stress(30);
    let mut rtl = RtlNode::new(cfg.clone());
    let mut tlm = TlmNode::new(cfg.clone());
    let a = bench.run(&mut rtl, &spec, 2);
    let b = bench.run(&mut tlm, &spec, 2);
    assert!(a.passed() && b.passed());
    assert!(
        b.cycles <= a.cycles,
        "TLM ({}) should not be slower than RTL ({}) in simulated cycles",
        b.cycles,
        a.cycles
    );
}
