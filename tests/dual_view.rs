//! Cross-crate integration: the same tests and seeds run on both design
//! views, and the STBA analyzer measures how well the waveforms align —
//! the paper's central claim, end to end.

use catg::{tests_lib, Testbench, TestbenchOptions};
use stbus_bca::{BcaNode, Fidelity};
use stbus_protocol::{DutView, NodeConfig, ViewKind};
use stbus_rtl::RtlNode;

fn tb(cfg: &NodeConfig) -> Testbench {
    Testbench::new(
        cfg.clone(),
        TestbenchOptions {
            capture_vcd: true,
            ..TestbenchOptions::default()
        },
    )
}

#[test]
fn exact_bca_aligns_100_percent_with_rtl() {
    let cfg = NodeConfig::reference();
    let bench = tb(&cfg);
    for spec in [tests_lib::random_mixed(30), tests_lib::out_of_order(30)] {
        let mut rtl = RtlNode::new(cfg.clone());
        let mut bca = BcaNode::new(cfg.clone(), Fidelity::Exact);
        let ra = bench.run(&mut rtl, &spec, 11);
        let rb = bench.run(&mut bca, &spec, 11);
        assert!(
            ra.passed(),
            "RTL {}: {:?}",
            spec.name,
            ra.checker.violations
        );
        assert!(
            rb.passed(),
            "BCA {}: {:?}",
            spec.name,
            rb.checker.violations
        );
        let report = stba::compare_vcd(
            ra.vcd.as_ref().expect("captured"),
            rb.vcd.as_ref().expect("captured"),
            catg::vcd_cycle_time(),
        )
        .expect("same structure");
        assert_eq!(
            report.min_rate(),
            1.0,
            "{}: exact fidelity must align fully\n{report}",
            spec.name
        );
    }
}

#[test]
fn relaxed_bca_stays_above_sign_off_threshold() {
    let cfg = NodeConfig::reference();
    let bench = tb(&cfg);
    let spec = tests_lib::out_of_order(40);
    let mut rtl = RtlNode::new(cfg.clone());
    let mut bca = BcaNode::new(cfg.clone(), Fidelity::Relaxed);
    let ra = bench.run(&mut rtl, &spec, 5);
    let rb = bench.run(&mut bca, &spec, 5);
    assert!(ra.passed() && rb.passed());
    let report = stba::compare_vcd(
        ra.vcd.as_ref().unwrap(),
        rb.vcd.as_ref().unwrap(),
        catg::vcd_cycle_time(),
    )
    .unwrap();
    assert!(
        report.signed_off(stba::SIGNOFF_RATE),
        "alignment below the 99% sign-off target:\n{report}"
    );
}

#[test]
fn both_views_complete_identical_transaction_counts() {
    let cfg = NodeConfig::reference();
    let bench = Testbench::new(cfg.clone(), TestbenchOptions::default());
    for spec in tests_lib::all(15) {
        let mut rtl: Box<dyn DutView> = catg::build_view(&cfg, ViewKind::Rtl);
        let mut bca: Box<dyn DutView> = catg::build_view(&cfg, ViewKind::Bca);
        let ra = bench.run(rtl.as_mut(), &spec, 3);
        let rb = bench.run(bca.as_mut(), &spec, 3);
        assert!(
            ra.passed(),
            "RTL {}: {:?} {:?}",
            spec.name,
            ra.checker.violations,
            ra.scoreboard_errors
        );
        assert!(
            rb.passed(),
            "BCA {}: {:?} {:?}",
            spec.name,
            rb.checker.violations,
            rb.scoreboard_errors
        );
        assert_eq!(ra.transactions, rb.transactions, "{}", spec.name);
    }
}
