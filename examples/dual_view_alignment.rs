//! The paper's headline flow: one environment, two design views, and a
//! bus-accurate comparison of their waveforms.
//!
//! ```text
//! cargo run --example dual_view_alignment
//! ```
//!
//! Runs the same tests with the same seeds on the RTL and BCA views,
//! dumps both VCDs, and calls the STBA analyzer to compute the per-port
//! alignment rate (sign-off target: ≥ 99% at every port).

use catg::{tests_lib, Testbench, TestbenchOptions};
use stbus_bca::{BcaNode, Fidelity};
use stbus_protocol::NodeConfig;
use stbus_rtl::RtlNode;

fn main() {
    let config = NodeConfig::reference();
    let bench = Testbench::new(
        config.clone(),
        TestbenchOptions {
            capture_vcd: true,
            ..TestbenchOptions::default()
        },
    );
    let mut rtl = RtlNode::new(config.clone());
    let mut bca = BcaNode::new(config.clone(), Fidelity::Relaxed);

    println!("running the twelve-test suite on both views (same seeds)...\n");
    let mut worst: Option<f64> = None;
    for spec in tests_lib::all(25) {
        for seed in [1u64, 2] {
            let rtl_result = bench.run(&mut rtl, &spec, seed);
            let bca_result = bench.run(&mut bca, &spec, seed);
            assert!(rtl_result.passed(), "RTL failed {}", spec.name);
            assert!(bca_result.passed(), "BCA failed {}", spec.name);

            // Figure 4: compare the waveforms once both runs passed.
            let report = stba::compare_vcd(
                rtl_result.vcd.as_ref().expect("captured"),
                bca_result.vcd.as_ref().expect("captured"),
                catg::vcd_cycle_time(),
            )
            .expect("same variable tree");
            println!(
                "{:<22} seed {}  min alignment {:7.3}%  ({} cycles)",
                spec.name,
                seed,
                report.min_rate() * 100.0,
                report.cycles
            );
            worst = Some(worst.map_or(report.min_rate(), |w| w.min(report.min_rate())));
        }
    }
    let worst = worst.expect("ran");
    println!(
        "\nworst per-port alignment across the campaign: {:.3}%",
        worst * 100.0
    );
    println!(
        "sign-off (>=99%): {}",
        if worst >= stba::SIGNOFF_RATE {
            "YES — BCA model can ship"
        } else {
            "NO"
        }
    );
}
