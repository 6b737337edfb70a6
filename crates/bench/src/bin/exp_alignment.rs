//! Experiment E4 — the bus-accurate comparison and the 99% sign-off
//! target (paper §4).
//!
//! Runs the suite on RTL vs BCA at both fidelities and prints the
//! per-port alignment table. `Exact` fidelity aligns 100%; `Relaxed`
//! (the realistic model) diverges only where the functional spec is
//! silent — the Type 3 response-arbitration tie-break — and must stay
//! at or above 99%.
//!
//! ```text
//! cargo run -p stbus-bench --release --bin exp_alignment [intensity]
//! ```

use catg::cell::{port_rate, sum_ports};
use catg::tests_lib;
use regression::{run_regression, RegressionOptions, SIGNOFF_RATE};
use stbus_bca::Fidelity;
use stbus_protocol::NodeConfig;

fn main() {
    let intensity: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    let configs = [NodeConfig::reference()];
    let tests = tests_lib::all(intensity);

    println!("=== E4: per-port RTL/BCA alignment (paper section 4) ===\n");
    let tel = telemetry::Telemetry::to_stderr(telemetry::Level::Info);
    for fidelity in [Fidelity::Exact, Fidelity::Relaxed] {
        tel.info(
            "exp.alignment",
            "comparing suite at fidelity",
            [
                ("fidelity", telemetry::Json::from(format!("{fidelity:?}"))),
                ("intensity", telemetry::Json::from(intensity)),
            ],
        );
        let options = RegressionOptions {
            seeds: vec![1, 2],
            fidelity,
            ..RegressionOptions::default()
        };
        let report = run_regression(&configs, &tests, &options);
        let outcome = &report.configs[0];
        assert!(outcome.all_passed(), "both views must pass every test");
        let compared: Vec<_> = outcome.runs.iter().flat_map(|r| &r.alignment).collect();
        // A port-run diverges when any of its cycles mismatched.
        let diverging = compared
            .iter()
            .flat_map(|ports| ports.iter())
            .filter(|(_, m, t)| m < t)
            .count();
        println!("BCA fidelity: {fidelity:?}");
        println!("  port     aligned cycles  total cycles   rate");
        for (port, m, t) in sum_ports(compared) {
            let rate = port_rate(m, t) * 100.0;
            println!("  {port:<8} {m:>13} {t:>13}  {rate:>8.3}%");
        }
        let min_rate = outcome.min_alignment().expect("every run compared");
        println!(
            "  min rate {:.3}%  diverging port-runs {}  sign-off(>=99%): {}\n",
            min_rate * 100.0,
            diverging,
            if min_rate >= SIGNOFF_RATE {
                "YES"
            } else {
                "NO"
            }
        );
    }
    println!("paper claim: full functional coverage does not guarantee bit-exactness;");
    println!("the alignment rate is the second quality metric, targeted at 99%.");
}
