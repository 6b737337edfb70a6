//! Experiment E13 — the future-work TLM phase as a first-class view
//! (paper conclusion: "Future including of SystemC Verification in
//! verification flow will be a great opportunity to add TLM …
//! development and verification phase in the flow").
//!
//! Runs the full 12-test library through the regression runner with
//! `--views rtl,bca,tlm`: the same environment drives all three
//! abstraction levels of the node, signs the untimed model off
//! *functionally* (checkers, scoreboard, behavioral coverage with the
//! stall group exempt), and compares it against RTL twice — the
//! cycle-accurate STBA comparison correctly rejects it while the
//! transaction-order comparison passes it at 100%.
//!
//! ```text
//! cargo run -p stbus-bench --release --bin exp_three_views [intensity]
//! ```

use regression::{run_regression, RegressionOptions, SIGNOFF_RATE};
use stbus_protocol::{NodeConfig, ViewKind};

fn main() {
    let intensity: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    let configs = vec![NodeConfig::reference()];
    let tests = catg::tests_lib::all(intensity);
    let options = RegressionOptions {
        seeds: vec![1, 2],
        intensity,
        views: vec![ViewKind::Rtl, ViewKind::Bca, ViewKind::Tlm],
        ..RegressionOptions::default()
    };

    println!("=== E13: three views of one node through one environment ===\n");
    let report = run_regression(&configs, &tests, &options);

    for outcome in &report.configs {
        let runs = outcome.runs.len();
        let pct = |r: Option<f64>| {
            r.map(|v| format!("{:.3}%", v * 100.0))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "configuration: {} ({} tests x 2 seeds)\n",
            outcome.config.name,
            runs / 2
        );
        println!(
            "{:<16} {:>10} {:>8} {:>12} {:>12}",
            "view", "runs pass", "fcov%", "cyc vs RTL", "tx vs RTL"
        );
        println!(
            "{:<16} {:>10} {:>8.1} {:>12} {:>12}",
            "RTL (golden)",
            format!(
                "{}/{}",
                outcome.runs.iter().filter(|r| r.rtl.passed()).count(),
                runs
            ),
            outcome
                .coverage_rtl
                .as_ref()
                .map_or(0.0, |c| c.coverage() * 100.0),
            "-",
            "-"
        );
        println!(
            "{:<16} {:>10} {:>8.1} {:>12} {:>12}",
            "BCA (relaxed)",
            format!(
                "{}/{}",
                outcome.runs.iter().filter(|r| r.bca.passed()).count(),
                runs
            ),
            outcome
                .coverage_bca
                .as_ref()
                .map_or(0.0, |c| c.coverage() * 100.0),
            pct(outcome.min_alignment()),
            "-"
        );
        let tlm_pass = outcome
            .runs
            .iter()
            .filter(|r| r.tlm.as_ref().is_some_and(|t| t.passed()))
            .count();
        println!(
            "{:<16} {:>10} {:>8.1} {:>12} {:>12}",
            "TLM (untimed)",
            format!("{tlm_pass}/{runs}"),
            outcome
                .coverage_tlm
                .as_ref()
                .map_or(0.0, |c| c.coverage() * 100.0),
            pct(outcome.min_tlm_alignment()),
            pct(outcome.min_tlm_tx_alignment()),
        );
        println!();
        let cycle_rejected = outcome
            .min_tlm_alignment()
            .is_some_and(|a| a < SIGNOFF_RATE);
        let tx_signed = outcome
            .min_tlm_tx_alignment()
            .is_some_and(|a| a >= SIGNOFF_RATE);
        println!(
            "  BCA sign-off (functional + >=99% cycle alignment): {}",
            if outcome.signed_off() { "YES" } else { "no" }
        );
        println!(
            "  TLM functional sign-off (tx-order >=99%, stall group exempt): {}",
            if outcome.tlm_signed_off() {
                "YES"
            } else {
                "no"
            }
        );
        println!(
            "  cycle-accurate comparison rejects the untimed view: {}",
            if cycle_rejected { "YES" } else { "no" }
        );
        println!(
            "  transaction-order comparison accepts it: {}\n",
            if tx_signed { "YES" } else { "no" }
        );
        assert!(
            outcome.tlm_all_passed(),
            "TLM must pass every functional gate"
        );
        assert!(cycle_rejected, "an untimed model must fail cycle sign-off");
        assert!(tx_signed, "clean TLM must match RTL's transaction order");
    }
    println!("paper claim, extended: one reusable environment spans TLM, BCA and RTL;");
    println!("the sign-off metric is chosen per abstraction level — transaction order");
    println!("for the untimed view, per-cycle bus accuracy for the timed ones.");
}
