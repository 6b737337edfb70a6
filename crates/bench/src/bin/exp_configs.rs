//! Experiment E1 — "More than 36 configurations of the Node have been
//! tested" (paper §5).
//!
//! Runs the full twelve-test suite with common seeds on both design views
//! for every configuration of the standard sweep, and prints the per-
//! configuration table: pass counts, merged functional coverage and the
//! minimum per-port alignment rate.
//!
//! ```text
//! cargo run -p stbus-bench --release --bin exp_configs [intensity] [seeds]
//! ```

use regression::{run_regression, standard_configs, RegressionOptions};
use stbus_bca::Fidelity;
use telemetry::{Json, Level, Telemetry};

fn main() {
    let mut args = std::env::args().skip(1);
    let intensity: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(30);
    let n_seeds: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2);

    let configs = standard_configs();
    let tests = catg::tests_lib::all(intensity);
    let options = RegressionOptions {
        seeds: (1..=n_seeds).collect(),
        intensity,
        ..RegressionOptions::default()
    };

    let tel = Telemetry::to_stderr(Level::Info);
    tel.info(
        "exp.configs",
        "E1 sweep starting on both views",
        [
            ("configs", Json::from(configs.len())),
            ("tests", Json::from(tests.len())),
            ("seeds", Json::from(n_seeds)),
            ("intensity", Json::from(intensity)),
        ],
    );
    let start = std::time::Instant::now();
    let report = run_regression(&configs, &tests, &options);
    tel.info(
        "exp.configs",
        "E1 sweep finished",
        [
            ("signed_off", Json::from(report.signed_off_count())),
            ("wall_us", Json::from(start.elapsed().as_micros() as u64)),
        ],
    );
    println!("=== E1: configuration sweep (paper section 5) ===\n");
    println!("{}", report.table());
    println!(
        "{} of {} configurations signed off   ({} runs total)",
        report.signed_off_count(),
        report.configs.len(),
        report
            .configs
            .iter()
            .map(|c| c.runs.len() * 2)
            .sum::<usize>(),
    );
    for c in &report.configs {
        if let Some(cov) = &c.coverage_rtl {
            if !cov.is_full() {
                println!(
                    "  {} coverage holes: {}",
                    c.config.name,
                    cov.holes()
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            }
        }
    }
    // Figure 4's feedback edge: configurations with a low alignment rate
    // go back to the model owner; the fixed model (exact fidelity here)
    // re-runs the comparison and signs off.
    let failing: Vec<_> = report
        .configs
        .iter()
        .filter(|c| !c.signed_off())
        .map(|c| c.config.clone())
        .collect();
    if !failing.is_empty() {
        println!();
        println!(
            "'Low alignment rate' feedback loop (Figure 4): {} configuration(s) go back",
            failing.len()
        );
        println!("to the BCA owner; after the model fix the comparison re-runs:");
        let fixed = run_regression(
            &failing,
            &tests,
            &RegressionOptions {
                fidelity: Fidelity::Exact,
                ..options.clone()
            },
        );
        for c in &fixed.configs {
            println!(
                "  {:<14} alignment {:>8}  signoff {}",
                c.config.name,
                c.min_alignment()
                    .map_or("n/a".into(), |a| format!("{:.3}%", a * 100.0)),
                if c.signed_off() { "YES" } else { "no" }
            );
        }
    }
    println!();
    println!("paper claim: >36 configurations tested, all reaching full functional");
    println!("coverage and >=99% alignment. Coverage equality across views held in");
    println!(
        "{}/{} configurations.",
        report
            .configs
            .iter()
            .filter(|c| c.coverage_matches_across_views())
            .count(),
        report.configs.len()
    );
}
