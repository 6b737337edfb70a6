//! Experiment E2 — "The verification environment permitted to find five
//! bugs on BCA models, not found using old environment of the past flow"
//! (paper §5).
//!
//! The common environment's column is the mutation-qualification
//! campaign's verdict on the five BCA catalogue entries (checkers,
//! scoreboard, STBA alignment and coverage, attributed by
//! [`mutation::Detector::attribute`]), the same rows `stbus-regress
//! --qualify` prints. The legacy column runs the old write-then-read flow
//! against each entry's mutated BCA view on the same configurations.
//!
//! ```text
//! cargo run -p stbus-bench --release --bin exp_bugs
//! ```

use catg::tests_lib::qualification::qualification_configs;
use catg::LegacyTestbench;
use mutation::{catalogue, run_qualification, CatalogueEntry, Mutation, QualifyOptions};

fn main() {
    let configs = qualification_configs();
    let tel = telemetry::Telemetry::to_stderr(telemetry::Level::Info);
    tel.info(
        "exp.bugs",
        "running the qualification campaign",
        [("configs", telemetry::Json::from(configs.len()))],
    );
    let report = run_qualification(&QualifyOptions::default());

    println!("=== E2: five injected BCA bugs (paper section 5) ===\n");
    println!(
        "{:<4} {:<52} {:<12} {:<11} detector",
        "bug", "description", "legacy flow", "common env"
    );
    let mut legacy_total = 0;
    let mut common_total = 0;
    for (entry, outcome) in catalogue().into_iter().zip(&report.outcomes) {
        if !matches!(entry, CatalogueEntry::Bca(_)) {
            continue;
        }
        let legacy = configs.iter().any(|config| {
            let mut dut = entry.build_mutated(config);
            !LegacyTestbench::new(config.clone())
                .run(dut.as_mut())
                .passed
        });
        let common = outcome.detector.is_some();
        legacy_total += usize::from(legacy);
        common_total += usize::from(common);
        println!(
            "{:<4} {:<52} {:<12} {:<11} {}",
            outcome.label,
            outcome.description,
            if legacy { "FOUND" } else { "missed" },
            if common { "FOUND" } else { "missed" },
            outcome.detector.map_or("-".to_owned(), |d| d.to_string())
        );
    }
    println!();
    println!("legacy flow found {legacy_total}/5, common environment found {common_total}/5");
    println!(
        "paper claim: five BCA bugs found by the common environment, none by the old flow's checks"
    );
}
