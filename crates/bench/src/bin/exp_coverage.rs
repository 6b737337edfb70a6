//! Experiment E6 — the coverage goals (paper §4): 100% functional
//! coverage on both views, plus code coverage on the RTL view only
//! ("no tool is able to generate this metrics for SystemC"). The
//! justified-line half runs through the sign-off crate's reusable
//! [`signoff::JustifiedCoverage`] gate, against the same waiver template
//! a real flow would commit and review (`waivers/reference.json`).
//!
//! ```text
//! cargo run -p stbus-bench --release --bin exp_coverage [intensity]
//! ```

use regression::{run_regression, RegressionOptions};
use signoff::{JustifiedCoverage, WaiverFile};
use stbus_protocol::NodeConfig;

fn main() {
    let intensity: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    let config = NodeConfig::reference();
    let tel = telemetry::Telemetry::to_stderr(telemetry::Level::Info);
    tel.info(
        "exp.coverage",
        "running the suite on both views",
        [("intensity", telemetry::Json::from(intensity))],
    );
    let options = RegressionOptions {
        seeds: vec![1, 2, 3],
        compare_waveforms: false,
        ..RegressionOptions::default()
    };
    let tests = catg::tests_lib::all(intensity);
    let report = run_regression(std::slice::from_ref(&config), &tests, &options);
    let outcome = &report.configs[0];
    assert!(outcome.all_passed(), "every test must pass on both views");
    let cov_rtl = outcome.coverage_rtl.as_ref().expect("ran");
    let cov_bca = outcome.coverage_bca.as_ref().expect("ran");

    println!("=== E6: coverage goals (paper section 4) ===\n");
    println!("functional coverage, RTL view:");
    print!("{cov_rtl}");
    println!("\nfunctional coverage, BCA view:");
    print!("{cov_bca}");
    // The runner's rule (`same_hits`): the same bins hit on both views.
    // Hit counts may differ on the spec-unconstrained cycles where the
    // views legitimately diverge.
    println!(
        "\nequal across views (paper: \"of course they must be equal running the same tests\"): {}",
        if outcome.coverage_matches_across_views() {
            "YES"
        } else {
            "NO"
        }
    );

    // Code coverage exists only for the RTL view — exactly the asymmetry
    // the paper describes.
    let code = outcome.code_coverage_rtl.as_ref().expect("ran");
    println!("\ncode (structural) coverage — RTL view only:");
    println!(
        "  processes exercised: {:.1}%   branch points hit: {:.1}%",
        code.process_coverage() * 100.0,
        code.branch_coverage() * 100.0
    );
    for b in &code.branches {
        println!("  {:<28} {:>10} hits", b.name, b.hits);
    }

    // The paper's goal is "100% of justified code": every missed branch
    // arm must carry an explicit waiver citing the structural predicate
    // that makes it unreachable here. This is the sign-off gate itself,
    // not a re-derivation of it.
    let waivers = WaiverFile::template(&config);
    waivers
        .validate(&config)
        .expect("the generated template validates against the netlist");
    let gate = JustifiedCoverage::new(code, &config, &waivers);
    for j in &gate.justified {
        println!(
            "  JUSTIFIED {} — predicate `{}`, owner `{}`",
            j.branch, j.predicate, j.owner
        );
    }
    for d in &gate.dead_waivers {
        println!("  DEAD WAIVER {} ({} hits)", d.branch, d.hits);
    }
    println!(
        "  justified line coverage: {:.1}% (raw {:.1}%) — gate {}",
        gate.justified_coverage() * 100.0,
        gate.raw_coverage() * 100.0,
        if gate.passed() {
            "PASSED: 100% of justified branch points"
        } else {
            "FAILED"
        }
    );
    if !gate.unjustified.is_empty() {
        println!("  UNJUSTIFIED holes:");
        for name in &gate.unjustified {
            println!("    {name}");
        }
    }
    assert!(gate.passed(), "E6 must meet the justified-coverage goal");

    println!("\n(the BCA view has no signal processes, so — as in the paper — no code");
    println!(" coverage can be collected for it)");
}
