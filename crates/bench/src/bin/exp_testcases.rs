//! Experiment E3 — the twelve generic test cases (paper §5) and their
//! coverage contributions.
//!
//! Runs each test alone on the reference configuration, reports its own
//! functional coverage, then the cumulative coverage as the suite grows —
//! showing that no single test reaches 100% but the suite does.
//!
//! ```text
//! cargo run -p stbus-bench --release --bin exp_testcases [intensity]
//! ```

use catg::{tests_lib, CoverageReport};
use stbus_bench::run_view;
use stbus_protocol::{NodeConfig, ViewKind};

fn main() {
    let intensity: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    let config = NodeConfig::reference();

    println!("=== E3: the twelve test cases (paper section 5) ===\n");
    println!(
        "{:<4} {:<22} {:<46} {:>5} {:>8} {:>7} {:>11}",
        "#", "test", "feature targeted", "pass", "tx", "cov%", "cumulative%"
    );
    let tel = telemetry::Telemetry::to_stderr(telemetry::Level::Info);
    let mut cumulative: Option<CoverageReport> = None;
    for (k, spec) in tests_lib::all(intensity).iter().enumerate() {
        tel.info(
            "exp.testcases",
            "running test",
            [
                ("index", telemetry::Json::from(k + 1)),
                ("test", telemetry::Json::from(spec.name.as_str())),
            ],
        );
        let mut own: Option<CoverageReport> = None;
        let mut passed = true;
        let mut tx = 0;
        for seed in [1u64, 2, 3] {
            let result = run_view(&config, ViewKind::Bca, spec, seed);
            passed &= result.passed();
            tx += result.transactions;
            match &mut own {
                Some(c) => c.merge(&result.coverage),
                None => own = Some(result.coverage.clone()),
            }
        }
        let own = own.expect("ran");
        match &mut cumulative {
            Some(c) => c.merge(&own),
            None => cumulative = Some(own.clone()),
        }
        println!(
            "T{:02}  {:<22} {:<46} {:>5} {:>8} {:>6.1}% {:>10.1}%",
            k + 1,
            spec.name,
            spec.description.chars().take(46).collect::<String>(),
            if passed { "yes" } else { "NO" },
            tx,
            own.coverage() * 100.0,
            cumulative.as_ref().expect("set").coverage() * 100.0
        );
    }
    let total = cumulative.expect("ran");
    println!();
    println!(
        "suite functional coverage: {:.2}%",
        total.coverage() * 100.0
    );
    if total.is_full() {
        println!("GOAL MET: 100% functional coverage (the paper's sign-off criterion)");
    } else {
        println!("remaining holes:");
        for h in total.holes() {
            println!("  {h}");
        }
    }
}
