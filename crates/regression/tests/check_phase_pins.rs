//! Check-phase pins: what the protocol checker, the functional-coverage
//! collector and the scoreboard concluded in every cell of the standard
//! 40-configuration matrix (one seed, intensity 10, RTL and BCA).
//!
//! Per testbench run the test digests the `checks_passed` map, every
//! coverage bin, the scoreboard check count and errors, the checker
//! violations and the harness anomalies, and compares the digests with
//! `fixtures/check_phase_pins.txt`. The check phase may get faster; it
//! must never conclude anything different. A change here is a change of
//! checking semantics, not of speed. Re-record the fixture (run with
//! `STBUS_BLESS_CHECK_PINS=1`) only for an intended semantic change.

use catg::RunResult;
use stbus_regression::{run_regression, standard_configs, RegressionOptions};
use std::fmt::Write as _;
use std::path::PathBuf;

const SEED: u64 = 1;
const INTENSITY: usize = 10;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/check_phase_pins.txt")
}

/// Everything the check phase concluded about one run, as text.
fn render_check_phase(run: &RunResult) -> String {
    let mut out = String::new();
    for (rule, n) in &run.checker.checks_passed {
        let _ = writeln!(out, "pass {rule} {n}");
    }
    for v in &run.checker.violations {
        let _ = writeln!(out, "violation {v}");
    }
    let _ = writeln!(out, "suppressed {}", run.checker.suppressed);
    for g in &run.coverage.groups {
        for (bin, hits) in &g.bins {
            let _ = writeln!(out, "bin {}/{bin} {hits}", g.name);
        }
    }
    let _ = writeln!(out, "scoreboard_checks {}", run.scoreboard_checks);
    for e in &run.scoreboard_errors {
        let _ = writeln!(out, "scoreboard_error {e}");
    }
    for a in &run.anomalies {
        let _ = writeln!(out, "anomaly {a}");
    }
    out
}

fn observed() -> String {
    let options = RegressionOptions {
        seeds: vec![SEED],
        intensity: INTENSITY,
        compare_waveforms: false,
        jobs: 2,
        ..RegressionOptions::default()
    };
    let tests = catg::tests_lib::all(INTENSITY);
    let report = run_regression(&standard_configs(), &tests, &options);
    let mut out = String::new();
    for config in &report.configs {
        for run in &config.runs {
            for (view, result) in [("rtl", &run.rtl), ("bca", &run.bca)] {
                let _ = writeln!(
                    out,
                    "{} {} {} {view} {:016x}",
                    config.config.name,
                    run.test,
                    run.seed,
                    cache::fnv64(render_check_phase(result).as_bytes())
                );
            }
        }
    }
    out
}

#[test]
fn every_cell_reaches_the_pinned_check_phase_verdicts() {
    let got = observed();
    let path = fixture_path();
    if std::env::var_os("STBUS_BLESS_CHECK_PINS").is_some() {
        std::fs::write(&path, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("read fixture");
    assert_eq!(got.lines().count(), 960, "40 configs x 12 tests x 2 views");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "check-phase digest changed");
    }
    assert_eq!(got, want);
}
