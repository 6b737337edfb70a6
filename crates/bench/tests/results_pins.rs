//! Results pins: every experiment binary is run with the arguments
//! `results/README.md` names, and its stdout is compared byte for byte
//! with the checkpointed file under `results/`.
//!
//! Every experiment but E5 is a pure function of its inputs, so a change
//! of any quoted number shows up here. E5 measures wall-clock simulation
//! speed, which depends on the host; only its shape is checked: five node
//! sizes, the BCA view faster at each.
//!
//! E10 closes coverage on a 32×32 node and takes minutes in a debug
//! build, so it is checked only in optimized builds
//! (`cargo test --release -p stbus-bench --test results_pins`).
//!
//! Re-record the files (run with `STBUS_BLESS_RESULTS=1`) only for an
//! intended change of an experiment's output, and update EXPERIMENTS.md
//! from the new text.

use std::path::PathBuf;
use std::process::Command;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Runs one experiment binary and returns its stdout.
fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

/// Compares an experiment's stdout with its checkpointed file, or
/// rewrites the file under `STBUS_BLESS_RESULTS`.
fn pin(bin: &str, args: &[&str], file: &str) {
    let got = run(bin, args);
    let path = results_dir().join(file);
    if std::env::var_os("STBUS_BLESS_RESULTS").is_some() {
        std::fs::write(&path, &got).expect("write results file");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("read results file");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "{file}: the experiment's output changed");
    }
    assert_eq!(got, want, "{file}: the experiment's output changed");
}

#[test]
fn e1_configs() {
    pin(
        env!("CARGO_BIN_EXE_exp_configs"),
        &["30", "2"],
        "e1_configs.txt",
    );
}

#[test]
fn e2_bugs() {
    pin(env!("CARGO_BIN_EXE_exp_bugs"), &[], "e2_bugs.txt");
}

#[test]
fn e3_testcases() {
    pin(env!("CARGO_BIN_EXE_exp_testcases"), &[], "e3_testcases.txt");
}

#[test]
fn e4_alignment() {
    pin(env!("CARGO_BIN_EXE_exp_alignment"), &[], "e4_alignment.txt");
}

#[test]
fn e5_speed_has_the_bca_faster_at_every_size() {
    let out = run(env!("CARGO_BIN_EXE_exp_speed"), &[]);
    // Rows read `<ni>i x <nt>t  <rtl cycles/s>  <bca cycles/s>  <ratio>x`.
    let rows: Vec<(f64, f64)> = out
        .lines()
        .filter(|l| l.contains("i x ") && l.trim_end().ends_with('x'))
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            let rate = |s: &str| s.parse::<f64>().unwrap_or_else(|_| panic!("rate in {l:?}"));
            (rate(cols[3]), rate(cols[4]))
        })
        .collect();
    assert_eq!(rows.len(), 5, "five node sizes:\n{out}");
    for (rtl, bca) in rows {
        assert!(bca > rtl, "BCA must be faster ({bca} vs {rtl}):\n{out}");
    }
}

#[test]
fn e6_coverage() {
    pin(env!("CARGO_BIN_EXE_exp_coverage"), &[], "e6_coverage.txt");
}

#[test]
fn e7_architecture() {
    pin(
        env!("CARGO_BIN_EXE_exp_architecture"),
        &[],
        "e7_architecture.txt",
    );
}

#[test]
fn e8_arbitration() {
    pin(
        env!("CARGO_BIN_EXE_exp_arbitration"),
        &[],
        "e8_arbitration.txt",
    );
}

#[test]
fn e10_closure() {
    if cfg!(debug_assertions) {
        return;
    }
    pin(env!("CARGO_BIN_EXE_exp_closure"), &[], "e10_closure.txt");
}

#[test]
fn e11_signoff() {
    pin(env!("CARGO_BIN_EXE_exp_signoff"), &[], "e11_signoff.txt");
}

#[test]
fn e13_three_views() {
    pin(
        env!("CARGO_BIN_EXE_exp_three_views"),
        &[],
        "e13_three_views.txt",
    );
}

#[test]
fn e14_hunt() {
    pin(env!("CARGO_BIN_EXE_exp_hunt"), &[], "e14_hunt.txt");
}
