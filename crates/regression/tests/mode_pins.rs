//! Mode pins: the deterministic artifacts of every campaign mode, for a
//! small run of each, digested and compared with
//! `fixtures/mode_pins.txt`.
//!
//! No report holds a clock, so every artifact a mode renders — tables,
//! JSON documents, report-tree files — is hashed as it is:
//!
//! * the two-view and the three-view (`rtl,bca,tlm`) regression;
//! * the mutation qualification campaign;
//! * the seeded differential hunt of the CI smoke step (`R2`, budget 8,
//!   one shrink);
//! * the coverage-closure loop;
//! * the sign-off engine under `waivers/reference.json`.
//!
//! A refactor of how cells run must leave every line untouched.
//! Re-record the fixture (run with `STBUS_BLESS_MODE_PINS=1`) only for an
//! intended change of a mode's output.

use catg::tests_lib::{self, qualification as qual};
use stbus_protocol::{NodeConfig, ViewKind};
use stbus_regression::{run_regression, standard_configs, RegressionOptions};
use stbus_rtl::RtlBug;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const JOBS: usize = 2;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mode_pins.txt")
}

/// One `<mode> <artifact> <digest>` line per artifact.
fn pin(out: &mut String, mode: &str, artifact: &str, text: &str) {
    let _ = writeln!(
        out,
        "{mode} {artifact} {:016x}",
        cache::fnv64(text.as_bytes())
    );
}

/// Every file under `dir`, as `(relative path, contents)` in path order.
fn tree(dir: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("read report dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).expect("under dir");
                let text = std::fs::read_to_string(&path).expect("read report file");
                files.push((rel.display().to_string(), text));
            }
        }
    }
    files.sort();
    files
}

fn regression(out: &mut String, mode: &str, views: Vec<ViewKind>) {
    let configs: Vec<NodeConfig> = vec![NodeConfig::reference(), standard_configs()[5].clone()];
    let tests = vec![
        tests_lib::basic_read_write(6),
        tests_lib::random_mixed(6),
        tests_lib::priority_prog(6),
    ];
    let options = RegressionOptions {
        seeds: vec![1, 2],
        views,
        jobs: JOBS,
        ..RegressionOptions::default()
    };
    let report = run_regression(&configs, &tests, &options);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("mode_pins_{mode}"));
    let _ = std::fs::remove_dir_all(&dir);
    report.write_reports(&dir).expect("write reports");
    for (path, text) in tree(&dir) {
        pin(out, mode, &path, &text);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn qualification(out: &mut String) {
    let options = mutation::QualifyOptions {
        configs: vec![qual::qualification_configs().swap_remove(0)],
        tests: vec![
            tests_lib::basic_read_write(8),
            tests_lib::random_mixed(8),
            tests_lib::out_of_order(8),
        ],
        seeds: vec![1],
        jobs: JOBS,
        ..mutation::QualifyOptions::default()
    };
    let report = mutation::run_qualification(&options);
    pin(out, "qualify", "table", &report.table());
    pin(
        out,
        "qualify",
        "qualification.json",
        &report.qualification_json().render_pretty(),
    );
}

fn hunt(out: &mut String) {
    let options = hunt::HuntOptions {
        budget: 8,
        campaign_seed: 1,
        inject: hunt::Injections {
            rtl: vec![RtlBug::MisroutedHighTarget],
            bca: Vec::new(),
        },
        max_shrinks: 1,
        shrink_budget: 60,
        jobs: JOBS,
        ..hunt::HuntOptions::default()
    };
    let report = hunt::run_hunt(&options);
    pin(out, "hunt", "table", &report.table());
    pin(
        out,
        "hunt",
        "hunt.json",
        &report.hunt_json().render_pretty(),
    );
    for (k, repro) in report.repros.iter().enumerate() {
        let name = format!("repro_{k}.json");
        pin(out, "hunt", &name, &repro.to_json().render_pretty());
    }
}

fn closure(out: &mut String) {
    let config = NodeConfig::reference();
    let options = cdg::ClosureOptions {
        jobs: JOBS,
        ..cdg::ClosureOptions::default()
    };
    let report = cdg::close_coverage(&config, &cdg::Recipe::narrow(&config), &options);
    pin(out, "closure", "table", &report.table());
    pin(
        out,
        "closure",
        "closure.json",
        &report.closure_json().render_pretty(),
    );
}

fn sign_off(out: &mut String) {
    let config = NodeConfig::reference();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../waivers/reference.json");
    let text = std::fs::read_to_string(path).expect("read waivers/reference.json");
    let waivers = signoff::WaiverFile::parse(&text).expect("valid waiver file");
    let candidates = signoff::library_candidates(12, &[1, 2]);
    let options = signoff::SignoffOptions {
        jobs: JOBS,
        ..signoff::SignoffOptions::default()
    };
    let report = signoff::run_signoff(&config, &waivers, &candidates, &options).expect("sign-off");
    pin(out, "signoff", "table", &report.table());
    pin(
        out,
        "signoff",
        "signoff.json",
        &report.signoff_json().render_pretty(),
    );
}

#[test]
fn every_mode_renders_its_pinned_artifacts() {
    let mut got = String::new();
    regression(&mut got, "regress", vec![ViewKind::Rtl, ViewKind::Bca]);
    regression(
        &mut got,
        "regress3",
        vec![ViewKind::Rtl, ViewKind::Bca, ViewKind::Tlm],
    );
    qualification(&mut got);
    hunt(&mut got);
    closure(&mut got);
    sign_off(&mut got);

    let path = fixture_path();
    if std::env::var_os("STBUS_BLESS_MODE_PINS").is_some() {
        std::fs::write(&path, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("read fixture");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "a mode's deterministic artifact changed");
    }
    assert_eq!(got, want);
}
