//! Acceptance tests of the CLI's mode table: every flag either takes
//! effect in the chosen mode or is rejected with exit 2 before anything
//! runs, malformed values exit 2 naming the flag, and an unwritable
//! `--out` exits 1 once the mode's table is printed.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use telemetry::Json;

const BIN: &str = env!("CARGO_BIN_EXE_stbus-regress");

/// A fresh scratch directory under target/tmp.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A directory holding one tiny configuration, so campaigns stay fast.
fn tiny_configs(base: &Path) -> String {
    let dir = base.join("configs");
    std::fs::create_dir_all(&dir).expect("config dir");
    std::fs::write(
        dir.join("tiny.cfg"),
        "name = tiny\ninitiators = 2\ntargets = 2\nbus_bytes = 4\nprotocol = t2\n\
         architecture = shared\narbitration = fixed\n",
    )
    .expect("config file");
    dir.display().to_string()
}

fn waivers() -> String {
    format!(
        "{}/../../waivers/reference.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(BIN).args(args).output().expect("spawn CLI");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Runs `args` and asserts exit 2 with every `needle` on stderr and
/// nothing on stdout.
fn rejected(args: &[&str], needles: &[&str]) {
    let (code, stdout, stderr) = run(args);
    assert_eq!(code, 2, "{args:?}\nstdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.is_empty(), "{args:?} printed:\n{stdout}");
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "{args:?}: `{needle}` not in {stderr}"
        );
    }
}

#[test]
fn each_mode_rejects_a_foreign_flag_before_running() {
    let dir = scratch("cli-foreign");
    let configs = tiny_configs(&dir);
    let out = dir.join("out");
    let out = out.to_str().unwrap();
    let socket = dir.join("daemon.sock");
    let socket = socket.to_str().unwrap();
    let repro = dir.join("repro.json");
    let repro = repro.to_str().unwrap();
    let cases: [(&[&str], &str, &str); 10] = [
        (
            &[
                "--configs",
                &configs,
                "--seeds",
                "1",
                "--intensity",
                "2",
                "--no-history",
                "--hunt-budget",
                "3",
                "--out",
                out,
            ],
            "--hunt-budget",
            "regress",
        ),
        (
            &["--client", socket, "--exact", "--out", out],
            "--exact",
            "--client",
        ),
        (&["--serve", socket, "--seeds", "2"], "--seeds", "--serve"),
        (
            &["--qualify", "--configs", &configs, "--out", out],
            "--configs",
            "--qualify",
        ),
        (
            &[
                "--hunt",
                "--hunt-budget",
                "1",
                "--hunt-shrink",
                "0",
                "--engine",
                "compiled",
                "--out",
                out,
            ],
            "--engine",
            "--hunt mode",
        ),
        (
            &["--hunt-replay", repro, "--hunts-dir", out],
            "--hunts-dir",
            "--hunt-replay",
        ),
        (
            &["--hunt-promote", repro, "--seeds", "1"],
            "--seeds",
            "--hunt-promote",
        ),
        (
            &["--close-coverage", "--cache", "--out", out],
            "--cache",
            "--close-coverage",
        ),
        (
            &["--signoff", "--engine", "compiled", "--out", out],
            "--engine",
            "--signoff",
        ),
        (
            &["history", "--seeds", "2", "--dir", out],
            "--seeds",
            "history",
        ),
    ];
    for (args, flag, mode) in cases {
        rejected(args, &[flag, mode]);
        assert!(!Path::new(out).exists(), "{args:?} wrote {out}");
        assert!(!Path::new(socket).exists(), "{args:?} bound {socket}");
    }
}

#[test]
fn closure_rejects_every_regression_knob() {
    rejected(
        &[
            "--close-coverage",
            "--engine",
            "compiled",
            "--cache",
            "--views",
            "rtl,bca,tlm",
            "--exact",
            "--seeds",
            "9",
            "--profile",
        ],
        &["--engine", "--close-coverage"],
    );
}

#[test]
fn flags_that_cancel_each_other_are_rejected() {
    let dir = scratch("cli-overrides");
    let closure = dir.join("closure.json");
    std::fs::write(&closure, "{}").expect("closure file");
    let closure = closure.to_str().unwrap();
    rejected(
        &["--signoff", "--from-closure", closure, "--seeds", "2"],
        &["--seeds", "--from-closure"],
    );
    rejected(
        &["--signoff", "--from-closure", closure, "--intensity", "5"],
        &["--intensity", "--from-closure"],
    );
    rejected(
        &["--no-history", "--history-dir", dir.to_str().unwrap()],
        &["--history-dir", "--no-history"],
    );
}

#[test]
fn two_mode_flags_are_rejected() {
    rejected(
        &["--signoff", "--close-coverage"],
        &["--signoff", "--close-coverage"],
    );
    rejected(&["--qualify", "--hunt"], &["--qualify", "--hunt"]);
    rejected(&["history", "--serve", "x.sock"], &["history", "--serve"]);
}

#[test]
fn malformed_or_missing_values_are_rejected() {
    rejected(&["--seeds", "abc"], &["--seeds"]);
    rejected(&["--seeds", "0"], &["--seeds"]);
    rejected(&["--intensity", "x"], &["--intensity"]);
    rejected(&["--jobs", "-1"], &["--jobs"]);
    rejected(&["--views", "rtl,tlm"], &["--views"]);
    for flag in ["--out", "--configs", "--log-file", "--trace-out"] {
        rejected(&["--seeds", "1", "--intensity", "2", flag], &[flag]);
    }
    for flag in ["--waivers", "--from-closure"] {
        rejected(&["--signoff", flag], &[flag]);
    }
}

/// An `--out` whose parent is a regular file cannot be created.
fn unwritable_out(dir: &Path) -> String {
    let file = dir.join("file");
    std::fs::write(&file, "not a directory").expect("blocker file");
    file.join("out").display().to_string()
}

/// `--log-file` replaces its file: after two runs into one path it
/// holds the second run alone, so span ids are unique and no parent link
/// crosses from one run into the other.
#[test]
fn log_file_holds_exactly_one_run() {
    let dir = scratch("cli-log-file");
    let configs = tiny_configs(&dir);
    let log = dir.join("events.jsonl").display().to_string();
    let args = [
        "--configs",
        &configs,
        "--seeds",
        "1",
        "--intensity",
        "2",
        "--no-history",
        "--quiet",
        "--log-format",
        "json",
        "--log-file",
        &log,
    ];
    for _ in 0..2 {
        let (code, stdout, stderr) = run(&args);
        assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    }
    let text = std::fs::read_to_string(&log).expect("log file");
    let ends: Vec<Json> = text
        .lines()
        .map(|line| Json::parse(line).expect("one JSON event per line"))
        .filter(|e| {
            e.get("scope")
                .and_then(Json::as_str)
                .is_some_and(|s| s.ends_with(".end"))
        })
        .collect();
    let field = |e: &Json, name: &str| e.get("fields").and_then(|f| f.get(name)).cloned();
    let ids: BTreeSet<u64> = ends
        .iter()
        .map(|e| field(e, "id").and_then(|id| id.as_u64()).expect("span id"))
        .collect();
    assert!(!ends.is_empty(), "no span ends in {log}");
    assert_eq!(ids.len(), ends.len(), "span ids repeat in {log}");
    for e in &ends {
        if let Some(parent) = field(e, "parent").and_then(|p| p.as_u64()) {
            assert!(ids.contains(&parent), "dangling parent in {e:?}");
        }
    }
    let campaigns = ends
        .iter()
        .filter(|e| e.get("scope").and_then(Json::as_str) == Some("regress.campaign.end"))
        .count();
    assert_eq!(campaigns, 1, "the file must hold exactly one run");
}

#[test]
fn unwritable_out_fails_after_the_table() {
    let dir = scratch("cli-unwritable");
    let configs = tiny_configs(&dir);
    let out = unwritable_out(&dir);
    let hunts = dir.join("no-hunts").display().to_string();
    let waivers = waivers();
    let cases: [(&[&str], &str); 4] = [
        (
            &[
                "--configs",
                &configs,
                "--seeds",
                "1",
                "--intensity",
                "2",
                "--no-history",
                "--quiet",
                "--out",
                &out,
            ],
            "configurations signed off",
        ),
        (
            &[
                "--qualify",
                "--seeds",
                "1",
                "--intensity",
                "15",
                "--jobs",
                "2",
                "--quiet",
                "--hunts-dir",
                &hunts,
                "--out",
                &out,
            ],
            "mutation score",
        ),
        (
            &["--close-coverage", "--jobs", "2", "--quiet", "--out", &out],
            "coverage closed",
        ),
        (
            &[
                "--signoff",
                "--waivers",
                &waivers,
                "--seeds",
                "2",
                "--intensity",
                "30",
                "--jobs",
                "2",
                "--quiet",
                "--out",
                &out,
            ],
            "SIGN-OFF: PASS",
        ),
    ];
    for (args, table) in cases {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, 1, "{args:?}\nstdout:\n{stdout}\nstderr:\n{stderr}");
        assert!(stdout.contains(table), "{args:?}: no table in\n{stdout}");
        assert!(stderr.contains("cannot write"), "{args:?}: {stderr}");
    }
}

#[test]
fn help_prints_one_synopsis_per_mode() {
    let (code, _, help) = run(&["--help"]);
    assert_eq!(code, 0);
    // The line whose first two words are `stbus-regress <select>`.
    let synopsis = |select: &str| {
        help.lines()
            .find(|l| l.split_whitespace().take(2).eq(["stbus-regress", select]))
            .unwrap_or_else(|| panic!("no `{select}` synopsis in:\n{help}"))
            .to_owned()
    };
    let regress = synopsis("[--configs");
    assert!(
        regress.contains("--cache") && !regress.contains("--hunt"),
        "{regress}"
    );
    for select in [
        "--client",
        "--serve",
        "--qualify",
        "--hunt",
        "--hunt-replay",
        "--hunt-promote",
        "--close-coverage",
        "--signoff",
        "history",
    ] {
        synopsis(select);
    }
    let qualify = synopsis("--qualify");
    assert!(
        qualify.contains("--hunts-dir") && !qualify.contains("--configs"),
        "{qualify}"
    );
    assert!(!synopsis("--close-coverage").contains("--engine"));
}
