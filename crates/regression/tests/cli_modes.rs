//! Acceptance tests of the CLI's mode table: every flag either takes
//! effect in the chosen mode or is rejected with exit 2 before anything
//! runs, malformed values exit 2 naming the flag, and an unwritable
//! `--out` exits 1 once the mode's table is printed. Also pinned: an
//! unreadable `--configs` file exits 1, the reports are byte-identical
//! across worker counts and cold or warm cell stores with no flag asking
//! for it, and the replay verdicts' exit codes.

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
            &["--client", socket, "--jobs", "2", "--out", out],
            "--jobs",
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
            &["history", "--seeds", "2", "--history-dir", out],
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
    rejected(&["--intensity", "0"], &["--intensity"]);
    rejected(&["--jobs", "-1"], &["--jobs"]);
    rejected(&["--views", "rtl,tlm"], &["--views"]);
    for flag in ["--out", "--configs", "--log-file", "--trace-out"] {
        rejected(&["--seeds", "1", "--intensity", "2", flag], &[flag]);
    }
    for flag in ["--waivers", "--from-closure"] {
        rejected(&["--signoff", flag], &[flag]);
    }
}

#[test]
fn retired_flags_are_unknown() {
    // Reports hold no clock, so there is nothing left to strip.
    for mode in [
        &[][..],
        &["--qualify"],
        &["--hunt"],
        &["--client", "x.sock"],
    ] {
        let args = [mode, &["--deterministic"]].concat();
        rejected(&args, &["unknown argument `--deterministic`"]);
    }
    // `history` reads the store where regress writes it: `--history-dir`.
    rejected(&["history", "--dir", "."], &["unknown argument `--dir`"]);
}

#[test]
fn an_unreadable_config_file_exits_1_naming_it() {
    let dir = scratch("cli-bad-config");
    let configs = dir.join("configs");
    std::fs::create_dir_all(&configs).expect("config dir");
    std::fs::write(configs.join("bad.cfg"), b"\xff\xfe").expect("config file");
    let (code, stdout, stderr) = run(&[
        "--configs",
        configs.to_str().unwrap(),
        "--seeds",
        "1",
        "--intensity",
        "1",
        "--no-history",
        "--no-compare",
    ]);
    assert_eq!(code, 1, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.is_empty(), "ran anyway:\n{stdout}");
    assert!(
        stderr.contains("bad.cfg") && stderr.contains("UTF-8"),
        "{stderr}"
    );
}

/// Every file under `dir` with its bytes, in path order.
fn tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("read out dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("read report file");
                files.push((path.strip_prefix(dir).expect("under dir").to_owned(), bytes));
            }
        }
    }
    files.sort();
    files
}

#[test]
fn reports_are_byte_identical_across_jobs_and_cold_or_warm_stores() {
    let dir = scratch("cli-identity");
    let configs = tiny_configs(&dir);
    let store = dir.join("store").display().to_string();
    // stdout and the `--out` tree, minus the store's own statistics.
    let campaign = |jobs: &str, out: &str, cached: bool| {
        let out = dir.join(out);
        let out = out.to_str().unwrap();
        let mut args = vec![
            "--configs",
            &configs,
            "--seeds",
            "2",
            "--intensity",
            "3",
            "--no-history",
            "--quiet",
            "--jobs",
            jobs,
            "--out",
            out,
        ];
        if cached {
            args.extend(["--cache-dir", store.as_str()]);
        }
        let (code, stdout, stderr) = run(&args);
        assert_eq!(code, 0, "{args:?}\nstderr:\n{stderr}");
        let mut files = tree(Path::new(out));
        let stats = files
            .iter()
            .position(|(path, _)| path == Path::new("cache_stats.json"))
            .map(|i| files.remove(i).1);
        assert_eq!(stats.is_some(), cached);
        (stdout, files, stats)
    };
    let serial = campaign("1", "serial", false);
    let parallel = campaign("2", "parallel", false);
    assert!(serial
        .1
        .iter()
        .any(|(path, _)| path == Path::new("manifest.json")));
    assert_eq!((&serial.0, &serial.1), (&parallel.0, &parallel.1));
    let cold = campaign("2", "cold", true);
    let warm = campaign("1", "warm", true);
    assert_eq!((&serial.0, &serial.1), (&cold.0, &cold.1));
    assert_eq!((&cold.0, &cold.1), (&warm.0, &warm.1));
    let stats = Json::parse(&String::from_utf8(warm.2.unwrap()).unwrap()).expect("stats");
    assert_eq!(stats.get("simulated").and_then(Json::as_u64), Some(0));
    assert_eq!(stats.get("hits").and_then(Json::as_u64), Some(24));
}

#[test]
fn replay_and_promote_exit_by_the_replay_verdict() {
    let dir = scratch("cli-replay");
    let found = dir.join("found");
    let hunts = dir.join("hunts");
    let (found, hunts) = (found.to_str().unwrap(), hunts.to_str().unwrap());
    // The seeded hunt of the CI smoke step shrinks one reproducer.
    let (code, _, stderr) = run(&[
        "--hunt",
        "--hunt-budget",
        "8",
        "--hunt-seed",
        "1",
        "--hunt-inject",
        "R2",
        "--hunt-shrink",
        "1",
        "--hunt-shrink-budget",
        "60",
        "--quiet",
        "--out",
        found,
    ]);
    assert_eq!(code, 0, "{stderr}");
    let fires = format!("{found}/repro_0.json");
    let text = std::fs::read_to_string(&fires).expect("repro_0.json");
    let repro = hunt::Repro::from_json(&Json::parse(&text).unwrap()).expect("repro");
    assert_eq!(repro.detector_column, "checker");
    let variant = |name: &str, edit: fn(&mut hunt::Repro)| {
        let mut repro = repro.clone();
        edit(&mut repro);
        let path = dir.join(name).display().to_string();
        std::fs::write(&path, repro.to_json().render_pretty()).expect("repro file");
        path
    };
    let drifted = variant("drifted.json", |r| {
        r.detector_column = "alignment".to_owned()
    });
    let silent = variant("silent.json", |r| r.injected.clear());
    let broken = dir.join("broken.json").display().to_string();
    std::fs::write(&broken, "{}").expect("repro file");

    let cases: [(&str, &str, i32, &str); 8] = [
        ("--hunt-replay", &fires, 0, ""),
        (
            "--hunt-replay",
            &drifted,
            1,
            "replay misattributed: expected class `alignment`, got `checker`",
        ),
        (
            "--hunt-replay",
            &silent,
            1,
            "no divergence — the reproducer no longer fires",
        ),
        ("--hunt-replay", &broken, 2, "repro: missing schema"),
        (
            "--hunt-promote",
            &drifted,
            1,
            "detector class drifted to `checker` (recorded `alignment`)",
        ),
        (
            "--hunt-promote",
            &silent,
            1,
            "the reproducer no longer diverges",
        ),
        ("--hunt-promote", &broken, 2, "repro: missing schema"),
        ("--hunt-promote", &fires, 0, ""),
    ];
    for (mode, file, want, needle) in cases {
        let mut args = vec![mode, file, "--quiet"];
        if mode == "--hunt-promote" {
            args.extend(["--hunts-dir", hunts]);
        }
        let (code, stdout, stderr) = run(&args);
        assert_eq!(code, want, "{args:?}\nstdout:\n{stdout}\nstderr:\n{stderr}");
        assert!(
            stderr.contains(needle),
            "{args:?}: `{needle}` not in {stderr}"
        );
        if mode == "--hunt-replay" && want < 2 && file != silent {
            assert!(stdout.contains("fired on the"), "{args:?}: {stdout}");
        }
        // Only the reproducer that still fires is pinned.
        let pinned = std::fs::read_dir(hunts).map_or(0, Iterator::count);
        assert_eq!(pinned, usize::from(mode == "--hunt-promote" && want == 0));
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
