//! Acceptance tests of the campaign-history CLI: the `history`
//! subcommand must flag a genuine slowdown with a nonzero exit, compare
//! matching-content-key re-runs cleanly, and the `--profile` output must
//! list the same stacks for any worker count.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_stbus-regress");

/// A fresh scratch directory under target/tmp.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// One tiny configuration file, so CLI campaigns stay fast.
fn write_config_dir(base: &Path) -> PathBuf {
    let dir = base.join("configs");
    std::fs::create_dir_all(&dir).expect("config dir");
    std::fs::write(
        dir.join("tiny.cfg"),
        "name = tiny\ninitiators = 2\ntargets = 2\nbus_bytes = 4\nprotocol = t2\n\
         architecture = shared\narbitration = fixed\n",
    )
    .expect("config file");
    dir
}

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(BIN).args(args).output().expect("spawn CLI");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn record(key: &str, wall_us: u64, settle_us: u64) -> profile::HistoryRecord {
    let mut phases = BTreeMap::new();
    phases.insert("settle".to_owned(), settle_us);
    phases.insert("drive".to_owned(), 10_000);
    profile::HistoryRecord {
        key: key.to_owned(),
        source: "regress".to_owned(),
        engine_version: "0.1.0".to_owned(),
        recorded_unix: 1_754_000_000,
        host: profile::HostInfo { cores: 4, jobs: 2 },
        shape: profile::CampaignShape {
            configs: 1,
            tests: 12,
            seeds: 1,
            intensity: 3,
            cells: 12,
        },
        wall_us,
        phases,
        passed: true,
    }
}

#[test]
fn history_flags_injected_slowdown_and_exits_nonzero() {
    let dir = scratch("history-slowdown");
    let store = profile::HistoryStore::in_dir(&dir);
    store.append(&record("cafe0123", 100_000, 40_000)).unwrap();
    // Same workload, settle 2.5x slower, total 1.8x slower.
    store.append(&record("cafe0123", 180_000, 100_000)).unwrap();

    let (code, stdout, stderr) = run(&["history", "--history-dir", dir.to_str().unwrap()]);
    assert_eq!(code, 1, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(stdout.contains("settle"), "{stdout}");
    assert!(stderr.contains("regressed beyond 20%"), "{stderr}");

    // The same pair under a permissive threshold is clean.
    let (code, stdout, _) = run(&[
        "history",
        "--history-dir",
        dir.to_str().unwrap(),
        "--max-regression",
        "200",
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("no phase regressed"), "{stdout}");
}

#[test]
fn history_compares_only_matching_content_keys() {
    let dir = scratch("history-keys");
    let store = profile::HistoryStore::in_dir(&dir);
    // A slow foreign-key record right before the latest must NOT become
    // the baseline; the matching-key record further back must.
    store.append(&record("aaaa1111", 100_000, 40_000)).unwrap();
    store.append(&record("bbbb2222", 1_000, 100)).unwrap();
    store.append(&record("aaaa1111", 105_000, 41_000)).unwrap();

    let (code, stdout, _) = run(&["history", "--history-dir", dir.to_str().unwrap()]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("baseline (#0)"), "{stdout}");

    // A lone key has nothing to compare against — still a clean exit.
    store.append(&record("cccc3333", 50_000, 20_000)).unwrap();
    let (code, stdout, _) = run(&["history", "--history-dir", dir.to_str().unwrap()]);
    assert_eq!(code, 0);
    assert!(stdout.contains("nothing to compare"), "{stdout}");
}

#[test]
fn matching_key_rerun_records_and_compares_clean() {
    let dir = scratch("history-rerun");
    let cfg_dir = write_config_dir(&dir);
    let campaign = [
        "--configs",
        cfg_dir.to_str().unwrap(),
        "--seeds",
        "1",
        "--intensity",
        "3",
        "--jobs",
        "1",
        "--quiet",
        "--no-compare",
        "--history-dir",
        dir.to_str().unwrap(),
    ];
    let (code, _, stderr) = run(&campaign);
    assert_eq!(code, 0, "{stderr}");
    let (code, _, stderr) = run(&campaign);
    assert_eq!(code, 0, "{stderr}");

    // Two records, same content key (same engine, matrix, tests, seeds).
    let records = profile::HistoryStore::in_dir(&dir).load();
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].key, records[1].key);
    assert_eq!(records[0].source, "regress");
    assert!(records[0].wall_us > 0);
    assert!(records[0].phases.contains_key("settle"));
    assert!(records[0].host.cores >= 1);

    // The comparison finds the baseline and exits cleanly (threshold
    // high enough that scheduler jitter between the two back-to-back
    // runs cannot flake the test).
    let (code, stdout, stderr) = run(&[
        "history",
        "--history-dir",
        dir.to_str().unwrap(),
        "--max-regression",
        "100000",
    ]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("baseline (#0)"), "{stdout}");
    assert!(stdout.contains(&records[0].key), "{stdout}");
}

#[test]
fn profile_lists_the_same_stacks_across_jobs() {
    let dir = scratch("profile-jobs");
    let cfg_dir = write_config_dir(&dir);
    let stacks_with_jobs = |jobs: &str| {
        let out = dir.join(format!("out-{jobs}"));
        let (code, stdout, stderr) = run(&[
            "--configs",
            cfg_dir.to_str().unwrap(),
            "--seeds",
            "1",
            "--intensity",
            "3",
            "--quiet",
            "--profile",
            "--no-history",
            "--no-compare",
            "--jobs",
            jobs,
            "--out",
            out.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{stderr}");
        assert!(stdout.contains("phase:settle"), "{stdout}");
        let folded = std::fs::read_to_string(out.join("profile.folded")).expect("profile.folded");
        // Each line is `<stack> <self µs>`; only the stack is compared.
        let stacks: Vec<String> = folded
            .lines()
            .map(|line| line.rsplit_once(' ').expect("stack and value").0.to_owned())
            .collect();
        stacks
    };
    let serial = stacks_with_jobs("1");
    let parallel = stacks_with_jobs("2");
    assert_eq!(serial, parallel);
    assert!(
        serial.iter().any(|s| s.starts_with("regress.campaign")),
        "{serial:?}"
    );
    assert!(serial.iter().any(|s| s.contains(";tb.run")), "{serial:?}");
    assert!(
        serial.iter().any(|s| s.ends_with(";phase:settle")),
        "{serial:?}"
    );
}
