//! Cache equivalence: memoizing cells must never change the evidence.
//! A warm campaign answers every cell from the store without simulating,
//! yet renders the same table and a byte-identical manifest; flipping any key component forces a miss;
//! corrupt entries are never trusted; and the cache preserves the
//! worker-count determinism guarantee.
//!
//! Every run builds its own `RegressionOptions`: a `Telemetry` handle's
//! metrics registry accumulates across campaigns, and per-process CLI
//! invocations never share one — sharing it here would double-count the
//! warm run's replayed metrics.

use sim_kernel::SimBackend;
use stbus_bca::Fidelity;
use stbus_protocol::{NodeConfig, ViewKind};
use stbus_regression::{run_regression, standard_configs, RegressionOptions, RegressionReport};
use std::path::PathBuf;

fn temp_store(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("stbus-cache-eq-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn matrix() -> (Vec<NodeConfig>, Vec<catg::TestSpec>) {
    let configs = vec![NodeConfig::reference(), standard_configs()[5].clone()];
    let tests = vec![
        catg::tests_lib::basic_read_write(6),
        catg::tests_lib::out_of_order(6),
    ];
    (configs, tests)
}

fn manifest(report: &RegressionReport) -> String {
    report.manifest_json().render_pretty()
}

#[test]
fn warm_run_simulates_nothing_and_reports_byte_identically() {
    let dir = temp_store("warm");
    let (configs, tests) = matrix();
    let options = || RegressionOptions {
        seeds: vec![1, 2],
        cache_dir: Some(dir.clone()),
        ..RegressionOptions::default()
    };
    let cells = (configs.len() * tests.len() * 2) as u64;

    let cold = run_regression(&configs, &tests, &options());
    let cold_cache = cold.cache.expect("cache summary present");
    assert_eq!(cold_cache.hits, 0);
    assert_eq!(cold_cache.misses, cells);
    assert_eq!(cold_cache.puts, cells);
    assert_eq!(cold_cache.simulated, cells);

    let warm = run_regression(&configs, &tests, &options());
    let warm_cache = warm.cache.expect("cache summary present");
    assert_eq!(
        warm_cache.hits, cells,
        "every cell must be answered from the store"
    );
    assert_eq!(
        warm_cache.simulated, 0,
        "a warm campaign performs zero simulations"
    );
    assert_eq!(warm_cache.misses, 0);
    assert_eq!(warm_cache.puts, 0);

    // The table carries no wall-clock data: identical as-is.
    assert_eq!(cold.table(), warm.table());
    // The manifest — coverage, alignment, pass/fail and the full
    // metrics snapshot — must be byte-identical.
    assert_eq!(manifest(&cold), manifest(&warm));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_key_component_forces_a_miss() {
    let dir = temp_store("keys");
    let configs = vec![NodeConfig::reference()];
    let tests = vec![catg::tests_lib::basic_read_write(4)];
    let base = || RegressionOptions {
        seeds: vec![1],
        cache_dir: Some(dir.clone()),
        ..RegressionOptions::default()
    };

    let cold = run_regression(&configs, &tests, &base());
    assert_eq!(cold.cache.unwrap().puts, 1);

    // Unchanged inputs: a hit.
    let same = run_regression(&configs, &tests, &base());
    assert_eq!(same.cache.unwrap().hits, 1);

    // A different seed.
    let mut options = base();
    options.seeds = vec![2];
    let report = run_regression(&configs, &tests, &options);
    let cache = report.cache.unwrap();
    assert_eq!(
        (cache.hits, cache.misses),
        (0, 1),
        "seed must be in the key"
    );

    // A different configuration.
    let other_config = vec![standard_configs()[0].clone()];
    let report = run_regression(&other_config, &tests, &base());
    let cache = report.cache.unwrap();
    assert_eq!(
        (cache.hits, cache.misses),
        (0, 1),
        "config must be in the key"
    );

    // A different test (same name-generating function, other intensity).
    let other_tests = vec![catg::tests_lib::basic_read_write(5)];
    let report = run_regression(&configs, &other_tests, &base());
    let cache = report.cache.unwrap();
    assert_eq!(
        (cache.hits, cache.misses),
        (0, 1),
        "test spec must be in the key"
    );

    // A different engine.
    let mut options = base();
    options.engine = SimBackend::Compiled;
    let report = run_regression(&configs, &tests, &options);
    let cache = report.cache.unwrap();
    assert_eq!(
        (cache.hits, cache.misses),
        (0, 1),
        "engine must be in the key"
    );

    // A different BCA fidelity.
    let mut options = base();
    options.fidelity = Fidelity::Exact;
    let report = run_regression(&configs, &tests, &options);
    let cache = report.cache.unwrap();
    assert_eq!(
        (cache.hits, cache.misses),
        (0, 1),
        "fidelity must be in the key"
    );

    // Comparison off produces a different cell (no alignment data).
    let mut options = base();
    options.compare_waveforms = false;
    let report = run_regression(&configs, &tests, &options);
    let cache = report.cache.unwrap();
    assert_eq!(
        (cache.hits, cache.misses),
        (0, 1),
        "compare flag must be in the key"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn three_view_campaign_is_cached_and_worker_invariant() {
    let dir = temp_store("threeview");
    let (configs, tests) = matrix();
    let options = |jobs: usize, views: Vec<ViewKind>| RegressionOptions {
        seeds: vec![1, 2],
        jobs,
        views,
        cache_dir: Some(dir.clone()),
        ..RegressionOptions::default()
    };
    let three = || vec![ViewKind::Rtl, ViewKind::Bca, ViewKind::Tlm];
    let cells = (configs.len() * tests.len() * 2) as u64;

    let cold = run_regression(&configs, &tests, &options(1, three()));
    let cold_cache = cold.cache.expect("cache summary present");
    assert_eq!((cold_cache.hits, cold_cache.misses), (0, cells));
    let cold_manifest = manifest(&cold);

    // Warm, on more workers: zero simulations, byte-identical evidence
    // including the TLM columns.
    let warm = run_regression(&configs, &tests, &options(4, three()));
    let cache = warm.cache.expect("cache summary present");
    assert_eq!(
        (cache.hits, cache.simulated),
        (cells, 0),
        "a warm three-view campaign performs zero simulations"
    );
    assert_eq!(cold.table(), warm.table());
    assert_eq!(
        manifest(&warm),
        cold_manifest,
        "three-view evidence must be worker-count invariant under the cache"
    );

    // Dropping the TLM view changes the cell key: the two-view campaign
    // must not be answered from three-view cells (or vice versa).
    let report = run_regression(
        &configs,
        &tests,
        &options(1, vec![ViewKind::Rtl, ViewKind::Bca]),
    );
    let cache = report.cache.unwrap();
    assert_eq!(
        (cache.hits, cache.misses),
        (0, cells),
        "the view list must be part of the cell key"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entries_are_resimulated_not_trusted() {
    let dir = temp_store("corrupt");
    let (configs, tests) = matrix();
    let options = || RegressionOptions {
        seeds: vec![1, 2],
        cache_dir: Some(dir.clone()),
        ..RegressionOptions::default()
    };
    let cells = (configs.len() * tests.len() * 2) as u64;

    let cold = run_regression(&configs, &tests, &options());
    let cold_manifest = manifest(&cold);

    // Damage two entries on disk: truncate one mid-payload, scribble
    // over another.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("store exists")
        .flatten()
        .filter(|e| e.path().is_dir())
        .flat_map(|shard| std::fs::read_dir(shard.path()).into_iter().flatten())
        .flatten()
        .map(|e| e.path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), cells as usize);
    let full = std::fs::read(&entries[0]).unwrap();
    std::fs::write(&entries[0], &full[..full.len() / 2]).unwrap();
    std::fs::write(&entries[1], b"stbus-cache/1 not an entry at all\n").unwrap();

    let warm = run_regression(&configs, &tests, &options());
    let cache = warm.cache.expect("cache summary present");
    assert_eq!(cache.corrupt, 2, "both damaged entries must be detected");
    assert_eq!(cache.hits, cells - 2);
    assert_eq!(cache.simulated, 2, "damaged cells re-simulate");
    assert_eq!(cache.puts, 2, "re-simulated cells are re-recorded");
    assert_eq!(
        manifest(&warm),
        cold_manifest,
        "a damaged store must not change the evidence"
    );

    // The re-recorded entries now serve hits.
    let healed = run_regression(&configs, &tests, &options());
    let cache = healed.cache.unwrap();
    assert_eq!((cache.hits, cache.simulated), (cells, 0));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cached_campaign_is_worker_count_invariant() {
    let dir_serial = temp_store("jobs1");
    let dir_parallel = temp_store("jobs4");
    let (configs, tests) = matrix();
    let options = |jobs: usize, dir: &PathBuf| RegressionOptions {
        seeds: vec![1, 2],
        jobs,
        cache_dir: Some(dir.clone()),
        ..RegressionOptions::default()
    };
    let cells = (configs.len() * tests.len() * 2) as u64;

    let cold_serial = run_regression(&configs, &tests, &options(1, &dir_serial));
    let cold_parallel = run_regression(&configs, &tests, &options(4, &dir_parallel));
    let serial_manifest = manifest(&cold_serial);
    assert_eq!(
        serial_manifest,
        manifest(&cold_parallel),
        "cold cached campaigns must stay worker-count invariant"
    );

    // Warm on 4 workers against the store a serial run filled.
    let warm = run_regression(&configs, &tests, &options(4, &dir_serial));
    let cache = warm.cache.unwrap();
    assert_eq!((cache.hits, cache.simulated), (cells, 0));
    assert_eq!(
        manifest(&warm),
        serial_manifest,
        "a warm parallel campaign must reproduce the serial evidence"
    );

    let _ = std::fs::remove_dir_all(&dir_serial);
    let _ = std::fs::remove_dir_all(&dir_parallel);
}
