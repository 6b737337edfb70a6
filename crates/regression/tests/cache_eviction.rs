//! Cache GC under pressure: two campaign shapes sharing one store that
//! is too small for both. The LRU pass must evict oldest-first (the
//! campaign that ran longest ago loses its cells), never disturb the
//! surviving campaign's warm hits, and re-simulated evicted cells must
//! reproduce their original evidence byte-for-byte.

use stbus_protocol::NodeConfig;
use stbus_regression::{run_regression, standard_configs, RegressionOptions, RegressionReport};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

fn temp_store(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("stbus-cache-gc-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Campaign A: one configuration, one test, two seeds — 2 cells.
fn shape_a() -> (Vec<NodeConfig>, Vec<catg::TestSpec>, Vec<u64>) {
    (
        vec![NodeConfig::reference()],
        vec![catg::tests_lib::basic_read_write(4)],
        vec![1, 2],
    )
}

/// Campaign B: a different configuration and three tests — 3 cells,
/// disjoint from every A cell key.
fn shape_b() -> (Vec<NodeConfig>, Vec<catg::TestSpec>, Vec<u64>) {
    (
        vec![standard_configs()[5].clone()],
        vec![
            catg::tests_lib::basic_read_write(6),
            catg::tests_lib::out_of_order(6),
            catg::tests_lib::back_to_back(6),
        ],
        vec![1],
    )
}

fn options(dir: &Path, seeds: Vec<u64>, jobs: usize) -> RegressionOptions {
    let mut o = RegressionOptions {
        seeds,
        jobs,
        cache_dir: Some(dir.to_path_buf()),
        ..RegressionOptions::default()
    };
    // Room for the larger campaign alone, not for both: 2 + 3 cells
    // against a 3-entry budget forces the GC to choose.
    o.cache_gc.max_entries = Some(3);
    o
}

/// File-write mtimes are stamped from the kernel's coarse clock (a few
/// milliseconds per tick on some filesystems) while the LRU hit-touch
/// uses a precise `SystemTime::now()`. The store documents this as an
/// eviction-precision allowance, so the test separates its campaigns by
/// more than one tick to keep the intended LRU order unambiguous.
fn settle() {
    std::thread::sleep(Duration::from_millis(25));
}

fn manifest(report: &RegressionReport) -> String {
    report.manifest_json().render_pretty()
}

#[test]
fn mixed_campaigns_evict_oldest_first_and_keep_warm_hits_identical() {
    let dir = temp_store("mixed");
    let (a_configs, a_tests, a_seeds) = shape_a();
    let (b_configs, b_tests, b_seeds) = shape_b();

    // Campaign A cold: fills 2 of the 3 budgeted entries — no eviction.
    let a_cold = run_regression(&a_configs, &a_tests, &options(&dir, a_seeds.clone(), 1));
    let a_manifest = manifest(&a_cold);
    let cache = a_cold.cache.expect("cache summary present");
    assert_eq!((cache.puts, cache.evicted), (2, 0));

    // Campaign B cold (on more workers): the store now holds 5 entries
    // against a budget of 3, and the post-campaign GC must drop the two
    // oldest — which are exactly campaign A's.
    settle();
    let b_cold = run_regression(&b_configs, &b_tests, &options(&dir, b_seeds.clone(), 4));
    let b_manifest = manifest(&b_cold);
    let cache = b_cold.cache.expect("cache summary present");
    assert_eq!(cache.puts, 3);
    assert_eq!(cache.evicted, 2, "two oldest entries leave the store");

    // Campaign B warm: all three cells answered from the store, zero
    // simulations, byte-identical evidence — eviction of the *other*
    // campaign must not disturb this one.
    settle();
    let b_warm = run_regression(&b_configs, &b_tests, &options(&dir, b_seeds, 4));
    let cache = b_warm.cache.expect("cache summary present");
    assert_eq!(
        (cache.hits, cache.misses, cache.simulated, cache.evicted),
        (3, 0, 0, 0)
    );
    assert_eq!(
        manifest(&b_warm),
        b_manifest,
        "warm hits must reproduce campaign B byte-for-byte"
    );

    // Campaign A again: its cells were the ones evicted (oldest-first),
    // so everything misses and re-simulates — and the re-simulated
    // evidence is byte-identical to the original cold run. Its own GC
    // pass then squeezes the store back to budget at campaign B's
    // expense (B's entries are now the oldest).
    settle();
    let a_again = run_regression(&a_configs, &a_tests, &options(&dir, a_seeds.clone(), 1));
    let cache = a_again.cache.expect("cache summary present");
    assert_eq!(
        (cache.hits, cache.misses, cache.simulated),
        (0, 2, 2),
        "campaign A's cells must have been the evicted ones"
    );
    assert_eq!(cache.puts, 2);
    assert_eq!(cache.evicted, 2, "now campaign B pays: its oldest two go");
    assert_eq!(
        manifest(&a_again),
        a_manifest,
        "re-simulated evicted cells must reproduce the original evidence"
    );

    // And campaign A is warm again: its fresh entries are the newest in
    // the store, so the budget keeps them.
    settle();
    let warm = run_regression(&a_configs, &a_tests, &options(&dir, a_seeds, 1));
    let cache = warm.cache.expect("cache summary present");
    assert_eq!((cache.hits, cache.simulated, cache.evicted), (2, 0, 0));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn byte_budget_evicts_like_entry_budget() {
    let dir = temp_store("bytes");
    let (a_configs, a_tests, a_seeds) = shape_a();
    let mut opts = options(&dir, a_seeds.clone(), 1);
    opts.cache_gc.max_entries = None;
    let cold = run_regression(&a_configs, &a_tests, &opts);
    assert_eq!(cold.cache.expect("summary").puts, 2);

    // A one-byte budget cannot keep either entry.
    let mut opts = options(&dir, a_seeds, 1);
    opts.cache_gc.max_entries = None;
    opts.cache_gc.max_bytes = Some(1);
    let warm = run_regression(&a_configs, &a_tests, &opts);
    let cache = warm.cache.expect("summary");
    assert_eq!(cache.hits, 2, "eviction happens after the campaign");
    assert_eq!(cache.evicted, 2, "a one-byte budget keeps nothing");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A killed writer's temp file, aged `age` into the past, in a shard of
/// the store at `dir`.
fn orphan(dir: &Path, name: &str, age: Duration) -> PathBuf {
    let shard = dir.join("00");
    std::fs::create_dir_all(&shard).unwrap();
    let path = shard.join(format!(".tmp.{name}.4242.0"));
    std::fs::write(&path, b"half an entry").unwrap();
    let file = std::fs::File::options().write(true).open(&path).unwrap();
    file.set_modified(SystemTime::now() - age).unwrap();
    path
}

#[test]
fn unbounded_campaign_sweeps_stale_orphans_and_reports_them() {
    let dir = temp_store("orphans");
    let (configs, tests, seeds) = shape_a();
    let grace = cache::ORPHAN_GRACE;
    let stale = orphan(&dir, "stale", grace + Duration::from_secs(60));
    let fresh = orphan(&dir, "fresh", grace / 2);

    // No bound is set: nothing is evicted, but the stale orphan goes.
    let mut opts = options(&dir, seeds, 1);
    opts.cache_gc.max_entries = None;
    let report = run_regression(&configs, &tests, &opts);
    let cache = report.cache.expect("summary");
    assert_eq!((cache.puts, cache.evicted, cache.orphans), (2, 0, 1));
    let reported = cache.to_json().get("orphans").and_then(|v| v.as_u64());
    assert_eq!(reported, Some(1));
    assert!(!stale.exists(), "an orphan past the grace is reclaimed");
    assert!(fresh.exists(), "a temp file within the grace may be live");

    let _ = std::fs::remove_dir_all(&dir);
}
