//! Properties of the cell store and its content key.
//!
//! The cache is only sound if (1) whatever is put into the store comes
//! back byte-identical — through a *fresh* store handle, as a daemon or
//! a later process would open — and (2) the content key is a pure
//! function of the cell's semantic identity: stable across processes,
//! different whenever any identity component differs.

use cache::{Key, Lookup, Store};
use catg::{
    CheckerReport, CoverageGroup, CoverageReport, InitiatorStats, PortId, RunResult,
    ScoreboardError, Violation, ViolationKind,
};
use proptest::prelude::*;
use sim_kernel::{ActivityCoverage, BranchActivity, ProcessActivity};
use stbus_protocol::{ArbitrationKind, Architecture, NodeConfig, ProtocolType, RuleId, ViewKind};
use stbus_regression::cell_codec::CachedCell;
use stbus_regression::{cell_codec, cell_key, run_regression, RegressionOptions, RunRecord};
use std::collections::BTreeMap;
use std::path::PathBuf;
use telemetry::{HistogramSnapshot, MetricsSnapshot};

fn temp_store(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("stbus-cache-props-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Arbitrary unicode strings (the compat proptest has no string
/// strategies): sampled code points, invalid ones dropped. Deliberately
/// spans newlines, NUL, separators and multi-byte characters — the
/// envelope must survive all of them.
fn arb_string(max_len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x11_0000, 0..max_len)
        .prop_map(|points| points.into_iter().filter_map(char::from_u32).collect())
}

/// Strings that stress the codec's escaping: pieces of `arb_string`
/// mixed with the characters JSON must escape or that span several
/// bytes — quotes, backslashes, newlines and other control characters,
/// non-ASCII and non-BMP characters.
fn hostile_string() -> impl Strategy<Value = String> {
    const SPECIALS: [&str; 12] = [
        "\"", "\\", "\n", "\r\n", "\t", "\u{0}", "\u{1f}", "\u{7f}", "é", "日本", "😀", "\u{2028}",
    ];
    let piece = prop_oneof![
        arb_string(6),
        (0..SPECIALS.len()).prop_map(|i| SPECIALS[i].to_owned()),
    ];
    proptest::collection::vec(piece, 1..8).prop_map(|pieces| pieces.concat())
}

/// A cell carrying `s[k]` in every string field the codec writes, each
/// collection non-empty so that no field is skipped.
fn cell_with_strings(s: &[String]) -> CachedCell {
    let result = |view| RunResult {
        test: s[0].clone(),
        seed: 7,
        view,
        cycles: 120,
        checker: CheckerReport {
            violations: vec![Violation {
                kind: ViolationKind::Rule(RuleId::ReqStable),
                port: PortId::Initiator(1),
                cycle: 9,
                message: s[1].clone(),
            }],
            suppressed: 2,
            checks_passed: BTreeMap::from([(RuleId::EopPosition, 30)]),
        },
        scoreboard_errors: vec![ScoreboardError {
            cycle: 11,
            port: PortId::Target(0),
            message: s[2].clone(),
        }],
        scoreboard_checks: 40,
        coverage: CoverageReport {
            groups: vec![CoverageGroup {
                name: s[3].clone(),
                bins: BTreeMap::from([(s[4].clone(), 3), (format!("{}/2", s[4]), 0)]),
            }],
        },
        stats: vec![InitiatorStats {
            issued: 5,
            completed: 4,
            errors: 1,
            total_latency: 77,
        }],
        anomalies: vec![s[5].clone()],
        completed: false,
        transactions: 4,
        vcd: None,
        trace: None,
    };
    let ports = Some(vec![(s[6].clone(), 10, 12)]);
    CachedCell {
        record: RunRecord {
            test: s[0].clone(),
            seed: u64::MAX,
            rtl: result(ViewKind::Rtl),
            bca: result(ViewKind::Bca),
            alignment: ports.clone(),
            tlm: Some(result(ViewKind::Tlm)),
            tlm_alignment: ports.clone(),
            tlm_tx_alignment: ports,
            rtl_wall_us: 0,
            bca_wall_us: 0,
            tlm_wall_us: 0,
            compare_wall_us: Some(0),
            tlm_compare_wall_us: Some(0),
        },
        rtl_activity: ActivityCoverage {
            processes: vec![ProcessActivity {
                name: s[7].clone(),
                runs: 3,
            }],
            branches: vec![BranchActivity {
                name: s[8].clone(),
                hits: 0,
            }],
        },
        metrics: MetricsSnapshot {
            counters: BTreeMap::from([(s[9].clone(), 6)]),
            gauges: BTreeMap::from([(s[10].clone(), -2)]),
            histograms: BTreeMap::from([(
                s[11].clone(),
                HistogramSnapshot {
                    bounds: vec![1, 4],
                    buckets: vec![0, 2, 1],
                    count: 3,
                    sum: 9,
                    max: 5,
                },
            )]),
        },
        rtl_vcd_digest: Some(0xdead_beef),
        bca_vcd_digest: None,
        tlm_vcd_digest: Some(u64::MAX),
    }
}

fn arb_config() -> impl Strategy<Value = NodeConfig> {
    let protocol = prop_oneof![
        Just(ProtocolType::Type1),
        Just(ProtocolType::Type2),
        Just(ProtocolType::Type3),
    ];
    let arch = prop_oneof![
        Just(Architecture::SharedBus),
        Just(Architecture::FullCrossbar),
        (1usize..=4).prop_map(|lanes| Architecture::PartialCrossbar { lanes }),
    ];
    let arbitration = prop_oneof![
        Just(ArbitrationKind::FixedPriority),
        Just(ArbitrationKind::Lru),
        Just(ArbitrationKind::RoundRobin),
    ];
    (
        1usize..=5,
        1usize..=5,
        prop_oneof![Just(4usize), Just(8), Just(16)],
        protocol,
        arch,
        arbitration,
    )
        .prop_map(|(initiators, targets, bus, protocol, arch, arbitration)| {
            NodeConfig::builder("prop")
                .initiators(initiators)
                .targets(targets)
                .bus_bytes(bus)
                .protocol(protocol)
                .architecture(arch)
                .arbitration(arbitration)
                .build()
                .expect("sampled configuration is valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary payloads survive the store byte-for-byte, read back
    /// through a freshly opened handle on the same root (what a second
    /// process — or the serve daemon after a restart — would do).
    #[test]
    fn payloads_round_trip_through_a_fresh_store_handle(
        parts in proptest::collection::vec(arb_string(12), 1..5),
        payload in arb_string(400),
    ) {
        let root = temp_store("payload");
        let key = Key::from_parts(&parts);
        let writer = Store::open(root.clone());
        writer.put(&key, &payload).expect("put succeeds");

        let reader = Store::open(root.clone());
        let (lookup, got) = reader.get(&key);
        prop_assert_eq!(lookup, Lookup::Hit);
        prop_assert_eq!(got.as_deref(), Some(payload.as_str()));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// `decode ∘ encode` is the identity on cells whose every string —
    /// test name, violation and scoreboard messages, anomalies, coverage
    /// group and bin names, alignment port names, activity names, metric
    /// names — holds characters the JSON layer must escape or decode.
    #[test]
    fn cells_with_hostile_strings_round_trip(
        strings in proptest::collection::vec(hostile_string(), 12),
    ) {
        let cell = cell_with_strings(&strings);
        let payload = cell_codec::encode(&cell);
        let back = cell_codec::decode(&payload).expect("own payload decodes");
        // The cell types have no `PartialEq`; their `Debug` form renders
        // every field, strings escaped.
        prop_assert_eq!(format!("{back:?}"), format!("{cell:?}"));
        prop_assert_eq!(cell_codec::encode(&back), payload);
    }

    /// The content key is a pure function of the cell identity: the hex
    /// form is canonical, recomputation agrees, and flipping the seed or
    /// the configuration moves the key.
    #[test]
    fn cell_keys_are_pure_and_identity_sensitive(
        config in arb_config(),
        test_idx in 0usize..12,
        seed in 1u64..=1_000_000,
    ) {
        let options = RegressionOptions::default();
        let spec = &catg::tests_lib::all(6)[test_idx];
        let key = cell_key(&config, spec, seed, &options);
        prop_assert_eq!(key.as_str().len(), 32);
        prop_assert!(key.as_str().chars().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        prop_assert_eq!(&cell_key(&config, spec, seed, &options), &key);
        prop_assert_ne!(&cell_key(&config, spec, seed + 1, &options), &key);
        let mut other = config.clone();
        other.max_outstanding += 1;
        prop_assert_ne!(&cell_key(&other, spec, seed, &options), &key);
    }
}

/// The key must be stable across processes and versions of *this build*:
/// it is derived only from hashed strings, never from pointers, map
/// iteration order or per-process state. Two derivations in any two
/// processes agree — pinned here against a literal computed once.
#[test]
fn content_key_is_stable_across_processes() {
    let key = Key::from_parts(["stbus-cell/1", "alpha", "beta"]);
    assert_eq!(key.as_str(), "6e74c7ea4ee08e3376f87a3dcc899620");
}

/// Every cell a real campaign records decodes back to a `CachedCell`
/// that re-encodes byte-identically — the codec is canonical, so no
/// information is lost between the simulated result and its stored form.
#[test]
fn recorded_cells_round_trip_losslessly() {
    let dir = temp_store("cells");
    let configs = vec![NodeConfig::reference()];
    let tests = vec![
        catg::tests_lib::basic_read_write(5),
        catg::tests_lib::random_mixed(5),
    ];
    let options = RegressionOptions {
        seeds: vec![1, 2],
        cache_dir: Some(dir.clone()),
        ..RegressionOptions::default()
    };
    run_regression(&configs, &tests, &options);

    let store = Store::open(dir.clone());
    let mut checked = 0;
    for config in &configs {
        for spec in &tests {
            for &seed in &options.seeds {
                let key = cell_key(config, spec, seed, &options);
                let (lookup, payload) = store.get(&key);
                assert_eq!(lookup, Lookup::Hit, "campaign recorded every cell");
                let payload = payload.unwrap();
                let cell = cell_codec::decode(&payload).expect("recorded payload decodes");
                assert_eq!(cell.record.test, spec.name);
                assert_eq!(cell.record.seed, seed);
                assert_eq!(
                    cell_codec::encode(&cell),
                    payload,
                    "decode ∘ encode must be the identity on recorded cells"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// With waveform comparison on, a filled store's entries carry the trace
/// digests of both compared views — the runner computes them for the
/// store even though an uncached campaign skips them — and each equals
/// the digest of the trace the same run captures outside the campaign.
#[test]
fn recorded_cells_carry_the_compared_trace_digests() {
    let dir = temp_store("digests");
    let config = NodeConfig::reference();
    let spec = catg::tests_lib::basic_read_write(5);
    let options = RegressionOptions {
        seeds: vec![1],
        cache_dir: Some(dir.clone()),
        ..RegressionOptions::default()
    };
    assert!(options.compare_waveforms);
    run_regression(
        std::slice::from_ref(&config),
        std::slice::from_ref(&spec),
        &options,
    );

    let key = cell_key(&config, &spec, 1, &options);
    let payload = Store::open(dir.clone()).get(&key).1.expect("cell recorded");
    let cell = cell_codec::decode(&payload).expect("recorded payload decodes");

    let bench = catg::Testbench::new(
        config.clone(),
        catg::TestbenchOptions {
            capture_trace: true,
            ..catg::TestbenchOptions::default()
        },
    );
    let trace_digest = |dut: &mut dyn stbus_protocol::DutView| {
        let run = bench.run(dut, &spec, 1);
        run.trace.expect("trace captured").digest()
    };
    let rtl = trace_digest(&mut stbus_rtl::RtlNode::new(config.clone()));
    let bca = trace_digest(&mut stbus_bca::BcaNode::new(config, options.fidelity));
    assert_eq!(cell.rtl_vcd_digest, Some(rtl));
    assert_eq!(cell.bca_vcd_digest, Some(bca));
    assert_eq!(cell.tlm_vcd_digest, None, "no TLM view was run");
    let _ = std::fs::remove_dir_all(&dir);
}
