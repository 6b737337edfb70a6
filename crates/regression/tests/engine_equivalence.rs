//! Cross-engine equivalence: the compiled simulation backend must be a
//! drop-in replacement for the event kernel. For randomly sampled
//! E1-matrix configurations, both engines must produce byte-identical
//! VCDs, identical coverage reports, identical STBA alignment, and a
//! byte-identical report tree (modulo the manifest's engine tag and
//! kernel-metric namespaces). The compiled engine must also keep the
//! worker-count determinism guarantee (jobs 1 ≡ jobs 4).

use catg::{Testbench, TestbenchOptions};
use sim_kernel::SimBackend;
use stbus_protocol::NodeConfig;
use stbus_regression::{run_regression, standard_configs, RegressionOptions, RegressionReport};
use telemetry::Json;

/// Deterministically samples `n` distinct E1-matrix configurations.
fn sampled_configs(n: usize, mut seed: u64) -> Vec<NodeConfig> {
    let all = standard_configs();
    let mut picked = Vec::new();
    let mut taken = vec![false; all.len()];
    while picked.len() < n {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let idx = ((seed >> 33) as usize) % all.len();
        if !taken[idx] {
            taken[idx] = true;
            picked.push(all[idx].clone());
        }
    }
    picked
}

fn campaign(engine: SimBackend, jobs: usize) -> RegressionReport {
    let configs = sampled_configs(3, 0x5EED_CAFE);
    let tests = vec![
        catg::tests_lib::basic_read_write(8),
        catg::tests_lib::random_mixed(8),
    ];
    let options = RegressionOptions {
        seeds: vec![1, 2],
        jobs,
        engine,
        ..RegressionOptions::default()
    };
    run_regression(&configs, &tests, &options)
}

/// Drops the fields that legitimately differ across engines: the
/// top-level `"engine"` tag and the metrics snapshot, whose kernel
/// counters live under `kernel.*` on the event backend and
/// `kernel.compiled.*` on the compiled one.
fn engine_neutral_manifest(report: &RegressionReport) -> String {
    let manifest = report.manifest_json();
    let Json::Obj(fields) = manifest else {
        panic!("manifest is an object")
    };
    Json::Obj(
        fields
            .into_iter()
            .filter(|(k, _)| k != "engine" && k != "metrics")
            .collect(),
    )
    .render_pretty()
}

#[test]
fn compiled_engine_reports_are_byte_identical_to_event() {
    let event = campaign(SimBackend::Event, 1);
    let compiled = campaign(SimBackend::Compiled, 1);

    // The §5 table — pass/fail, functional coverage, STBA alignment per
    // configuration — must not change with the engine.
    assert_eq!(event.table(), compiled.table());

    // Neither may any per-run figure in the manifest: cycles,
    // transactions, checker counts, per-port alignment, code coverage.
    assert_eq!(
        engine_neutral_manifest(&event),
        engine_neutral_manifest(&compiled)
    );

    // Every run's verification and coverage report files are rendered
    // from the records compared above; spot-check the textual artifacts
    // all the same.
    for (ce, cc) in event.configs.iter().zip(&compiled.configs) {
        for (re, rc) in ce.runs.iter().zip(&cc.runs) {
            assert_eq!(
                re.rtl.verification_report(),
                rc.rtl.verification_report(),
                "{}/{} seed {}",
                ce.config.name,
                re.test,
                re.seed
            );
            assert_eq!(re.rtl.coverage_report(), rc.rtl.coverage_report());
            assert_eq!(re.alignment, rc.alignment);
        }
        // The RTL structural (process/branch) coverage — the paper's code
        // coverage — must agree hit-for-hit.
        assert_eq!(ce.code_coverage_rtl, cc.code_coverage_rtl);
    }
}

#[test]
fn compiled_engine_keeps_worker_count_determinism() {
    let serial = campaign(SimBackend::Compiled, 1);
    let parallel = campaign(SimBackend::Compiled, 4);
    assert_eq!(serial.table(), parallel.table());
    assert_eq!(
        serial.manifest_json().render_pretty(),
        parallel.manifest_json().render_pretty()
    );
}

#[test]
fn compiled_engine_vcd_is_byte_identical_to_event() {
    // The raw waveform itself — not just the alignment summary — must
    // match byte for byte, for every sampled configuration.
    for cfg in sampled_configs(2, 0xD1CE) {
        let tb = Testbench::new(
            cfg.clone(),
            TestbenchOptions {
                capture_vcd: true,
                ..TestbenchOptions::default()
            },
        );
        let spec = catg::tests_lib::random_mixed(10);
        for seed in [1, 7] {
            let mut ev = stbus_rtl::RtlNode::with_engine(cfg.clone(), SimBackend::Event);
            let mut cp = stbus_rtl::RtlNode::with_engine(cfg.clone(), SimBackend::Compiled);
            let re = tb.run(&mut ev, &spec, seed);
            let rc = tb.run(&mut cp, &spec, seed);
            assert_eq!(re.vcd, rc.vcd, "VCD mismatch on {} seed {seed}", cfg.name);
            assert_eq!(re.coverage, rc.coverage, "{} seed {seed}", cfg.name);
            assert_eq!(ev.activity_coverage(), cp.activity_coverage());
        }
    }
}
