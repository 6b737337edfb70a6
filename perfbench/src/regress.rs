//! The regression workloads (`regress-cold`, `regress-warm`): the
//! default campaign, its canonical outputs, and its traced re-drive.

use crate::trace::{traced_run, Layers};
use crate::{digest, CellDigest, Identity};
use cache::{Lookup, Store};
use catg::{tests_lib, CoverageReport, RunResult, TestSpec, Testbench, TestbenchOptions};
use regression::cell_codec::{self, CachedCell};
use regression::{
    cell_key, run_regression, CacheSummary, ConfigOutcome, RegressionOptions, RegressionReport,
    RunRecord,
};
use stbus_bca::BcaNode;
use stbus_protocol::{DutView, NodeConfig, ViewKind};
use stbus_rtl::RtlNode;
use std::path::Path;
use std::time::Instant;
use telemetry::Json;

/// Per-initiator transactions per test, as in `stbus-regress --intensity 10`.
pub const INTENSITY: usize = 10;

/// The seed sets the benchmark seed selects among (`seed % 8`). Set 0 is
/// the campaign's default `{1, 2}`; the others are disjoint pairs from
/// seeds 3..=20 whose simulated cycles (RTL + BCA, as `--survey-seeds 20`
/// prints them) lie within 0.25% of the default pair's 141,597, so a run
/// measures the program rather than the size of its draw.
const SEED_TABLE: [[u64; 2]; 8] = [
    [1, 2],
    [3, 12],
    [6, 13],
    [9, 18],
    [10, 17],
    [11, 15],
    [14, 19],
    [16, 20],
];

/// Number of distinct seed sets.
pub const SEED_SETS: u64 = SEED_TABLE.len() as u64;

/// The test seeds of seed set `k`.
pub fn seeds(k: u64) -> Vec<u64> {
    SEED_TABLE[(k % SEED_SETS) as usize].to_vec()
}

/// The campaign's inputs: the 40-configuration standard matrix and the
/// 12-test library.
#[derive(Clone)]
pub struct Inputs {
    /// Configurations.
    pub configs: Vec<NodeConfig>,
    /// Tests.
    pub tests: Vec<TestSpec>,
}

/// Builds the campaign inputs (the set-up every pass shares).
pub fn inputs() -> Inputs {
    Inputs {
        configs: regression::standard_configs(),
        tests: tests_lib::all(INTENSITY),
    }
}

/// Campaign options: default engine, views and fidelity, waveform
/// comparison on, one job, and the given seeds and cell store. A fresh
/// value per campaign: its telemetry registry accumulates for its
/// lifetime.
pub fn options(seeds: &[u64], cache_dir: Option<&Path>) -> RegressionOptions {
    RegressionOptions {
        seeds: seeds.to_vec(),
        intensity: INTENSITY,
        jobs: 1,
        cache_dir: cache_dir.map(Path::to_path_buf),
        ..RegressionOptions::default()
    }
}

/// The report as the user receives it: the table and the manifest.
pub fn render(report: &RegressionReport) -> Vec<String> {
    vec![report.table(), report.manifest_json().render_pretty()]
}

/// The timed call: the campaign through to its rendered report.
pub fn campaign(inputs: &Inputs, options: &RegressionOptions) -> (RegressionReport, Vec<String>) {
    let report = run_regression(&inputs.configs, &inputs.tests, options);
    let texts = render(&report);
    (report, texts)
}

fn stripped_manifest(report: &RegressionReport) -> Json {
    let mut report = report.clone();
    report.strip_timings();
    report.manifest_json()
}

/// Digest of the whole deterministic output: the manifest with timings
/// stripped.
pub fn output_digest(report: &RegressionReport) -> String {
    digest(&stripped_manifest(report).render_pretty())
}

/// One digest per `{config, test, seed}` cell: its run record as the
/// stripped manifest renders it.
pub fn cell_digests(report: &RegressionReport) -> Vec<CellDigest> {
    let manifest = stripped_manifest(report);
    let mut cells = Vec::new();
    for config in manifest
        .get("configs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        let name = config.get("name").and_then(Json::as_str).unwrap_or("?");
        for run in config
            .get("runs")
            .and_then(Json::as_arr)
            .unwrap_or_default()
        {
            let test = run.get("test").and_then(Json::as_str).unwrap_or("?");
            let seed = run.get("seed").and_then(Json::as_u64).unwrap_or(0);
            cells.push(CellDigest {
                id: format!("{name}/{test}/{seed}"),
                digest: digest(&run.render()),
            });
        }
    }
    cells
}

/// Cells, runs, cycles per view and hung runs of a report.
pub fn identity(report: &RegressionReport) -> Identity {
    let mut id = Identity::default();
    for run in report.configs.iter().flat_map(|c| &c.runs) {
        id.cells += 1;
        let results = [Some(&run.rtl), Some(&run.bca), run.tlm.as_ref()];
        for result in results.into_iter().flatten() {
            id.runs += 1;
            id.hung += u64::from(!result.completed);
            match result.view {
                ViewKind::Rtl => id.rtl_cycles += result.cycles,
                ViewKind::Bca => id.bca_cycles += result.cycles,
                ViewKind::Tlm => id.tlm_cycles += result.cycles,
            }
        }
    }
    id
}

/// The campaign re-driven cell by cell through the layers' public
/// functions, mirroring `run_regression` for the RTL + BCA views: with
/// `options.cache_dir` set, each cell is looked up first and a
/// simulated cell is encoded and recorded (a fill on an empty store, a
/// warm pass on a full one). Returns the assembled report, rendered
/// through [`Layers::render`].
pub fn traced_campaign(
    inputs: &Inputs,
    options: &RegressionOptions,
    layers: &mut Layers,
) -> RegressionReport {
    assert_eq!(
        options.views,
        [ViewKind::Rtl, ViewKind::Bca],
        "the traced campaign mirrors the two-view flow"
    );
    let tel = &options.telemetry;
    let store = options
        .cache_dir
        .as_ref()
        .map(|root| Store::open(root.clone()));
    let mut summary = CacheSummary::default();
    let mut report = RegressionReport {
        engine: options.engine,
        ..RegressionReport::default()
    };
    for config in &inputs.configs {
        let mut outcome = ConfigOutcome {
            config: config.clone(),
            runs: Vec::new(),
            coverage_rtl: None,
            coverage_bca: None,
            coverage_tlm: None,
            code_coverage_rtl: None,
        };
        for spec in &inputs.tests {
            for &seed in &options.seeds {
                let key = store
                    .as_ref()
                    .map(|s| (s, cell_key(config, spec, seed, options)));
                let hit = key
                    .as_ref()
                    .and_then(|(s, key)| lookup(s, key, spec, seed, layers));
                let cell = match hit {
                    Some(cell) => {
                        summary.hits += 1;
                        tel.metrics().absorb(&cell.metrics);
                        cell
                    }
                    None => {
                        summary.misses += u64::from(key.is_some());
                        summary.simulated += 1;
                        let cell = simulate(config, spec, seed, options, key.is_some(), layers);
                        if let Some((s, key)) = &key {
                            let started = Instant::now();
                            let payload = cell_codec::encode(&cell);
                            layers.codec_encode += started.elapsed();
                            let started = Instant::now();
                            let written = s.put(key, &payload).is_ok();
                            layers.cache_put += started.elapsed();
                            if written {
                                summary.puts += 1;
                                layers.cache_bytes_written += payload.len() as u64;
                            }
                            // The cell ran under a private registry.
                            tel.metrics().absorb(&cell.metrics);
                        }
                        cell
                    }
                };
                merge_cov(&mut outcome.coverage_rtl, &cell.record.rtl.coverage);
                merge_cov(&mut outcome.coverage_bca, &cell.record.bca.coverage);
                match &mut outcome.code_coverage_rtl {
                    Some(acc) => acc.merge(&cell.rtl_activity),
                    None => outcome.code_coverage_rtl = Some(cell.rtl_activity),
                }
                outcome.runs.push(cell.record);
            }
        }
        report.configs.push(outcome);
    }
    if store.is_some() {
        report.cache = Some(summary);
    }
    report.metrics = tel.metrics().snapshot();
    layers.render(|| render(&report));
    report
}

/// Store lookup and decode of one cell, timed; `None` on a miss or an
/// unusable entry.
fn lookup(
    store: &Store,
    key: &cache::Key,
    spec: &TestSpec,
    seed: u64,
    layers: &mut Layers,
) -> Option<CachedCell> {
    let started = Instant::now();
    let (found, payload) = store.get(key);
    layers.cache_get += started.elapsed();
    let cell = match (found, payload) {
        (Lookup::Hit, Some(payload)) => {
            layers.cache_bytes_read += payload.len() as u64;
            let started = Instant::now();
            let cell = cell_codec::decode(&payload);
            layers.codec_decode += started.elapsed();
            cell.filter(|c| c.record.test == spec.name && c.record.seed == seed)
        }
        _ => None,
    };
    if cell.is_some() {
        layers.cache_hits += 1;
    } else {
        layers.cache_misses += 1;
    }
    cell
}

/// Simulates one cell on RTL and BCA and compares the waveforms when
/// both runs passed, as the runner does.
fn simulate(
    config: &NodeConfig,
    spec: &TestSpec,
    seed: u64,
    options: &RegressionOptions,
    cached: bool,
    layers: &mut Layers,
) -> CachedCell {
    // A cached cell keeps a private metrics registry whose snapshot is
    // stored with it, exactly as the runner does.
    let tel = if cached {
        options.telemetry.scoped_metrics()
    } else {
        options.telemetry.buffered()
    };
    let tb_options = TestbenchOptions {
        capture_vcd: options.compare_waveforms,
        telemetry: tel.clone(),
        ..TestbenchOptions::default()
    };
    let bench = Testbench::new(config.clone(), tb_options.clone());
    let started = Instant::now();
    let mut rtl = RtlNode::with_engine(config.clone(), options.engine);
    layers.rtl_elaborate += started.elapsed();
    rtl.attach_metrics(tel.metrics());
    let mut bca = BcaNode::new(config.clone(), options.fidelity);
    for bug in &options.bca_bugs {
        bca.inject_bug(*bug);
    }
    let rtl_result = traced_run(&bench, &tb_options, &mut rtl, spec, seed, layers);
    let bca_result = traced_run(&bench, &tb_options, &mut bca, spec, seed, layers);

    let mut compare_wall_us = None;
    let alignment = match (&rtl_result.vcd, &bca_result.vcd) {
        (Some(a), Some(b))
            if options.compare_waveforms && rtl_result.passed() && bca_result.passed() =>
        {
            compare_wall_us = Some(0);
            let outcome = layers.compare(false, a, b, || {
                stba::compare_vcd_with(a, b, catg::vcd_cycle_time(), &tel)
            });
            outcome.ok().map(|r| {
                r.ports
                    .into_iter()
                    .map(|p| (p.port, p.matching_cycles, p.total_cycles))
                    .collect()
            })
        }
        _ => None,
    };
    CachedCell {
        rtl_vcd_digest: cell_codec::vcd_digest(rtl_result.vcd.as_ref()),
        bca_vcd_digest: cell_codec::vcd_digest(bca_result.vcd.as_ref()),
        tlm_vcd_digest: None,
        record: RunRecord {
            test: spec.name.clone(),
            seed,
            rtl: strip_vcd(rtl_result),
            bca: strip_vcd(bca_result),
            alignment,
            tlm: None,
            tlm_alignment: None,
            tlm_tx_alignment: None,
            rtl_wall_us: 0,
            bca_wall_us: 0,
            tlm_wall_us: 0,
            compare_wall_us,
            tlm_compare_wall_us: None,
        },
        rtl_activity: rtl.activity_coverage(),
        metrics: if cached {
            tel.metrics().snapshot()
        } else {
            telemetry::MetricsSnapshot::default()
        },
    }
}

fn merge_cov(acc: &mut Option<CoverageReport>, new: &CoverageReport) {
    match acc {
        Some(a) => a.merge(new),
        None => *acc = Some(new.clone()),
    }
}

fn strip_vcd(mut result: RunResult) -> RunResult {
    result.vcd = None;
    result
}
