//! The `qualify` workload: the mutation qualification campaign over the
//! whole catalogue, its canonical per-cell verdicts, and its traced
//! re-drive.

use crate::trace::{traced_run, Layers};
use crate::{digest, CellDigest, Identity};
use catg::tests_lib::qualification as qual;
use catg::{Testbench, TestbenchOptions};
use mutation::{
    catalogue, CatalogueEntry, Detector, Mutation, QualificationReport, QualifyOptions,
};
use stbus_protocol::ViewKind;
use std::collections::BTreeMap;
use telemetry::Json;

/// The functional test seed of each seed set (`seed % 8`). Most of a
/// pass is spent in runs that hang until the cycle limit, and how many
/// hang depends on the seed, so the table holds the seeds from 1..=20
/// (surveyed with `--survey-seeds 20`) whose campaigns hang the same BCA
/// runs (1,835k ± 1k BCA cycles) and at most two TLM runs: every set does
/// nearly the same work. The alignment cells always replay the
/// catalogue's fixed alignment seed.
const SEED_TABLE: [u64; 8] = [2, 3, 5, 8, 12, 13, 15, 18];

/// Number of distinct seed sets.
pub const SEED_SETS: u64 = SEED_TABLE.len() as u64;

/// The functional test seeds of seed set `k`.
pub fn seeds(k: u64) -> Vec<u64> {
    vec![SEED_TABLE[(k % SEED_SETS) as usize]]
}

/// Campaign options: the catalogue's qualification configurations,
/// suite and alignment specs, one job, the given functional seeds.
pub fn options(seeds: &[u64]) -> QualifyOptions {
    QualifyOptions {
        seeds: seeds.to_vec(),
        jobs: 1,
        ..QualifyOptions::default()
    }
}

/// The report as the user receives it: the detection matrix and
/// `qualification.json`.
pub fn render(report: &QualificationReport) -> Vec<String> {
    vec![report.table(), report.qualification_json().render_pretty()]
}

/// The timed call: the campaign through to its rendered report.
pub fn campaign(options: &QualifyOptions) -> (QualificationReport, Vec<String>) {
    let report = mutation::run_qualification(options);
    let texts = render(&report);
    (report, texts)
}

/// Digest of the whole deterministic output: `qualification.json` with
/// timings stripped.
pub fn output_digest(report: &QualificationReport) -> String {
    let mut report = report.clone();
    report.strip_timings();
    digest(&report.qualification_json().render_pretty())
}

/// Detectors a single functional run can fire (the others are judged on
/// alignment pairs or merged coverage).
fn is_functional(detector: Detector) -> bool {
    matches!(
        detector,
        Detector::Checker(_) | Detector::Starvation | Detector::Scoreboard
    )
}

fn functional_id(entry: &str, config: &str, test: &str, seed: u64) -> String {
    format!("F/{entry}/{config}/{test}/{seed}")
}

fn alignment_id(entry: &str, config: &str, spec: &str) -> String {
    format!("A/{entry}/{config}/{spec}")
}

fn alignment_verdict(rate: Option<f64>, baseline: Option<f64>, detected: bool) -> String {
    format!("{rate:?}|{baseline:?}|{detected}")
}

/// Every matrix cell in campaign order, with the verdict text `verdict`
/// gives it.
fn cells_in_order(
    options: &QualifyOptions,
    mut verdict: impl FnMut(&str) -> String,
) -> Vec<CellDigest> {
    let mut cells = Vec::new();
    for entry in catalogue() {
        let label = entry.label();
        for config in &options.configs {
            for spec in &options.tests {
                for &seed in &options.seeds {
                    let id = functional_id(&label, &config.name, &spec.name, seed);
                    cells.push(CellDigest {
                        digest: digest(&verdict(&id)),
                        id,
                    });
                }
            }
            for spec in &options.alignment_specs {
                let id = alignment_id(&label, &config.name, &spec.name);
                cells.push(CellDigest {
                    digest: digest(&verdict(&id)),
                    id,
                });
            }
        }
    }
    cells
}

/// One digest per cell: a functional cell's detector (or `none`), an
/// alignment cell's rate, clean baseline and verdict, as the report
/// states them.
pub fn cell_digests(report: &QualificationReport, options: &QualifyOptions) -> Vec<CellDigest> {
    let mut verdicts: BTreeMap<String, String> = BTreeMap::new();
    for outcome in &report.outcomes {
        for det in outcome
            .detections
            .iter()
            .filter(|d| is_functional(d.detector))
        {
            verdicts.insert(
                functional_id(&outcome.label, &det.config, &det.test, det.seed),
                det.detector.to_string(),
            );
        }
        for cell in &outcome.alignment {
            verdicts.insert(
                alignment_id(&outcome.label, &cell.config, &cell.spec),
                alignment_verdict(cell.rate, cell.baseline, cell.detected),
            );
        }
    }
    cells_in_order(options, |id| {
        verdicts
            .get(id)
            .cloned()
            .unwrap_or_else(|| "none".to_owned())
    })
}

/// Cells and runs of the matrix (cycles and hung runs are only visible
/// to the traced run).
pub fn matrix_identity(options: &QualifyOptions) -> Identity {
    let per_config = (options.tests.len() * options.seeds.len()) as u64;
    let pairs = options.alignment_specs.len() as u64;
    let blocks = (catalogue().len() * options.configs.len()) as u64;
    Identity {
        cells: blocks * (per_config + pairs),
        runs: blocks * (per_config + 2 * pairs),
        ..Identity::default()
    }
}

/// The identity the traced run observed.
pub fn traced_identity(options: &QualifyOptions, layers: &Layers) -> Identity {
    Identity {
        rtl_cycles: layers.rtl_cycles,
        bca_cycles: layers.bca_cycles,
        tlm_cycles: layers.tlm_cycles,
        hung: layers.hung_runs,
        runs: layers.tb_runs,
        ..matrix_identity(options)
    }
}

/// The campaign re-driven cell by cell through the layers' public
/// functions, mirroring `run_qualification`'s cells: functional runs of
/// the mutated view, and alignment pairs against the clean opposite view
/// judged against the clean control of the same view. Returns the
/// per-cell verdict digests, in the form [`cell_digests`] gives them.
pub fn traced_campaign(options: &QualifyOptions, layers: &mut Layers) -> Vec<CellDigest> {
    let tel = options.telemetry.buffered();
    let mut functional: BTreeMap<String, String> = BTreeMap::new();
    // (entry, config, spec) → raw alignment rate.
    let mut rates: BTreeMap<(String, String, String), Option<f64>> = BTreeMap::new();
    for entry in catalogue() {
        let label = entry.label();
        for config in &options.configs {
            let tb_options = TestbenchOptions {
                telemetry: tel.clone(),
                ..qual::functional_options()
            };
            let bench = Testbench::new(config.clone(), tb_options.clone());
            for spec in &options.tests {
                for &seed in &options.seeds {
                    let mut dut = layers.build_view(|| entry.build_mutated(config));
                    let result = traced_run(&bench, &tb_options, dut.as_mut(), spec, seed, layers);
                    if let Some(d) = qual::classify_functional_failure(&result) {
                        layers.mutation_detections += 1;
                        functional.insert(
                            functional_id(&label, &config.name, &spec.name, seed),
                            Detector::from_functional(d).to_string(),
                        );
                    }
                }
            }
            let tb_options = TestbenchOptions {
                telemetry: tel.clone(),
                ..qual::alignment_options()
            };
            let bench = Testbench::new(config.clone(), tb_options.clone());
            for spec in &options.alignment_specs {
                let mut clean = layers.build_view(|| entry.build_clean_opposite(config));
                let mut mutated = layers.build_view(|| entry.build_mutated(config));
                let seed = qual::ALIGNMENT_SEED;
                let ra = traced_run(&bench, &tb_options, clean.as_mut(), spec, seed, layers);
                let rb = traced_run(&bench, &tb_options, mutated.as_mut(), spec, seed, layers);
                let rate = match (&ra.vcd, &rb.vcd) {
                    (Some(a), Some(b)) => {
                        let tx_order = entry.mutated_view() == ViewKind::Tlm;
                        layers
                            .compare(tx_order, a, b, || {
                                if tx_order {
                                    stba::compare_transactions_with(
                                        a,
                                        b,
                                        catg::vcd_cycle_time(),
                                        &tel,
                                    )
                                } else {
                                    stba::compare_vcd_with(a, b, catg::vcd_cycle_time(), &tel)
                                }
                            })
                            .ok()
                            .map(|r| r.min_rate())
                    }
                    _ => None,
                };
                rates.insert(
                    (label.clone(), config.name.clone(), spec.name.clone()),
                    rate,
                );
            }
        }
    }
    // Alignment verdicts: below sign-off where the clean control of the
    // same view signs off.
    let control_of = |entry: CatalogueEntry| -> String {
        match entry.mutated_view() {
            ViewKind::Rtl => CatalogueEntry::CleanRtl,
            ViewKind::Bca => CatalogueEntry::CleanBca,
            ViewKind::Tlm => CatalogueEntry::CleanTlm,
        }
        .label()
    };
    let mut alignment: BTreeMap<String, String> = BTreeMap::new();
    for entry in catalogue() {
        let label = entry.label();
        let control = control_of(entry);
        for config in &options.configs {
            for spec in &options.alignment_specs {
                let key = |l: &str| (l.to_owned(), config.name.clone(), spec.name.clone());
                let rate = rates[&key(&label)];
                let baseline = rates[&key(&control)];
                let detected = !entry.is_control()
                    && matches!((rate, baseline), (Some(r), Some(b)) if r < qual::SIGNOFF && b >= qual::SIGNOFF);
                layers.mutation_detections += u64::from(detected);
                alignment.insert(
                    alignment_id(&label, &config.name, &spec.name),
                    alignment_verdict(rate, baseline, detected),
                );
            }
        }
    }
    cells_in_order(options, |id| {
        functional
            .get(id)
            .or_else(|| alignment.get(id))
            .cloned()
            .unwrap_or_else(|| "none".to_owned())
    })
}

/// The report's mutation score line, for the human-readable output.
pub fn score_line(report: &QualificationReport) -> String {
    let json = report.qualification_json();
    let score = json
        .get("mutation_score_pct")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    format!("mutation score {score:.1}% passed={}", report.passed())
}
