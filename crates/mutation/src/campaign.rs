//! The qualification campaign: `{entry × config × test × seed}` on the
//! worker pool, reassembled in matrix order.
//!
//! The matrix has two cell kinds. *Functional* cells run the mutated view
//! alone through the common environment (checkers, scoreboard, watchdog,
//! coverage); *alignment* cells run the mutated view against the clean
//! opposite view and compare waveforms. The clean control entries run the
//! identical matrix: their functional runs prove the environment has no
//! false positives, their merged coverage is the per-view coverage
//! reference, and their alignment rates are the per-`{config, spec}`
//! baselines the mutated entries are judged against — a mutated pair only
//! counts as alignment-detected where the clean pair signs off.

use crate::report::{AlignmentCell, Detection, MutationOutcome, QualificationReport};
use crate::{catalogue, CatalogueEntry, Detector, Mutation};
use catg::cell::{run_cell, CellSpec, Compare, ViewRun};
use catg::tests_lib::qualification as qual;
use catg::{CoverageReport, TestSpec};
use stbus_protocol::{NodeConfig, ViewKind};
use std::collections::BTreeSet;
use telemetry::{Json, Telemetry};

/// Options of one qualification campaign.
///
/// The defaults are the shared hunt shape of
/// [`catg::tests_lib::qualification`] — the same configurations, tests,
/// seeds and alignment specs the `bug_detection` integration test uses.
#[derive(Clone)]
pub struct QualifyOptions {
    /// Hunt configurations.
    pub configs: Vec<NodeConfig>,
    /// Functional test suite (intensity baked into each spec).
    pub tests: Vec<TestSpec>,
    /// Seeds applied to every functional `{config, test}` cell.
    pub seeds: Vec<u64>,
    /// Specs replayed on both views for the alignment comparison.
    pub alignment_specs: Vec<TestSpec>,
    /// Worker threads; `0` auto-detects, `1` runs serially. The report is
    /// identical for any value.
    pub jobs: usize,
    /// Telemetry handle; the campaign emits `mutation.*` spans and
    /// counters through per-worker buffered handles.
    pub telemetry: Telemetry,
}

impl Default for QualifyOptions {
    fn default() -> Self {
        QualifyOptions {
            configs: qual::qualification_configs(),
            tests: qual::suite(),
            seeds: qual::SEEDS.to_vec(),
            alignment_specs: qual::alignment_specs(),
            jobs: 0,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// One cell of the matrix: a *functional* cell runs the mutated view
/// alone; an *alignment* cell runs the clean opposite view, then the
/// mutated one, and compares them. Plain owned data — the simulators are
/// built on the worker.
struct CellJob {
    entry: CatalogueEntry,
    alignment: bool,
    cell: CellSpec,
    telemetry: Telemetry,
}

/// Runs one cell and returns the mutated view's run, the last in either
/// kind of cell and the one that holds the verdict.
fn run_job(job: &CellJob) -> ViewRun {
    let tel = job.telemetry.buffered();
    tel.metrics().counter("mutation.cells").inc();
    let cell = &job.cell;
    let kind = if job.alignment {
        "alignment"
    } else {
        "functional"
    };
    let mut span = tel
        .span("mutation.cell")
        .field("entry", Json::from(job.entry.label()))
        .field("kind", Json::from(kind))
        .field("config", Json::from(cell.config.name.as_str()))
        .field("test", Json::from(cell.test.name.as_str()));
    if !job.alignment {
        span = span.field("seed", Json::from(cell.seed));
    }
    let mut run = run_cell(cell, &tel).runs.pop().expect("a mutated view");
    if job.alignment {
        let rate = run.min_rate();
        span.end([("min_rate_pct", Json::from(rate.map(|r| r * 100.0)))]);
    } else {
        let result = &run.result;
        let detection = qual::classify_functional_failure(result);
        if detection.is_some() {
            tel.metrics().counter("mutation.detections").inc();
        }
        span.end([
            ("cycles", Json::from(result.cycles)),
            (
                "detected",
                Json::from(detection.map(|d| Detector::from_functional(d).to_string())),
            ),
        ]);
    }
    // The comparison is done; only the verdict travels back.
    run.result.trace = None;
    run
}

/// Runs the full qualification campaign over the unified catalogue.
///
/// Cells fan out across [`QualifyOptions::jobs`] workers and reassemble
/// in matrix order (entry-major, then configuration, then functional
/// `{test × seed}` cells, then alignment specs), so every figure in the
/// returned report is independent of the worker count.
pub fn run_qualification(options: &QualifyOptions) -> QualificationReport {
    let entries = catalogue();
    let tel = &options.telemetry;
    let campaign_span = tel
        .span("mutation.campaign")
        .field("entries", Json::from(entries.len()))
        .field("configs", Json::from(options.configs.len()))
        .field("tests", Json::from(options.tests.len()))
        .field("seeds", Json::from(options.seeds.len()))
        .field("jobs", Json::from(exec::resolve_jobs(options.jobs)));
    tel.metrics()
        .counter("mutation.entries")
        .add(entries.len() as u64);

    // The work list, in matrix order.
    let per_config = options.tests.len() * options.seeds.len() + options.alignment_specs.len();
    let mut cells = Vec::with_capacity(entries.len() * options.configs.len() * per_config);
    for &entry in &entries {
        for config in &options.configs {
            let job = |alignment, cell| CellJob {
                entry,
                alignment,
                cell,
                telemetry: tel.handoff(),
            };
            for spec in &options.tests {
                for &seed in &options.seeds {
                    let views = vec![(entry.mutated_spec(), Compare::None)];
                    let cell = CellSpec::new(config.clone(), spec.clone(), seed, views);
                    cells.push(job(false, cell));
                }
            }
            // The untimed view holds no cycle discipline, so TLM-view
            // entries are compared by committed transaction order; every
            // cycle-accurate view keeps the paper's per-cycle comparison.
            let compare = if entry.mutated_view() == ViewKind::Tlm {
                Compare::Transactions
            } else {
                Compare::Cycle
            };
            for spec in &options.alignment_specs {
                let views = vec![
                    (entry.clean_opposite_spec(), Compare::None),
                    (entry.mutated_spec(), compare),
                ];
                let cell = CellSpec {
                    gated: false,
                    ..CellSpec::new(config.clone(), spec.clone(), qual::ALIGNMENT_SEED, views)
                };
                cells.push(job(true, cell));
            }
        }
    }
    let results = exec::map_ordered(options.jobs, cells, |job| run_job(&job));

    // Reassemble in the same matrix order.
    struct EntryData {
        entry: CatalogueEntry,
        detections: Vec<Detection>,
        /// Merged functional coverage per configuration.
        coverage: Vec<CoverageReport>,
        /// Raw alignment rate per `(config, spec)`.
        rates: Vec<Vec<Option<f64>>>,
    }
    let mut data: Vec<EntryData> = Vec::with_capacity(entries.len());
    let mut results = results.into_iter();
    for &entry in &entries {
        let mut detections = Vec::new();
        let mut coverage = Vec::new();
        let mut rates = Vec::new();
        for config in &options.configs {
            let mut merged: Option<CoverageReport> = None;
            for spec in &options.tests {
                for &seed in &options.seeds {
                    let result = &results.next().expect("one result per cell").result;
                    CoverageReport::accumulate(&mut merged, &result.coverage);
                    if let Some(d) = qual::classify_functional_failure(result) {
                        detections.push(Detection {
                            config: config.name.clone(),
                            test: spec.name.clone(),
                            seed,
                            detector: Detector::from_functional(d),
                        });
                    }
                }
            }
            coverage.push(merged.expect("at least one functional cell per config"));
            let config_rates = options
                .alignment_specs
                .iter()
                .map(|_| results.next().expect("one result per cell").min_rate())
                .collect();
            rates.push(config_rates);
        }
        data.push(EntryData {
            entry,
            detections,
            coverage,
            rates,
        });
    }

    // The clean controls supply the per-view baselines.
    let baseline_of = |view: ViewKind| -> &EntryData {
        let control = match view {
            ViewKind::Rtl => CatalogueEntry::CleanRtl,
            ViewKind::Bca => CatalogueEntry::CleanBca,
            ViewKind::Tlm => CatalogueEntry::CleanTlm,
        };
        data.iter()
            .find(|d| d.entry == control)
            .expect("controls are in the catalogue")
    };

    let mut outcomes = Vec::with_capacity(data.len());
    for d in &data {
        let baseline = baseline_of(d.entry.mutated_view());
        let mut detections = d.detections.clone();

        // Alignment: a pair only counts as detected where the clean pair
        // of the same view signs off on the same `{config, spec}` cell.
        // (That baseline guard is also what keeps the TLM entries honest:
        // a *cycle* comparison of clean TLM vs RTL is far below sign-off,
        // so only the transaction-order figures — whose clean baseline is
        // 100% — can convict the untimed view.)
        let alignment_detector = if d.entry.mutated_view() == ViewKind::Tlm {
            Detector::TxOrder
        } else {
            Detector::Alignment
        };
        let mut alignment = Vec::new();
        for (ci, config) in options.configs.iter().enumerate() {
            for (si, spec) in options.alignment_specs.iter().enumerate() {
                let rate = d.rates[ci][si];
                let base = baseline.rates[ci][si];
                let detected = !d.entry.is_control()
                    && matches!((rate, base), (Some(r), Some(b)) if r < qual::SIGNOFF && b >= qual::SIGNOFF);
                if detected {
                    detections.push(Detection {
                        config: config.name.clone(),
                        test: spec.name.clone(),
                        seed: qual::ALIGNMENT_SEED,
                        detector: alignment_detector,
                    });
                }
                alignment.push(AlignmentCell {
                    config: config.name.clone(),
                    spec: spec.name.clone(),
                    rate,
                    baseline: base,
                    detected,
                });
            }
        }

        // Coverage shortfall: the mutated view left a bin unhit that the
        // clean same-view control covered under the identical cells.
        for (ci, config) in options.configs.iter().enumerate() {
            if d.entry.is_control() {
                break;
            }
            let control_holes: BTreeSet<catg::HoleId> =
                baseline.coverage[ci].holes().into_iter().collect();
            let shortfall = d.coverage[ci]
                .holes()
                .into_iter()
                .any(|hole| !control_holes.contains(&hole));
            if shortfall {
                detections.push(Detection {
                    config: config.name.clone(),
                    test: "<merged coverage>".to_owned(),
                    seed: 0,
                    detector: Detector::Coverage,
                });
            }
        }

        let detector = Detector::attribute(detections.iter().map(|det| det.detector));

        if detector.is_some() && !d.entry.is_control() {
            tel.metrics().counter("mutation.killed").inc();
        }
        outcomes.push(MutationOutcome {
            label: d.entry.label(),
            description: d.entry.description(),
            view: d.entry.mutated_view(),
            control: d.entry.is_control(),
            expected_detector: d.entry.expected_detector(),
            detections,
            alignment,
            detector,
        });
    }

    let mut report = QualificationReport {
        outcomes,
        wall_us: 0,
        metrics: telemetry::MetricsSnapshot::default(),
    };
    campaign_span.end([
        (
            "mutation_score_pct",
            Json::from(report.mutation_score() * 100.0),
        ),
        ("passed", Json::from(report.passed())),
    ]);
    report.metrics = tel.metrics().snapshot();
    report
}
