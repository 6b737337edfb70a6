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
use catg::tests_lib::qualification as qual;
use catg::{CoverageReport, TestSpec, Testbench, TestbenchOptions};
use stba::{compare_trace_transactions_with, compare_traces_with};
use stbus_protocol::{NodeConfig, ViewKind};
use std::collections::BTreeSet;
use std::time::Instant;
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

/// One cell's work item: either a functional run of the mutated view or
/// an alignment pair. Plain owned data — the simulators are built on the
/// worker.
#[derive(Clone)]
enum CellKind {
    Functional { spec: TestSpec, seed: u64 },
    Alignment { spec: TestSpec },
}

struct CellJob {
    entry: CatalogueEntry,
    config: NodeConfig,
    kind: CellKind,
    telemetry: Telemetry,
}

enum CellOut {
    Functional {
        detection: Option<qual::FunctionalDetection>,
        coverage: CoverageReport,
    },
    Alignment {
        rate: Option<f64>,
    },
}

fn run_cell(job: &CellJob) -> CellOut {
    let tel = job.telemetry.buffered();
    tel.metrics().counter("mutation.cells").inc();
    match &job.kind {
        CellKind::Functional { spec, seed } => {
            let bench = Testbench::new(
                job.config.clone(),
                TestbenchOptions {
                    telemetry: tel.clone(),
                    ..qual::functional_options()
                },
            );
            let mut dut = job.entry.build_mutated(&job.config);
            let span = tel
                .span("mutation.cell")
                .field("entry", Json::from(job.entry.label()))
                .field("kind", Json::from("functional"))
                .field("config", Json::from(job.config.name.as_str()))
                .field("test", Json::from(spec.name.as_str()))
                .field("seed", Json::from(*seed));
            let result = bench.run(dut.as_mut(), spec, *seed);
            let detection = qual::classify_functional_failure(&result);
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
            CellOut::Functional {
                detection,
                coverage: result.coverage,
            }
        }
        CellKind::Alignment { spec } => {
            let bench = Testbench::new(
                job.config.clone(),
                TestbenchOptions {
                    telemetry: tel.clone(),
                    ..qual::alignment_trace_options()
                },
            );
            let mut clean = job.entry.build_clean_opposite(&job.config);
            let mut mutated = job.entry.build_mutated(&job.config);
            let span = tel
                .span("mutation.cell")
                .field("entry", Json::from(job.entry.label()))
                .field("kind", Json::from("alignment"))
                .field("config", Json::from(job.config.name.as_str()))
                .field("test", Json::from(spec.name.as_str()));
            let ra = bench.run(clean.as_mut(), spec, qual::ALIGNMENT_SEED);
            let rb = bench.run(mutated.as_mut(), spec, qual::ALIGNMENT_SEED);
            // The untimed view holds no cycle discipline, so TLM-view
            // entries are compared by committed transaction order; every
            // cycle-accurate view keeps the paper's per-cycle comparison.
            let rate = match (&ra.trace, &rb.trace) {
                (Some(a), Some(b)) => {
                    let outcome = if job.entry.mutated_view() == ViewKind::Tlm {
                        compare_trace_transactions_with(a, b, &tel)
                    } else {
                        compare_traces_with(a, b, &tel)
                    };
                    outcome.ok().map(|r| r.min_rate())
                }
                _ => None,
            };
            span.end([("min_rate_pct", Json::from(rate.map(|r| r * 100.0)))]);
            CellOut::Alignment { rate }
        }
    }
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
    let started = Instant::now();
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
            for spec in &options.tests {
                for &seed in &options.seeds {
                    cells.push(CellJob {
                        entry,
                        config: config.clone(),
                        kind: CellKind::Functional {
                            spec: spec.clone(),
                            seed,
                        },
                        telemetry: tel.clone(),
                    });
                }
            }
            for spec in &options.alignment_specs {
                cells.push(CellJob {
                    entry,
                    config: config.clone(),
                    kind: CellKind::Alignment { spec: spec.clone() },
                    telemetry: tel.clone(),
                });
            }
        }
    }
    let results = exec::map_ordered(options.jobs, cells, |job| run_cell(&job));

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
                    match results.next().expect("one result per cell") {
                        CellOut::Functional {
                            detection,
                            coverage: cov,
                        } => {
                            match &mut merged {
                                Some(acc) => acc.merge(&cov),
                                None => merged = Some(cov),
                            }
                            if let Some(d) = detection {
                                detections.push(Detection {
                                    config: config.name.clone(),
                                    test: spec.name.clone(),
                                    seed,
                                    detector: Detector::from_functional(d),
                                });
                            }
                        }
                        CellOut::Alignment { .. } => unreachable!("matrix order"),
                    }
                }
            }
            coverage.push(merged.expect("at least one functional cell per config"));
            let mut config_rates = Vec::with_capacity(options.alignment_specs.len());
            for _ in &options.alignment_specs {
                match results.next().expect("one result per cell") {
                    CellOut::Alignment { rate } => config_rates.push(rate),
                    CellOut::Functional { .. } => unreachable!("matrix order"),
                }
            }
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

        // Campaign-level attribution: the strongest detector *class* wins
        // (a protocol rule names the defect more precisely than the
        // scoreboard, which beats the indirect alignment/coverage
        // evidence); within that class the modal detector is reported, so
        // one odd cell — a tid corruption that happens to collide with
        // another outstanding transaction and trips R-RSP-LEN instead of
        // R-TID — cannot steal the attribution from the designed catch.
        // Ties break to the first detection in matrix order.
        let detector = detections
            .iter()
            .map(|det| det.detector)
            .min_by_key(|det| det.precedence())
            .map(|strongest| {
                let class = strongest.precedence();
                let mut counts: Vec<(Detector, usize)> = Vec::new();
                for det in detections.iter().map(|det| det.detector) {
                    if det.precedence() != class {
                        continue;
                    }
                    match counts.iter_mut().find(|(d, _)| *d == det) {
                        Some((_, n)) => *n += 1,
                        None => counts.push((det, 1)),
                    }
                }
                // Strict `>` keeps the first-seen detector on ties.
                let mut best = (strongest, 0usize);
                for &(d, n) in &counts {
                    if n > best.1 {
                        best = (d, n);
                    }
                }
                best.0
            });

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
        wall_us: started.elapsed().as_micros() as u64,
        metrics: telemetry::MetricsSnapshot::default(),
    };
    campaign_span.end([
        (
            "mutation_score_pct",
            Json::from(report.mutation_score() * 100.0),
        ),
        ("passed", Json::from(report.passed())),
        ("wall_us", Json::from(report.wall_us)),
    ]);
    report.metrics = tel.metrics().snapshot();
    report
}
