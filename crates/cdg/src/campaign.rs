//! The closure loop: generate → run on both views → merge coverage →
//! find holes → re-bias → repeat.
//!
//! Each iteration freezes the current [`Recipe`] into a [`TestSpec`],
//! runs a batch of seeds on **both** DUT views (the BCA and the RTL see
//! byte-identical stimulus, exactly like the paper's common environment),
//! merges every run's functional coverage into the cumulative report, and
//! hands the remaining holes to [`bias_recipe`]. The loop stops at 100%
//! coverage or when the batch budget runs out.
//!
//! Determinism: seeds are a pure function of `(base_seed, iteration)`,
//! batches fan out through [`exec::map_ordered`] (results come back in
//! input order regardless of worker count), merging happens serially on
//! the driving thread, and the report carries no wall-clock fields — so
//! `closure.json` is byte-identical for any `--jobs`.

use catg::cell::{run_cell, CellSpec, Compare};
use catg::{CoverageReport, TestSpec, ViewSpec};
use stbus_protocol::{NodeConfig, ViewKind};
use telemetry::{Json, Telemetry};

use crate::bias::bias_recipe;
use crate::recipe::Recipe;
use catg::HoleId;

/// Schema identifier written into `closure.json`.
pub const CLOSURE_SCHEMA: &str = "stbus-closure/1";

/// Knobs of one closure campaign.
#[derive(Clone, Debug)]
pub struct ClosureOptions {
    /// Seeds generated and run per iteration.
    pub tests_per_batch: usize,
    /// Iteration budget; the campaign fails closed = false past it.
    pub max_batches: usize,
    /// First seed; iteration `k` uses the next `tests_per_batch` seeds.
    pub base_seed: u64,
    /// Worker threads for the batch fan-out (0 = auto).
    pub jobs: usize,
    /// Telemetry handle (`cdg.*` scopes and counters).
    pub telemetry: Telemetry,
}

impl Default for ClosureOptions {
    fn default() -> Self {
        ClosureOptions {
            tests_per_batch: 4,
            max_batches: 12,
            base_seed: 1,
            jobs: 0,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// What one iteration did: the recipe it ran, the seeds it used, and the
/// coverage state after its batch merged in.
#[derive(Clone, Debug)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub index: usize,
    /// Snapshot of the recipe this iteration ran (before re-biasing).
    pub recipe: Recipe,
    /// The seeds of the batch.
    pub seeds: Vec<u64>,
    /// Bins first hit by this batch.
    pub new_bins: usize,
    /// Cumulative bins hit after this batch.
    pub cumulative_hit: usize,
    /// Total bins in the model.
    pub total_bins: usize,
    /// Holes still open after this batch.
    pub holes: Vec<HoleId>,
    /// Whether every run of the batch passed all checkers.
    pub all_passed: bool,
    /// Adjustments the bias pass made *after* this iteration.
    pub bias_notes: Vec<String>,
}

impl IterationRecord {
    /// The test name this iteration's spec was frozen under (stable, so
    /// [`ClosureReport::replay`] reproduces it).
    pub fn test_name(&self) -> String {
        format!("{}_i{:02}", self.recipe.name, self.index)
    }
}

/// The outcome of a closure campaign.
#[derive(Clone, Debug)]
pub struct ClosureReport {
    /// The configuration the campaign closed coverage on.
    pub config: NodeConfig,
    /// Per-iteration trajectory.
    pub iterations: Vec<IterationRecord>,
    /// Whether 100% functional coverage was reached.
    pub closed: bool,
    /// Total bins in the coverage model.
    pub total_bins: usize,
    /// The recipe state after the last bias pass.
    pub final_recipe: Recipe,
}

/// Runs the coverage-closure loop from `start` and returns the full
/// trajectory.
pub fn close_coverage(
    config: &NodeConfig,
    start: &Recipe,
    options: &ClosureOptions,
) -> ClosureReport {
    let tel = &options.telemetry;
    let span = tel
        .span("cdg.close")
        .field("config", Json::from(config.name.clone()))
        .field("max_batches", Json::from(options.max_batches))
        .field("tests_per_batch", Json::from(options.tests_per_batch));

    let mut recipe = start.clone();
    recipe.normalize(config);
    let mut cumulative: Option<CoverageReport> = None;
    let mut iterations: Vec<IterationRecord> = Vec::new();
    let mut closed = false;

    for index in 1..=options.max_batches {
        let snapshot = recipe.clone();
        let spec = snapshot.to_spec(&format!("{}_i{index:02}", snapshot.name));
        let seeds: Vec<u64> = (0..options.tests_per_batch)
            .map(|j| options.base_seed + ((index - 1) * options.tests_per_batch + j) as u64)
            .collect();

        // The paper's "same test cases on both with same seeds": every
        // seed runs on both views, and both runs' coverage merges in.
        let cells = seeds
            .iter()
            .map(|&seed| {
                let views = [ViewKind::Rtl, ViewKind::Bca]
                    .map(|kind| (ViewSpec::of(kind), Compare::None))
                    .to_vec();
                CellSpec::new(config.clone(), spec.clone(), seed, views)
            })
            .collect();
        let worker_tel = tel.handoff();
        let outcomes = exec::map_ordered(options.jobs, cells, move |cell| {
            run_cell(&cell, &worker_tel.buffered())
        });

        let before_hit = cumulative.as_ref().map_or(0, CoverageReport::hit_bins);
        let mut all_passed = true;
        for run in outcomes.iter().flat_map(|o| &o.runs) {
            all_passed &= run.result.passed();
            CoverageReport::accumulate(&mut cumulative, &run.result.coverage);
        }
        let merged = cumulative.as_ref().expect("batch ran");
        let holes = merged.holes();

        let metrics = tel.metrics();
        metrics.counter("cdg.iterations").inc();
        metrics.counter("cdg.tests").add(seeds.len() as u64);
        metrics.counter("cdg.runs").add(2 * seeds.len() as u64);
        metrics
            .counter("cdg.bins_closed")
            .add((merged.hit_bins() - before_hit) as u64);
        tel.info(
            "cdg.iter",
            "closure iteration",
            [
                ("iteration", Json::from(index)),
                ("new_bins", Json::from(merged.hit_bins() - before_hit)),
                ("cumulative_hit", Json::from(merged.hit_bins())),
                ("total_bins", Json::from(merged.total_bins())),
                ("holes", Json::from(holes.len())),
            ],
        );

        let mut record = IterationRecord {
            index,
            recipe: snapshot,
            seeds,
            new_bins: merged.hit_bins() - before_hit,
            cumulative_hit: merged.hit_bins(),
            total_bins: merged.total_bins(),
            holes: holes.clone(),
            all_passed,
            bias_notes: Vec::new(),
        };
        if holes.is_empty() {
            closed = true;
            iterations.push(record);
            break;
        }
        record.bias_notes = bias_recipe(&mut recipe, &holes, config);
        iterations.push(record);
    }

    let total_bins = cumulative.as_ref().map_or(0, CoverageReport::total_bins);
    span.end([
        ("closed", Json::from(closed)),
        ("iterations", Json::from(iterations.len())),
        (
            "cumulative_hit",
            Json::from(cumulative.as_ref().map_or(0, CoverageReport::hit_bins)),
        ),
    ]);
    ClosureReport {
        config: config.clone(),
        iterations,
        closed,
        total_bins,
        final_recipe: recipe,
    }
}

impl ClosureReport {
    /// The per-iteration trajectory as a printable table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str("iter   tests   new bins   cumulative       coverage   holes left\n");
        out.push_str("----   -----   --------   -----------      --------   ----------\n");
        for it in &self.iterations {
            let pct = if it.total_bins == 0 {
                100.0
            } else {
                100.0 * it.cumulative_hit as f64 / it.total_bins as f64
            };
            out.push_str(&format!(
                "{:>4}   {:>5}   {:>8}   {:>5} / {:<5}    {:>7.2}%   {:>10}\n",
                it.index,
                it.seeds.len(),
                it.new_bins,
                it.cumulative_hit,
                it.total_bins,
                pct,
                it.holes.len(),
            ));
        }
        let tests: usize = self.iterations.iter().map(|i| i.seeds.len()).sum();
        if self.closed {
            out.push_str(&format!(
                "coverage closed in {} iterations ({} generated tests, {} runs)\n",
                self.iterations.len(),
                tests,
                2 * tests,
            ));
        } else {
            let open = self.iterations.last().map_or(0, |i| i.holes.len());
            out.push_str(&format!(
                "coverage NOT closed after {} iterations ({} holes left)\n",
                self.iterations.len(),
                open,
            ));
        }
        out
    }

    /// The frozen `(spec, seeds)` sequence of the campaign — replaying
    /// every entry reproduces the exact stimulus (and therefore the
    /// closed coverage) as a fixed regression, no generation loop needed.
    pub fn replay(&self) -> Vec<(TestSpec, Vec<u64>)> {
        self.iterations
            .iter()
            .map(|it| (it.recipe.to_spec(&it.test_name()), it.seeds.clone()))
            .collect()
    }

    /// The machine-readable campaign record ([`CLOSURE_SCHEMA`]).
    ///
    /// Deliberately carries no wall-clock or host fields: the document is
    /// byte-identical for any worker count.
    pub fn closure_json(&self) -> Json {
        let iterations = self
            .iterations
            .iter()
            .map(|it| {
                Json::obj([
                    ("iteration", Json::from(it.index)),
                    ("test", Json::from(it.test_name())),
                    (
                        "seeds",
                        Json::Arr(it.seeds.iter().map(|s| Json::from(*s)).collect()),
                    ),
                    ("new_bins", Json::from(it.new_bins)),
                    ("cumulative_hit", Json::from(it.cumulative_hit)),
                    ("total_bins", Json::from(it.total_bins)),
                    ("all_passed", Json::from(it.all_passed)),
                    (
                        "holes",
                        Json::Arr(it.holes.iter().map(|h| Json::from(h.to_string())).collect()),
                    ),
                    (
                        "bias",
                        Json::Arr(
                            it.bias_notes
                                .iter()
                                .map(|n| Json::from(n.clone()))
                                .collect(),
                        ),
                    ),
                    ("recipe", it.recipe.to_json()),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::from(CLOSURE_SCHEMA)),
            (
                "config",
                Json::obj([
                    ("name", Json::from(self.config.name.clone())),
                    ("initiators", Json::from(self.config.n_initiators)),
                    ("targets", Json::from(self.config.n_targets)),
                    ("bus_bytes", Json::from(self.config.bus_bytes)),
                    ("protocol", Json::from(self.config.protocol.to_string())),
                    ("prog_port", Json::from(self.config.prog_port)),
                ]),
            ),
            ("closed", Json::from(self.closed)),
            ("total_bins", Json::from(self.total_bins)),
            ("iterations", Json::Arr(iterations)),
            ("final_recipe", self.final_recipe.to_json()),
        ])
    }
}
