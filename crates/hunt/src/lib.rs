//! The differential bug-hunt fleet.
//!
//! The paper's environment is *reactive*: the twelve generic tests, the
//! random suite and the qualification campaign all run fixed stimulus on
//! fixed configurations. This crate adds the proactive half — the
//! standing fleet that spends a fixed probe budget drawing random
//! `(configuration, recipe, seed)` triples from the same audited legal
//! space the property tests sample ([`catg::tests_lib::strategy`]),
//! running each triple differentially across the RTL and exact-fidelity
//! BCA views with the protocol checkers armed and the STBA cycle
//! comparison as the backstop, and — on any divergence — delta-debugging
//! the probe down to a minimal reproducer ([`Repro`], `repro.json`).
//!
//! The loop closes through promotion: a shrunk reproducer dropped into
//! the `hunts/` catalogue becomes a pinned entry the qualification
//! campaign replays forever after (`mutation::promoted`), so every bug
//! the fleet ever found stays found.
//!
//! Everything is deterministic. A campaign is fully keyed by
//! `(campaign_seed, budget)`: probes are drawn from hashed per-index RNG
//! streams, the fan-out preserves probe order for any worker count, and
//! shrinking is serial and greedy with a fixed candidate order — so
//! `hunt.json` is byte-identical for `--jobs 1` and `--jobs 8`. It holds
//! no clock: the campaign's time lives in its `hunt.campaign` span.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod probe;
mod shrink;

pub use mutation::promoted::{Repro, REPRO_SCHEMA};
pub use probe::{draw_probe, run_probe, Finding, Injections, Probe};
pub use shrink::{config_reductions, shrink, ShrinkResult};

use telemetry::{Json, Telemetry};

/// Schema tag written into every `hunt.json`.
pub const HUNT_SCHEMA: &str = "stbus-hunt/1";

/// Campaign parameters.
#[derive(Clone)]
pub struct HuntOptions {
    /// Number of probes to draw and run.
    pub budget: usize,
    /// Campaign key; with `budget` it fully determines the report.
    pub campaign_seed: u64,
    /// Defects seeded into the views (meta-testing); empty = real hunt.
    pub inject: Injections,
    /// At most this many divergences are shrunk (in probe order); the
    /// rest are still reported as divergent.
    pub max_shrinks: usize,
    /// Candidate re-validations each shrink may spend.
    pub shrink_budget: usize,
    /// Worker threads; `0` auto-detects. The report is identical for
    /// any value.
    pub jobs: usize,
    /// Telemetry handle (`hunt.*` spans and counters).
    pub telemetry: Telemetry,
}

impl Default for HuntOptions {
    fn default() -> Self {
        HuntOptions {
            budget: 24,
            campaign_seed: 1,
            inject: Injections::default(),
            max_shrinks: 4,
            shrink_budget: 160,
            jobs: 0,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// One probe row of the report.
#[derive(Clone, Debug)]
pub struct ProbeRecord {
    /// Probe index within the campaign.
    pub index: u64,
    /// Display summary of the drawn configuration.
    pub config: String,
    /// The drawn testbench seed.
    pub seed: u64,
    /// The detector that fired, if the probe diverged.
    pub detector: Option<String>,
    /// STBA minimum alignment rate, when the comparison decided.
    pub alignment_rate: Option<f64>,
}

/// A finished campaign.
#[derive(Clone, Debug)]
pub struct HuntReport {
    /// The campaign key.
    pub campaign_seed: u64,
    /// The probe budget that was run.
    pub budget: usize,
    /// Labels of seeded defects (empty for a real hunt).
    pub injected: Vec<String>,
    /// Every probe, in index order.
    pub probes: Vec<ProbeRecord>,
    /// Minimal reproducers for the first `max_shrinks` divergences.
    pub repros: Vec<Repro>,
    /// Total shrink re-validations spent.
    pub shrink_evaluations: usize,
}

impl HuntReport {
    /// Number of divergent probes (shrunk or not).
    pub fn divergences(&self) -> usize {
        self.probes.iter().filter(|p| p.detector.is_some()).count()
    }

    /// The machine-readable `hunt.json` form ([`HUNT_SCHEMA`]).
    pub fn hunt_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(HUNT_SCHEMA)),
            ("campaign_seed", Json::from(self.campaign_seed)),
            ("budget", Json::from(self.budget)),
            (
                "injected",
                Json::Arr(
                    self.injected
                        .iter()
                        .map(|s| Json::str(s.as_str()))
                        .collect(),
                ),
            ),
            ("divergences", Json::from(self.divergences())),
            (
                "probes",
                Json::Arr(
                    self.probes
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("index", Json::from(p.index)),
                                ("config", Json::str(p.config.as_str())),
                                ("seed", Json::from(p.seed)),
                                ("detector", Json::from(p.detector.clone())),
                                (
                                    "alignment_rate_pct",
                                    Json::from(p.alignment_rate.map(|r| r * 100.0)),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "repros",
                Json::Arr(self.repros.iter().map(Repro::to_json).collect()),
            ),
            ("shrink_evaluations", Json::from(self.shrink_evaluations)),
        ])
    }

    /// A terminal summary table: one row per divergence.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "hunt: {} probes, seed {}, {} divergent\n",
            self.budget,
            self.campaign_seed,
            self.divergences()
        ));
        for p in self.probes.iter().filter(|p| p.detector.is_some()) {
            out.push_str(&format!(
                "  probe {:>4}  seed {:>6}  {}  [{}]\n",
                p.index,
                p.seed,
                p.detector.as_deref().unwrap_or("-"),
                p.config,
            ));
        }
        for r in &self.repros {
            out.push_str(&format!(
                "  repro {}: {} via {} step(s) -> {} initiators, {} targets, {} txns\n",
                r.id(),
                r.detector,
                r.shrink_steps.len(),
                r.config.n_initiators,
                r.config.n_targets,
                r.recipe
                    .models
                    .iter()
                    .map(|m| m.n_transactions)
                    .sum::<usize>(),
            ));
        }
        out
    }
}

/// Runs one budgeted hunt campaign: draw, fan out, classify, shrink.
pub fn run_hunt(options: &HuntOptions) -> HuntReport {
    let tel = &options.telemetry;
    let campaign_span = tel
        .span("hunt.campaign")
        .field("budget", Json::from(options.budget))
        .field("campaign_seed", Json::from(options.campaign_seed));

    let campaign_seed = options.campaign_seed;
    let inject = options.inject.clone();
    let worker_tel = tel.handoff();
    let outcomes = exec::map_ordered(
        options.jobs,
        (0..options.budget as u64).collect::<Vec<u64>>(),
        move |index| {
            let probe = draw_probe(campaign_seed, index);
            let finding = run_probe(
                &probe.config,
                &probe.recipe,
                probe.seed,
                &inject,
                &worker_tel,
            );
            (probe, finding)
        },
    );

    let mut probes = Vec::with_capacity(outcomes.len());
    let mut repros = Vec::new();
    let mut shrink_evaluations = 0usize;
    for (probe, finding) in &outcomes {
        probes.push(ProbeRecord {
            index: probe.index,
            config: probe.config.to_string(),
            seed: probe.seed,
            detector: finding.as_ref().map(|f| f.detector.to_string()),
            alignment_rate: finding.as_ref().and_then(|f| f.alignment_rate),
        });
    }
    // Shrinking is serial and in probe order: trajectories re-validate
    // against live simulations, and a fixed order is what makes the
    // report independent of the worker count.
    for (probe, finding) in outcomes
        .iter()
        .filter_map(|(p, f)| f.as_ref().map(|f| (p, f)))
        .take(options.max_shrinks)
    {
        let column = finding.detector.column();
        let result = shrink::shrink(
            &probe.config,
            &probe.recipe,
            probe.seed,
            &options.inject,
            column,
            options.shrink_budget,
            tel,
        );
        shrink_evaluations += result.evaluations;
        // The file name matches what the CLI writes under `--out`; kept
        // relative so `hunt.json` stays byte-identical across out dirs.
        let replay = format!("stbus-regress --hunt-replay repro_{}.json", repros.len());
        repros.push(Repro {
            config: result.config,
            recipe: result.recipe,
            seed: probe.seed,
            campaign_seed,
            probe_index: probe.index,
            injected: options.inject.labels(),
            detector: result.finding.detector.to_string(),
            detector_column: column.to_owned(),
            alignment_rate: result.finding.alignment_rate,
            shrink_steps: result.steps,
            replay,
        });
    }

    let report = HuntReport {
        campaign_seed,
        budget: options.budget,
        injected: options.inject.labels(),
        probes,
        repros,
        shrink_evaluations,
    };
    campaign_span.end([
        ("divergences", Json::from(report.divergences())),
        ("repros", Json::from(report.repros.len())),
    ]);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbus_rtl::RtlBug;

    fn seeded_options(jobs: usize) -> HuntOptions {
        HuntOptions {
            // Campaign seed 1 first diverges at probe 6; a budget of 8
            // keeps the meta-test fast while covering it.
            budget: 8,
            campaign_seed: 1,
            inject: Injections {
                rtl: vec![RtlBug::MisroutedHighTarget],
                bca: vec![],
            },
            max_shrinks: 1,
            shrink_budget: 60,
            jobs,
            ..HuntOptions::default()
        }
    }

    #[test]
    fn seeded_hunt_finds_shrinks_and_replays() {
        let report = run_hunt(&seeded_options(1));
        assert!(
            report.divergences() > 0,
            "a seeded misroute must diverge within 6 probes:\n{}",
            report.table()
        );
        assert_eq!(report.repros.len(), 1);
        let repro = &report.repros[0];
        assert!(
            !repro.shrink_steps.is_empty(),
            "oversized draws must shrink"
        );
        // The minimal reproducer replays to the same detector class.
        let replayed = repro
            .replay(&Telemetry::disabled())
            .unwrap()
            .expect("minimal repro still diverges");
        assert!(
            repro.matches(&replayed),
            "{replayed:?} vs {}",
            repro.detector
        );
        // And survives its own JSON round trip.
        let parsed = Repro::from_json(&repro.to_json()).unwrap();
        assert_eq!(
            parsed.to_json().render_pretty(),
            repro.to_json().render_pretty()
        );
    }

    #[test]
    fn hunt_json_is_byte_identical_across_worker_counts() {
        let serial = run_hunt(&seeded_options(1));
        let parallel = run_hunt(&seeded_options(4));
        let a = serial.hunt_json().render_pretty();
        let b = parallel.hunt_json().render_pretty();
        assert_eq!(a, b);
        assert!(a.contains(HUNT_SCHEMA));
    }
}
