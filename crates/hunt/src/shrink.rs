//! The delta-debugging shrinker: reduce a divergent probe to the
//! smallest `(configuration, recipe)` that still fires the same class of
//! detector.
//!
//! Classic ddmin works on a flat list of input chunks; a hunt probe has
//! *two* coupled inputs — the node configuration and the stimulus recipe
//! — and removing hardware (an initiator port, crossbar lanes, the
//! programming port) invalidates parts of the recipe. So the shrinker
//! interleaves two deterministic candidate generators: configuration
//! reductions (this module), each followed by [`cdg::clamp_recipe`] to
//! re-fit the recipe to the smaller node, and recipe reductions
//! ([`cdg::recipe_reductions`]). It greedily accepts the first candidate
//! that re-validates — the same detector *column* must fire, so a
//! checker divergence cannot silently degrade into a weaker alignment
//! drop — and restarts from the top, until a full pass proposes nothing
//! that survives. The candidate order is fixed and every accepted step
//! is recorded, so a shrink trajectory replays byte-for-byte.

use crate::probe::{run_probe, Finding, Injections};
use cdg::Recipe;
use stbus_protocol::{Architecture, NodeConfig, ProtocolType};
use telemetry::{Json, Telemetry};

/// Rebuilds `config` with the builder after `edit` adjusts the knobs;
/// `None` when the edited combination is illegal (the builder rejects
/// it), which simply skips that candidate.
fn rebuild(config: &NodeConfig, edit: impl FnOnce(&mut Knobs)) -> Option<NodeConfig> {
    let mut k = Knobs {
        initiators: config.n_initiators,
        targets: config.n_targets,
        bus_bytes: config.bus_bytes,
        protocol: config.protocol,
        arch: config.arch,
        pipe_depth: config.pipe_depth,
        prog_port: config.prog_port,
        max_outstanding: config.max_outstanding,
    };
    edit(&mut k);
    NodeConfig::builder(&config.name)
        .initiators(k.initiators)
        .targets(k.targets)
        .bus_bytes(k.bus_bytes)
        .protocol(k.protocol)
        .architecture(k.arch)
        .arbitration(config.arbitration)
        .pipe_depth(k.pipe_depth)
        .prog_port(k.prog_port)
        .max_outstanding(k.max_outstanding)
        .build()
        .ok()
}

struct Knobs {
    initiators: usize,
    targets: usize,
    bus_bytes: usize,
    protocol: ProtocolType,
    arch: Architecture,
    pipe_depth: usize,
    prog_port: bool,
    max_outstanding: usize,
}

/// Proposes every applicable one-step configuration reduction, largest
/// jumps first (straight to one port, then halving, then decrement), so
/// a divergence that needs no contention at all collapses in two steps
/// instead of a decrement ladder.
pub fn config_reductions(config: &NodeConfig) -> Vec<(&'static str, NodeConfig)> {
    let mut out: Vec<(&'static str, NodeConfig)> = Vec::new();
    let mut propose = |label: &'static str, candidate: Option<NodeConfig>| {
        if let Some(candidate) = candidate {
            if candidate != *config {
                out.push((label, candidate));
            }
        }
    };
    let ni = config.n_initiators;
    if ni > 1 {
        propose("one-initiator", rebuild(config, |k| k.initiators = 1));
    }
    if ni > 3 {
        propose(
            "halve-initiators",
            rebuild(config, |k| k.initiators = ni / 2),
        );
    }
    if ni > 2 {
        propose("drop-initiator", rebuild(config, |k| k.initiators = ni - 1));
    }
    let nt = config.n_targets;
    if nt > 1 {
        propose("one-target", rebuild(config, |k| k.targets = 1));
    }
    if nt > 3 {
        propose("halve-targets", rebuild(config, |k| k.targets = nt / 2));
    }
    if nt > 2 {
        propose("drop-target", rebuild(config, |k| k.targets = nt - 1));
    }
    if config.bus_bytes > 4 {
        propose("bus-to-4", rebuild(config, |k| k.bus_bytes = 4));
    }
    if config.bus_bytes > 1 {
        propose(
            "halve-bus",
            rebuild(config, |k| k.bus_bytes = config.bus_bytes / 2),
        );
    }
    if config.arch != Architecture::SharedBus {
        propose(
            "shared-bus",
            rebuild(config, |k| k.arch = Architecture::SharedBus),
        );
    }
    if config.pipe_depth > 0 {
        propose("no-pipeline", rebuild(config, |k| k.pipe_depth = 0));
    }
    if config.prog_port {
        propose("no-prog-port", rebuild(config, |k| k.prog_port = false));
    }
    if config.max_outstanding > 1 {
        propose(
            "single-outstanding",
            rebuild(config, |k| k.max_outstanding = 1),
        );
    }
    // Last resort: collapsing to the blocking protocol removes splits,
    // chunks and out-of-order delivery in one step — kept only when the
    // divergence genuinely never needed them.
    if config.protocol != ProtocolType::Type1 {
        propose(
            "protocol-type1",
            rebuild(config, |k| k.protocol = ProtocolType::Type1),
        );
    }
    out
}

/// A finished shrink: the minimal surviving pair, the accepted steps in
/// order (`"config:one-target"`, `"recipe:single-phase"`, …), the number
/// of candidate re-validations spent, and the finding the minimal pair
/// still produces.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// The reduced configuration.
    pub config: NodeConfig,
    /// The reduced recipe (normalized for `config`).
    pub recipe: Recipe,
    /// Accepted reduction steps, in application order.
    pub steps: Vec<String>,
    /// Candidate re-validation runs spent (accepted + rejected).
    pub evaluations: usize,
    /// The finding the minimal pair produces.
    pub finding: Finding,
}

/// Greedily shrinks `(config, recipe)` while `detector_column` keeps
/// firing, spending at most `budget` candidate re-validations. The
/// starting pair must itself fire (the caller just observed it);
/// `seed` and `inject` are held fixed throughout.
pub fn shrink(
    config: &NodeConfig,
    recipe: &Recipe,
    seed: u64,
    inject: &Injections,
    detector_column: &str,
    budget: usize,
    telemetry: &Telemetry,
) -> ShrinkResult {
    let tel = telemetry.buffered();
    let span = tel
        .span("hunt.shrink")
        .field("detector", Json::from(detector_column))
        .field("seed", Json::from(seed));
    let mut config = config.clone();
    let mut recipe = recipe.clone();
    let mut steps: Vec<String> = Vec::new();
    let mut evaluations = 0usize;
    let mut finding = None;

    let still_fires = |config: &NodeConfig, recipe: &Recipe, tel: &Telemetry| {
        run_probe(config, recipe, seed, inject, tel)
            .filter(|f| f.detector.column() == detector_column)
    };

    'fixpoint: loop {
        for (label, cand_config) in config_reductions(&config) {
            if evaluations >= budget {
                break 'fixpoint;
            }
            let mut cand_recipe = recipe.clone();
            cdg::clamp_recipe(&mut cand_recipe, &cand_config);
            evaluations += 1;
            if let Some(f) = still_fires(&cand_config, &cand_recipe, &tel) {
                steps.push(format!("config:{label}"));
                config = cand_config;
                recipe = cand_recipe;
                finding = Some(f);
                continue 'fixpoint;
            }
        }
        for (label, cand_recipe) in cdg::recipe_reductions(&recipe, &config) {
            if evaluations >= budget {
                break 'fixpoint;
            }
            evaluations += 1;
            if let Some(f) = still_fires(&config, &cand_recipe, &tel) {
                steps.push(format!("recipe:{label}"));
                recipe = cand_recipe;
                finding = Some(f);
                continue 'fixpoint;
            }
        }
        break;
    }
    // The caller observed the starting pair fire; if no reduction was
    // ever accepted, re-validate once so the result carries a finding.
    let finding = finding
        .or_else(|| still_fires(&config, &recipe, &tel))
        .expect("the unreduced pair fired when the caller observed it");
    span.end([
        ("steps", Json::from(steps.len() as u64)),
        ("evaluations", Json::from(evaluations as u64)),
    ]);
    ShrinkResult {
        config,
        recipe,
        steps,
        evaluations,
        finding,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_reductions_are_deterministic_and_legal() {
        let config = NodeConfig::builder("big")
            .initiators(4)
            .targets(4)
            .bus_bytes(16)
            .protocol(ProtocolType::Type3)
            .architecture(Architecture::PartialCrossbar { lanes: 2 })
            .pipe_depth(2)
            .prog_port(true)
            .max_outstanding(4)
            .build()
            .unwrap();
        let a = config_reductions(&config);
        let b = config_reductions(&config);
        assert_eq!(
            a.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            b.iter().map(|(l, _)| *l).collect::<Vec<_>>()
        );
        assert!(a.len() >= 10, "big config offers many reductions: {a:?}");
        for (label, candidate) in &a {
            assert_ne!(candidate, &config, "{label} proposed a no-op");
        }
    }

    #[test]
    fn minimal_config_offers_no_reductions() {
        let config = NodeConfig::builder("min")
            .initiators(1)
            .targets(1)
            .bus_bytes(1)
            .protocol(ProtocolType::Type1)
            .max_outstanding(1)
            .build()
            .unwrap();
        assert!(config_reductions(&config).is_empty());
    }
}
