//! Meta-test for the shrinker: plant a known catalogue defect in a
//! deliberately oversized probe and check the delta-debugger converges
//! to a genuinely minimal reproducer without losing the detector class.
//!
//! This is the hunt's own qualification: the fleet is only trustworthy
//! if its shrink lattice actually descends — an oversized find that
//! stays oversized is a reproducer nobody will read.

use catg::{ConstraintModel, TargetProfile};
use cdg::Recipe;
use stbus_hunt::{run_probe, shrink, Injections};
use stbus_protocol::{ArbitrationKind, Architecture, NodeConfig, ProtocolType};
use stbus_rtl::RtlBug;
use telemetry::Telemetry;

/// A 4x4 fully-featured node: far more machinery than the misroute
/// needs, so every axis of the shrink lattice has room to move.
fn oversized_config() -> NodeConfig {
    NodeConfig::builder("oversized")
        .initiators(4)
        .targets(4)
        .bus_bytes(8)
        .protocol(ProtocolType::Type3)
        .architecture(Architecture::FullCrossbar)
        .arbitration(ArbitrationKind::Lru)
        .prog_port(true)
        .pipe_depth(2)
        .build()
        .expect("oversized config is valid")
}

/// A deliberately fat recipe: every initiator drives uniform traffic at
/// all four targets, plus a two-phase programming schedule the defect
/// does not need at all.
fn oversized_recipe(config: &NodeConfig) -> Recipe {
    let model = ConstraintModel {
        n_transactions: 20,
        targets: Vec::new(), // uniform over all targets — the top one included
        ..ConstraintModel::default()
    };
    let mut recipe = Recipe {
        name: "oversized".to_owned(),
        models: vec![model; config.n_initiators],
        target_profiles: vec![TargetProfile::default(); config.n_targets],
        prog_schedule: vec![(0, vec![0, 1, 2, 3]), (200, vec![3, 2, 1, 0])],
    };
    recipe.normalize(config);
    recipe
}

#[test]
fn planted_misroute_shrinks_to_a_minimal_reproducer() {
    let config = oversized_config();
    let recipe = oversized_recipe(&config);
    let inject = Injections {
        rtl: vec![RtlBug::MisroutedHighTarget],
        bca: vec![],
    };
    let tel = Telemetry::disabled();
    let seed = 7;

    let finding = run_probe(&config, &recipe, seed, &inject, &tel)
        .expect("a misroute under uniform 4x4 traffic must diverge");
    let column = finding.detector.column();

    let result = shrink(&config, &recipe, seed, &inject, column, 400, &tel);

    // The defect misroutes traffic aimed at the highest target, so two
    // targets (a victim and the misrouting one) and one initiator are
    // all it can possibly need — the shrinker must get there.
    assert!(
        result.config.n_initiators <= 2,
        "initiators did not shrink: {} (steps {:?})",
        result.config.n_initiators,
        result.steps
    );
    assert!(
        result.config.n_targets <= 2,
        "targets did not shrink: {} (steps {:?})",
        result.config.n_targets,
        result.steps
    );
    assert!(
        result.recipe.prog_schedule.is_empty(),
        "the irrelevant programming schedule survived: {:?}",
        result.recipe.prog_schedule
    );
    assert!(!result.steps.is_empty(), "no reductions were accepted");
    // The shrink preserved the detector class it was asked to keep.
    assert_eq!(result.finding.detector.column(), column);
    // And the minimal probe genuinely still fires, from scratch.
    let replayed = run_probe(&result.config, &result.recipe, seed, &inject, &tel)
        .expect("the shrunk reproducer must still diverge");
    assert_eq!(replayed.detector.column(), column);
}

#[test]
fn shrink_is_deterministic() {
    let config = oversized_config();
    let recipe = oversized_recipe(&config);
    let inject = Injections {
        rtl: vec![RtlBug::MisroutedHighTarget],
        bca: vec![],
    };
    let tel = Telemetry::disabled();
    let a = shrink(&config, &recipe, 7, &inject, "checker", 120, &tel);
    let b = shrink(&config, &recipe, 7, &inject, "checker", 120, &tel);
    assert_eq!(a.config, b.config);
    assert_eq!(a.recipe, b.recipe);
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.evaluations, b.evaluations);
}
