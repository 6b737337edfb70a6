//! Integration test for experiment E2: the common environment finds all
//! five catalogue bugs; the legacy past-flow bench finds only the
//! byte-enable one.
//!
//! The campaign shape (configurations, tests, seeds, alignment spec,
//! sign-off threshold) lives in [`tests_lib::qualification`] and is shared
//! with the mutation-qualification engine (`stbus_regress --qualify`), so
//! this test and the qualification campaign can never drift apart.

use catg::tests_lib::qualification as qual;
use catg::{LegacyTestbench, ViewSpec};
use stbus_bca::{BcaBug, BcaNode, Fidelity};
use stbus_protocol::{NodeConfig, ViewKind};

fn buggy_bca(config: &NodeConfig, bug: BcaBug) -> BcaNode {
    let mut node = BcaNode::new(config.clone(), Fidelity::Exact);
    node.inject_bug(bug);
    node
}

/// Runs the functional stage of the common environment on a buggy node
/// over both hunt configurations; returns true when any run fails.
fn functional_stage_detects(bug: BcaBug) -> bool {
    let view = ViewSpec::Bca(Fidelity::Exact, vec![bug]);
    qual::functional_detects(&qual::hunt_configs(), &view)
}

/// Runs the alignment stage (the flow's second quality metric).
fn alignment_stage_detects(bug: BcaBug) -> bool {
    let mutated = ViewSpec::Bca(Fidelity::Exact, vec![bug]);
    qual::alignment_detects(
        &NodeConfig::reference(),
        ViewSpec::of(ViewKind::Rtl),
        mutated,
    )
}

#[test]
fn common_environment_finds_all_five_bugs() {
    for bug in BcaBug::ALL {
        let found = functional_stage_detects(bug) || alignment_stage_detects(bug);
        assert!(found, "{bug} evaded the common environment");
    }
}

#[test]
fn legacy_flow_finds_only_the_byte_enable_bug() {
    for bug in BcaBug::ALL {
        let mut detected = false;
        for config in qual::hunt_configs() {
            let legacy = LegacyTestbench::new(config.clone());
            let mut node = buggy_bca(&config, bug);
            detected |= !legacy.run(&mut node).passed;
        }
        assert_eq!(
            detected,
            bug == BcaBug::DroppedByteEnables,
            "legacy flow detection of {bug} contradicts the paper narrative"
        );
    }
}

#[test]
fn clean_model_passes_everything() {
    // Sanity for the experiment: with no bug injected, both stages pass.
    let reference = [NodeConfig::reference()];
    let clean = ViewSpec::Bca(Fidelity::Exact, Vec::new());
    assert!(!qual::functional_detects(&reference, &clean));
}
