//! End-to-end promotion round trip: hunt -> shrink -> `repro.json` ->
//! promoted catalogue -> qualification replay.
//!
//! This is the schema contract test between the producer
//! (`hunt::Repro::to_json`, schema `stbus-repro/1`) and the consumer
//! (`mutation::PromotedRepro`): a reproducer written by the fleet must
//! load from a catalogue directory, replay, and attribute through the
//! qualification side.

use stbus_hunt::{run_hunt, HuntOptions, Injections};
use stbus_rtl::RtlBug;
use telemetry::Telemetry;

#[test]
fn promoted_reproducer_is_caught_and_attributed() {
    // A seeded hunt known to diverge (campaign seed 1, probe 6).
    let report = run_hunt(&HuntOptions {
        budget: 8,
        campaign_seed: 1,
        inject: Injections {
            rtl: vec![RtlBug::MisroutedHighTarget],
            bca: vec![],
        },
        max_shrinks: 1,
        shrink_budget: 60,
        jobs: 1,
        ..HuntOptions::default()
    });
    let repro = report
        .repros
        .first()
        .expect("the seeded hunt must shrink a repro");

    // Pin it the way `--hunt-promote` does: one JSON file in a
    // catalogue directory, named by content id.
    let dir = std::env::temp_dir().join(format!("stbus_hunts_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join(format!("{}.json", repro.id())),
        repro.to_json().render_pretty(),
    )
    .unwrap();

    // The qualification side loads and replays it independently.
    let entries = mutation::PromotedRepro::load_dir(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].id, repro.id());
    assert_eq!(entries[0].detector_column, repro.detector_column);

    let outcomes = mutation::run_promoted(&entries, &Telemetry::disabled());
    assert_eq!(outcomes.len(), 1);
    let outcome = &outcomes[0];
    assert!(
        outcome.caught,
        "the pinned reproducer did not fire: {outcome:?}"
    );
    assert!(
        outcome.attributed,
        "the pinned reproducer fired the wrong class: {outcome:?}"
    );

    // An empty (or absent) catalogue stays empty — the qualify path
    // must not invent entries.
    let missing = std::env::temp_dir().join("stbus_hunts_definitely_missing");
    assert!(mutation::PromotedRepro::load_dir(&missing)
        .unwrap()
        .is_empty());
}
