//! Experiment E14 — the differential bug-hunt fleet: a budgeted random
//! campaign over (configuration, recipe, seed) probes, each run across
//! both timed views, with automatic shrinking of every divergence to a
//! minimal reproducer.
//!
//! Two campaigns make the argument from both sides:
//!
//! * a **clean** hunt (no seeded defects) must stay silent — the two
//!   views agree, functionally and at cycle accuracy, on every randomly
//!   drawn probe;
//! * a **seeded** hunt (R2, the misrouted-high-target RTL defect) must
//!   find the plant, shrink the firing probe to a minimal reproducer
//!   that preserves the detector column, and replay byte-for-byte
//!   identically for any worker count.
//!
//! ```text
//! cargo run -p stbus-bench --release --bin exp_hunt
//! ```

use hunt::{run_hunt, HuntOptions, Injections};
use stbus_rtl::RtlBug;
use telemetry::Telemetry;

fn main() {
    println!("=== E14: differential bug-hunt fleet (clean + seeded campaigns) ===\n");
    let tel = telemetry::Telemetry::to_stderr(telemetry::Level::Info);

    // --- Campaign 1: clean hunt. Silence is the result. -------------
    tel.info(
        "exp.hunt",
        "clean campaign",
        [("budget", telemetry::Json::from(16u64))],
    );
    let clean = run_hunt(&HuntOptions {
        budget: 16,
        campaign_seed: 1,
        ..HuntOptions::default()
    });
    println!("--- clean hunt (16 probes, campaign seed 1, no seeded defects) ---");
    println!("{}", clean.table());
    assert_eq!(
        clean.divergences(),
        0,
        "a clean hunt must not report cross-view divergence"
    );

    // --- Campaign 2: seeded hunt. The plant must be found. ----------
    let seeded_options = |jobs: usize| HuntOptions {
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
    };
    tel.info(
        "exp.hunt",
        "seeded campaign",
        [("inject", telemetry::Json::from("R2"))],
    );
    let seeded = run_hunt(&seeded_options(1));
    println!("--- seeded hunt (8 probes, campaign seed 1, inject R2) ---");
    println!("{}", seeded.table());
    assert!(
        seeded.divergences() > 0,
        "the seeded defect escaped the hunt"
    );

    let repro = seeded.repros.first().expect("one divergence is shrunk");
    println!("minimal reproducer {}:", repro.id());
    println!(
        "  detector      : {} (column `{}`)",
        repro.detector, repro.detector_column
    );
    println!(
        "  shrunk config : {} initiator(s) x {} target(s), {}-byte bus, {:?}",
        repro.config.n_initiators,
        repro.config.n_targets,
        repro.config.bus_bytes,
        repro.config.protocol
    );
    println!(
        "  shrink steps  : {} ({} candidate re-validations spent)",
        repro.shrink_steps.len(),
        seeded.shrink_evaluations
    );
    assert_eq!(
        repro.detector_column, "checker",
        "R2 is a functional (checker) find"
    );
    assert!(
        !repro.shrink_steps.is_empty(),
        "the oversized probe must shrink"
    );
    assert!(
        repro.config.n_initiators <= 2 && repro.config.n_targets <= 3,
        "the reproducer is not minimal: {}",
        repro.config
    );

    // The reproducer replays standalone and re-fires the recorded class.
    let finding = repro
        .replay(&Telemetry::disabled())
        .expect("replay runs")
        .expect("the reproducer fires on replay");
    assert!(repro.matches(&finding), "replay misattributed: {finding:?}");
    println!(
        "  replay        : fires `{}` — class preserved",
        finding.detector
    );

    // Worker-count invariance: jobs=4 reproduces jobs=1 byte-for-byte.
    let wide = run_hunt(&seeded_options(4));
    assert_eq!(
        seeded.hunt_json().render_pretty(),
        wide.hunt_json().render_pretty(),
        "the report must not depend on --jobs"
    );
    println!("  determinism   : --jobs 1 and --jobs 4 reports byte-identical");

    println!();
    println!(
        "clean campaign: {}/16 divergent; seeded campaign: {}/8 divergent, 1 shrunk",
        clean.divergences(),
        seeded.divergences()
    );
    println!(
        "claim: random cross-view probing finds seeded defects and stays silent on clean views;"
    );
    println!("every find is auto-shrunk to a minimal, replayable, promotable reproducer");
}
