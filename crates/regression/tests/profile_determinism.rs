//! Acceptance tests of the profiling subsystem over a real campaign:
//! the aggregated span tree must not depend on the worker count once
//! timings are stripped, and the Chrome trace export must honor the
//! B/E pairing contract.

use sim_kernel::SimBackend;
use stbus_protocol::NodeConfig;
use stbus_regression::{run_regression, standard_configs, RegressionOptions};
use telemetry::{MemorySink, Telemetry};

/// Runs a small-but-interleaving campaign (8 cells) with the RTL view on
/// `engine` and returns the captured telemetry events.
fn campaign_events(jobs: usize, engine: SimBackend) -> Vec<telemetry::Event> {
    let configs: Vec<NodeConfig> = vec![NodeConfig::reference(), standard_configs()[5].clone()];
    let tests = vec![
        catg::tests_lib::basic_read_write(6),
        catg::tests_lib::random_mixed(6),
    ];
    let (sink, handle) = MemorySink::new();
    let tel = Telemetry::builder().with_sink(Box::new(sink)).build();
    let options = RegressionOptions {
        seeds: vec![1, 2],
        jobs,
        engine,
        telemetry: tel.clone(),
        ..RegressionOptions::default()
    };
    run_regression(&configs, &tests, &options);
    tel.flush();
    handle.events()
}

#[test]
fn stripped_profile_is_byte_identical_across_worker_counts() {
    // `stbus-regress --profile`'s grouping.
    let opts = profile::ProfileOptions {
        group_by: vec!["config".to_owned(), "view".to_owned()],
    };
    let mut serial = profile::build_profile(
        &profile::collect_spans(&campaign_events(1, SimBackend::Event)),
        &opts,
    );
    let mut parallel = profile::build_profile(
        &profile::collect_spans(&campaign_events(4, SimBackend::Event)),
        &opts,
    );

    // Live profiles differ (wall clock is never reproducible)...
    assert_ne!(serial.render_text(), parallel.render_text());

    // ...but the stripped trees are the same bytes: same spans, same
    // counts, same nesting, regardless of how cells were scheduled.
    serial.strip_timings();
    parallel.strip_timings();
    let a = serial.render_text();
    let b = parallel.render_text();
    assert_eq!(a, b);

    // And the tree is the real campaign shape, not a degenerate flat
    // list: cells grouped per configuration and view, with the testbench
    // and its phase attribution nested underneath, plus the assembly span.
    assert!(a.contains("regress.campaign"));
    assert!(a.contains("regress.cell{config=reference,view=RTL}"));
    assert!(a.contains("regress.cell{config=reference,view=BCA}"));
    assert!(a.contains("tb.run{view=BCA}"));
    assert!(a.contains("phase:settle"));
    assert!(a.contains("phase:drive"));
    assert!(a.contains("phase:vcd"));
    assert!(a.contains("stba.compare"));
    assert!(a.contains("regress.assemble"));
}

#[test]
fn campaign_trace_export_pairs_and_orders_correctly() {
    let events = campaign_events(4, SimBackend::Event);
    let spans = profile::collect_spans(&events);
    assert!(!spans.is_empty());

    let doc = profile::trace_json(&spans);
    // The exported document must survive its own wire format and honor
    // the trace_event structural contract: every B closed by a matching
    // E on the same thread, timestamps non-decreasing per thread.
    let parsed = telemetry::Json::parse(&doc.render()).expect("trace renders valid JSON");
    let stats = profile::validate_trace(&parsed).expect("B/E pairing and timestamp order hold");

    // 2 events per span at minimum (plus synthetic phase blocks).
    assert!(stats.duration_events >= 2 * spans.len() as u64);
    // jobs=4 means worker threads beyond the campaign's main track.
    assert!(stats.threads >= 2, "threads: {}", stats.threads);
    // campaign -> cell -> tb.run -> phase:* nesting reaches depth 3+
    // somewhere (phase blocks sit under leaf tb.run spans).
    assert!(stats.max_depth >= 3, "max depth: {}", stats.max_depth);
}

/// The per-layer split `stbus-regress --profile` records and `history`
/// compares: the kernel's `settle`/`eval`, the check phase and its five
/// sub-layers, trace capture, comparison and assembly, on either engine.
#[test]
fn phase_totals_cover_the_history_buckets() {
    for engine in [SimBackend::Event, SimBackend::Compiled] {
        let events = campaign_events(2, engine);
        let spans = profile::collect_spans(&events);
        let profile = profile::build_profile(&spans, &profile::ProfileOptions::default());
        let phases = profile.phase_totals();
        for bucket in [
            "settle",
            "eval",
            "drive",
            "check",
            "check:bfm",
            "check:monitor",
            "check:checker",
            "check:coverage",
            "check:scoreboard",
            "vcd",
            "compare",
            "merge",
        ] {
            assert!(
                phases.contains_key(bucket),
                "{engine:?}: missing phase bucket `{bucket}` in {:?}",
                phases.keys().collect::<Vec<_>>()
            );
        }
        // The dominant simulation phases actually accumulated time.
        assert!(phases["settle"] > 0, "{engine:?}");
        assert!(phases["check"] > 0, "{engine:?}");
        assert!(phases["compare"] > 0, "{engine:?}");
    }
}
