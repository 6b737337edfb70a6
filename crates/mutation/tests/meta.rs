//! Meta-qualification: the engine itself must be trustworthy before its
//! verdicts mean anything. A clean node pushed through `--qualify` must
//! come out with zero detections (no false positives), and the report —
//! including the rendered `qualification.json` — must not depend on the
//! worker count.

use catg::tests_lib;
use stbus_mutation::{run_qualification, QualifyOptions, QUALIFICATION_SCHEMA};
use stbus_protocol::NodeConfig;
use telemetry::{Json, Telemetry};

/// A deliberately tiny campaign shape: enough cells to exercise both cell
/// kinds on every catalogue entry, small enough for a unit-test budget.
fn tiny_options(jobs: usize) -> QualifyOptions {
    QualifyOptions {
        configs: vec![NodeConfig::reference()],
        tests: vec![tests_lib::basic_read_write(8), tests_lib::out_of_order(8)],
        seeds: vec![1],
        alignment_specs: vec![tests_lib::lru_fairness(10)],
        jobs,
        telemetry: Telemetry::disabled(),
    }
}

#[test]
fn clean_controls_come_out_with_zero_detections() {
    let report = run_qualification(&tiny_options(0));
    let controls: Vec<_> = report.outcomes.iter().filter(|o| o.control).collect();
    assert_eq!(controls.len(), 3);
    for o in controls {
        assert!(
            o.detections.is_empty(),
            "{}: false positives {:?}",
            o.label,
            o.detections
        );
        assert!(o.detector.is_none());
        assert!(o.attribution_ok());
        // The control's alignment cells ran (they are the baselines) but
        // none may count as detected.
        assert!(!o.alignment.is_empty());
        assert!(o.alignment.iter().all(|a| !a.detected));
    }
}

#[test]
fn qualification_json_is_identical_for_any_worker_count() {
    let serial = run_qualification(&tiny_options(1));
    let parallel = run_qualification(&tiny_options(4));
    assert_eq!(
        serial.qualification_json().render_pretty(),
        parallel.qualification_json().render_pretty(),
        "qualification.json must be byte-identical across --jobs values"
    );
    assert_eq!(serial.table(), parallel.table());
}

#[test]
fn qualification_json_parses_and_mirrors_the_report() {
    let report = run_qualification(&tiny_options(0));
    let rendered = report.qualification_json().render_pretty();
    let parsed = Json::parse(&rendered).expect("valid JSON");
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some(QUALIFICATION_SCHEMA)
    );
    assert_eq!(parsed.get("wall_us").and_then(Json::as_u64), Some(0));
    let entries = parsed.get("entries").and_then(Json::as_arr).unwrap();
    assert_eq!(entries.len(), report.outcomes.len());
    let score = parsed
        .get("mutation_score_pct")
        .and_then(Json::as_f64)
        .unwrap();
    assert!((score - report.mutation_score() * 100.0).abs() < 1e-9);
    // Every entry label round-trips in catalogue order.
    for (json, outcome) in entries.iter().zip(&report.outcomes) {
        assert_eq!(
            json.get("label").and_then(Json::as_str),
            Some(outcome.label.as_str())
        );
        assert_eq!(
            json.get("detected").and_then(Json::as_bool),
            Some(outcome.detected())
        );
    }
    // The campaign counters made it into the snapshot.
    let cells = parsed
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("mutation.cells"))
        .and_then(Json::as_u64)
        .unwrap();
    // 16 entries × 1 config × (2 tests × 1 seed + 1 alignment spec).
    assert_eq!(cells, 16 * 3);
}
