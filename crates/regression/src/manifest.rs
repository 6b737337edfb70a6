//! The machine-readable campaign manifest.
//!
//! Alongside the textual reports, a campaign serializes itself into one
//! `manifest.json`: every `{config, test, seed}` cell with both views'
//! results, per-port alignment and coverage percentages, plus the
//! campaign-wide metrics snapshot (the `kernel.*`, `tb.*` and `stba.*`
//! counters). Its `*wall_us` fields are always zero: a campaign's time
//! lives in its spans, so the manifest is a pure function of its inputs. The schema is versioned through the
//! top-level `"schema"` string so downstream tooling can detect changes.

use crate::runner::{ConfigOutcome, RegressionReport, RunRecord};
use catg::cell::{port_rate, PortFigures};
use catg::RunResult;
use telemetry::Json;

/// Schema identifier written into every manifest.
///
/// `/2` added the top-level `"engine"` string naming the simulation
/// backend the RTL runs used (`"event"` or `"compiled"`).
///
/// `/3` added the TLM view: per-run `"tlm"` result,
/// `"tlm_alignment"` / `"tlm_tx_alignment"` port figures with their
/// minima, the TLM wall-clock fields, and the per-config
/// `"tlm_functional_coverage_pct"` / `"tlm_signed_off"` entries. The
/// fields are always present and `null` when the campaign did not run
/// the untimed view.
pub const MANIFEST_SCHEMA: &str = "stbus-regress-manifest/3";

fn run_result_json(result: &RunResult) -> Json {
    Json::obj([
        ("view", Json::from(result.view.to_string())),
        ("cycles", Json::from(result.cycles)),
        ("transactions", Json::from(result.transactions)),
        ("passed", Json::from(result.passed())),
        ("completed", Json::from(result.completed)),
        ("checker_checks", Json::from(result.checker.total_checks())),
        (
            "checker_violations",
            Json::from(result.checker.total_violations()),
        ),
        ("scoreboard_checks", Json::from(result.scoreboard_checks)),
        (
            "scoreboard_errors",
            Json::from(result.scoreboard_errors.len()),
        ),
        ("anomalies", Json::from(result.anomalies.len())),
        (
            "coverage_pct",
            Json::from(result.coverage.coverage() * 100.0),
        ),
    ])
}

/// Per-port alignment figures as JSON. `matching`/`total` count cycles
/// for the cycle comparisons and committed transfers for the
/// transaction-order one.
fn alignment_json(ports: &Option<PortFigures>) -> Json {
    match ports {
        Some(ports) => Json::Arr(
            ports
                .iter()
                .map(|(port, matching, total)| {
                    Json::obj([
                        ("port", Json::from(port.as_str())),
                        ("matching_cycles", Json::from(*matching)),
                        ("total_cycles", Json::from(*total)),
                        ("rate_pct", Json::from(port_rate(*matching, *total) * 100.0)),
                    ])
                })
                .collect(),
        ),
        None => Json::Null,
    }
}

fn run_record_json(run: &RunRecord) -> Json {
    Json::obj([
        ("test", Json::from(run.test.as_str())),
        ("seed", Json::from(run.seed)),
        ("rtl", run_result_json(&run.rtl)),
        ("bca", run_result_json(&run.bca)),
        (
            "tlm",
            match &run.tlm {
                Some(tlm) => run_result_json(tlm),
                None => Json::Null,
            },
        ),
        ("alignment", alignment_json(&run.alignment)),
        (
            "min_alignment_pct",
            Json::from(run.min_alignment().map(|a| a * 100.0)),
        ),
        ("tlm_alignment", alignment_json(&run.tlm_alignment)),
        (
            "min_tlm_alignment_pct",
            Json::from(run.min_tlm_alignment().map(|a| a * 100.0)),
        ),
        ("tlm_tx_alignment", alignment_json(&run.tlm_tx_alignment)),
        (
            "min_tlm_tx_alignment_pct",
            Json::from(run.min_tlm_tx_alignment().map(|a| a * 100.0)),
        ),
        ("rtl_wall_us", Json::from(run.rtl_wall_us)),
        ("bca_wall_us", Json::from(run.bca_wall_us)),
        ("tlm_wall_us", Json::from(run.tlm_wall_us)),
        ("compare_wall_us", Json::from(run.compare_wall_us)),
        ("tlm_compare_wall_us", Json::from(run.tlm_compare_wall_us)),
    ])
}

fn config_outcome_json(outcome: &ConfigOutcome) -> Json {
    let cfg = &outcome.config;
    let code_cov = match &outcome.code_coverage_rtl {
        Some(cov) => Json::obj([
            ("process_pct", Json::from(cov.process_coverage() * 100.0)),
            ("branch_pct", Json::from(cov.branch_coverage() * 100.0)),
        ]),
        None => Json::Null,
    };
    Json::obj([
        ("name", Json::from(cfg.name.as_str())),
        (
            "config",
            Json::obj([
                ("n_initiators", Json::from(cfg.n_initiators)),
                ("n_targets", Json::from(cfg.n_targets)),
                ("bus_bits", Json::from(cfg.bus_bits())),
                ("protocol", Json::from(cfg.protocol.to_string())),
                ("arch", Json::from(cfg.arch.to_string())),
                ("arbitration", Json::from(cfg.arbitration.to_string())),
            ]),
        ),
        ("all_passed", Json::from(outcome.all_passed())),
        (
            "functional_coverage_pct",
            Json::from(outcome.functional_coverage() * 100.0),
        ),
        (
            "coverage_matches_across_views",
            Json::from(outcome.coverage_matches_across_views()),
        ),
        (
            "min_alignment_pct",
            Json::from(outcome.min_alignment().map(|a| a * 100.0)),
        ),
        (
            "tlm_functional_coverage_pct",
            Json::from(
                outcome
                    .coverage_tlm
                    .as_ref()
                    .map(|cov| cov.coverage() * 100.0),
            ),
        ),
        (
            "min_tlm_alignment_pct",
            Json::from(outcome.min_tlm_alignment().map(|a| a * 100.0)),
        ),
        (
            "min_tlm_tx_alignment_pct",
            Json::from(outcome.min_tlm_tx_alignment().map(|a| a * 100.0)),
        ),
        ("code_coverage_rtl", code_cov),
        ("signed_off", Json::from(outcome.signed_off())),
        (
            "tlm_signed_off",
            Json::from(
                outcome
                    .coverage_tlm
                    .as_ref()
                    .map(|_| outcome.tlm_signed_off()),
            ),
        ),
        (
            "runs",
            Json::Arr(outcome.runs.iter().map(run_record_json).collect()),
        ),
    ])
}

impl RegressionReport {
    /// The whole campaign as one JSON document: schema tag, per-config
    /// outcomes with every run record, and the metrics snapshot.
    pub fn manifest_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(MANIFEST_SCHEMA)),
            ("engine", Json::from(self.engine.to_string())),
            ("signed_off_configs", Json::from(self.signed_off_count())),
            ("total_configs", Json::from(self.configs.len())),
            ("wall_us", Json::from(self.wall_us)),
            (
                "configs",
                Json::Arr(self.configs.iter().map(config_outcome_json).collect()),
            ),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_regression, RegressionOptions};
    use stbus_protocol::NodeConfig;
    use telemetry::Telemetry;

    #[test]
    fn manifest_round_trips_and_matches_report() {
        let tel = Telemetry::disabled();
        let configs = vec![NodeConfig::reference()];
        let tests = vec![catg::tests_lib::basic_read_write(8)];
        let options = RegressionOptions {
            seeds: vec![1],
            telemetry: tel.clone(),
            ..RegressionOptions::default()
        };
        let report = run_regression(&configs, &tests, &options);
        let rendered = report.manifest_json().render_pretty();
        let parsed = Json::parse(&rendered).expect("manifest is valid JSON");

        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(MANIFEST_SCHEMA)
        );
        assert_eq!(parsed.get("engine").and_then(Json::as_str), Some("event"));
        let cfgs = parsed.get("configs").and_then(Json::as_arr).unwrap();
        assert_eq!(cfgs.len(), 1);
        let c = &cfgs[0];
        assert_eq!(c.get("name").and_then(Json::as_str), Some("reference"));
        // Figures in the manifest must match the in-memory report.
        let outcome = &report.configs[0];
        let fcov = c
            .get("functional_coverage_pct")
            .and_then(Json::as_f64)
            .unwrap();
        assert!((fcov - outcome.functional_coverage() * 100.0).abs() < 1e-9);
        let runs = c.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), outcome.runs.len());
        let run0 = &runs[0];
        assert_eq!(
            run0.get("rtl")
                .and_then(|r| r.get("cycles"))
                .and_then(Json::as_u64),
            Some(outcome.runs[0].rtl.cycles)
        );
        let align = run0.get("alignment").and_then(Json::as_arr).unwrap();
        let mem_align = outcome.runs[0].alignment.as_ref().unwrap();
        assert_eq!(align.len(), mem_align.len());
        assert_eq!(
            align[0].get("matching_cycles").and_then(Json::as_u64),
            Some(mem_align[0].1)
        );
        // Kernel metrics flow into the campaign snapshot.
        let metrics = parsed.get("metrics").unwrap();
        let deltas = metrics
            .get("counters")
            .and_then(|c| c.get("kernel.delta_cycles"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(deltas > 0);
    }
}
