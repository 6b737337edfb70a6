//! The qualification report: detection matrix, mutation score, and the
//! machine-readable `qualification.json`.

use crate::Detector;
use stbus_protocol::ViewKind;
use telemetry::Json;

/// Schema identifier written into every `qualification.json`.
pub const QUALIFICATION_SCHEMA: &str = "stbus-qualification/1";

/// One detected `{config, test, seed}` cell (or derived detection).
#[derive(Clone, Debug)]
pub struct Detection {
    /// Configuration name.
    pub config: String,
    /// Test name (`<merged coverage>` for the coverage shortfall, which
    /// is judged on the per-configuration merge rather than one run).
    pub test: String,
    /// Seed (`0` for the coverage shortfall).
    pub seed: u64,
    /// Which environment component fired.
    pub detector: Detector,
}

/// One `{config, alignment-spec}` waveform comparison.
#[derive(Clone, Debug)]
pub struct AlignmentCell {
    /// Configuration name.
    pub config: String,
    /// Alignment spec name.
    pub spec: String,
    /// Minimum per-port alignment rate of the mutated pair.
    pub rate: Option<f64>,
    /// Same cell on the clean control pair of the same view.
    pub baseline: Option<f64>,
    /// Below sign-off while the baseline signs off.
    pub detected: bool,
}

/// The campaign verdict on one catalogue entry.
#[derive(Clone, Debug)]
pub struct MutationOutcome {
    /// Catalogue label (`B1`..`B5`, `R1`..`R6`, `T1`..`T2`, `C-RTL`,
    /// `C-BCA`, `C-TLM`).
    pub label: String,
    /// One-line description.
    pub description: String,
    /// The view that carried the defect (or the control's view).
    pub view: ViewKind,
    /// True for the clean negative controls.
    pub control: bool,
    /// The detector the catalogue declares (`"none"` for controls).
    pub expected_detector: String,
    /// Every detection, in matrix order (functional cells first, then
    /// alignment, then coverage).
    pub detections: Vec<Detection>,
    /// Every alignment comparison, detected or not.
    pub alignment: Vec<AlignmentCell>,
    /// Campaign-level attribution: the strongest detector that fired.
    pub detector: Option<Detector>,
}

impl MutationOutcome {
    /// True when the entry was caught by at least one detector.
    pub fn detected(&self) -> bool {
        self.detector.is_some()
    }

    /// True when the outcome matches the catalogue declaration: controls
    /// stay clean, mutations are caught by the declared detector.
    pub fn attribution_ok(&self) -> bool {
        match &self.detector {
            None => self.control,
            Some(d) => !self.control && d.to_string() == self.expected_detector,
        }
    }

    /// Number of detections that landed in a report column.
    pub fn column_count(&self, column: &str) -> usize {
        self.detections
            .iter()
            .filter(|d| d.detector.column() == column)
            .count()
    }
}

/// A whole qualification campaign's outcome.
#[derive(Clone, Debug)]
pub struct QualificationReport {
    /// One verdict per catalogue entry (controls included).
    pub outcomes: Vec<MutationOutcome>,
    /// Always 0: the campaign's time lives in its `mutation.campaign`
    /// span.
    pub wall_us: u64,
    /// Snapshot of every metric recorded during the campaign.
    pub metrics: telemetry::MetricsSnapshot,
}

impl QualificationReport {
    /// The real mutations (controls excluded).
    pub fn mutations(&self) -> impl Iterator<Item = &MutationOutcome> {
        self.outcomes.iter().filter(|o| !o.control)
    }

    /// Killed mutations over total mutations, 0..=1.
    pub fn mutation_score(&self) -> f64 {
        let total = self.mutations().count();
        if total == 0 {
            return 0.0;
        }
        self.mutations().filter(|o| o.detected()).count() as f64 / total as f64
    }

    /// Mutations no detector caught.
    pub fn survivors(&self) -> Vec<&MutationOutcome> {
        self.mutations().filter(|o| !o.detected()).collect()
    }

    /// Entries whose outcome contradicts the catalogue: a surviving
    /// mutation, a mutation caught by an undeclared detector, or a control
    /// that produced detections.
    pub fn attribution_issues(&self) -> Vec<&MutationOutcome> {
        self.outcomes
            .iter()
            .filter(|o| !o.attribution_ok())
            .collect()
    }

    /// The campaign verdict: every mutation killed, every attribution
    /// matching the catalogue, every control clean.
    pub fn passed(&self) -> bool {
        self.mutation_score() == 1.0 && self.attribution_issues().is_empty()
    }

    /// Zeroes the wall-clock field, which a report from
    /// [`crate::run_qualification`] already leaves at 0.
    pub fn strip_timings(&mut self) {
        self.wall_us = 0;
    }

    /// Renders the detection matrix: one row per entry, one column per
    /// detector category (cells count detections), plus the attribution
    /// verdict.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "entry  view  checker  starve  scoreboard  tx-order  align  coverage  attribution          expected             verdict\n",
        );
        for o in &self.outcomes {
            let attributed = o.detector.map_or("-".to_owned(), |d| d.to_string());
            out.push_str(&format!(
                "{:<6} {:<5} {:>7} {:>7} {:>11} {:>9} {:>6} {:>9}  {:<20} {:<20} {}\n",
                o.label,
                o.view.to_string(),
                o.column_count("checker"),
                o.column_count("starvation"),
                o.column_count("scoreboard"),
                o.column_count("tx-order"),
                o.column_count("alignment"),
                o.column_count("coverage"),
                attributed,
                o.expected_detector,
                if o.attribution_ok() { "ok" } else { "MISMATCH" },
            ));
        }
        out.push_str(&format!(
            "\nmutation score: {:.1}% ({} of {} killed){}\n",
            self.mutation_score() * 100.0,
            self.mutations().filter(|o| o.detected()).count(),
            self.mutations().count(),
            if self.passed() {
                "  — PASSED"
            } else {
                "  — FAILED"
            },
        ));
        out
    }

    /// The whole campaign as one JSON document.
    pub fn qualification_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(QUALIFICATION_SCHEMA)),
            (
                "mutation_score_pct",
                Json::from(self.mutation_score() * 100.0),
            ),
            ("mutations", Json::from(self.mutations().count() as u64)),
            (
                "killed",
                Json::from(self.mutations().filter(|o| o.detected()).count() as u64),
            ),
            (
                "survivors",
                Json::Arr(
                    self.survivors()
                        .iter()
                        .map(|o| Json::from(o.label.as_str()))
                        .collect(),
                ),
            ),
            ("passed", Json::from(self.passed())),
            ("wall_us", Json::from(self.wall_us)),
            (
                "entries",
                Json::Arr(self.outcomes.iter().map(outcome_json).collect()),
            ),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

fn outcome_json(o: &MutationOutcome) -> Json {
    Json::obj([
        ("label", Json::from(o.label.as_str())),
        ("description", Json::from(o.description.as_str())),
        ("view", Json::from(o.view.to_string())),
        ("control", Json::from(o.control)),
        (
            "expected_detector",
            Json::from(o.expected_detector.as_str()),
        ),
        ("detector", Json::from(o.detector.map(|d| d.to_string()))),
        ("detected", Json::from(o.detected())),
        ("attribution_ok", Json::from(o.attribution_ok())),
        (
            "detections",
            Json::Arr(
                o.detections
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("config", Json::from(d.config.as_str())),
                            ("test", Json::from(d.test.as_str())),
                            ("seed", Json::from(d.seed)),
                            ("detector", Json::from(d.detector.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "alignment",
            Json::Arr(
                o.alignment
                    .iter()
                    .map(|a| {
                        Json::obj([
                            ("config", Json::from(a.config.as_str())),
                            ("spec", Json::from(a.spec.as_str())),
                            ("min_rate_pct", Json::from(a.rate.map(|r| r * 100.0))),
                            ("baseline_pct", Json::from(a.baseline.map(|r| r * 100.0))),
                            ("detected", Json::from(a.detected)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
