//! The differential probe runner shared by the bug-hunt fleet and the
//! promoted-reproducer catalogue.
//!
//! One probe = one test spec run with identical stimulus on the RTL view
//! and the exact-fidelity BCA view, protocol checkers armed on both,
//! with the STBA cycle comparison as the backstop. The classification is
//! deliberately *differential*: random stimulus is allowed to be
//! pathological (a saturating grant throttle can genuinely starve a
//! low-priority port; an oversized burst may not drain inside the run
//! window), and when both views report the identical failure the
//! stimulus — not a model — is the culprit. Only a failure the other
//! view does not reproduce, two views failing in different ways, or a
//! cycle-alignment shortfall between two functionally clean runs counts
//! as a divergence.

use crate::Detector;
use catg::cell::{run_cell, CellSpec, Compare};
use catg::tests_lib::qualification as qual;
use catg::TestSpec;
use stbus_bca::BcaBug;
use stbus_protocol::NodeConfig;
use stbus_rtl::RtlBug;
use telemetry::{Json, Telemetry};

/// Defects seeded into the probed views — empty for a real hunt, a
/// catalogue bug or two when meta-testing the fleet (does the hunt find
/// what we planted, and does the shrinker keep it alive?).
#[derive(Clone, Default, Debug)]
pub struct Injections {
    /// Bugs injected into the RTL view.
    pub rtl: Vec<RtlBug>,
    /// Bugs injected into the BCA view.
    pub bca: Vec<BcaBug>,
}

impl Injections {
    /// True when the probe runs clean views (a real hunt).
    pub fn is_empty(&self) -> bool {
        self.rtl.is_empty() && self.bca.is_empty()
    }

    /// Catalogue labels (`R1`..`R6`, `B1`..`B5`) in a fixed order —
    /// exactly what `repro.json` records.
    pub fn labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = self.rtl.iter().map(|b| b.label().to_owned()).collect();
        labels.extend(self.bca.iter().map(|b| b.label().to_owned()));
        labels
    }

    /// Parses catalogue labels back into injections; rejects unknown
    /// labels (including TLM labels — the probe pairs the two
    /// cycle-accurate views).
    pub fn from_labels<S: AsRef<str>>(labels: &[S]) -> Result<Injections, String> {
        let mut inject = Injections::default();
        for label in labels {
            let label = label.as_ref();
            if let Some(bug) = RtlBug::ALL.iter().find(|b| b.label() == label) {
                inject.rtl.push(*bug);
            } else if let Some(bug) = BcaBug::ALL.iter().find(|b| b.label() == label) {
                inject.bca.push(*bug);
            } else {
                return Err(format!(
                    "unknown catalogue label {label:?} (expected R1..R6 or B1..B5)"
                ));
            }
        }
        Ok(inject)
    }
}

/// What a divergent probe was attributed to.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffFinding {
    /// The strongest detector that fired (checker > starvation >
    /// scoreboard > alignment, per [`Detector::precedence`]).
    pub detector: Detector,
    /// Which run produced the evidence: `"rtl"`, `"bca"`, or `"pair"`
    /// for the cross-view alignment comparison.
    pub view: &'static str,
    /// The STBA minimum alignment rate, when the comparison decided.
    pub alignment_rate: Option<f64>,
}

/// Runs one differential probe; `None` when the pair is clean and
/// aligned (or agrees on the same stimulus-induced failure).
pub fn run_differential(
    config: &NodeConfig,
    spec: &TestSpec,
    seed: u64,
    inject: &Injections,
    telemetry: &Telemetry,
) -> Option<DiffFinding> {
    let tel = telemetry.buffered();
    tel.metrics().counter("hunt.probes").inc();
    // The BCA view runs at exact fidelity, so any sign-off shortfall
    // between two functionally clean runs is a real cross-view
    // divergence, not a modeling allowance.
    let views = vec![
        (crate::rtl(inject.rtl.clone()), Compare::None),
        (crate::bca(inject.bca.clone()), Compare::Cycle),
    ];
    let cell = CellSpec {
        compare_events: false,
        ..CellSpec::new(config.clone(), spec.clone(), seed, views)
    };
    let span = tel
        .span("hunt.probe")
        .field("config", Json::from(config.name.as_str()))
        .field("test", Json::from(spec.name.as_str()))
        .field("seed", Json::from(seed));
    let outcome = run_cell(&cell, &tel);
    let (ra, rb) = (&outcome.runs[0], &outcome.runs[1]);

    let da = qual::classify_functional_failure(&ra.result).map(Detector::from_functional);
    let db = qual::classify_functional_failure(&rb.result).map(Detector::from_functional);
    let finding: Option<DiffFinding> = match (da, db) {
        (Some(a), Some(b)) if a == b => None,
        (Some(a), Some(b)) => {
            let (detector, view) = if a.precedence() <= b.precedence() {
                (a, "rtl")
            } else {
                (b, "bca")
            };
            Some(DiffFinding {
                detector,
                view,
                alignment_rate: None,
            })
        }
        (Some(a), None) => Some(DiffFinding {
            detector: a,
            view: "rtl",
            alignment_rate: None,
        }),
        (None, Some(b)) => Some(DiffFinding {
            detector: b,
            view: "bca",
            alignment_rate: None,
        }),
        // Both runs clean, so the cell compared them: the pair must also
        // agree cycle for cycle.
        (None, None) => rb
            .min_rate()
            .filter(|rate| *rate < qual::SIGNOFF)
            .map(|rate| DiffFinding {
                detector: Detector::Alignment,
                view: "pair",
                alignment_rate: Some(rate),
            }),
    };
    if finding.is_some() {
        tel.metrics().counter("hunt.divergences").inc();
    }
    span.end([(
        "detected",
        Json::from(finding.as_ref().map(|f| f.detector.to_string())),
    )]);
    finding
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_and_reject_unknowns() {
        let inject = Injections {
            rtl: vec![RtlBug::MisroutedHighTarget],
            bca: vec![BcaBug::CorruptedOooTid],
        };
        let labels = inject.labels();
        assert_eq!(labels, vec!["R2".to_owned(), "B3".to_owned()]);
        let parsed = Injections::from_labels(&labels).unwrap();
        assert_eq!(parsed.rtl, inject.rtl);
        assert_eq!(parsed.bca, inject.bca);
        assert!(Injections::from_labels(&["T1"]).is_err());
        assert!(Injections::from_labels(&["R9"]).is_err());
    }

    #[test]
    fn clean_pair_agrees_and_seeded_pair_diverges() {
        let config = NodeConfig::reference();
        let spec = catg::tests_lib::basic_read_write(10);
        let tel = Telemetry::disabled();
        assert_eq!(
            run_differential(&config, &spec, 1, &Injections::default(), &tel),
            None
        );
        let seeded = Injections {
            rtl: vec![RtlBug::MisroutedHighTarget],
            bca: vec![],
        };
        let finding = run_differential(&config, &spec, 1, &seeded, &tel)
            .expect("a misroute on the reference config must diverge");
        assert_eq!(finding.detector.column(), "checker");
        assert_eq!(finding.view, "rtl");
    }

    #[test]
    fn a_clean_probe_compares_without_stba_events() {
        let (sink, handle) = telemetry::MemorySink::new();
        let tel = Telemetry::builder()
            .min_level(telemetry::Level::Debug)
            .with_sink(Box::new(sink))
            .build();
        let config = NodeConfig::reference();
        let spec = catg::tests_lib::basic_read_write(10);
        let inject = Injections::default();
        assert_eq!(run_differential(&config, &spec, 1, &inject, &tel), None);
        tel.flush();
        // The probe spans the two views' elaborations and runs; the
        // comparison itself is silent, as the hunt's report and stderr
        // have always been.
        let scopes: Vec<String> = handle.events().into_iter().map(|e| e.scope).collect();
        let view = ["cell.elaborate.end", "tb.run.end"];
        assert_eq!(scopes, [&view[..], &view, &["hunt.probe.end"]].concat());
        let counters = tel.metrics().snapshot().counters;
        assert!(counters.keys().all(|name| !name.starts_with("stba.")));
        assert_eq!(counters.get("hunt.probes"), Some(&1));
    }
}
