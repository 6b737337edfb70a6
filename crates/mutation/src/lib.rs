//! Mutation qualification of the common verification environment.
//!
//! The paper's environment claims to be a *common reusable* bench: the same
//! checkers, scoreboard, coverage and alignment comparison catch defects in
//! either design view. This crate turns that claim into a measured score.
//! It carries a unified [`Mutation`] interface over the three defect
//! catalogues — the five historical BCA bugs ([`stbus_bca::BcaBug`]), the
//! six injectable RTL defects ([`stbus_rtl::RtlBug`]) and the two
//! transaction-order TLM defects ([`stbus_tlm::TlmBug`]) — and runs each
//! one through the full `{configuration × test × seed}` hunt, recording
//! *which* environment component fired ([`Detector`]). TLM entries align
//! against clean RTL by committed transaction order
//! ([`stba::compare_transactions`]) instead of by cycle — the discipline
//! an untimed view can actually be held to.
//!
//! The campaign ([`run_qualification`]) fans out on the [`exec`] worker
//! pool exactly like the regression runner: every cell is plain `Send`
//! data, the simulators are built on the workers, and results reassemble
//! in matrix order, so the report — and its `qualification.json` — is
//! byte-identical for any `--jobs` value.
//!
//! A qualification passes only when the mutation score is 100% *and*
//! every mutation is attributed to the detector its catalogue entry
//! declares; a mutation caught "by accident" (a different detector than
//! documented) is a documentation bug worth failing on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
pub mod differential;
pub mod promoted;
mod report;

pub use campaign::{run_qualification, QualifyOptions};
pub use differential::{run_differential, DiffFinding, Injections};
pub use promoted::{run_promoted, PromotedOutcome, PromotedRepro, Repro, REPRO_SCHEMA};
pub use report::{
    AlignmentCell, Detection, MutationOutcome, QualificationReport, QUALIFICATION_SCHEMA,
};

use catg::tests_lib::qualification::FunctionalDetection;
use catg::{SimBackend, ViewSpec};
use stbus_bca::{BcaBug, Fidelity};
use stbus_protocol::rules::RuleId;
use stbus_protocol::{DutView, NodeConfig, ViewKind};
use stbus_rtl::RtlBug;
use stbus_tlm::TlmBug;
use std::fmt;

/// Which component of the common environment caught a mutation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Detector {
    /// A protocol-checker rule.
    Checker(RuleId),
    /// The starvation watchdog.
    Starvation,
    /// The scoreboard (data integrity, error-flag accounting, or traffic
    /// that never drained).
    Scoreboard,
    /// The transaction-order (STBA) comparison against clean RTL — the
    /// alignment discipline of the untimed TLM view
    /// ([`stba::compare_transactions`]).
    TxOrder,
    /// The bus-accurate (STBA) cycle-alignment comparison against the
    /// clean opposite view.
    Alignment,
    /// A functional-coverage shortfall relative to the clean same-view
    /// control.
    Coverage,
}

impl Detector {
    /// The six categories in report-column order (checker rules collapse
    /// into one column).
    pub const COLUMNS: [&'static str; 6] = [
        "checker",
        "starvation",
        "scoreboard",
        "tx-order",
        "alignment",
        "coverage",
    ];

    /// The report-column this detector belongs to.
    pub fn column(self) -> &'static str {
        match self {
            Detector::Checker(_) => "checker",
            Detector::Starvation => "starvation",
            Detector::Scoreboard => "scoreboard",
            Detector::TxOrder => "tx-order",
            Detector::Alignment => "alignment",
            Detector::Coverage => "coverage",
        }
    }

    /// Lifts a triaged functional failure into the detector taxonomy.
    pub fn from_functional(f: FunctionalDetection) -> Detector {
        match f {
            FunctionalDetection::Checker(rule) => Detector::Checker(rule),
            FunctionalDetection::Starvation => Detector::Starvation,
            FunctionalDetection::Scoreboard => Detector::Scoreboard,
        }
    }

    /// Precedence used for campaign-level attribution: lower is stronger.
    /// A protocol-rule violation names the defect most precisely; the
    /// coverage shortfall is the weakest (most indirect) evidence. The
    /// transaction-order diff outranks the scoreboard: for an untimed
    /// view it is the *designed* instrument — it names the port and the
    /// first diverging transfer — while a scoreboard error on the same
    /// defect is secondary evidence (e.g. the replayed request a dropped
    /// response provokes).
    pub fn precedence(self) -> u8 {
        match self {
            Detector::Checker(_) => 0,
            Detector::Starvation => 1,
            Detector::TxOrder => 2,
            Detector::Scoreboard => 3,
            Detector::Alignment => 4,
            Detector::Coverage => 5,
        }
    }

    /// Campaign-level attribution of a mutation from its detections, in
    /// matrix order: the strongest detector *class* wins (see
    /// [`Detector::precedence`]); within that class the most frequent
    /// detector is reported, so one odd cell — a tid corruption that
    /// happens to collide with another outstanding transaction and trips
    /// R-RSP-LEN instead of R-TID — cannot steal the attribution from the
    /// designed catch. Ties go to the detector seen first. `None` when
    /// nothing fired.
    pub fn attribute(detections: impl IntoIterator<Item = Detector>) -> Option<Detector> {
        // Per-detector counts of the strongest class so far, first seen
        // first.
        let mut counts: Vec<(Detector, usize)> = Vec::new();
        for det in detections {
            if let Some(&(first, _)) = counts.first() {
                if det.precedence() > first.precedence() {
                    continue;
                }
                if det.precedence() < first.precedence() {
                    counts.clear();
                }
            }
            match counts.iter_mut().find(|(d, _)| *d == det) {
                Some((_, n)) => *n += 1,
                None => counts.push((det, 1)),
            }
        }
        // Strict `>` keeps the first-seen detector on ties.
        let best = counts
            .into_iter()
            .reduce(|best, c| if c.1 > best.1 { c } else { best });
        best.map(|(d, _)| d)
    }
}

impl fmt::Display for Detector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Detector::Checker(rule) => write!(f, "checker {rule}"),
            Detector::Starvation => f.write_str("starvation watchdog"),
            Detector::Scoreboard => f.write_str("scoreboard"),
            Detector::TxOrder => f.write_str("tx-order alignment"),
            Detector::Alignment => f.write_str("STBA alignment"),
            Detector::Coverage => f.write_str("coverage shortfall"),
        }
    }
}

/// One injectable defect, abstracted over which view carries it.
///
/// The qualification campaign only speaks this interface; the BCA and RTL
/// catalogues plug in through [`CatalogueEntry`].
pub trait Mutation {
    /// Catalogue label (`B1`..`B5`, `R1`..`R6`).
    fn label(&self) -> String;
    /// One-line description for reports.
    fn description(&self) -> String;
    /// The detector the catalogue declares must catch this defect
    /// (display form of a [`Detector`], e.g. `"checker R-TID"`).
    fn expected_detector(&self) -> String;
    /// Describes the mutated view.
    fn mutated_spec(&self) -> ViewSpec;
    /// Describes the *clean opposite* view — the alignment reference.
    fn clean_opposite_spec(&self) -> ViewSpec;

    /// Which view the defect is injected into.
    fn mutated_view(&self) -> ViewKind {
        self.mutated_spec().kind()
    }
    /// Builds the mutated view for a configuration.
    fn build_mutated(&self, config: &NodeConfig) -> Box<dyn DutView> {
        self.mutated_spec().build(config)
    }
    /// Builds the *clean opposite* view — the alignment reference.
    fn build_clean_opposite(&self, config: &NodeConfig) -> Box<dyn DutView> {
        self.clean_opposite_spec().build(config)
    }
}

/// One row of the unified qualification catalogue.
///
/// The two `Clean*` entries are negative controls: they run the identical
/// campaign and must produce *zero* detections — and their runs double as
/// the per-configuration alignment baselines and same-view coverage
/// references for the mutated entries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CatalogueEntry {
    /// Clean RTL view (negative control / RTL-side reference).
    CleanRtl,
    /// Clean BCA view at exact fidelity (negative control / BCA-side
    /// reference).
    CleanBca,
    /// Clean untimed TLM view (negative control / TLM-side reference;
    /// its transaction-order rate against clean RTL is the baseline the
    /// TLM mutations are judged against).
    CleanTlm,
    /// A BCA catalogue bug injected into the BCA view.
    Bca(BcaBug),
    /// An RTL catalogue bug injected into the RTL view.
    Rtl(RtlBug),
    /// A TLM catalogue bug injected into the untimed view.
    Tlm(TlmBug),
}

impl CatalogueEntry {
    /// True for the three clean negative-control entries.
    pub fn is_control(self) -> bool {
        matches!(
            self,
            CatalogueEntry::CleanRtl | CatalogueEntry::CleanBca | CatalogueEntry::CleanTlm
        )
    }
}

/// The RTL side of every qualification and hunt pair runs on the event
/// kernel, the reference oracle.
pub(crate) fn rtl(bugs: Vec<RtlBug>) -> ViewSpec {
    ViewSpec::Rtl(SimBackend::Event, bugs)
}

/// The BCA side of every qualification and hunt pair runs at exact
/// fidelity: the relaxed-fidelity divergence is a *modeling* choice, not
/// a defect, and must not pollute the alignment baseline.
pub(crate) fn bca(bugs: Vec<BcaBug>) -> ViewSpec {
    ViewSpec::Bca(Fidelity::Exact, bugs)
}

impl Mutation for CatalogueEntry {
    fn label(&self) -> String {
        match self {
            CatalogueEntry::CleanRtl => "C-RTL".to_owned(),
            CatalogueEntry::CleanBca => "C-BCA".to_owned(),
            CatalogueEntry::CleanTlm => "C-TLM".to_owned(),
            CatalogueEntry::Bca(b) => b.label().to_owned(),
            CatalogueEntry::Rtl(b) => b.label().to_owned(),
            CatalogueEntry::Tlm(b) => b.label().to_owned(),
        }
    }

    fn description(&self) -> String {
        match self {
            CatalogueEntry::CleanRtl => "clean RTL view (negative control)".to_owned(),
            CatalogueEntry::CleanBca => "clean BCA view (negative control)".to_owned(),
            CatalogueEntry::CleanTlm => "clean TLM view (negative control)".to_owned(),
            CatalogueEntry::Bca(b) => b.description().to_owned(),
            CatalogueEntry::Rtl(b) => b.description().to_owned(),
            CatalogueEntry::Tlm(b) => b.description().to_owned(),
        }
    }

    fn expected_detector(&self) -> String {
        match self {
            CatalogueEntry::CleanRtl | CatalogueEntry::CleanBca | CatalogueEntry::CleanTlm => {
                "none".to_owned()
            }
            CatalogueEntry::Bca(b) => b.expected_detector().to_owned(),
            CatalogueEntry::Rtl(b) => b.expected_detector().to_owned(),
            CatalogueEntry::Tlm(b) => b.expected_detector().to_owned(),
        }
    }

    fn mutated_spec(&self) -> ViewSpec {
        match *self {
            CatalogueEntry::CleanRtl => rtl(Vec::new()),
            CatalogueEntry::CleanBca => bca(Vec::new()),
            CatalogueEntry::CleanTlm => ViewSpec::of(ViewKind::Tlm),
            CatalogueEntry::Bca(bug) => bca(vec![bug]),
            CatalogueEntry::Rtl(bug) => rtl(vec![bug]),
            CatalogueEntry::Tlm(bug) => ViewSpec::Tlm(vec![bug]),
        }
    }

    fn clean_opposite_spec(&self) -> ViewSpec {
        match self.mutated_view() {
            ViewKind::Rtl => bca(Vec::new()),
            // The untimed view aligns (by transaction order) against the
            // golden RTL model.
            ViewKind::Bca | ViewKind::Tlm => rtl(Vec::new()),
        }
    }
}

/// The unified qualification catalogue: the three clean controls first,
/// then the five BCA bugs, the six RTL bugs, and the two TLM bugs.
pub fn catalogue() -> Vec<CatalogueEntry> {
    let mut entries = vec![
        CatalogueEntry::CleanRtl,
        CatalogueEntry::CleanBca,
        CatalogueEntry::CleanTlm,
    ];
    entries.extend(BcaBug::ALL.into_iter().map(CatalogueEntry::Bca));
    entries.extend(RtlBug::ALL.into_iter().map(CatalogueEntry::Rtl));
    entries.extend(TlmBug::ALL.into_iter().map(CatalogueEntry::Tlm));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_reports_the_modal_detector_of_the_strongest_class() {
        let tid = Detector::Checker(RuleId::TidMatch);
        let rsp_len = Detector::Checker(RuleId::RspLength);
        assert_eq!(Detector::attribute([rsp_len, tid, tid]), Some(tid));
        assert_eq!(Detector::attribute([]), None);
    }

    #[test]
    fn attribution_ties_keep_the_first_detector_seen() {
        let tid = Detector::Checker(RuleId::TidMatch);
        let rsp_len = Detector::Checker(RuleId::RspLength);
        assert_eq!(Detector::attribute([rsp_len, tid]), Some(rsp_len));
        assert_eq!(Detector::attribute([tid, rsp_len]), Some(tid));
    }

    #[test]
    fn one_checker_hit_outranks_three_alignment_hits() {
        let be = Detector::Checker(RuleId::ByteEnable);
        let align = Detector::Alignment;
        assert_eq!(Detector::attribute([align, align, align, be]), Some(be));
    }

    #[test]
    fn catalogue_has_three_controls_and_thirteen_mutations() {
        let entries = catalogue();
        assert_eq!(entries.len(), 16);
        assert_eq!(entries.iter().filter(|e| e.is_control()).count(), 3);
        let labels: Vec<String> = entries.iter().map(Mutation::label).collect();
        assert!(labels.contains(&"B1".to_owned()));
        assert!(labels.contains(&"R6".to_owned()));
        assert!(labels.contains(&"T2".to_owned()));
        // Labels are unique.
        let set: std::collections::BTreeSet<&String> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }

    #[test]
    fn every_declared_detector_is_a_known_display_form() {
        let known = [
            Detector::Starvation.to_string(),
            Detector::Scoreboard.to_string(),
            Detector::TxOrder.to_string(),
            Detector::Alignment.to_string(),
            Detector::Coverage.to_string(),
        ];
        for entry in catalogue() {
            if entry.is_control() {
                continue;
            }
            let declared = entry.expected_detector();
            let ok = known.contains(&declared)
                || RuleId::ALL
                    .iter()
                    .any(|r| declared == Detector::Checker(*r).to_string());
            assert!(
                ok,
                "{}: undeclared detector form {declared:?}",
                entry.label()
            );
        }
    }

    #[test]
    fn mutated_builders_target_the_declared_view() {
        let config = NodeConfig::reference();
        for entry in catalogue() {
            assert_eq!(
                entry.build_mutated(&config).view_kind(),
                entry.mutated_view(),
                "{}",
                entry.label()
            );
            assert_ne!(
                entry.build_clean_opposite(&config).view_kind(),
                entry.mutated_view(),
                "{}",
                entry.label()
            );
        }
    }

    #[test]
    fn detector_columns_cover_every_variant() {
        for d in [
            Detector::Checker(RuleId::TidMatch),
            Detector::Starvation,
            Detector::Scoreboard,
            Detector::TxOrder,
            Detector::Alignment,
            Detector::Coverage,
        ] {
            assert!(Detector::COLUMNS.contains(&d.column()));
        }
    }
}
