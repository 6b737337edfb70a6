//! The sign-off engine: measure → minimize → gate run → verdicts.
//!
//! The engine turns a candidate pool (a recorded closure trajectory or
//! the generic test library) into the paper's sign-off evidence in three
//! deterministic phases:
//!
//! 1. **Measure** — every `(test, seed)` unit runs once on both views
//!    (no waveforms) to collect its coverage footprint: the functional
//!    bins hit on *both* views (intersection, so the minimized set is
//!    guaranteed to close coverage on each view independently) plus the
//!    RTL branch points it exercises.
//! 2. **Minimize** — greedy set cover over one mixed universe: every
//!    declared functional bin plus every *reachable* branch point. Waived
//!    (unreachable) branches are not in the universe — the waiver file,
//!    not a lucky run, is their justification.
//! 3. **Gate run** — the chosen regression replays on both views with
//!    waveform capture through [`exec::map_ordered`]; merged functional
//!    coverage, merged structural coverage and the aggregated per-port
//!    alignment feed the three gate verdicts.
//!
//! Determinism: units fan out in pick order through `map_ordered`,
//! merging happens serially on the driving thread, and
//! [`SignoffReport::signoff_json`] carries no wall-clock fields — the
//! document is byte-identical for any worker count.

use std::collections::BTreeSet;
use std::fmt;

use catg::cell::{min_rate, port_rate, run_cell, sum_ports, CellOutcome, CellSpec, Compare};
use catg::{CoverageReport, TestSpec, ViewSpec};
use sim_kernel::{ActivityCoverage, SimBackend};
use stbus_bca::{BcaBug, Fidelity};
use stbus_protocol::NodeConfig;
use stbus_rtl::{ProbePoint, RtlBug};
use telemetry::{Json, MetricsSnapshot, Telemetry};

use crate::justified::JustifiedCoverage;
use crate::mincover::{minimize, CoverUnit};
use crate::waiver::{WaiverError, WaiverFile};

/// Schema identifier written into `signoff.json`.
pub const SIGNOFF_SCHEMA: &str = "stbus-signoff/1";

/// One candidate regression entry: a frozen spec and the seeds to run it
/// under.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Test name (reported in the chosen regression set).
    pub test: String,
    /// The runnable spec.
    pub spec: TestSpec,
    /// Seeds this spec is a candidate under.
    pub seeds: Vec<u64>,
}

/// Candidates from the generic test library (the default pool when no
/// recorded closure trajectory is given).
pub fn library_candidates(intensity: usize, seeds: &[u64]) -> Vec<Candidate> {
    catg::tests_lib::all(intensity)
        .into_iter()
        .map(|spec| Candidate {
            test: spec.name.clone(),
            spec,
            seeds: seeds.to_vec(),
        })
        .collect()
}

/// Candidates from a recorded closure trajectory
/// ([`cdg::parse_closure_replay`]): each iteration's frozen recipe under
/// its recorded batch seeds.
pub fn closure_candidates(entries: &[cdg::ReplayEntry]) -> Vec<Candidate> {
    entries
        .iter()
        .map(|e| Candidate {
            test: e.test.clone(),
            spec: e.to_spec(),
            seeds: e.seeds.clone(),
        })
        .collect()
}

/// Knobs of one sign-off run.
#[derive(Clone, Debug)]
pub struct SignoffOptions {
    /// Worker threads for both fan-out phases (0 = auto).
    pub jobs: usize,
    /// BCA fidelity (Relaxed reproduces the paper's <100% alignment).
    pub fidelity: Fidelity,
    /// RTL defects injected at elaboration (negative testing: R3 must
    /// flip the alignment gate).
    pub rtl_bugs: Vec<RtlBug>,
    /// BCA defects injected (negative testing).
    pub bca_bugs: Vec<BcaBug>,
    /// Telemetry handle (`signoff.*` spans and counters).
    pub telemetry: Telemetry,
}

impl Default for SignoffOptions {
    fn default() -> Self {
        SignoffOptions {
            jobs: 0,
            fidelity: Fidelity::Relaxed,
            rtl_bugs: Vec::new(),
            bca_bugs: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Why a sign-off run refused to start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SignoffError {
    /// The waiver file failed validation; the gates were not evaluated.
    InvalidWaivers(Vec<WaiverError>),
    /// The candidate pool is empty.
    NoCandidates,
}

impl fmt::Display for SignoffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignoffError::InvalidWaivers(errors) => {
                writeln!(f, "waiver validation failed:")?;
                for e in errors {
                    writeln!(f, "  {e}")?;
                }
                Ok(())
            }
            SignoffError::NoCandidates => write!(f, "no candidate regression entries"),
        }
    }
}

/// One run of the chosen (minimized) regression.
#[derive(Clone, Debug)]
pub struct SelectedUnit {
    /// Test name.
    pub test: String,
    /// Seed.
    pub seed: u64,
    /// Universe bins this unit was first to cover (greedy gain).
    pub gain: usize,
    /// RTL gate run passed all checks.
    pub rtl_passed: bool,
    /// BCA gate run passed all checks.
    pub bca_passed: bool,
    /// Per-port `(port, matching, total)` of this pair, when compared.
    pub alignment: Option<Vec<(String, u64, u64)>>,
}

/// One gate's verdict in display form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GateVerdict {
    /// Gate name (`functional` / `justified-lines` / `alignment`).
    pub name: &'static str,
    /// Whether the gate passed.
    pub passed: bool,
    /// What failed, one line each (empty on pass).
    pub detail: Vec<String>,
}

/// The full sign-off evidence of one configuration.
#[derive(Clone, Debug)]
pub struct SignoffReport {
    /// The configuration under sign-off.
    pub config: NodeConfig,
    /// Number of waivers applied.
    pub waivers_total: usize,
    /// `(test, seed)` units in the candidate pool.
    pub candidate_units: usize,
    /// The chosen regression, in greedy pick order.
    pub selected: Vec<SelectedUnit>,
    /// Universe bins no candidate covers (minimizer residue).
    pub uncoverable: Vec<String>,
    /// Merged functional coverage of the chosen regression, RTL view.
    pub functional_rtl: Option<CoverageReport>,
    /// Merged functional coverage of the chosen regression, BCA view.
    pub functional_bca: Option<CoverageReport>,
    /// The justified-line-coverage verdict.
    pub justified: JustifiedCoverage,
    /// Campaign-aggregated per-port `(port, matching, total)`.
    pub alignment_ports: Vec<(String, u64, u64)>,
    /// Every run of the chosen regression passed all checks on both
    /// views.
    pub all_runs_passed: bool,
    /// Metrics snapshot (kernel/testbench/analyzer/signoff counters).
    pub metrics: MetricsSnapshot,
}

/// What one unit hands back from the measure phase.
struct Measured {
    /// Functional bins hit on both views (`f:` prefix) plus RTL branch
    /// points exercised (`l:` prefix).
    bins: BTreeSet<String>,
    /// Declared functional-bin labels (shape; same for every unit).
    declared: Vec<String>,
    /// RTL branch labels present in the design (shape).
    branch_names: Vec<String>,
}

#[derive(Clone)]
struct Unit {
    test: String,
    spec: TestSpec,
    seed: u64,
}

impl Unit {
    /// The unit as a cell on the sign-off pair: RTL, then BCA compared
    /// under `compare`, both carrying the run's defects, with the RTL
    /// kernel metrics published.
    fn cell(&self, config: &NodeConfig, options: &SignoffOptions, compare: Compare) -> CellSpec {
        let rtl = ViewSpec::Rtl(SimBackend::Event, options.rtl_bugs.clone());
        let bca = ViewSpec::Bca(options.fidelity, options.bca_bugs.clone());
        let views = vec![(rtl, Compare::None), (bca, compare)];
        CellSpec {
            attach_metrics: true,
            ..CellSpec::new(config.clone(), self.spec.clone(), self.seed, views)
        }
    }
}

fn functional_bin_labels(report: &CoverageReport) -> Vec<String> {
    report
        .groups
        .iter()
        .flat_map(|g| g.bins.keys().map(move |b| format!("{}/{}", g.name, b)))
        .collect()
}

fn hit_bin_labels(report: &CoverageReport) -> BTreeSet<String> {
    report
        .groups
        .iter()
        .flat_map(|g| {
            g.bins
                .iter()
                .filter(|(_, hits)| **hits > 0)
                .map(move |(b, _)| format!("{}/{}", g.name, b))
        })
        .collect()
}

/// Measure one unit: both views, no waveforms, footprint only.
fn measure_unit(cell: &CellSpec, tel: Telemetry) -> Measured {
    let outcome = run_cell(cell, &tel);
    let (rtl, bca) = (&outcome.runs[0].result, &outcome.runs[1].result);

    // Intersection across views: a bin only counts toward the footprint
    // when the unit hits it on BOTH views, so covering the universe
    // closes functional coverage on each view independently.
    let rtl_hits = hit_bin_labels(&rtl.coverage);
    let bca_hits = hit_bin_labels(&bca.coverage);
    let activity = outcome.rtl_activity.expect("the sign-off pair runs RTL");
    let mut bins: BTreeSet<String> = rtl_hits
        .intersection(&bca_hits)
        .map(|b| format!("f:{b}"))
        .collect();
    bins.extend(activity.hit_branches().map(|b| format!("l:{}", b.name)));
    Measured {
        bins,
        declared: functional_bin_labels(&rtl.coverage),
        branch_names: activity.branches.iter().map(|b| b.name.clone()).collect(),
    }
}

/// Gate-run one unit: both views, waveform capture, and — as in the
/// Figure 4 flow, once both runs passed — the STBA comparison.
fn gate_unit(unit: &Unit, cell: &CellSpec, tel: Telemetry) -> CellOutcome {
    let span = tel
        .span("signoff.gate_run")
        .field("test", Json::from(unit.test.clone()))
        .field("seed", Json::from(unit.seed));
    let outcome = run_cell(cell, &tel);
    span.end([
        ("rtl_passed", Json::from(outcome.runs[0].result.passed())),
        ("bca_passed", Json::from(outcome.runs[1].result.passed())),
    ]);
    outcome
}

/// Runs the sign-off engine: validate waivers, measure the candidate
/// pool, minimize, replay the chosen regression with waveform capture,
/// and evaluate the three paper gates.
pub fn run_signoff(
    config: &NodeConfig,
    waivers: &WaiverFile,
    candidates: &[Candidate],
    options: &SignoffOptions,
) -> Result<SignoffReport, SignoffError> {
    waivers
        .validate(config)
        .map_err(SignoffError::InvalidWaivers)?;
    let units: Vec<Unit> = candidates
        .iter()
        .flat_map(|c| {
            c.seeds.iter().map(|&seed| Unit {
                test: c.test.clone(),
                spec: c.spec.clone(),
                seed,
            })
        })
        .collect();
    if units.is_empty() {
        return Err(SignoffError::NoCandidates);
    }

    let tel = &options.telemetry;
    let span = tel
        .span("signoff.run")
        .field("config", Json::from(config.name.clone()))
        .field("candidates", Json::from(units.len()))
        .field("waivers", Json::from(waivers.waivers.len()));
    tel.metrics()
        .counter("signoff.candidates")
        .add(units.len() as u64);

    // Phase 1: measure footprints.
    let cells = units
        .iter()
        .map(|u| u.cell(config, options, Compare::None))
        .collect();
    let measure_tel = tel.handoff();
    let measured = exec::map_ordered(options.jobs, cells, move |cell| {
        let m = measure_unit(&cell, measure_tel.buffered());
        measure_tel
            .metrics()
            .counter("signoff.measured_units")
            .inc();
        m
    });

    // The universe: every declared functional bin, plus every branch
    // point that is *reachable* in this configuration. Unreachable
    // branches are justified by waivers, not runs; branch labels the
    // probe catalogue does not know stay in the universe (conservative —
    // an unknown branch must be exercised, it cannot be waived).
    let shape = &measured[0];
    let mut universe: BTreeSet<String> = shape.declared.iter().map(|b| format!("f:{b}")).collect();
    for name in &shape.branch_names {
        let reachable = ProbePoint::from_branch_name(name).is_none_or(|p| p.reachable_in(config));
        if reachable {
            universe.insert(format!("l:{name}"));
        }
    }

    // Phase 2: greedy set cover.
    let cover_units: Vec<CoverUnit> = units
        .iter()
        .zip(&measured)
        .map(|(u, m)| CoverUnit {
            label: format!("{}@{}", u.test, u.seed),
            bins: m.bins.clone(),
        })
        .collect();
    let minimized = minimize(&universe, &cover_units);
    tel.metrics()
        .counter("signoff.selected")
        .add(minimized.selected.len() as u64);
    tel.info(
        "signoff.minimize",
        "regression minimized",
        [
            ("candidates", Json::from(units.len())),
            ("selected", Json::from(minimized.selected.len())),
            ("universe", Json::from(minimized.universe)),
            ("uncoverable", Json::from(minimized.uncovered.len())),
        ],
    );

    // The greedy gain of each pick, for the audit trail.
    let gains: Vec<usize> = {
        let mut covered: BTreeSet<&str> = BTreeSet::new();
        minimized
            .selected
            .iter()
            .map(|&i| {
                let new: Vec<&str> = cover_units[i]
                    .bins
                    .iter()
                    .map(String::as_str)
                    .filter(|b| universe.contains(*b) && !covered.contains(*b))
                    .collect();
                covered.extend(&new);
                new.len()
            })
            .collect()
    };

    // Phase 3: gate-run the chosen regression, in pick order.
    let chosen: Vec<Unit> = minimized
        .selected
        .iter()
        .map(|&i| units[i].clone())
        .collect();
    let gate_cells: Vec<(Unit, CellSpec)> = chosen
        .iter()
        .map(|u| (u.clone(), u.cell(config, options, Compare::Cycle)))
        .collect();
    let gate_tel = tel.handoff();
    let gate_runs = exec::map_ordered(options.jobs, gate_cells, move |(unit, cell)| {
        gate_unit(&unit, &cell, gate_tel.buffered())
    });

    // Serial aggregation, in pick order.
    let mut functional_rtl: Option<CoverageReport> = None;
    let mut functional_bca: Option<CoverageReport> = None;
    let mut activity: Option<ActivityCoverage> = None;
    let mut all_runs_passed = true;
    let mut selected = Vec::with_capacity(chosen.len());
    for ((unit, outcome), gain) in chosen.iter().zip(gate_runs).zip(gains) {
        let [rtl, bca]: [_; 2] = outcome.runs.try_into().expect("the sign-off pair");
        CoverageReport::accumulate(&mut functional_rtl, &rtl.result.coverage);
        CoverageReport::accumulate(&mut functional_bca, &bca.result.coverage);
        let run_activity = outcome.rtl_activity.expect("the sign-off pair runs RTL");
        match &mut activity {
            Some(a) => a.merge(&run_activity),
            None => activity = Some(run_activity),
        }
        let (rtl_passed, bca_passed) = (rtl.result.passed(), bca.result.passed());
        all_runs_passed &= rtl_passed && bca_passed;
        selected.push(SelectedUnit {
            test: unit.test.clone(),
            seed: unit.seed,
            gain,
            rtl_passed,
            bca_passed,
            alignment: bca.cycle,
        });
    }
    let justified = JustifiedCoverage::new(
        activity.as_ref().expect("chosen regression ran"),
        config,
        waivers,
    );
    tel.metrics()
        .counter("signoff.unjustified")
        .add(justified.unjustified.len() as u64);
    tel.metrics()
        .counter("signoff.dead_waivers")
        .add(justified.dead_waivers.len() as u64);

    let report = SignoffReport {
        alignment_ports: sum_ports(selected.iter().filter_map(|s| s.alignment.as_ref())),
        config: config.clone(),
        waivers_total: waivers.waivers.len(),
        candidate_units: units.len(),
        selected,
        uncoverable: minimized.uncovered,
        functional_rtl,
        functional_bca,
        justified,
        all_runs_passed,
        metrics: tel.metrics().snapshot(),
    };
    span.end([
        ("passed", Json::from(report.passed())),
        ("selected", Json::from(report.selected.len())),
    ]);
    Ok(report)
}

impl SignoffReport {
    /// Gate 1: 100% functional coverage on both views.
    pub fn functional_gate(&self) -> GateVerdict {
        let mut detail = Vec::new();
        for (view, cov) in [("rtl", &self.functional_rtl), ("bca", &self.functional_bca)] {
            match cov {
                Some(c) => detail.extend(c.holes().into_iter().map(|h| format!("{view} hole {h}"))),
                None => detail.push(format!("{view}: no coverage collected")),
            }
        }
        GateVerdict {
            name: "functional",
            passed: detail.is_empty(),
            detail,
        }
    }

    /// Gate 2: 100% justified RTL line coverage — every miss waived, no
    /// waiver stale.
    pub fn line_gate(&self) -> GateVerdict {
        let mut detail: Vec<String> = self
            .justified
            .unjustified
            .iter()
            .map(|b| format!("unjustified branch {b}"))
            .collect();
        detail.extend(
            self.justified
                .dead_waivers
                .iter()
                .map(|d| format!("dead waiver {} ({} hits)", d.branch, d.hits)),
        );
        GateVerdict {
            name: "justified-lines",
            passed: detail.is_empty(),
            detail,
        }
    }

    /// Gate 3: ≥99% cycle alignment at every port, aggregated over the
    /// chosen regression.
    pub fn alignment_gate(&self) -> GateVerdict {
        let mut detail = Vec::new();
        if self.alignment_ports.is_empty() {
            detail.push("no compared runs (a view failed before comparison)".to_owned());
        }
        for (port, m, t) in &self.alignment_ports {
            let r = port_rate(*m, *t);
            if r < stba::SIGNOFF_RATE {
                detail.push(format!("port {port} aligned {:.3}% < 99%", r * 100.0));
            }
        }
        GateVerdict {
            name: "alignment",
            passed: detail.is_empty(),
            detail,
        }
    }

    /// All three gates, in paper order.
    pub fn gates(&self) -> [GateVerdict; 3] {
        [
            self.functional_gate(),
            self.line_gate(),
            self.alignment_gate(),
        ]
    }

    /// The minimum per-port alignment rate, when any run compared.
    pub fn min_alignment(&self) -> Option<f64> {
        min_rate(&self.alignment_ports)
    }

    /// The sign-off verdict: every run green and all three gates passed.
    pub fn passed(&self) -> bool {
        self.all_runs_passed && self.gates().iter().all(|g| g.passed)
    }

    /// The human-readable summary printed by `stbus-regress --signoff`.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "sign-off on `{}`: {} candidate runs -> {} selected\n",
            self.config.name,
            self.candidate_units,
            self.selected.len()
        ));
        for s in &self.selected {
            out.push_str(&format!(
                "  {:<24} seed {:<4} gain {:>4}   rtl {}  bca {}\n",
                s.test,
                s.seed,
                s.gain,
                if s.rtl_passed { "pass" } else { "FAIL" },
                if s.bca_passed { "pass" } else { "FAIL" },
            ));
        }
        if !self.uncoverable.is_empty() {
            out.push_str(&format!(
                "  WARNING: {} universe bins no candidate covers\n",
                self.uncoverable.len()
            ));
        }
        let fcov = |c: &Option<CoverageReport>| {
            c.as_ref().map_or("n/a".to_owned(), |c| {
                format!("{:.2}%", c.coverage() * 100.0)
            })
        };
        out.push_str(&format!(
            "gate 1  functional coverage   {}   rtl {}  bca {}\n",
            verdict(self.functional_gate().passed),
            fcov(&self.functional_rtl),
            fcov(&self.functional_bca),
        ));
        out.push_str(&format!(
            "gate 2  justified lines       {}   raw {:.1}%  justified {:.1}%  ({} waived, {} unjustified, {} dead)\n",
            verdict(self.line_gate().passed),
            self.justified.raw_coverage() * 100.0,
            self.justified.justified_coverage() * 100.0,
            self.justified.justified.len(),
            self.justified.unjustified.len(),
            self.justified.dead_waivers.len(),
        ));
        out.push_str(&format!(
            "gate 3  port alignment        {}   min {} over {} ports\n",
            verdict(self.alignment_gate().passed),
            self.min_alignment()
                .map_or("n/a".to_owned(), |a| format!("{:.3}%", a * 100.0)),
            self.alignment_ports.len(),
        ));
        for g in self.gates() {
            for d in &g.detail {
                out.push_str(&format!("        {}: {d}\n", g.name));
            }
        }
        out.push_str(&format!(
            "runs: {}\nSIGN-OFF: {}\n",
            if self.all_runs_passed {
                "all passed"
            } else {
                "FAILURES"
            },
            if self.passed() { "PASS" } else { "FAIL" },
        ));
        out
    }

    /// The machine-readable sign-off document ([`SIGNOFF_SCHEMA`]).
    ///
    /// Deliberately carries no wall-clock or host fields: byte-identical
    /// for any worker count.
    pub fn signoff_json(&self) -> Json {
        let gates = self.gates();
        let gate_json = |g: &GateVerdict, extra: Vec<(&str, Json)>| {
            let mut pairs = vec![
                ("passed", Json::from(g.passed)),
                (
                    "detail",
                    Json::Arr(g.detail.iter().map(|d| Json::from(d.clone())).collect()),
                ),
            ];
            pairs.extend(extra);
            Json::obj(pairs)
        };
        let cov_pct = |c: &Option<CoverageReport>| match c {
            Some(c) => Json::from(c.coverage() * 100.0),
            None => Json::Null,
        };
        Json::obj([
            ("schema", Json::from(SIGNOFF_SCHEMA)),
            (
                "config",
                Json::obj([
                    ("name", Json::from(self.config.name.clone())),
                    ("initiators", Json::from(self.config.n_initiators)),
                    ("targets", Json::from(self.config.n_targets)),
                    ("bus_bytes", Json::from(self.config.bus_bytes)),
                    ("protocol", Json::from(self.config.protocol.to_string())),
                    ("arch", Json::from(self.config.arch.to_string())),
                    (
                        "arbitration",
                        Json::from(self.config.arbitration.to_string()),
                    ),
                    ("prog_port", Json::from(self.config.prog_port)),
                ]),
            ),
            ("passed", Json::from(self.passed())),
            ("all_runs_passed", Json::from(self.all_runs_passed)),
            ("waivers_total", Json::from(self.waivers_total)),
            (
                "regression",
                Json::obj([
                    ("candidate_units", Json::from(self.candidate_units)),
                    (
                        "selected",
                        Json::Arr(
                            self.selected
                                .iter()
                                .map(|s| {
                                    Json::obj([
                                        ("test", Json::from(s.test.clone())),
                                        ("seed", Json::from(s.seed)),
                                        ("gain", Json::from(s.gain)),
                                        ("rtl_passed", Json::from(s.rtl_passed)),
                                        ("bca_passed", Json::from(s.bca_passed)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "uncoverable",
                        Json::Arr(
                            self.uncoverable
                                .iter()
                                .map(|b| Json::from(b.clone()))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "gates",
                Json::obj([
                    (
                        "functional",
                        gate_json(
                            &gates[0],
                            vec![
                                ("rtl_coverage_pct", cov_pct(&self.functional_rtl)),
                                ("bca_coverage_pct", cov_pct(&self.functional_bca)),
                            ],
                        ),
                    ),
                    ("justified_lines", {
                        // Same shape as the other gates: a `detail` array
                        // naming each offender right next to `passed`.
                        let mut json = self.justified.to_json();
                        if let Json::Obj(pairs) = &mut json {
                            pairs.insert(
                                1,
                                (
                                    "detail".to_owned(),
                                    Json::Arr(
                                        gates[1]
                                            .detail
                                            .iter()
                                            .map(|d| Json::from(d.clone()))
                                            .collect(),
                                    ),
                                ),
                            );
                        }
                        json
                    }),
                    (
                        "alignment",
                        gate_json(
                            &gates[2],
                            vec![
                                (
                                    "min_pct",
                                    match self.min_alignment() {
                                        Some(a) => Json::from(a * 100.0),
                                        None => Json::Null,
                                    },
                                ),
                                (
                                    "ports",
                                    Json::Arr(
                                        self.alignment_ports
                                            .iter()
                                            .map(|(port, m, t)| {
                                                Json::obj([
                                                    ("port", Json::from(port.clone())),
                                                    ("matching_cycles", Json::from(*m)),
                                                    ("total_cycles", Json::from(*t)),
                                                    (
                                                        "rate_pct",
                                                        Json::from(port_rate(*m, *t) * 100.0),
                                                    ),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ],
                        ),
                    ),
                ]),
            ),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

fn verdict(passed: bool) -> &'static str {
    if passed {
        "PASS"
    } else {
        "FAIL"
    }
}
