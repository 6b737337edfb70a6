//! Lossless JSON codec for one memoized regression cell.
//!
//! A cache hit must be indistinguishable from a fresh simulation in
//! everything the campaign reports: per-run verification verdicts,
//! functional coverage, structural coverage, alignment figures, and the
//! cell's metric contribution. This module serializes exactly that set —
//! the [`RunRecord`] (minus wall-clock, which is never cached), the RTL
//! node's [`ActivityCoverage`], the cell's private
//! [`telemetry::MetricsSnapshot`], and a digest of each view's waveform
//! trace — and parses it back field-for-field.
//!
//! Every enum crosses the boundary through its stable `Display` name
//! (the same names the human-readable reports print), so the payload has
//! no dependence on discriminant values or field order, and a decode
//! failure at any level reads as "corrupt entry" (`None`) so the caller
//! re-simulates instead of trusting a half-parsed result.

use crate::runner::RunRecord;
use catg::{
    CheckerReport, CoverageGroup, CoverageReport, InitiatorStats, PortId, RunResult,
    ScoreboardError, Violation, ViolationKind,
};
use sim_kernel::ActivityCoverage;
use stbus_protocol::{RuleId, ViewKind};
use telemetry::{Json, MetricsSnapshot};

/// Payload schema tag; part of the content key, so bumping it naturally
/// invalidates every entry written by older code.
///
/// `/2` added the TLM view fields: per-run result, the two TLM-vs-RTL
/// alignment figures (cycle and transaction-order) and the TLM VCD
/// digest. `/3` keeps the payload shape but the three `*_vcd_digest`
/// fields now digest each view's typed port trace
/// ([`stba::Trace::digest`]) instead of its VCD text.
pub const CELL_SCHEMA: &str = "stbus-cell/3";

/// Everything one cell contributes to a campaign, in cacheable form.
#[derive(Clone, Debug)]
pub struct CachedCell {
    /// The cell's run record, clock fields zero as every record's are;
    /// `compare_wall_us` is `Some(0)`/`None` for compared or not.
    pub record: RunRecord,
    /// The (fresh) RTL node's structural coverage.
    pub rtl_activity: ActivityCoverage,
    /// The cell's private metric contribution, replayed into the campaign
    /// registry on a hit so warm totals equal cold totals.
    pub metrics: MetricsSnapshot,
    /// Digest of each view's captured waveform: the runner stores
    /// [`stba::Trace::digest`] of the typed port trace. The field (and payload
    /// key) keeps its `vcd` name from schema `/2`, when it digested the
    /// VCD text: the payload shape is unchanged and struct-literal
    /// builders of `CachedCell` keep compiling; the schema tag is what
    /// tells the two digests apart.
    pub rtl_vcd_digest: Option<u64>,
    /// See `rtl_vcd_digest`.
    pub bca_vcd_digest: Option<u64>,
    /// See `rtl_vcd_digest`; `None` when the cell did not run the TLM
    /// view.
    pub tlm_vcd_digest: Option<u64>,
}

/// Serializes a cell to the canonical payload string.
pub fn encode(cell: &CachedCell) -> String {
    let digest = |d: Option<u64>| match d {
        Some(v) => Json::from(format!("{v:016x}")),
        None => Json::Null,
    };
    Json::obj([
        ("schema", Json::from(CELL_SCHEMA)),
        ("record", record_to_json(&cell.record)),
        ("rtl_activity", activity_to_json(&cell.rtl_activity)),
        ("metrics", cell.metrics.to_json()),
        ("rtl_vcd_digest", digest(cell.rtl_vcd_digest)),
        ("bca_vcd_digest", digest(cell.bca_vcd_digest)),
        ("tlm_vcd_digest", digest(cell.tlm_vcd_digest)),
    ])
    .render()
}

/// Parses a payload back; `None` on any structural or value-level defect.
pub fn decode(payload: &str) -> Option<CachedCell> {
    let json = Json::parse(payload).ok()?;
    if json.get("schema")?.as_str()? != CELL_SCHEMA {
        return None;
    }
    let digest = |key: &str| -> Option<Option<u64>> {
        match json.get(key)? {
            Json::Null => Some(None),
            j => Some(Some(u64::from_str_radix(j.as_str()?, 16).ok()?)),
        }
    };
    Some(CachedCell {
        record: record_from_json(json.get("record")?)?,
        rtl_activity: activity_from_json(json.get("rtl_activity")?)?,
        metrics: MetricsSnapshot::from_json(json.get("metrics")?)?,
        rtl_vcd_digest: digest("rtl_vcd_digest")?,
        bca_vcd_digest: digest("bca_vcd_digest")?,
        tlm_vcd_digest: digest("tlm_vcd_digest")?,
    })
}

// ---- RunRecord ---------------------------------------------------------

fn ports_to_json(ports: &Option<Vec<(String, u64, u64)>>) -> Json {
    match ports {
        Some(ports) => Json::Arr(
            ports
                .iter()
                .map(|(port, m, t)| {
                    Json::Arr(vec![
                        Json::from(port.as_str()),
                        Json::from(*m),
                        Json::from(*t),
                    ])
                })
                .collect(),
        ),
        None => Json::Null,
    }
}

/// `Some(figures)` on a well-formed value, `None` on a defect — the
/// inner option distinguishes "not compared" (`null`).
fn ports_from_json(json: &Json) -> Option<Option<Vec<(String, u64, u64)>>> {
    match json {
        Json::Null => Some(None),
        Json::Arr(ports) => Some(Some(
            ports
                .iter()
                .map(|p| {
                    let p = p.as_arr()?;
                    match p {
                        [port, m, t] => Some((port.as_str()?.to_owned(), m.as_u64()?, t.as_u64()?)),
                        _ => None,
                    }
                })
                .collect::<Option<Vec<_>>>()?,
        )),
        _ => None,
    }
}

fn record_to_json(r: &RunRecord) -> Json {
    Json::obj([
        ("test", Json::from(r.test.as_str())),
        // Stringified: a seed is a full u64 and must survive exactly,
        // beyond f64's 2^53 integer range.
        ("seed", Json::from(r.seed.to_string())),
        ("rtl", result_to_json(&r.rtl)),
        ("bca", result_to_json(&r.bca)),
        (
            "tlm",
            match &r.tlm {
                Some(tlm) => result_to_json(tlm),
                None => Json::Null,
            },
        ),
        ("alignment", ports_to_json(&r.alignment)),
        ("tlm_alignment", ports_to_json(&r.tlm_alignment)),
        ("tlm_tx_alignment", ports_to_json(&r.tlm_tx_alignment)),
        ("compared", Json::from(r.compare_wall_us.is_some())),
        ("tlm_compared", Json::from(r.tlm_compare_wall_us.is_some())),
    ])
}

fn record_from_json(json: &Json) -> Option<RunRecord> {
    let tlm = match json.get("tlm")? {
        Json::Null => None,
        j => Some(result_from_json(j)?),
    };
    Some(RunRecord {
        test: json.get("test")?.as_str()?.to_owned(),
        seed: json.get("seed")?.as_str()?.parse().ok()?,
        rtl: result_from_json(json.get("rtl")?)?,
        bca: result_from_json(json.get("bca")?)?,
        tlm,
        alignment: ports_from_json(json.get("alignment")?)?,
        tlm_alignment: ports_from_json(json.get("tlm_alignment")?)?,
        tlm_tx_alignment: ports_from_json(json.get("tlm_tx_alignment")?)?,
        rtl_wall_us: 0,
        bca_wall_us: 0,
        tlm_wall_us: 0,
        compare_wall_us: json.get("compared")?.as_bool()?.then_some(0),
        tlm_compare_wall_us: json.get("tlm_compared")?.as_bool()?.then_some(0),
    })
}

// ---- RunResult ---------------------------------------------------------

fn result_to_json(r: &RunResult) -> Json {
    Json::obj([
        ("test", Json::from(r.test.as_str())),
        ("seed", Json::from(r.seed.to_string())),
        ("view", Json::from(r.view.to_string())),
        ("cycles", Json::from(r.cycles)),
        ("checker", checker_to_json(&r.checker)),
        (
            "scoreboard_errors",
            Json::Arr(
                r.scoreboard_errors
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("cycle", Json::from(e.cycle)),
                            ("port", Json::from(e.port.to_string())),
                            ("message", Json::from(e.message.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("scoreboard_checks", Json::from(r.scoreboard_checks)),
        ("coverage", coverage_to_json(&r.coverage)),
        (
            "stats",
            Json::Arr(
                r.stats
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("issued", Json::from(s.issued)),
                            ("completed", Json::from(s.completed)),
                            ("errors", Json::from(s.errors)),
                            ("total_latency", Json::from(s.total_latency)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "anomalies",
            Json::Arr(r.anomalies.iter().map(|a| Json::from(a.as_str())).collect()),
        ),
        ("completed", Json::from(r.completed)),
        ("transactions", Json::from(r.transactions)),
    ])
}

fn result_from_json(json: &Json) -> Option<RunResult> {
    let scoreboard_errors = json
        .get("scoreboard_errors")?
        .as_arr()?
        .iter()
        .map(|e| {
            Some(ScoreboardError {
                cycle: e.get("cycle")?.as_u64()?,
                port: parse_port(e.get("port")?.as_str()?)?,
                message: e.get("message")?.as_str()?.to_owned(),
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let stats = json
        .get("stats")?
        .as_arr()?
        .iter()
        .map(|s| {
            Some(InitiatorStats {
                issued: s.get("issued")?.as_u64()?,
                completed: s.get("completed")?.as_u64()?,
                errors: s.get("errors")?.as_u64()?,
                total_latency: s.get("total_latency")?.as_u64()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let anomalies = json
        .get("anomalies")?
        .as_arr()?
        .iter()
        .map(|a| Some(a.as_str()?.to_owned()))
        .collect::<Option<Vec<_>>>()?;
    Some(RunResult {
        test: json.get("test")?.as_str()?.to_owned(),
        seed: json.get("seed")?.as_str()?.parse().ok()?,
        view: parse_view(json.get("view")?.as_str()?)?,
        cycles: json.get("cycles")?.as_u64()?,
        checker: checker_from_json(json.get("checker")?)?,
        scoreboard_errors,
        scoreboard_checks: json.get("scoreboard_checks")?.as_u64()?,
        coverage: coverage_from_json(json.get("coverage")?)?,
        stats,
        anomalies,
        completed: json.get("completed")?.as_bool()?,
        transactions: json.get("transactions")?.as_u64()?,
        vcd: None,
        trace: None,
    })
}

// ---- CheckerReport -----------------------------------------------------

fn checker_to_json(c: &CheckerReport) -> Json {
    Json::obj([
        (
            "violations",
            Json::Arr(
                c.violations
                    .iter()
                    .map(|v| {
                        Json::obj([
                            ("kind", Json::from(v.kind.to_string())),
                            ("port", Json::from(v.port.to_string())),
                            ("cycle", Json::from(v.cycle)),
                            ("message", Json::from(v.message.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("suppressed", Json::from(c.suppressed)),
        (
            "checks_passed",
            Json::Arr(
                c.checks_passed
                    .iter()
                    .map(|(rule, n)| Json::Arr(vec![Json::from(rule.to_string()), Json::from(*n)]))
                    .collect(),
            ),
        ),
    ])
}

fn checker_from_json(json: &Json) -> Option<CheckerReport> {
    let violations = json
        .get("violations")?
        .as_arr()?
        .iter()
        .map(|v| {
            Some(Violation {
                kind: parse_violation_kind(v.get("kind")?.as_str()?)?,
                port: parse_port(v.get("port")?.as_str()?)?,
                cycle: v.get("cycle")?.as_u64()?,
                message: v.get("message")?.as_str()?.to_owned(),
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let mut checks_passed = std::collections::BTreeMap::new();
    for pair in json.get("checks_passed")?.as_arr()? {
        match pair.as_arr()? {
            [rule, n] => {
                checks_passed.insert(parse_rule(rule.as_str()?)?, n.as_u64()?);
            }
            _ => return None,
        }
    }
    Some(CheckerReport {
        violations,
        suppressed: json.get("suppressed")?.as_u64()?,
        checks_passed,
    })
}

// ---- Coverage ----------------------------------------------------------

fn coverage_to_json(c: &CoverageReport) -> Json {
    Json::Arr(
        c.groups
            .iter()
            .map(|g| {
                Json::obj([
                    ("name", Json::from(g.name.as_str())),
                    (
                        "bins",
                        Json::Arr(
                            g.bins
                                .iter()
                                .map(|(bin, hits)| {
                                    Json::Arr(vec![Json::from(bin.as_str()), Json::from(*hits)])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

fn coverage_from_json(json: &Json) -> Option<CoverageReport> {
    let groups = json
        .as_arr()?
        .iter()
        .map(|g| {
            let mut bins = std::collections::BTreeMap::new();
            for pair in g.get("bins")?.as_arr()? {
                match pair.as_arr()? {
                    [bin, hits] => {
                        bins.insert(bin.as_str()?.to_owned(), hits.as_u64()?);
                    }
                    _ => return None,
                }
            }
            Some(CoverageGroup {
                name: g.get("name")?.as_str()?.to_owned(),
                bins,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(CoverageReport { groups })
}

fn activity_to_json(a: &ActivityCoverage) -> Json {
    let pairs = |items: Vec<(&str, u64)>| {
        Json::Arr(
            items
                .into_iter()
                .map(|(name, n)| Json::Arr(vec![Json::from(name), Json::from(n)]))
                .collect(),
        )
    };
    Json::obj([
        (
            "processes",
            pairs(
                a.processes
                    .iter()
                    .map(|p| (p.name.as_str(), p.runs))
                    .collect(),
            ),
        ),
        (
            "branches",
            pairs(
                a.branches
                    .iter()
                    .map(|b| (b.name.as_str(), b.hits))
                    .collect(),
            ),
        ),
    ])
}

fn activity_from_json(json: &Json) -> Option<ActivityCoverage> {
    fn pairs(json: &Json) -> Option<Vec<(String, u64)>> {
        json.as_arr()?
            .iter()
            .map(|p| match p.as_arr()? {
                [name, n] => Some((name.as_str()?.to_owned(), n.as_u64()?)),
                _ => None,
            })
            .collect()
    }
    Some(ActivityCoverage {
        processes: pairs(json.get("processes")?)?
            .into_iter()
            .map(|(name, runs)| sim_kernel::ProcessActivity { name, runs })
            .collect(),
        branches: pairs(json.get("branches")?)?
            .into_iter()
            .map(|(name, hits)| sim_kernel::BranchActivity { name, hits })
            .collect(),
    })
}

// ---- Display-name parsers ----------------------------------------------

fn parse_view(s: &str) -> Option<ViewKind> {
    ViewKind::ALL.into_iter().find(|v| v.to_string() == s)
}

fn parse_rule(s: &str) -> Option<RuleId> {
    RuleId::ALL.into_iter().find(|r| r.to_string() == s)
}

fn parse_violation_kind(s: &str) -> Option<ViolationKind> {
    if s == "WATCHDOG-STARVE" {
        return Some(ViolationKind::Starvation);
    }
    parse_rule(s).map(ViolationKind::Rule)
}

fn parse_port(s: &str) -> Option<PortId> {
    if let Some(i) = s.strip_prefix("init") {
        return Some(PortId::Initiator(i.parse().ok()?));
    }
    if let Some(t) = s.strip_prefix("tgt") {
        return Some(PortId::Target(t.parse().ok()?));
    }
    None
}

/// FNV-1a 64 digest of a run's VCD text, for callers that capture the
/// text rather than the trace (the runner records
/// [`stba::Trace::digest`] instead).
pub fn vcd_digest(vcd: Option<&String>) -> Option<u64> {
    vcd.map(|text| cache::fnv64(text.as_bytes()))
}
