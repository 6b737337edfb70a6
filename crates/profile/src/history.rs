//! Persistent campaign history: an append-only JSONL store recording one
//! line per regression campaign, keyed by a content hash of the campaign
//! definition (netlist-config matrix + test library + engine version).
//!
//! The key makes runs comparable: two records with the same key executed
//! the same workload, so their per-phase wall-clock times can be compared
//! directly and a slowdown beyond a threshold flagged as a performance
//! regression. Records with different keys are still shown in the trend
//! table but never compared against each other.
//!
//! The store lives at `<dir>/.stbus/history.jsonl` and is append-only:
//! corrupt or foreign lines are skipped on load, never rewritten, so a
//! crashed run can't destroy accumulated history.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use telemetry::Json;

/// Schema tag stamped into every record.
pub const HISTORY_SCHEMA: &str = "stbus-history/1";

/// Phases shorter than this (per side) are ignored by the comparator:
/// at microsecond granularity, scheduler jitter on a near-empty phase
/// produces huge relative deltas that mean nothing.
pub const MIN_PHASE_US: u64 = 1_000;

/// Host facts that contextualise a record's timings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostInfo {
    /// Hardware threads available to the process.
    pub cores: u64,
    /// Worker count the campaign actually ran with (0 = auto).
    pub jobs: u64,
}

impl HostInfo {
    /// Probes the current host; `jobs` is the campaign's setting.
    pub fn current(jobs: u64) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1);
        HostInfo { cores, jobs }
    }
}

/// Shape of the campaign the record timed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CampaignShape {
    /// Netlist configurations in the matrix.
    pub configs: u64,
    /// Tests in the library.
    pub tests: u64,
    /// Seeds per (config, test) pair.
    pub seeds: u64,
    /// Cycles-per-test intensity knob.
    pub intensity: u64,
    /// Total matrix cells executed.
    pub cells: u64,
}

/// One appended line of `.stbus/history.jsonl`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistoryRecord {
    /// Content key — equal keys mean comparable workloads.
    pub key: String,
    /// What produced the record (`regress`).
    pub source: String,
    /// Engine version that ran the campaign.
    pub engine_version: String,
    /// Seconds since the Unix epoch at record time.
    pub recorded_unix: u64,
    /// Host context.
    pub host: HostInfo,
    /// Campaign shape.
    pub shape: CampaignShape,
    /// End-to-end campaign wall clock, microseconds.
    pub wall_us: u64,
    /// Per-phase wall clock, microseconds (settle/drive/vcd/compare/...).
    pub phases: BTreeMap<String, u64>,
    /// Whether every cell passed.
    pub passed: bool,
}

impl HistoryRecord {
    /// Serialises to the JSONL wire form.
    pub fn to_json(&self) -> Json {
        let phases: Vec<(String, Json)> = self
            .phases
            .iter()
            .map(|(k, v)| (k.clone(), Json::from(*v)))
            .collect();
        Json::obj([
            ("schema", Json::str(HISTORY_SCHEMA)),
            ("key", Json::str(&self.key)),
            ("source", Json::str(&self.source)),
            ("engine_version", Json::str(&self.engine_version)),
            ("recorded_unix", Json::from(self.recorded_unix)),
            (
                "host",
                Json::obj([
                    ("cores", Json::from(self.host.cores)),
                    ("jobs", Json::from(self.host.jobs)),
                ]),
            ),
            (
                "shape",
                Json::obj([
                    ("configs", Json::from(self.shape.configs)),
                    ("tests", Json::from(self.shape.tests)),
                    ("seeds", Json::from(self.shape.seeds)),
                    ("intensity", Json::from(self.shape.intensity)),
                    ("cells", Json::from(self.shape.cells)),
                ]),
            ),
            ("wall_us", Json::from(self.wall_us)),
            ("phases", Json::Obj(phases)),
            ("passed", Json::Bool(self.passed)),
        ])
    }

    /// Parses one JSONL line; `None` if it isn't a current-schema record.
    pub fn from_json(json: &Json) -> Option<Self> {
        if json.get("schema")?.as_str()? != HISTORY_SCHEMA {
            return None;
        }
        let host = json.get("host")?;
        let shape = json.get("shape")?;
        let mut phases = BTreeMap::new();
        if let Some(Json::Obj(entries)) = json.get("phases") {
            for (k, v) in entries {
                phases.insert(k.clone(), v.as_u64()?);
            }
        }
        Some(HistoryRecord {
            key: json.get("key")?.as_str()?.to_owned(),
            source: json.get("source")?.as_str()?.to_owned(),
            engine_version: json.get("engine_version")?.as_str()?.to_owned(),
            recorded_unix: json.get("recorded_unix")?.as_u64()?,
            host: HostInfo {
                cores: host.get("cores")?.as_u64()?,
                jobs: host.get("jobs")?.as_u64()?,
            },
            shape: CampaignShape {
                configs: shape.get("configs")?.as_u64()?,
                tests: shape.get("tests")?.as_u64()?,
                seeds: shape.get("seeds")?.as_u64()?,
                intensity: shape.get("intensity")?.as_u64()?,
                cells: shape.get("cells")?.as_u64()?,
            },
            wall_us: json.get("wall_us")?.as_u64()?,
            phases,
            passed: matches!(json.get("passed"), Some(Json::Bool(true))),
        })
    }
}

/// FNV-1a 64-bit content key over an ordered part list, hex-rendered.
///
/// Parts are separated by a 0x1f unit separator so `["ab","c"]` and
/// `["a","bc"]` hash differently.
pub fn content_key<I, S>(parts: I) -> String
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = BASIS;
    for part in parts {
        for byte in part.as_ref().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
        hash ^= 0x1f;
        hash = hash.wrapping_mul(PRIME);
    }
    format!("{hash:016x}")
}

/// The on-disk history store.
pub struct HistoryStore {
    path: PathBuf,
}

impl HistoryStore {
    /// Store rooted at `base` (file: `base/.stbus/history.jsonl`).
    pub fn in_dir(base: &Path) -> Self {
        HistoryStore {
            path: base.join(".stbus").join("history.jsonl"),
        }
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record, creating the directory and file as needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn append(&self, record: &HistoryRecord) -> std::io::Result<()> {
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        writeln!(file, "{}", record.to_json().render())
    }

    /// Loads every parseable record in append order. A missing file is an
    /// empty history; corrupt or foreign lines are skipped.
    pub fn load(&self) -> Vec<HistoryRecord> {
        let Ok(text) = std::fs::read_to_string(&self.path) else {
            return Vec::new();
        };
        text.lines()
            .filter_map(|line| Json::parse(line).ok())
            .filter_map(|json| HistoryRecord::from_json(&json))
            .collect()
    }
}

/// One phase (or total) compared between two records.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseDelta {
    /// Phase name, or `total` for overall wall clock.
    pub phase: String,
    /// Baseline microseconds.
    pub baseline_us: u64,
    /// Latest microseconds.
    pub latest_us: u64,
    /// Relative change in percent (positive = slower).
    pub delta_pct: f64,
}

/// Outcome of comparing the latest record against a baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct Comparison {
    /// All compared phases plus the `total` row.
    pub deltas: Vec<PhaseDelta>,
    /// Deltas exceeding the threshold (slowdowns only).
    pub regressions: Vec<PhaseDelta>,
}

fn delta_pct(baseline: u64, latest: u64) -> f64 {
    if baseline == 0 {
        if latest == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (latest as f64 - baseline as f64) / baseline as f64 * 100.0
    }
}

/// Compares `latest` against `baseline` phase by phase.
///
/// A phase regresses when it got slower by more than `max_pct` percent
/// and at least one side is ≥ [`MIN_PHASE_US`] (sub-millisecond phases
/// are pure jitter at this granularity). The `total` wall clock is
/// always compared.
pub fn compare_records(
    latest: &HistoryRecord,
    baseline: &HistoryRecord,
    max_pct: f64,
) -> Comparison {
    let mut deltas = Vec::new();
    let mut names: Vec<&String> = baseline.phases.keys().collect();
    for k in latest.phases.keys() {
        if !baseline.phases.contains_key(k) {
            names.push(k);
        }
    }
    for name in names {
        let b = baseline.phases.get(name).copied().unwrap_or(0);
        let l = latest.phases.get(name).copied().unwrap_or(0);
        deltas.push(PhaseDelta {
            phase: name.clone(),
            baseline_us: b,
            latest_us: l,
            delta_pct: delta_pct(b, l),
        });
    }
    deltas.push(PhaseDelta {
        phase: "total".to_owned(),
        baseline_us: baseline.wall_us,
        latest_us: latest.wall_us,
        delta_pct: delta_pct(baseline.wall_us, latest.wall_us),
    });
    let regressions = deltas
        .iter()
        .filter(|d| {
            d.delta_pct > max_pct && (d.baseline_us >= MIN_PHASE_US || d.latest_us >= MIN_PHASE_US)
        })
        .cloned()
        .collect();
    Comparison {
        deltas,
        regressions,
    }
}

/// The index of the `nth`-most-recent record before `latest_index` with
/// the same content key (`nth` = 1 means the immediately preceding match).
pub fn find_baseline(records: &[HistoryRecord], latest_index: usize, nth: usize) -> Option<usize> {
    let key = &records.get(latest_index)?.key;
    (0..latest_index)
        .rev()
        .filter(|&i| &records[i].key == key)
        .nth(nth.saturating_sub(1))
}

/// Days-since-epoch to `YYYY-MM-DD` (proleptic Gregorian, civil algo).
fn civil_date(unix: u64) -> String {
    let days = (unix / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn ms(us: u64) -> String {
    format!("{:.1}", us as f64 / 1000.0)
}

/// Renders the trend table over the full history (most recent last),
/// marking the latest record and its chosen baseline.
pub fn render_trend(records: &[HistoryRecord], baseline_index: Option<usize>) -> String {
    let mut out = String::new();
    out.push_str("   #  date        key               source   jobs  cells  wall ms     pass\n");
    for (i, r) in records.iter().enumerate() {
        let mark = if i + 1 == records.len() {
            "*"
        } else if Some(i) == baseline_index {
            "b"
        } else {
            " "
        };
        out.push_str(&format!(
            "{mark}{:>4}  {}  {}  {:<7}  {:>4}  {:>5}  {:>9}  {}\n",
            i,
            civil_date(r.recorded_unix),
            r.key,
            r.source,
            r.host.jobs,
            r.shape.cells,
            ms(r.wall_us),
            if r.passed { "ok" } else { "FAIL" },
        ));
    }
    out
}

/// Renders a comparison as an aligned table.
pub fn render_comparison(cmp: &Comparison, max_pct: f64) -> String {
    let mut out = String::new();
    out.push_str("phase                baseline ms   latest ms      delta\n");
    for d in &cmp.deltas {
        let delta = if d.delta_pct.is_infinite() {
            "   new".to_owned()
        } else {
            format!("{:+6.1}%", d.delta_pct)
        };
        let flag = if cmp.regressions.iter().any(|r| r.phase == d.phase) {
            "  <-- REGRESSION"
        } else {
            ""
        };
        out.push_str(&format!(
            "{:<20} {:>11}   {:>9}    {delta}{flag}\n",
            d.phase,
            ms(d.baseline_us),
            ms(d.latest_us),
        ));
    }
    if cmp.regressions.is_empty() {
        out.push_str(&format!("no phase regressed beyond {max_pct:.0}%\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(key: &str, wall: u64, settle: u64) -> HistoryRecord {
        let mut phases = BTreeMap::new();
        phases.insert("settle".to_owned(), settle);
        phases.insert("drive".to_owned(), 5_000);
        HistoryRecord {
            key: key.to_owned(),
            source: "regress".to_owned(),
            engine_version: "0.1.0".to_owned(),
            recorded_unix: 1_754_000_000,
            host: HostInfo { cores: 4, jobs: 2 },
            shape: CampaignShape {
                configs: 3,
                tests: 4,
                seeds: 1,
                intensity: 2,
                cells: 12,
            },
            wall_us: wall,
            phases,
            passed: true,
        }
    }

    #[test]
    fn record_round_trips_through_jsonl() {
        let r = record("abc123", 250_000, 90_000);
        let line = r.to_json().render();
        let back = HistoryRecord::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn content_key_is_stable_and_order_sensitive() {
        let a = content_key(["cfg:a", "test:b"]);
        assert_eq!(a, content_key(["cfg:a", "test:b"]));
        assert_ne!(a, content_key(["test:b", "cfg:a"]));
        assert_ne!(content_key(["ab", "c"]), content_key(["a", "bc"]));
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn store_appends_loads_and_skips_corrupt_lines() {
        let dir = std::env::temp_dir().join(format!("stbus-history-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = HistoryStore::in_dir(&dir);
        assert!(store.load().is_empty());
        store.append(&record("k1", 100_000, 40_000)).unwrap();
        store.append(&record("k1", 110_000, 42_000)).unwrap();
        // Corrupt line + foreign-schema line must both be tolerated.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(store.path())
                .unwrap();
            writeln!(f, "{{not json").unwrap();
            writeln!(f, "{{\"schema\":\"other/9\"}}").unwrap();
        }
        store.append(&record("k2", 90_000, 30_000)).unwrap();
        let records = store.load();
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].key, "k2");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn comparison_flags_only_meaningful_slowdowns() {
        let baseline = record("k", 100_000, 40_000);
        let mut latest = record("k", 180_000, 90_000);
        // A microscopic phase ballooning relatively must NOT flag.
        latest.phases.insert("vcd".to_owned(), 900);
        let cmp = compare_records(&latest, &baseline, 20.0);
        let flagged: Vec<&str> = cmp.regressions.iter().map(|d| d.phase.as_str()).collect();
        assert_eq!(flagged, ["settle", "total"]);
        // Speedups never flag.
        let fast = record("k", 50_000, 10_000);
        assert!(compare_records(&fast, &baseline, 20.0)
            .regressions
            .is_empty());
    }

    #[test]
    fn baseline_lookup_matches_content_key_only() {
        let records = vec![
            record("old", 1_000_000, 1),
            record("k", 100_000, 1),
            record("other", 1, 1),
            record("k", 110_000, 2),
            record("k", 120_000, 3),
        ];
        let b = find_baseline(&records, 4, 1).unwrap();
        assert_eq!((b, records[b].wall_us), (3, 110_000));
        let b2 = find_baseline(&records, 4, 2).unwrap();
        assert_eq!((b2, records[b2].wall_us), (1, 100_000));
        assert!(find_baseline(&records, 0, 1).is_none());
    }

    #[test]
    fn trend_and_comparison_render_cleanly() {
        let records = vec![record("k", 100_000, 40_000), record("k", 150_000, 80_000)];
        let trend = render_trend(&records, Some(0));
        assert!(trend.contains("2025-07-31"));
        assert!(trend.lines().nth(1).unwrap().starts_with("b"));
        assert!(trend.lines().nth(2).unwrap().starts_with("*"));
        let cmp = compare_records(&records[1], &records[0], 20.0);
        let table = render_comparison(&cmp, 20.0);
        assert!(table.contains("REGRESSION"));
        assert!(table.contains("total"));
    }
}
