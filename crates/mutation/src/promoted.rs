//! The promoted-reproducer catalogue.
//!
//! `stbus-regress --hunt-promote repro.json` copies a shrunk hunt
//! reproducer into the `hunts/` directory; from then on every
//! qualification run replays it alongside the built-in mutation
//! catalogue. This is the fleet's ratchet: a bug the hunt found once can
//! never silently come back, because its minimal reproducer is pinned
//! with the exact configuration, recipe, seed and the detector class
//! that must fire.
//!
//! This module is the *consumer* side: it parses the `stbus-repro/1`
//! files (the producer lives in `stbus-hunt`, which depends on this
//! crate — the parse is re-implemented here from the schema, not
//! shared), replays each through the same differential runner the fleet
//! uses, and reports whether the divergence was caught and attributed to
//! the recorded detector class.

use crate::differential::{run_differential, Injections};
use cdg::Recipe;
use stbus_protocol::config_file::parse_config;
use stbus_protocol::NodeConfig;
use telemetry::{Json, Telemetry};

/// The repro schema this module reads (written by `stbus-hunt`).
pub const PROMOTED_SCHEMA: &str = "stbus-repro/1";

/// One pinned reproducer, parsed from a `hunts/*.json` file.
#[derive(Clone, Debug)]
pub struct PromotedRepro {
    /// Content-addressed identifier recorded in the file.
    pub id: String,
    /// File stem the entry was loaded from (stable report key).
    pub source: String,
    /// The reduced node configuration.
    pub config: NodeConfig,
    /// The reduced stimulus recipe.
    pub recipe: Recipe,
    /// The pinned testbench seed.
    pub seed: u64,
    /// Catalogue labels of seeded defects (empty for a real find).
    pub injected: Vec<String>,
    /// Display form of the detector that fired at promotion time.
    pub detector: String,
    /// The detector class that must fire on every replay.
    pub detector_column: String,
}

impl PromotedRepro {
    /// Parses one `stbus-repro/1` JSON document.
    pub fn from_json(source: &str, json: &Json) -> Result<PromotedRepro, String> {
        let ctx = |field: &str| format!("{source}: missing {field}");
        let schema = json
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("schema"))?;
        if schema != PROMOTED_SCHEMA {
            return Err(format!(
                "{source}: schema {schema:?} (this tool reads {PROMOTED_SCHEMA:?})"
            ));
        }
        let config_text = json
            .get("config")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("config"))?;
        let config = parse_config(config_text).map_err(|e| format!("{source}: config: {e}"))?;
        let recipe = Recipe::from_json(json.get("recipe").ok_or_else(|| ctx("recipe"))?)
            .map_err(|e| format!("{source}: recipe: {e}"))?;
        let injected: Vec<String> = json
            .get("injected")
            .and_then(Json::as_arr)
            .ok_or_else(|| ctx("injected"))?
            .iter()
            .map(|j| {
                j.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| format!("{source}: non-string entry in injected"))
            })
            .collect::<Result<_, _>>()?;
        Injections::from_labels(&injected).map_err(|e| format!("{source}: {e}"))?;
        Ok(PromotedRepro {
            id: json
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| ctx("id"))?
                .to_owned(),
            source: source.to_owned(),
            config,
            recipe,
            seed: json
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or_else(|| ctx("seed"))?,
            injected,
            detector: json
                .get("detector")
                .and_then(Json::as_str)
                .ok_or_else(|| ctx("detector"))?
                .to_owned(),
            detector_column: json
                .get("detector_column")
                .and_then(Json::as_str)
                .ok_or_else(|| ctx("detector_column"))?
                .to_owned(),
        })
    }

    /// Loads every `*.json` reproducer in `dir`, sorted by file name so
    /// the catalogue order (and every downstream report) is stable. A
    /// missing directory is an empty catalogue; a malformed file is an
    /// error — a pinned regression that silently stops loading is worse
    /// than a loud one.
    pub fn load_dir(dir: &std::path::Path) -> Result<Vec<PromotedRepro>, String> {
        if !dir.exists() {
            return Ok(Vec::new());
        }
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        paths
            .iter()
            .map(|path| {
                let source = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("repro")
                    .to_owned();
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
                PromotedRepro::from_json(&source, &json)
            })
            .collect()
    }
}

/// The verdict of replaying one promoted reproducer.
#[derive(Clone, Debug)]
pub struct PromotedOutcome {
    /// The reproducer's content id.
    pub id: String,
    /// File stem it was loaded from.
    pub source: String,
    /// Labels of the seeded defects.
    pub injected: Vec<String>,
    /// The detector class the entry demands.
    pub expected_column: String,
    /// The detector that fired on replay, if any.
    pub observed: Option<String>,
    /// The column of the fired detector.
    pub observed_column: Option<String>,
    /// True when the divergence reproduced at all.
    pub caught: bool,
    /// True when it reproduced *and* the detector class matches.
    pub attributed: bool,
}

/// Replays every promoted reproducer through the differential runner.
/// Serial by design: catalogues are small (each entry is a shrunk
/// minimal probe) and a stable order keeps the report deterministic.
pub fn run_promoted(entries: &[PromotedRepro], telemetry: &Telemetry) -> Vec<PromotedOutcome> {
    entries
        .iter()
        .map(|entry| {
            let inject =
                Injections::from_labels(&entry.injected).expect("labels were validated at load");
            let spec = entry.recipe.to_spec(&format!("hunt_{}", entry.source));
            let finding = run_differential(&entry.config, &spec, entry.seed, &inject, telemetry);
            let observed_column = finding.as_ref().map(|f| f.detector.column().to_owned());
            PromotedOutcome {
                id: entry.id.clone(),
                source: entry.source.clone(),
                injected: entry.injected.clone(),
                expected_column: entry.detector_column.clone(),
                observed: finding.as_ref().map(|f| f.detector.to_string()),
                observed_column: observed_column.clone(),
                caught: finding.is_some(),
                attributed: observed_column.as_deref() == Some(entry.detector_column.as_str()),
            }
        })
        .collect()
}

/// The `promoted` section of `qualification.json`.
pub fn promoted_json(outcomes: &[PromotedOutcome]) -> Json {
    Json::Arr(
        outcomes
            .iter()
            .map(|o| {
                Json::obj([
                    ("id", Json::str(o.id.as_str())),
                    ("source", Json::str(o.source.as_str())),
                    (
                        "injected",
                        Json::Arr(o.injected.iter().map(|s| Json::str(s.as_str())).collect()),
                    ),
                    ("expected_column", Json::str(o.expected_column.as_str())),
                    ("observed", Json::from(o.observed.clone())),
                    ("caught", Json::from(o.caught)),
                    ("attributed", Json::from(o.attributed)),
                ])
            })
            .collect(),
    )
}

/// A terminal table: one row per promoted reproducer.
pub fn promoted_table(outcomes: &[PromotedOutcome]) -> String {
    let mut out = String::new();
    out.push_str("promoted reproducers:\n");
    for o in outcomes {
        out.push_str(&format!(
            "  {:<18} {:<10} expect {:<10} -> {:<24} {}\n",
            o.source,
            if o.injected.is_empty() {
                "-".to_owned()
            } else {
                o.injected.join("+")
            },
            o.expected_column,
            o.observed.as_deref().unwrap_or("no divergence"),
            if o.attributed {
                "ok"
            } else if o.caught {
                "MISATTRIBUTED"
            } else {
                "ESCAPED"
            },
        ));
    }
    out
}
