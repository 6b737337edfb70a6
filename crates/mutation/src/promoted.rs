//! Hunt reproducers and the promoted-reproducer catalogue.
//!
//! A [`Repro`] (`repro.json`, schema [`REPRO_SCHEMA`]) is the bug hunt's
//! deliverable: everything needed to replay one shrunk divergence without
//! the fleet — the reduced configuration (embedded as the regression
//! tool's text format, so it is readable and round-trips through the
//! audited codec), the reduced recipe, the testbench seed, the injected
//! catalogue labels (empty for a genuine cross-view find), the detector
//! that fired, and the shrink trajectory that got there. `stbus-hunt`
//! writes it and re-exports it; it lives here because the catalogue
//! below reads it and `stbus-hunt` depends on this crate.
//!
//! `stbus-regress --hunt-promote repro.json` copies a shrunk reproducer
//! into the `hunts/` directory; from then on every qualification run
//! replays it alongside the built-in mutation catalogue. This is the
//! fleet's ratchet: a bug the hunt found once can never silently come
//! back, because its minimal reproducer is pinned with the exact
//! configuration, recipe, seed and the detector class that must fire.
//! Each entry replays through the same differential runner the fleet
//! uses and reports whether the divergence was caught and attributed to
//! the recorded detector class.

use crate::differential::{run_differential, DiffFinding, Injections};
use cdg::Recipe;
use stbus_protocol::config_file::{parse_config, render_config};
use stbus_protocol::NodeConfig;
use telemetry::{Json, Telemetry};

/// Schema tag written into every `repro.json`.
pub const REPRO_SCHEMA: &str = "stbus-repro/1";

/// The test name a hunt probe's stimulus runs under.
pub const PROBE_TEST: &str = "hunt_probe";

/// One minimal reproducer.
#[derive(Clone, Debug)]
pub struct Repro {
    /// The shrunk node configuration.
    pub config: NodeConfig,
    /// The shrunk stimulus recipe.
    pub recipe: Recipe,
    /// The testbench seed (held fixed through the shrink).
    pub seed: u64,
    /// The campaign that found it.
    pub campaign_seed: u64,
    /// The probe index within that campaign.
    pub probe_index: u64,
    /// Catalogue labels of seeded defects (empty for a real find).
    pub injected: Vec<String>,
    /// Display form of the detector that fired (e.g. `"checker R-TID"`).
    pub detector: String,
    /// The detector's report column — the class the shrinker preserved.
    pub detector_column: String,
    /// STBA minimum alignment rate, when the detector was the
    /// cross-view comparison.
    pub alignment_rate: Option<f64>,
    /// Accepted shrink steps, in application order.
    pub shrink_steps: Vec<String>,
    /// The command that replays this reproducer.
    pub replay: String,
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl Repro {
    /// A content-addressed identifier: hashes the replay-relevant fields
    /// (configuration text, recipe, seed, injections, detector class) so
    /// re-promoting the same reproducer lands on the same catalogue
    /// entry instead of a duplicate.
    pub fn id(&self) -> String {
        let key = format!(
            "{}|{}|{}|{}|{}",
            render_config(&self.config),
            self.recipe.to_json().render(),
            self.seed,
            self.injected.join(","),
            self.detector_column,
        );
        format!("{:016x}", fnv64(key.as_bytes()))
    }

    /// The machine-readable form; stable field order, no wall-clock
    /// content, byte-identical for a given reproducer.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(REPRO_SCHEMA)),
            ("id", Json::str(self.id())),
            (
                "view_pair",
                Json::Arr(vec![Json::str("rtl"), Json::str("bca")]),
            ),
            ("detector", Json::str(self.detector.clone())),
            ("detector_column", Json::str(self.detector_column.clone())),
            (
                "alignment_rate_pct",
                Json::from(self.alignment_rate.map(|r| r * 100.0)),
            ),
            (
                "injected",
                Json::Arr(
                    self.injected
                        .iter()
                        .map(|s| Json::str(s.as_str()))
                        .collect(),
                ),
            ),
            ("campaign_seed", Json::from(self.campaign_seed)),
            ("probe_index", Json::from(self.probe_index)),
            ("seed", Json::from(self.seed)),
            (
                "shrink_steps",
                Json::Arr(
                    self.shrink_steps
                        .iter()
                        .map(|s| Json::str(s.as_str()))
                        .collect(),
                ),
            ),
            ("config", Json::str(render_config(&self.config))),
            ("recipe", self.recipe.to_json()),
            ("replay", Json::str(self.replay.clone())),
        ])
    }

    /// Parses a `repro.json`; errors name the offending field.
    pub fn from_json(json: &Json) -> Result<Repro, String> {
        let schema = json
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("repro: missing schema")?;
        if schema != REPRO_SCHEMA {
            return Err(format!(
                "repro: schema {schema:?} (this tool reads {REPRO_SCHEMA:?})"
            ));
        }
        let config_text = json
            .get("config")
            .and_then(Json::as_str)
            .ok_or("repro: missing config text")?;
        let config = parse_config(config_text).map_err(|e| format!("repro: config: {e}"))?;
        let recipe = Recipe::from_json(json.get("recipe").ok_or("repro: missing recipe")?)
            .map_err(|e| format!("repro: recipe: {e}"))?;
        let field_u64 = |key: &str| {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("repro: missing {key}"))
        };
        let field_str = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("repro: missing {key}"))
        };
        let str_arr = |key: &str| -> Result<Vec<String>, String> {
            json.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("repro: missing {key}"))?
                .iter()
                .map(|j| {
                    j.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| format!("repro: non-string entry in {key}"))
                })
                .collect()
        };
        let injected = str_arr("injected")?;
        // Validate the labels up front so a corrupt file fails at load,
        // not at replay.
        Injections::from_labels(&injected).map_err(|e| format!("repro: {e}"))?;
        Ok(Repro {
            config,
            recipe,
            seed: field_u64("seed")?,
            campaign_seed: field_u64("campaign_seed")?,
            probe_index: field_u64("probe_index")?,
            injected,
            detector: field_str("detector")?,
            detector_column: field_str("detector_column")?,
            alignment_rate: json
                .get("alignment_rate_pct")
                .and_then(Json::as_f64)
                .map(|p| p / 100.0),
            shrink_steps: str_arr("shrink_steps")?,
            replay: field_str("replay")?,
        })
    }

    /// Re-runs the recorded probe exactly as the hunt ran it: same
    /// configuration, recipe, seed and injections, under [`PROBE_TEST`].
    /// Returns the finding, or `None` when the divergence no longer
    /// reproduces (e.g. the defect was fixed).
    pub fn replay(&self, telemetry: &Telemetry) -> Result<Option<DiffFinding>, String> {
        self.replay_as(PROBE_TEST, telemetry)
    }

    /// [`Repro::replay`] with the recipe's stimulus named `test`.
    pub fn replay_as(
        &self,
        test: &str,
        telemetry: &Telemetry,
    ) -> Result<Option<DiffFinding>, String> {
        let inject = Injections::from_labels(&self.injected)?;
        let spec = self.recipe.to_spec(test);
        Ok(run_differential(
            &self.config,
            &spec,
            self.seed,
            &inject,
            telemetry,
        ))
    }

    /// True when a replayed finding matches the recorded detector class.
    pub fn matches(&self, finding: &DiffFinding) -> bool {
        finding.detector.column() == self.detector_column
    }
}

/// One pinned reproducer, loaded from a `hunts/*.json` file. It reads as
/// the [`Repro`] it holds.
#[derive(Clone, Debug)]
pub struct PromotedRepro {
    /// Content-addressed identifier recorded in the file.
    pub id: String,
    /// File stem the entry was loaded from (stable report key).
    pub source: String,
    /// The reproducer.
    pub repro: Repro,
}

impl std::ops::Deref for PromotedRepro {
    type Target = Repro;

    fn deref(&self) -> &Repro {
        &self.repro
    }
}

impl PromotedRepro {
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
                let at = |e: String| format!("{}: {e}", path.display());
                let text = std::fs::read_to_string(path).map_err(|e| at(e.to_string()))?;
                let json = Json::parse(&text).map_err(|e| at(e.to_string()))?;
                let id = json
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or_else(|| at("repro: missing id".to_owned()))?
                    .to_owned();
                let repro = Repro::from_json(&json).map_err(at)?;
                Ok(PromotedRepro { id, source, repro })
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
            let finding = entry
                .replay_as(&format!("hunt_{}", entry.source), telemetry)
                .expect("labels were validated at load");
            PromotedOutcome {
                id: entry.id.clone(),
                source: entry.source.clone(),
                injected: entry.injected.clone(),
                expected_column: entry.detector_column.clone(),
                observed: finding.as_ref().map(|f| f.detector.to_string()),
                observed_column: finding.as_ref().map(|f| f.detector.column().to_owned()),
                caught: finding.is_some(),
                attributed: finding.as_ref().is_some_and(|f| entry.matches(f)),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Repro {
        let config = NodeConfig::builder("hunt_min")
            .initiators(2)
            .targets(2)
            .build()
            .unwrap();
        let recipe = Recipe::narrow(&config);
        Repro {
            config,
            recipe,
            seed: 411,
            campaign_seed: 1,
            probe_index: 7,
            injected: vec!["R2".to_owned()],
            detector: "checker R-TID".to_owned(),
            detector_column: "checker".to_owned(),
            alignment_rate: None,
            shrink_steps: vec!["config:one-initiator".to_owned()],
            replay: "stbus-regress --hunt-replay repro.json".to_owned(),
        }
    }

    #[test]
    fn repro_round_trips_through_json() {
        let repro = sample();
        let json = repro.to_json();
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some(REPRO_SCHEMA)
        );
        let parsed = Repro::from_json(&json).unwrap();
        assert_eq!(parsed.config, repro.config);
        assert_eq!(parsed.recipe, repro.recipe);
        assert_eq!(parsed.seed, repro.seed);
        assert_eq!(parsed.injected, repro.injected);
        assert_eq!(parsed.detector, repro.detector);
        assert_eq!(parsed.detector_column, repro.detector_column);
        assert_eq!(parsed.shrink_steps, repro.shrink_steps);
        assert_eq!(parsed.id(), repro.id());
        // Round-tripping again is byte-stable.
        assert_eq!(parsed.to_json().render_pretty(), json.render_pretty());
    }

    #[test]
    fn corrupt_repro_files_fail_with_named_fields() {
        let json = sample().to_json();
        let missing = Json::obj([("schema", Json::str(REPRO_SCHEMA))]);
        assert!(Repro::from_json(&missing).unwrap_err().contains("config"));
        let Json::Obj(mut pairs) = json else {
            unreachable!()
        };
        for (k, v) in &mut pairs {
            if k == "injected" {
                *v = Json::Arr(vec![Json::str("Z9")]);
            }
        }
        let err = Repro::from_json(&Json::Obj(pairs)).unwrap_err();
        assert!(err.contains("Z9"), "{err}");
    }
}
