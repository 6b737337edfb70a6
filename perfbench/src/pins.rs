//! Pinned reference outcomes.
//!
//! A pins file holds, for every seed set a workload can draw, the digest
//! of the campaign's whole deterministic output and its work identity,
//! plus one digest per matrix cell over the union of those sets:
//!
//! ```text
//! set <k> <output digest> cells=.. runs=.. rtl_cycles=.. bca_cycles=.. tlm_cycles=.. hung=..
//! cell <id> <digest>
//! ```
//!
//! A cell whose digest differs from its pin — or that has no pin — is
//! an error; `cell_error_rate` is their share of the cells attempted.

use crate::{CellDigest, Identity};
use std::collections::{BTreeMap, HashMap};

/// The pinned output of one seed set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetPin {
    /// Digest of the campaign's whole deterministic output.
    pub output: String,
    /// The rendered [`Identity`] of the campaign.
    pub identity: String,
}

/// A parsed pins file.
#[derive(Clone, Debug, Default)]
pub struct Pins {
    sets: BTreeMap<u64, SetPin>,
    cells: HashMap<String, String>,
}

impl Pins {
    /// Parses the text form; `#` lines and blank lines are ignored.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut pins = Pins::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("pins line {}: `{line}`", n + 1);
            let mut parts = line.splitn(4, ' ');
            match parts.next() {
                Some("set") => {
                    let k = parts.next().and_then(|k| k.parse().ok()).ok_or_else(bad)?;
                    let output = parts.next().ok_or_else(bad)?.to_owned();
                    let identity = parts.next().ok_or_else(bad)?.to_owned();
                    pins.sets.insert(k, SetPin { output, identity });
                }
                Some("cell") => {
                    let id = parts.next().ok_or_else(bad)?.to_owned();
                    let digest = parts.next().ok_or_else(bad)?.to_owned();
                    pins.cells.insert(id, digest);
                }
                _ => return Err(bad()),
            }
        }
        Ok(pins)
    }

    /// The pin of seed set `k`.
    pub fn set(&self, k: u64) -> Option<&SetPin> {
        self.sets.get(&k)
    }

    /// Cells whose digest is missing from, or differs from, the pins.
    pub fn mismatches<'a>(&self, cells: &'a [CellDigest]) -> Vec<&'a CellDigest> {
        cells
            .iter()
            .filter(|c| self.cells.get(&c.id) != Some(&c.digest))
            .collect()
    }

    /// Builds pins from reference campaigns. Cells shared between sets
    /// (same id) must agree.
    pub fn from_reference(
        sets: impl IntoIterator<Item = (u64, String, Identity, Vec<CellDigest>)>,
    ) -> Result<Pins, String> {
        let mut pins = Pins::default();
        for (k, output, identity, cells) in sets {
            pins.sets.insert(
                k,
                SetPin {
                    output,
                    identity: identity.render(),
                },
            );
            for cell in cells {
                if let Some(old) = pins.cells.insert(cell.id.clone(), cell.digest.clone()) {
                    if old != cell.digest {
                        return Err(format!("cell {} differs between seed sets", cell.id));
                    }
                }
            }
        }
        Ok(pins)
    }

    /// The text form, sorted so regenerating unchanged pins is a no-op.
    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        for line in header.lines() {
            out.push_str(&format!("# {line}\n"));
        }
        for (k, pin) in &self.sets {
            out.push_str(&format!("set {k} {} {}\n", pin.output, pin.identity));
        }
        let cells: BTreeMap<&String, &String> = self.cells.iter().collect();
        for (id, digest) in cells {
            out.push_str(&format!("cell {id} {digest}\n"));
        }
        out
    }
}

/// Campaign outputs checked against the pins: cells attempted, cells
/// that differ, and every other check that failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Cells attempted.
    pub attempted: u64,
    /// Cells whose outcome differs from its pin (or that panicked).
    pub failed: u64,
    /// Every failed check, as text.
    pub errors: Vec<String>,
}

impl Tally {
    /// Checks one report's cells, whole output and identity. For the
    /// qualification campaign the untraced identity has no cycle counts,
    /// so only cells and runs are compared there.
    pub fn check(
        &mut self,
        pins: &Pins,
        k: u64,
        cells: &[CellDigest],
        output: &str,
        identity: &Identity,
        matrix_only: bool,
    ) {
        self.attempted += cells.len() as u64;
        let bad = pins.mismatches(cells);
        self.failed += bad.len() as u64;
        if let Some(first) = bad.first() {
            self.errors.push(format!(
                "{} of {} cells differ from their pins (first: {})",
                bad.len(),
                cells.len(),
                first.id
            ));
        }
        let Some(pin) = pins.set(k) else {
            self.errors.push(format!("no pins for seed set {k}"));
            return;
        };
        if pin.output != output {
            self.errors.push(format!(
                "output digest {output} differs from pin {}",
                pin.output
            ));
        }
        let observed = identity.render();
        let same = if matrix_only {
            // `cells=.. runs=..` are the leading fields.
            let matrix = |s: &str| s.split(' ').take(2).collect::<Vec<_>>().join(" ");
            matrix(&observed) == matrix(&pin.identity)
        } else {
            observed == pin.identity
        };
        if !same {
            self.errors.push(format!(
                "work identity `{observed}` differs from pin `{}`",
                pin.identity
            ));
        }
    }

    /// Counts every cell of seed set `k` as failed: the campaign
    /// panicked.
    pub fn panicked(&mut self, pins: &Pins, k: u64) {
        let cells = pins
            .set(k)
            .and_then(|p| {
                p.identity
                    .split_whitespace()
                    .next()?
                    .strip_prefix("cells=")?
                    .parse()
                    .ok()
            })
            .unwrap_or(1);
        self.attempted += cells;
        self.failed += cells;
        self.errors.push("campaign panicked".to_owned());
    }

    /// The share of attempted cells that differ from their pins.
    pub fn cell_error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// No cell differs and no check failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(id: &str, digest: &str) -> CellDigest {
        CellDigest {
            id: id.into(),
            digest: digest.into(),
        }
    }

    #[test]
    fn render_parse_round_trip_and_mismatch_count() {
        let identity = Identity {
            cells: 2,
            runs: 4,
            ..Identity::default()
        };
        let pins = Pins::from_reference([(
            0,
            "abc".to_owned(),
            identity.clone(),
            vec![cell("a/t/1", "d1"), cell("b/t/1", "d2")],
        )])
        .unwrap();
        let parsed = Pins::parse(&pins.render("header")).unwrap();
        assert_eq!(parsed.set(0).unwrap().identity, identity.render());
        assert_eq!(parsed.set(0).unwrap().output, "abc");
        let seen = [
            cell("a/t/1", "d1"),
            cell("b/t/1", "XX"),
            cell("c/t/1", "d3"),
        ];
        let bad: Vec<&str> = parsed
            .mismatches(&seen)
            .iter()
            .map(|c| c.id.as_str())
            .collect();
        assert_eq!(bad, ["b/t/1", "c/t/1"]);
    }

    #[test]
    fn conflicting_shared_cells_are_refused() {
        let id = Identity::default();
        let result = Pins::from_reference([
            (0, "x".to_owned(), id.clone(), vec![cell("a", "1")]),
            (1, "y".to_owned(), id, vec![cell("a", "2")]),
        ]);
        assert!(result.is_err());
    }
}
