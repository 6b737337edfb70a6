//! The repository benchmark: the time from launching a verification
//! campaign to holding its report, measured end to end, plus a separate
//! traced run that splits that time over the layers the campaign crosses.
//!
//! Three workloads, each a closed loop with one caller running one
//! campaign after another at `jobs = 1` on the program's default engine:
//!
//! * `regress-cold` — the default regression campaign (40 standard
//!   configurations × the 12-test library × two seeds on RTL + BCA, with
//!   waveform comparison, no cell store);
//! * `regress-warm` — the same campaign answered from a cell store that
//!   set-up filled;
//! * `qualify` — the mutation qualification campaign over the whole
//!   catalogue.
//!
//! Every pass is checked against pinned per-cell outcomes
//! ([`pins`]). The traced run ([`trace`]) re-drives the same campaigns
//! through the layers' public functions with timers around every call,
//! and proves it did the same work as the untraced campaign before any
//! of its figures are reported.

#![forbid(unsafe_code)]

pub mod host;
pub mod pins;
pub mod qualify;
pub mod regress;
pub mod trace;

/// What one campaign did, in counts that repeat exactly for identical
/// work: two commits showing the same identity did the same work.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Identity {
    /// Matrix cells attempted.
    pub cells: u64,
    /// Testbench runs (a cell runs one or more views).
    pub runs: u64,
    /// Simulated cycles on the RTL view.
    pub rtl_cycles: u64,
    /// Simulated cycles on the BCA view.
    pub bca_cycles: u64,
    /// Simulated cycles on the TLM view.
    pub tlm_cycles: u64,
    /// Runs that reached the testbench cycle limit without draining.
    pub hung: u64,
}

impl Identity {
    /// The one-line `key=value` form used in pins and in the output.
    pub fn render(&self) -> String {
        format!(
            "cells={} runs={} rtl_cycles={} bca_cycles={} tlm_cycles={} hung={}",
            self.cells, self.runs, self.rtl_cycles, self.bca_cycles, self.tlm_cycles, self.hung
        )
    }
}

/// One cell's outcome in canonical form: a stable identifier and a
/// digest of everything the report states about the cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellDigest {
    /// `config/test/seed`-style identifier, unique within a workload.
    pub id: String,
    /// Digest of the cell's canonical outcome text.
    pub digest: String,
}

/// Digest of a canonical text: the 128-bit FNV-1a key the cell store
/// uses, rendered as 32 hex digits.
pub fn digest(text: &str) -> String {
    cache::Key::from_parts([text]).as_str().to_owned()
}
