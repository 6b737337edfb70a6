//! STBA — the STBus Analyzer.
//!
//! Paper §4: "STBus Analyzer (STBA), an STBus internal tool, compares
//! signals information at each port level. It is automatically called by
//! the regression tool and it extracts from VCD files, got after
//! regression tests, STBus transaction information. The rate that is
//! calculated at each port level is the number of cycles RTL and BCA
//! signals port are aligned over total number of clock cycles. The
//! targeted value, in order to consider BCA model signed off is 99%."
//!
//! This crate reimplements that tool. Its comparators work on the typed
//! per-port [`Trace`] a regression run records for each design view: the
//! per-port cycle alignment rate ([`compare_traces`]) and the committed
//! transaction streams ([`compare_trace_transactions`]). The paper's
//! file-based flow — parse two VCD dumps, group variables by port scope,
//! sample them on the common clock grid — is a thin adapter in front of
//! the same comparators ([`compare_vcd`], [`compare_transactions`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The paper's sign-off rate: "The targeted value, in order to consider
/// BCA model signed off is 99%." Every alignment verdict — the regression
/// table, the sign-off gate, the qualification detectors and the
/// experiments — reads this one figure.
pub const SIGNOFF_RATE: f64 = 0.99;

mod align;
mod extract;
mod trace;
mod txalign;

pub use align::{
    compare_traces, compare_traces_with, compare_vcd, compare_vcd_with, AlignmentReport,
    CompareVcdError, PortAlignment,
};
pub use extract::{extract_trace_transfers, extract_transfers, ExtractedTransfer, TransferPhase};
pub use trace::{PortLayout, PortTrace, Trace, TraceVar};
pub use txalign::{
    compare_trace_transactions, compare_trace_transactions_with, compare_transactions,
    compare_transactions_with,
};
