//! CATG — *Checkers and Automatic Test Generation*: the common reusable
//! verification environment for BCA and RTL models.
//!
//! This crate is the paper's primary contribution, rebuilt in Rust. In the
//! paper, CATG is an `e`-language library of STBus harnesses, monitors,
//! protocol checkers, a scoreboard and functional coverage, plugged onto
//! either the RTL design (through NCSim) or the SystemC BCA model (through
//! a VHDL wrapper). Here the seam is the [`stbus_protocol::DutView`]
//! trait, and every environment component consumes the same per-cycle
//! [`CycleRecord`] port samples regardless of which view produced them:
//!
//! * [`InitiatorBfm`] / [`TargetBfm`] — harnesses: constrained-random
//!   traffic generation and reactive memory-model targets, fully
//!   deterministic per seed (the paper: "It applies same test cases on
//!   both with same seeds");
//! * [`PortMonitor`] — reassembles cells into packets and transactions;
//! * [`ProtocolChecker`] — enforces the [`stbus_protocol::rules`]
//!   catalogue at every port, plus a starvation watchdog;
//! * [`Scoreboard`] — end-to-end data integrity against a reference
//!   memory;
//! * [`FunctionalCoverage`] — the functional-coverage model whose 100%
//!   goal gates sign-off;
//! * [`Testbench`] — the Figure 2/6 architecture: harnesses around a
//!   pluggable DUT, running a [`TestSpec`] for a seed and producing a
//!   [`RunResult`];
//! * [`tests_lib`] — the twelve generic test cases of the paper's §5;
//! * [`LegacyTestbench`] — the *past flow*: the model owner's
//!   write-then-read SystemC harness with visual checks, kept for the
//!   bug-detection comparison (E2);
//! * [`VcdDump`] — the per-run waveform dump consumed by the `stba`
//!   analyzer for the bus-accurate comparison;
//! * [`cell`] — the one cell primitive every campaign mode runs its
//!   `{config, test, seed}` work through, over views described by
//!   [`ViewSpec`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
mod checker;
mod constraint;
mod coverage;
mod harness;
mod legacy;
mod memory;
mod monitor;
mod record;
mod report;
mod scoreboard;
mod sequence;
mod target;
mod testbench;
pub mod tests_lib;
mod vcd_dump;
mod views;

pub use checker::{CheckerReport, ProtocolChecker, Violation, ViolationKind};
pub use constraint::{ConstraintModel, Implication, Pred, TransactionPlan};
pub use coverage::{CoverageGroup, CoverageReport, FunctionalCoverage, HoleId};
pub use harness::{InitiatorBfm, InitiatorStats};
pub use legacy::{LegacyOutcome, LegacyTestbench};
pub use memory::SparseMemory;
pub use monitor::{MonitorEvent, PortMonitor, PortSide};
pub use record::{CycleRecord, PortId};
pub use scoreboard::{Scoreboard, ScoreboardError};
pub use sequence::{SequenceError, SequenceRunner};
pub use target::{TargetBfm, TargetProfile};
pub use testbench::{RunResult, TestSpec, Testbench, TestbenchOptions, PORT_LOG_CYCLES};
pub use vcd_dump::{port_var_names, VcdDump, CYCLE_TIME};

/// The dump's nanoseconds-per-cycle constant, for analyzer callers.
pub fn vcd_cycle_time() -> u64 {
    vcd_dump::CYCLE_TIME
}
pub use views::{build_view, ViewSpec};

/// The simulation backend an RTL [`ViewSpec`] is elaborated onto.
pub use sim_kernel::SimBackend;
