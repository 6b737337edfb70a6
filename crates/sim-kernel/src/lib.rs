//! An event-driven digital-logic simulation kernel.
//!
//! This crate is the substrate that plays the role NCSim plays in the paper
//! *"Common Reusable Verification Environment for BCA and RTL Models"*
//! (Falconeri et al., DATE 2004): a simulator with typed signals,
//! delta-cycle semantics, combinational processes sensitive to signal
//! changes, clocked processes sensitive to edges, waveform tracing and
//! process-activity ("code") coverage.
//!
//! Signals are typed at the handle and stored as words: every value type
//! implements [`WordValue`] (`bool`, `u8`, `u16`, `u32`, `u64` and the
//! four-state [`Logic`]), and the kernel keeps one committed `u64` word,
//! one staged word and a staged flag per signal. Reads, writes, commits,
//! edge detection and tracing work on those words, with no per-access
//! type dispatch; debug builds still check each access against the type
//! the signal was registered with. The levelized [`CompiledSim`] stores
//! the same words.
//!
//! The RTL view of the STBus node (`stbus-rtl`) is written as processes on
//! this kernel; the BCA view deliberately bypasses it, which reproduces the
//! BCA-vs-RTL simulation-speed gap the paper's introduction motivates.
//!
//! # Example
//!
//! A two-process divider-by-two driven by a clock:
//!
//! ```
//! use sim_kernel::{Simulator, Edge};
//!
//! # fn main() -> Result<(), sim_kernel::SimError> {
//! let mut sim = Simulator::new();
//! let clk = sim.add_signal("clk", false);
//! let q = sim.add_signal("q", false);
//!
//! sim.add_clocked_process("div2", clk, Edge::Rising, move |ctx| {
//!     let cur = ctx.get(q);
//!     ctx.set(q, !cur);
//! });
//!
//! let clock = sim.add_clock(clk, 10);
//! sim.run_for(100)?;
//! assert_eq!(sim.value(q), true); // 5 rising edges seen, q toggled 5 times
//! # let _ = clock;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod compiled;
mod coverage;
mod error;
mod logic;
mod process;
mod scheduler;
mod signal;
mod stats;
mod time;
mod trace;

pub use clock::ClockId;
pub use compiled::{CompiledCheckpoint, CompiledCtx, CompiledSim, CompiledStats, SimBackend};
pub use coverage::{ActivityCoverage, BranchActivity, BranchId, ProcessActivity};
pub use error::SimError;
pub use logic::{Bits, Logic};
pub use process::{Edge, ProcCtx, ProcessId};
pub use scheduler::{SimCheckpoint, Simulator};
pub use signal::{Signal, SignalId, WordValue};
pub use stats::KernelStats;
pub use time::SimTime;
pub use trace::{ChangeRecord, TraceSink, VecTrace};
