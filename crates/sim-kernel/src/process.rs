//! Simulation processes and the context handed to their bodies.

use crate::coverage::BranchId;
use crate::signal::{Signal, SignalId, SignalSlot, WordValue};
use crate::time::SimTime;

/// Identifies a registered process within one [`Simulator`].
///
/// [`Simulator`]: crate::Simulator
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ProcessId(pub(crate) u32);

impl ProcessId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Which clock edge a clocked process is sensitive to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Edge {
    /// Triggered on a 0 → 1 transition.
    Rising,
    /// Triggered on a 1 → 0 transition.
    Falling,
    /// Triggered on any change of the signal.
    Any,
}

/// A boxed process body.
pub(crate) type ProcessBody = Box<dyn FnMut(&mut ProcCtx<'_>)>;
/// A delayed signal write scheduled by [`ProcCtx::set_after`]: the
/// delay, the signal and the word it will stage.
pub(crate) type DelayedWrite = (u64, SignalId, u64);

pub(crate) struct ProcessSlot {
    pub name: String,
    pub body: ProcessBody,
    pub runs: u64,
    /// Combinational/Any-sensitive processes run once at initialization;
    /// edge-triggered processes wait for their first edge, like an HDL
    /// process suspended on `wait until rising_edge(clk)`.
    pub run_at_init: bool,
}

/// The execution context passed to a process body.
///
/// Provides read access to current signal values and two-phase writes that
/// take effect when the current delta cycle commits.
pub struct ProcCtx<'a> {
    pub(crate) signals: &'a mut [SignalSlot],
    pub(crate) written: &'a mut Vec<SignalId>,
    pub(crate) delayed: &'a mut Vec<DelayedWrite>,
    pub(crate) branch_hits: &'a mut Vec<u64>,
    pub(crate) time: SimTime,
}

impl<'a> ProcCtx<'a> {
    /// Reads the current value of a signal.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this simulator, and in
    /// debug builds if the type does not match — both are programming
    /// errors, not runtime conditions.
    pub fn get<T: WordValue>(&self, sig: Signal<T>) -> T {
        self.signals[sig.id.index()].get()
    }

    /// Schedules `value` onto `sig` for the commit phase of this delta.
    ///
    /// The written value becomes visible to other processes in the *next*
    /// delta cycle, matching HDL nonblocking-assignment semantics.
    ///
    /// # Panics
    ///
    /// In debug builds, on a type mismatch between handle and signal.
    pub fn set<T: WordValue>(&mut self, sig: Signal<T>, value: T) {
        let slot = &mut self.signals[sig.id.index()];
        slot.check_type::<T>();
        if slot.stage(value.to_word()) {
            self.written.push(sig.id);
        }
    }

    /// Schedules `value` onto `sig` after `delay` ticks of simulated time.
    ///
    /// A zero delay behaves like [`ProcCtx::set`]. A timed write stages
    /// its value even if it equals the one committed then; the commit
    /// decides whether anything changed.
    pub fn set_after<T: WordValue>(&mut self, sig: Signal<T>, value: T, delay: u64) {
        if delay == 0 {
            self.set(sig, value);
            return;
        }
        self.signals[sig.id.index()].check_type::<T>();
        self.delayed.push((delay, sig.id, value.to_word()));
    }

    /// Records a hit on a coverage branch point.
    ///
    /// Branch points are registered with
    /// [`Simulator::add_branch`](crate::Simulator::add_branch) and reported
    /// through [`ActivityCoverage`](crate::ActivityCoverage); they stand in
    /// for the line/branch code-coverage metrics the paper collects on the
    /// RTL view.
    pub fn cov(&mut self, branch: BranchId) {
        self.branch_hits[branch.index()] += 1;
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.time
    }
}
