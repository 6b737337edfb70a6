//! Simulation processes and the context handed to their bodies.

use crate::coverage::BranchId;
use crate::signal::{Signal, SignalId, SignalSlot, SignalValue, TypedStore};
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
/// A delayed signal write scheduled by [`ProcCtx::set_after`].
pub(crate) type DelayedWrite = (u64, SignalId, Box<dyn FnOnce(&mut SignalSlot)>);

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
    pub(crate) signals: &'a mut Vec<SignalSlot>,
    pub(crate) written: &'a mut Vec<SignalId>,
    pub(crate) delayed: &'a mut Vec<DelayedWrite>,
    pub(crate) branch_hits: &'a mut Vec<u64>,
    pub(crate) time: SimTime,
    pub(crate) proc_id: ProcessId,
}

impl<'a> ProcCtx<'a> {
    /// Reads the current value of a signal.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this simulator or the type
    /// does not match — both are programming errors, not runtime conditions.
    pub fn get<T: SignalValue>(&self, sig: Signal<T>) -> T {
        let slot = &self.signals[sig.id.index()];
        slot.store
            .as_any()
            .downcast_ref::<TypedStore<T>>()
            .unwrap_or_else(|| panic!("signal {} read with wrong type", slot.name))
            .current
            .clone()
    }

    /// Schedules `value` onto `sig` for the commit phase of this delta.
    ///
    /// The written value becomes visible to other processes in the *next*
    /// delta cycle, matching HDL nonblocking-assignment semantics.
    ///
    /// # Panics
    ///
    /// Panics on a type mismatch between handle and signal.
    pub fn set<T: SignalValue>(&mut self, sig: Signal<T>, value: T) {
        let store = self.signals[sig.id.index()]
            .store
            .as_any_mut()
            .downcast_mut::<TypedStore<T>>()
            .unwrap_or_else(|| panic!("signal write with wrong type"));
        if store.stage(value) {
            self.written.push(sig.id);
        }
    }

    /// Schedules `value` onto `sig` after `delay` ticks of simulated time.
    ///
    /// A zero delay behaves like [`ProcCtx::set`].
    pub fn set_after<T: SignalValue>(&mut self, sig: Signal<T>, value: T, delay: u64) {
        if delay == 0 {
            self.set(sig, value);
            return;
        }
        self.delayed.push((
            delay,
            sig.id,
            Box::new(move |slot: &mut SignalSlot| {
                if let Some(store) = slot.store.as_any_mut().downcast_mut::<TypedStore<T>>() {
                    store.pending = Some(value);
                }
            }),
        ));
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

    /// The identity of the running process.
    pub fn current_process(&self) -> ProcessId {
        self.proc_id
    }
}
