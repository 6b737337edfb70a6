//! The simulator: signal arena, process scheduling, delta cycles and the
//! timed event queue.

use crate::clock::{ClockId, ClockSpec};
use crate::coverage::{ActivityCoverage, BranchActivity, BranchId, ProcessActivity};
use crate::error::SimError;
use crate::logic::Bits;
use crate::process::{DelayedWrite, Edge, ProcCtx, ProcessId, ProcessSlot};
use crate::signal::{Signal, SignalId, SignalSlot, WordValue};
use crate::stats::{KernelMetrics, KernelStats};
use crate::time::SimTime;
use crate::trace::TraceSink;
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const DEFAULT_DELTA_LIMIT: u32 = 1000;

trait AnyTraceSink: TraceSink {
    fn as_any(&self) -> &dyn Any;
}

impl<T: TraceSink + Any> AnyTraceSink for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[derive(Clone)]
enum EventAction {
    ClockToggle(ClockId),
    Write(SignalId, u64),
}

#[derive(Clone)]
struct EventEntry {
    time: SimTime,
    seq: u64,
    action: EventAction,
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Every mutable part of a [`Simulator`] at one instant, taken by
/// [`Simulator::checkpoint`] and restored by [`Simulator::rewind`]: each
/// signal's committed and staged words, process run counts, branch hits,
/// time, the timed-event queue and its sequence counter, clock enables,
/// the trigger and write lists, the initialization flag and the work
/// counters. The netlist itself (signals, processes, sensitivity) is not
/// copied: it never changes once the simulator runs.
pub struct SimCheckpoint {
    words: Vec<(u64, u64, bool)>,
    runs: Vec<u64>,
    branch_hits: Vec<u64>,
    time: SimTime,
    events: BinaryHeap<Reverse<EventEntry>>,
    event_seq: u64,
    clocks_enabled: Vec<bool>,
    triggered: Vec<ProcessId>,
    written: Vec<SignalId>,
    initialized: bool,
    total_deltas: u64,
    stats: KernelStats,
}

/// An event-driven simulator with delta-cycle semantics.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct Simulator {
    signals: Vec<SignalSlot>,
    processes: Vec<ProcessSlot>,
    branch_names: Vec<String>,
    branch_hits: Vec<u64>,
    time: SimTime,
    events: BinaryHeap<Reverse<EventEntry>>,
    event_seq: u64,
    clocks: Vec<ClockSpec>,
    trace: Option<Box<dyn AnyTraceSink>>,
    delta_limit: u32,
    /// Processes queued to run in the next delta.
    triggered: Vec<ProcessId>,
    trigger_marks: Vec<bool>,
    /// Signals with uncommitted pending values.
    written: Vec<SignalId>,
    initialized: bool,
    total_deltas: u64,
    stats: KernelStats,
    metrics: Option<KernelMetrics>,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// Creates an empty simulator at time zero.
    pub fn new() -> Self {
        Simulator {
            signals: Vec::new(),
            processes: Vec::new(),
            branch_names: Vec::new(),
            branch_hits: Vec::new(),
            time: SimTime::ZERO,
            events: BinaryHeap::new(),
            event_seq: 0,
            clocks: Vec::new(),
            trace: None,
            delta_limit: DEFAULT_DELTA_LIMIT,
            triggered: Vec::new(),
            trigger_marks: Vec::new(),
            written: Vec::new(),
            initialized: false,
            total_deltas: 0,
            stats: KernelStats::default(),
            metrics: None,
        }
    }

    /// Overrides the delta-cycle convergence limit (default 1000).
    pub fn set_delta_limit(&mut self, limit: u32) {
        self.delta_limit = limit.max(1);
    }

    /// Registers a signal with an initial value; the name appears in traces.
    pub fn add_signal<T: WordValue>(&mut self, name: &str, init: T) -> Signal<T> {
        let id = SignalId(self.signals.len() as u32);
        self.signals.push(SignalSlot::new(name, init));
        Signal::new(id)
    }

    /// Registers a combinational process sensitive to any change of the
    /// given signals. The process also runs once at initialization.
    pub fn add_comb_process<F>(
        &mut self,
        name: &str,
        sensitivity: &[SignalId],
        body: F,
    ) -> ProcessId
    where
        F: FnMut(&mut ProcCtx<'_>) + 'static,
    {
        let id = self.push_process(name, body);
        for sig in sensitivity {
            self.signals[sig.index()].sensitive.push(id);
        }
        id
    }

    /// Registers a process sensitive to an edge of a `bool` clock signal.
    pub fn add_clocked_process<F>(
        &mut self,
        name: &str,
        clk: Signal<bool>,
        edge: Edge,
        body: F,
    ) -> ProcessId
    where
        F: FnMut(&mut ProcCtx<'_>) + 'static,
    {
        let id = self.push_process(name, body);
        self.attach_edge(clk.id(), edge, id);
        id
    }

    /// Registers edge sensitivity on an untyped signal handle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EdgeOnNonBool`] if `Edge::Rising`/`Edge::Falling`
    /// is requested on a signal whose value type is not `bool`.
    pub fn add_edge_process<F>(
        &mut self,
        name: &str,
        signal: SignalId,
        edge: Edge,
        body: F,
    ) -> Result<ProcessId, SimError>
    where
        F: FnMut(&mut ProcCtx<'_>) + 'static,
    {
        if !matches!(edge, Edge::Any) && !self.signals[signal.index()].is_bool {
            return Err(SimError::EdgeOnNonBool {
                signal: self.signals[signal.index()].name.clone(),
            });
        }
        let id = self.push_process(name, body);
        self.attach_edge(signal, edge, id);
        Ok(id)
    }

    fn push_process<F>(&mut self, name: &str, body: F) -> ProcessId
    where
        F: FnMut(&mut ProcCtx<'_>) + 'static,
    {
        let id = ProcessId(self.processes.len() as u32);
        self.processes.push(ProcessSlot {
            name: name.to_owned(),
            body: Box::new(body),
            runs: 0,
            run_at_init: true,
        });
        self.trigger_marks.push(false);
        id
    }

    fn attach_edge(&mut self, signal: SignalId, edge: Edge, id: ProcessId) {
        if !matches!(edge, Edge::Any) {
            self.processes[id.index()].run_at_init = false;
        }
        let slot = &mut self.signals[signal.index()];
        match edge {
            Edge::Rising => slot.sensitive_rising.push(id),
            Edge::Falling => slot.sensitive_falling.push(id),
            Edge::Any => slot.sensitive.push(id),
        }
    }

    /// Registers a named coverage branch point (see [`ProcCtx::cov`]).
    pub fn add_branch(&mut self, name: &str) -> BranchId {
        let id = BranchId(self.branch_names.len() as u32);
        self.branch_names.push(name.to_owned());
        self.branch_hits.push(0);
        id
    }

    /// Attaches a free-running clock toggling `signal` every `half_period`
    /// ticks, starting at the current time plus one half-period.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ZeroClockPeriod`] when `half_period == 0`.
    pub fn add_clock(
        &mut self,
        signal: Signal<bool>,
        half_period: u64,
    ) -> Result<ClockId, SimError> {
        if half_period == 0 {
            return Err(SimError::ZeroClockPeriod);
        }
        let id = ClockId(self.clocks.len() as u32);
        self.clocks.push(ClockSpec {
            signal: signal.id(),
            half_period,
            enabled: true,
        });
        let at = self.time + half_period;
        self.push_event(at, EventAction::ClockToggle(id));
        Ok(id)
    }

    /// Stops a clock; pending toggles are ignored.
    pub fn stop_clock(&mut self, clock: ClockId) {
        self.clocks[clock.index()].enabled = false;
    }

    fn push_event(&mut self, time: SimTime, action: EventAction) {
        let seq = self.event_seq;
        self.event_seq += 1;
        self.events.push(Reverse(EventEntry { time, seq, action }));
    }

    /// Drives a pending value onto a signal from outside any process.
    ///
    /// The value commits on the next [`Simulator::settle`] (or any run call).
    ///
    /// # Panics
    ///
    /// In debug builds, on a handle/value type mismatch.
    pub fn drive<T: WordValue>(&mut self, sig: Signal<T>, value: T) {
        let slot = &mut self.signals[sig.id().index()];
        slot.check_type::<T>();
        if slot.stage(value.to_word()) {
            self.written.push(sig.id());
        }
    }

    /// Reads the current value of a signal.
    ///
    /// # Panics
    ///
    /// In debug builds, on a handle/value type mismatch.
    pub fn value<T: WordValue>(&self, sig: Signal<T>) -> T {
        self.signals[sig.id().index()].get()
    }

    /// The registered name of a signal.
    pub fn signal_name(&self, id: SignalId) -> &str {
        &self.signals[id.index()].name
    }

    /// The trace width of a signal in bits.
    pub fn signal_width(&self, id: SignalId) -> usize {
        self.signals[id.index()].width
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// A snapshot of the kernel's cumulative work counters.
    pub fn kernel_stats(&self) -> KernelStats {
        KernelStats {
            delta_cycles: self.total_deltas,
            ..self.stats
        }
    }

    /// Publishes this simulator's work counters into `registry` under the
    /// `kernel.*` metric names (`kernel.delta_cycles`,
    /// `kernel.process_activations`, `kernel.signal_commits`,
    /// `kernel.settle_calls`, `kernel.timed_events`, `kernel.time_steps`
    /// and the `kernel.deltas_per_settle` histogram).
    ///
    /// Counters accumulate from the moment of attachment; several
    /// simulators may share one registry, in which case their work adds
    /// up — exactly what a regression campaign wants.
    pub fn attach_metrics(&mut self, registry: &telemetry::MetricsRegistry) {
        self.metrics = Some(KernelMetrics::new(registry));
    }

    /// Captures every mutable part of the simulator (see
    /// [`SimCheckpoint`]) for a later [`Simulator::rewind`].
    pub fn checkpoint(&self) -> SimCheckpoint {
        SimCheckpoint {
            words: self
                .signals
                .iter()
                .map(|s| (s.cur, s.pend, s.has_pend))
                .collect(),
            runs: self.processes.iter().map(|p| p.runs).collect(),
            branch_hits: self.branch_hits.clone(),
            time: self.time,
            events: self.events.clone(),
            event_seq: self.event_seq,
            clocks_enabled: self.clocks.iter().map(|c| c.enabled).collect(),
            triggered: self.triggered.clone(),
            written: self.written.clone(),
            initialized: self.initialized,
            total_deltas: self.total_deltas,
            stats: self.stats,
        }
    }

    /// Restores the simulator to `checkpoint`, exactly: what runs next
    /// behaves, counts and covers as it would have from the checkpoint.
    /// Any attached metrics registry is detached, so a rewound simulator
    /// publishes nothing until [`Simulator::attach_metrics`] is called
    /// again. An installed trace sink keeps what it recorded.
    ///
    /// # Panics
    ///
    /// If the checkpoint was taken from a simulator with another netlist.
    pub fn rewind(&mut self, checkpoint: &SimCheckpoint) {
        assert!(
            checkpoint.words.len() == self.signals.len()
                && checkpoint.runs.len() == self.processes.len()
                && checkpoint.branch_hits.len() == self.branch_hits.len()
                && checkpoint.clocks_enabled.len() == self.clocks.len(),
            "checkpoint taken from another netlist"
        );
        for (slot, &(cur, pend, has_pend)) in self.signals.iter_mut().zip(&checkpoint.words) {
            slot.cur = cur;
            slot.pend = pend;
            slot.has_pend = has_pend;
        }
        for (process, &runs) in self.processes.iter_mut().zip(&checkpoint.runs) {
            process.runs = runs;
        }
        self.branch_hits.clone_from(&checkpoint.branch_hits);
        self.time = checkpoint.time;
        self.events.clone_from(&checkpoint.events);
        self.event_seq = checkpoint.event_seq;
        for (clock, &enabled) in self.clocks.iter_mut().zip(&checkpoint.clocks_enabled) {
            clock.enabled = enabled;
        }
        self.trigger_marks.fill(false);
        self.triggered.clone_from(&checkpoint.triggered);
        for id in &self.triggered {
            self.trigger_marks[id.index()] = true;
        }
        self.written.clone_from(&checkpoint.written);
        self.initialized = checkpoint.initialized;
        self.total_deltas = checkpoint.total_deltas;
        self.stats = checkpoint.stats;
        self.metrics = None;
    }

    /// Installs a trace sink; only signals marked with
    /// [`Simulator::trace_signal`] (or all, after
    /// [`Simulator::trace_all`]) are reported.
    pub fn set_trace<S: TraceSink + Any>(&mut self, sink: S) {
        self.trace = Some(Box::new(sink));
    }

    /// Returns the installed trace sink, if it has type `S`.
    pub fn trace<S: TraceSink + Any>(&self) -> Option<&S> {
        self.trace.as_ref()?.as_any().downcast_ref::<S>()
    }

    /// Marks one signal for tracing.
    pub fn trace_signal(&mut self, id: SignalId) {
        self.signals[id.index()].traced = true;
    }

    /// Marks every signal for tracing.
    pub fn trace_all(&mut self) {
        for s in &mut self.signals {
            s.traced = true;
        }
    }

    /// Runs delta cycles at the current time until the design is stable.
    ///
    /// On the first call all processes execute once (HDL-style
    /// initialization).
    ///
    /// # Errors
    ///
    /// [`SimError::DeltaOverflow`] if convergence is not reached.
    pub fn settle(&mut self) -> Result<(), SimError> {
        if !self.initialized {
            self.initialized = true;
            for i in 0..self.processes.len() {
                if self.processes[i].run_at_init {
                    enqueue(
                        &mut self.trigger_marks,
                        &mut self.triggered,
                        &[ProcessId(i as u32)],
                    );
                }
            }
        }
        self.commit_written();
        let mut deltas = 0u32;
        let mut overflow = false;
        while !self.triggered.is_empty() {
            deltas += 1;
            self.total_deltas += 1;
            if deltas > self.delta_limit {
                overflow = true;
                break;
            }
            self.run_triggered();
            self.commit_written();
        }
        self.stats.settle_calls += 1;
        self.stats.max_deltas_per_settle = self.stats.max_deltas_per_settle.max(deltas);
        if let Some(m) = &self.metrics {
            m.settle_calls.inc();
            m.delta_cycles.add(u64::from(deltas));
            m.deltas_per_settle.observe(u64::from(deltas));
        }
        if overflow {
            return Err(SimError::DeltaOverflow {
                time: self.time,
                limit: self.delta_limit,
            });
        }
        Ok(())
    }

    /// Runs every process queued for this delta. The queue is walked in
    /// place and cleared afterwards: nothing enqueues while bodies run
    /// (their writes only stage values), so no batch copy is needed.
    fn run_triggered(&mut self) {
        for id in &self.triggered {
            self.trigger_marks[id.index()] = false;
        }
        let mut delayed: Vec<DelayedWrite> = Vec::new();
        for &id in &self.triggered {
            let process = &mut self.processes[id.index()];
            process.runs += 1;
            let mut ctx = ProcCtx {
                signals: &mut self.signals,
                written: &mut self.written,
                delayed: &mut delayed,
                branch_hits: &mut self.branch_hits,
                time: self.time,
            };
            (process.body)(&mut ctx);
        }
        let activations = self.triggered.len() as u64;
        self.triggered.clear();
        self.stats.process_activations += activations;
        if let Some(m) = &self.metrics {
            m.process_activations.add(activations);
        }
        for (delay, id, word) in delayed {
            let at = self.time + delay;
            self.push_event(at, EventAction::Write(id, word));
        }
    }

    /// Commits every staged write and queues the processes its changes
    /// wake, in commit order. The write list is walked in place and
    /// cleared afterwards, so a delta allocates nothing here.
    fn commit_written(&mut self) {
        let mut commits = 0u64;
        for &id in &self.written {
            let slot = &mut self.signals[id.index()];
            if !slot.commit() {
                continue;
            }
            commits += 1;
            enqueue(
                &mut self.trigger_marks,
                &mut self.triggered,
                &slot.sensitive,
            );
            if slot.is_bool {
                // A change on a bool is always exactly one edge.
                let edge = if slot.cur != 0 {
                    &slot.sensitive_rising
                } else {
                    &slot.sensitive_falling
                };
                enqueue(&mut self.trigger_marks, &mut self.triggered, edge);
            }
            if slot.traced {
                if let Some(sink) = self.trace.as_mut() {
                    sink.on_change(
                        self.time,
                        id,
                        &slot.name,
                        &Bits::from_u64(slot.cur, slot.width),
                    );
                }
            }
        }
        self.written.clear();
        self.stats.signal_commits += commits;
        if let Some(m) = &self.metrics {
            m.signal_commits.add(commits);
        }
    }

    /// Advances simulated time to `target`, processing all timed events and
    /// the delta cycles they cause.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::DeltaOverflow`] from any time step.
    pub fn run_until(&mut self, target: SimTime) -> Result<(), SimError> {
        self.settle()?;
        loop {
            let next_time = match self.events.peek() {
                Some(Reverse(e)) if e.time <= target => e.time,
                _ => break,
            };
            self.time = next_time;
            self.stats.time_steps += 1;
            let mut popped = 0u64;
            while let Some(Reverse(e)) = self.events.peek() {
                if e.time != next_time {
                    break;
                }
                let Reverse(entry) = self.events.pop().expect("peeked");
                self.apply_event(entry.action);
                popped += 1;
            }
            self.stats.timed_events += popped;
            if let Some(m) = &self.metrics {
                m.time_steps.inc();
                m.timed_events.add(popped);
            }
            self.settle()?;
        }
        self.time = target;
        Ok(())
    }

    /// Advances simulated time by `ticks`.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::DeltaOverflow`].
    pub fn run_for(&mut self, ticks: u64) -> Result<(), SimError> {
        self.run_until(self.time + ticks)
    }

    fn apply_event(&mut self, action: EventAction) {
        match action {
            EventAction::ClockToggle(id) => {
                let (sig, half, enabled) = {
                    let c = &self.clocks[id.index()];
                    (c.signal, c.half_period, c.enabled)
                };
                if !enabled {
                    return;
                }
                let slot = &mut self.signals[sig.index()];
                if slot.force(slot.cur ^ 1) {
                    self.written.push(sig);
                }
                let at = self.time + half;
                self.push_event(at, EventAction::ClockToggle(id));
            }
            EventAction::Write(id, word) => {
                if self.signals[id.index()].force(word) {
                    self.written.push(id);
                }
            }
        }
    }

    /// Extracts the structural-coverage report.
    pub fn activity_coverage(&self) -> ActivityCoverage {
        ActivityCoverage {
            processes: self
                .processes
                .iter()
                .map(|p| ProcessActivity {
                    name: p.name.clone(),
                    runs: p.runs,
                })
                .collect(),
            branches: self
                .branch_names
                .iter()
                .zip(&self.branch_hits)
                .map(|(name, hits)| BranchActivity {
                    name: name.clone(),
                    hits: *hits,
                })
                .collect(),
        }
    }

    /// Number of registered signals.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Iterates over every registered signal id, in registration order.
    pub fn signal_ids(&self) -> impl Iterator<Item = SignalId> + '_ {
        (0..self.signals.len() as u32).map(SignalId)
    }
}

/// Queues each not-yet-queued process of `ids` for the next delta.
fn enqueue(marks: &mut [bool], queue: &mut Vec<ProcessId>, ids: &[ProcessId]) {
    for &id in ids {
        if !marks[id.index()] {
            marks[id.index()] = true;
            queue.push(id);
        }
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("time", &self.time)
            .field("signals", &self.signals.len())
            .field("processes", &self.processes.len())
            .field("pending_events", &self.events.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::Logic;
    use crate::trace::VecTrace;
    use std::cell::Cell;
    use std::rc::Rc;

    /// Adds a process sensitive to `sig` that counts its own wake-ups.
    fn wake_counter(sim: &mut Simulator, sig: SignalId) -> Rc<Cell<u32>> {
        let woken = Rc::new(Cell::new(0));
        let w = Rc::clone(&woken);
        sim.add_comb_process("observer", &[sig], move |_| w.set(w.get() + 1));
        woken
    }

    #[test]
    fn x_then_current_in_one_delta_commits_nothing() {
        let mut sim = Simulator::new();
        let go = sim.add_signal("go", false);
        let s = sim.add_signal("s", Logic::L0);
        sim.add_comb_process("writer", &[go.id()], move |ctx| {
            if ctx.get(go) {
                ctx.set(s, Logic::X);
                ctx.set(s, Logic::L0);
            }
        });
        let woken = wake_counter(&mut sim, s.id());
        sim.settle().unwrap();
        let commits = sim.kernel_stats().signal_commits;
        sim.drive(go, true);
        sim.settle().unwrap();
        assert_eq!(sim.value(s), Logic::L0, "the last write in the delta wins");
        assert_eq!(sim.kernel_stats().signal_commits, commits + 1, "only `go`");
        assert_eq!(woken.get(), 1, "initialization run only");
    }

    #[test]
    fn current_then_x_in_one_delta_commits_x() {
        let mut sim = Simulator::new();
        let go = sim.add_signal("go", false);
        let s = sim.add_signal("s", Logic::L0);
        sim.add_comb_process("writer", &[go.id()], move |ctx| {
            if ctx.get(go) {
                ctx.set(s, Logic::L0);
                ctx.set(s, Logic::X);
            }
        });
        let woken = wake_counter(&mut sim, s.id());
        sim.settle().unwrap();
        let commits = sim.kernel_stats().signal_commits;
        sim.drive(go, true);
        sim.settle().unwrap();
        assert_eq!(sim.value(s), Logic::X);
        assert_eq!(sim.kernel_stats().signal_commits, commits + 2);
        assert_eq!(woken.get(), 2);
    }

    #[test]
    fn redriving_the_current_value_wakes_and_traces_nothing() {
        let mut sim = Simulator::new();
        let go = sim.add_signal("go", 0u8);
        let a = sim.add_signal("a", 5u32);
        sim.add_comb_process("rewriter", &[go.id()], move |ctx| {
            let v = ctx.get(a);
            ctx.set(a, v);
        });
        let woken = wake_counter(&mut sim, a.id());
        sim.set_trace(VecTrace::default());
        sim.trace_all();
        sim.settle().unwrap();
        let commits = sim.kernel_stats().signal_commits;

        sim.drive(a, 5);
        assert!(sim.written.is_empty(), "a no-op drive stages nothing");
        sim.settle().unwrap();
        // A real change on `go` re-runs the rewriter, whose write of
        // `a`'s own value is suppressed the same way.
        sim.drive(go, 1);
        sim.settle().unwrap();

        assert_eq!(sim.value(a), 5);
        assert_eq!(woken.get(), 1, "initialization run only");
        assert_eq!(sim.kernel_stats().signal_commits, commits + 1, "only `go`");
        let t: &VecTrace = sim.trace().unwrap();
        assert_eq!(t.records.len(), 1);
        assert_eq!(t.records[0].name, "go");
    }

    #[test]
    fn traced_x_and_z_reach_the_sink_as_zero() {
        let mut sim = Simulator::new();
        let s = sim.add_signal("s", Logic::L1);
        sim.set_trace(VecTrace::default());
        sim.trace_all();
        for v in [Logic::X, Logic::L1, Logic::Z] {
            sim.drive(s, v);
            sim.settle().unwrap();
            assert_eq!(sim.value(s), v);
        }
        let t: &VecTrace = sim.trace().unwrap();
        let bits: Vec<bool> = t.records.iter().map(|r| r.value.bit(0)).collect();
        assert_eq!(bits, [false, true, false]);
        assert!(t.records.iter().all(|r| r.value.width() == 1));
    }

    #[test]
    fn set_after_of_the_current_value_commits_and_wakes_nothing() {
        let mut sim = Simulator::new();
        let go = sim.add_signal("go", false);
        let s = sim.add_signal("s", 9u16);
        sim.add_comb_process("delayer", &[go.id()], move |ctx| {
            if ctx.get(go) {
                let v = ctx.get(s);
                ctx.set_after(s, v, 5);
            }
        });
        let woken = wake_counter(&mut sim, s.id());
        sim.settle().unwrap();
        sim.drive(go, true);
        sim.settle().unwrap();
        let before = sim.kernel_stats();
        sim.run_for(10).unwrap();
        let after = sim.kernel_stats();
        assert_eq!(
            after.timed_events,
            before.timed_events + 1,
            "the write fired"
        );
        assert_eq!(
            after.signal_commits, before.signal_commits,
            "but changed nothing"
        );
        assert_eq!(woken.get(), 1, "initialization run only");
        assert_eq!(sim.value(s), 9);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "accessed with the wrong type")]
    fn wrong_type_read_panics_in_debug() {
        let mut other = Simulator::new();
        let foreign = other.add_signal("wide", 0u32);
        let mut sim = Simulator::new();
        sim.add_signal("flag", false);
        let _ = sim.value(foreign);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "accessed with the wrong type")]
    fn wrong_type_write_panics_in_debug() {
        let mut other = Simulator::new();
        let foreign = other.add_signal("wide", 0u32);
        let mut sim = Simulator::new();
        sim.add_signal("flag", false);
        sim.drive(foreign, 1);
    }

    #[test]
    fn clock_rising_edge_still_fires() {
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", false);
        let edges = Rc::new(Cell::new(0));
        let e = Rc::clone(&edges);
        sim.add_clocked_process("ff", clk, Edge::Rising, move |_| e.set(e.get() + 1));
        sim.settle().unwrap();
        sim.drive(clk, false);
        sim.settle().unwrap();
        assert_eq!(edges.get(), 0, "re-driving low is no edge");
        sim.drive(clk, true);
        sim.settle().unwrap();
        assert_eq!(edges.get(), 1);
        sim.drive(clk, true);
        sim.settle().unwrap();
        assert_eq!(edges.get(), 1, "re-driving high is no edge");
        sim.drive(clk, false);
        sim.drive(clk, true);
        sim.settle().unwrap();
        assert_eq!(
            edges.get(),
            1,
            "low then high again in one delta is no edge"
        );
        sim.drive(clk, false);
        sim.settle().unwrap();
        sim.drive(clk, true);
        sim.settle().unwrap();
        assert_eq!(edges.get(), 2);
    }

    #[test]
    fn drive_and_settle_commits() {
        let mut sim = Simulator::new();
        let s = sim.add_signal("s", 0u32);
        sim.drive(s, 42);
        sim.settle().unwrap();
        assert_eq!(sim.value(s), 42);
    }

    #[test]
    fn comb_process_follows_inputs() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", false);
        let b = sim.add_signal("b", false);
        let y = sim.add_signal("y", false);
        sim.add_comb_process("and_gate", &[a.id(), b.id()], move |ctx| {
            let v = ctx.get(a) && ctx.get(b);
            ctx.set(y, v);
        });
        sim.settle().unwrap();
        assert!(!sim.value(y));
        sim.drive(a, true);
        sim.drive(b, true);
        sim.settle().unwrap();
        assert!(sim.value(y));
        sim.drive(b, false);
        sim.settle().unwrap();
        assert!(!sim.value(y));
    }

    #[test]
    fn chained_comb_processes_converge() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 0u8);
        let b = sim.add_signal("b", 0u8);
        let c = sim.add_signal("c", 0u8);
        sim.add_comb_process("inc1", &[a.id()], move |ctx| {
            let v = ctx.get(a);
            ctx.set(b, v.wrapping_add(1));
        });
        sim.add_comb_process("inc2", &[b.id()], move |ctx| {
            let v = ctx.get(b);
            ctx.set(c, v.wrapping_add(1));
        });
        sim.drive(a, 10);
        sim.settle().unwrap();
        assert_eq!(sim.value(c), 12);
    }

    #[test]
    fn combinational_loop_reports_delta_overflow() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", false);
        let b = sim.add_signal("b", false);
        sim.add_comb_process("not1", &[a.id()], move |ctx| {
            let v = ctx.get(a);
            ctx.set(b, !v);
        });
        sim.add_comb_process("not2", &[b.id()], move |ctx| {
            let v = ctx.get(b);
            ctx.set(a, !v);
        });
        sim.set_delta_limit(50);
        let err = sim.settle().unwrap_err();
        assert!(matches!(err, SimError::DeltaOverflow { limit: 50, .. }));
    }

    #[test]
    fn clocked_process_sees_rising_edges_only() {
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", false);
        let count = sim.add_signal("count", 0u32);
        sim.add_clocked_process("counter", clk, Edge::Rising, move |ctx| {
            let v = ctx.get(count);
            ctx.set(count, v + 1);
        });
        sim.add_clock(clk, 5).unwrap();
        sim.run_for(50).unwrap(); // edges at 5(r),10(f),15(r)... rising at 5,15,25,35,45
        assert_eq!(sim.value(count), 5);
    }

    #[test]
    fn falling_edge_sensitivity() {
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", false);
        let count = sim.add_signal("count", 0u32);
        sim.add_clocked_process("counter", clk, Edge::Falling, move |ctx| {
            let v = ctx.get(count);
            ctx.set(count, v + 1);
        });
        sim.add_clock(clk, 5).unwrap();
        sim.run_for(50).unwrap(); // falling at 10,20,30,40,50
        assert_eq!(sim.value(count), 5);
    }

    #[test]
    fn nonblocking_semantics_shift_register() {
        // Two registers clocked on the same edge exchange values without
        // racing, because writes commit after all bodies ran.
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", false);
        let q0 = sim.add_signal("q0", 1u8);
        let q1 = sim.add_signal("q1", 0u8);
        sim.add_clocked_process("r0", clk, Edge::Rising, move |ctx| {
            let v = ctx.get(q1);
            ctx.set(q0, v);
        });
        sim.add_clocked_process("r1", clk, Edge::Rising, move |ctx| {
            let v = ctx.get(q0);
            ctx.set(q1, v);
        });
        sim.add_clock(clk, 10).unwrap();
        sim.run_for(20).unwrap(); // one rising edge at t=10
        assert_eq!(sim.value(q0), 0);
        assert_eq!(sim.value(q1), 1);
    }

    #[test]
    fn set_after_schedules_timed_write() {
        let mut sim = Simulator::new();
        let trig = sim.add_signal("trig", false);
        let out = sim.add_signal("out", 0u8);
        sim.add_comb_process("delayer", &[trig.id()], move |ctx| {
            if ctx.get(trig) {
                ctx.set_after(out, 7u8, 30);
            }
        });
        sim.settle().unwrap();
        sim.drive(trig, true);
        sim.run_for(10).unwrap();
        assert_eq!(sim.value(out), 0);
        sim.run_for(25).unwrap();
        assert_eq!(sim.value(out), 7);
    }

    #[test]
    fn trace_records_only_marked_signals() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 0u8);
        let b = sim.add_signal("b", 0u8);
        sim.set_trace(VecTrace::default());
        sim.trace_signal(a.id());
        sim.drive(a, 1);
        sim.drive(b, 1);
        sim.settle().unwrap();
        let t: &VecTrace = sim.trace().unwrap();
        assert_eq!(t.records.len(), 1);
        assert_eq!(t.records[0].name, "a");
    }

    #[test]
    fn redundant_write_does_not_retrigger() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", false);
        let runs = sim.add_signal("runs", 0u32);
        sim.add_comb_process("observer", &[a.id()], move |ctx| {
            let r = ctx.get(runs);
            ctx.set(runs, r + 1);
        });
        sim.settle().unwrap();
        let after_init = sim.value(runs);
        sim.drive(a, false); // same value as current
        sim.settle().unwrap();
        assert_eq!(sim.value(runs), after_init);
    }

    #[test]
    fn stop_clock_freezes_signal() {
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", false);
        let id = sim.add_clock(clk, 5).unwrap();
        sim.run_for(5).unwrap();
        assert!(sim.value(clk));
        sim.stop_clock(id);
        sim.run_for(50).unwrap();
        assert!(sim.value(clk));
    }

    #[test]
    fn zero_period_clock_rejected() {
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", false);
        assert_eq!(
            sim.add_clock(clk, 0).unwrap_err(),
            SimError::ZeroClockPeriod
        );
    }

    #[test]
    fn edge_process_on_non_bool_rejected() {
        let mut sim = Simulator::new();
        let s = sim.add_signal("bus", 0u32);
        let err = sim
            .add_edge_process("p", s.id(), Edge::Rising, |_| {})
            .unwrap_err();
        assert!(matches!(err, SimError::EdgeOnNonBool { .. }));
        // Any-sensitivity is fine on non-bool.
        assert!(sim.add_edge_process("q", s.id(), Edge::Any, |_| {}).is_ok());
    }

    #[test]
    fn activity_coverage_counts_runs_and_branches() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", false);
        let taken = sim.add_branch("p/taken");
        let not_taken = sim.add_branch("p/not_taken");
        sim.add_comb_process("p", &[a.id()], move |ctx| {
            if ctx.get(a) {
                ctx.cov(taken);
            } else {
                ctx.cov(not_taken);
            }
        });
        sim.settle().unwrap();
        sim.drive(a, true);
        sim.settle().unwrap();
        let cov = sim.activity_coverage();
        assert_eq!(cov.branch_coverage(), 1.0);
        assert_eq!(cov.process_coverage(), 1.0);
        assert_eq!(cov.processes[0].runs, 2);
    }

    #[test]
    fn run_until_is_idempotent_at_target() {
        let mut sim = Simulator::new();
        sim.run_until(SimTime::from_ticks(100)).unwrap();
        assert_eq!(sim.now(), SimTime::from_ticks(100));
        sim.run_until(SimTime::from_ticks(100)).unwrap();
        assert_eq!(sim.now(), SimTime::from_ticks(100));
    }

    #[test]
    fn kernel_stats_and_metrics_count_work() {
        let registry = telemetry::MetricsRegistry::new();
        let mut sim = Simulator::new();
        sim.attach_metrics(&registry);
        let clk = sim.add_signal("clk", false);
        let q = sim.add_signal("q", 0u32);
        sim.add_clocked_process("cnt", clk, Edge::Rising, move |ctx| {
            let v = ctx.get(q);
            ctx.set(q, v + 1);
        });
        sim.add_clock(clk, 5).unwrap();
        sim.run_for(50).unwrap(); // 10 toggles, 5 rising edges

        let stats = sim.kernel_stats();
        assert!(stats.delta_cycles > 0);
        assert_eq!(stats.process_activations, 5);
        // 10 clock commits + 5 counter commits.
        assert_eq!(stats.signal_commits, 15);
        assert_eq!(stats.timed_events, 10);
        assert_eq!(stats.time_steps, 10);
        assert!(stats.settle_calls >= 10);
        assert!(stats.max_deltas_per_settle >= 1);

        let snap = registry.snapshot();
        assert_eq!(snap.counters["kernel.delta_cycles"], stats.delta_cycles);
        assert_eq!(snap.counters["kernel.process_activations"], 5);
        assert_eq!(snap.counters["kernel.signal_commits"], 15);
        assert_eq!(snap.counters["kernel.timed_events"], 10);
        assert_eq!(snap.counters["kernel.time_steps"], 10);
        let hist = &snap.histograms["kernel.deltas_per_settle"];
        assert_eq!(hist.count, stats.settle_calls);
    }

    /// A clocked counter with a branch on its low bit and a follower
    /// writing through a timed delay: exercises values, events, clocks,
    /// branches and every work counter.
    fn counter_netlist() -> (Simulator, Signal<u32>, Signal<u32>) {
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", false);
        let q = sim.add_signal("q", 0u32);
        let echo = sim.add_signal("echo", 0u32);
        let odd = sim.add_branch("cnt/odd");
        sim.add_clocked_process("cnt", clk, Edge::Rising, move |ctx| {
            let v = ctx.get(q);
            if v % 2 == 1 {
                ctx.cov(odd);
            }
            ctx.set(q, v + 1);
        });
        sim.add_comb_process("echo", &[q.id()], move |ctx| {
            let v = ctx.get(q);
            ctx.set_after(echo, v, 3);
        });
        sim.add_clock(clk, 5).unwrap();
        (sim, q, echo)
    }

    #[test]
    fn rewind_restores_values_coverage_and_stats() {
        let (mut sim, q, echo) = counter_netlist();
        sim.run_for(23).unwrap();
        let checkpoint = sim.checkpoint();
        let (q0, echo0, now0) = (sim.value(q), sim.value(echo), sim.now());
        let (cov0, stats0) = (sim.activity_coverage(), sim.kernel_stats());

        let registry = telemetry::MetricsRegistry::new();
        sim.attach_metrics(&registry);
        sim.run_for(61).unwrap();
        let after = (sim.value(q), sim.value(echo), sim.activity_coverage());
        assert_ne!(sim.value(q), q0, "the run moved the counter");

        sim.rewind(&checkpoint);
        assert_eq!(
            (sim.value(q), sim.value(echo), sim.now()),
            (q0, echo0, now0)
        );
        assert_eq!(sim.activity_coverage(), cov0);
        assert_eq!(sim.kernel_stats(), stats0);

        // The same run again lands in the same state, pending timed
        // writes and clock toggles included, and the registry attached
        // before the rewind hears nothing of it.
        let published = registry.snapshot();
        sim.run_for(61).unwrap();
        assert_eq!(
            (sim.value(q), sim.value(echo), sim.activity_coverage()),
            after
        );
        assert_eq!(registry.snapshot(), published);

        let (mut fresh, _, _) = counter_netlist();
        fresh.run_for(23).unwrap();
        fresh.run_for(61).unwrap();
        assert_eq!(sim.kernel_stats(), fresh.kernel_stats());
    }

    #[test]
    fn unattached_simulator_still_counts_stats() {
        let mut sim = Simulator::new();
        let s = sim.add_signal("s", 0u32);
        sim.drive(s, 1);
        sim.settle().unwrap();
        let stats = sim.kernel_stats();
        assert_eq!(stats.signal_commits, 1);
        assert_eq!(stats.settle_calls, 1);
    }

    #[test]
    fn counter_with_enable_full_example() {
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", false);
        let en = sim.add_signal("en", false);
        let q = sim.add_signal("q", 0u64);
        sim.add_clocked_process("cnt", clk, Edge::Rising, move |ctx| {
            if ctx.get(en) {
                let v = ctx.get(q);
                ctx.set(q, v + 1);
            }
        });
        sim.add_clock(clk, 10).unwrap();
        sim.run_for(40).unwrap(); // edges at 10,30 rising; en=0
        assert_eq!(sim.value(q), 0);
        sim.drive(en, true);
        sim.run_for(100).unwrap(); // rising edges at 50,70,90,110,130
        assert_eq!(sim.value(q), 5);
    }
}
