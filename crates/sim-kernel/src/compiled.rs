//! Compiled-simulation backend: a levelized static schedule.
//!
//! The event-driven [`Simulator`](crate::Simulator) discovers evaluation
//! order at run time: every commit walks sensitivity lists, enqueues the
//! woken processes and loops delta cycles until the netlist is quiet.
//! That discovery cost is paid on *every* settle even though the netlist
//! never changes after elaboration. The compiled backend pays it once:
//! at the first [`CompiledSim::settle`] the process graph (declared
//! write-sets against declared read-sets) is condensed into strongly
//! connected components and topologically sorted, producing a fixed
//! *schedule* of cones. A settle then walks that schedule straight
//! through — each acyclic cone evaluates at most once, immediately
//! commits its writes, and activation flows forward along the already
//! sorted order. Only *feedback* cones (components with a cycle) fall
//! back to bounded delta iteration, and a cone that fails to converge
//! reports a [`SimError::CombLoop`] naming its processes instead of
//! hanging.
//!
//! Signal state is the same [`WordValue`] word per signal the event
//! kernel keeps, laid out here as struct-of-arrays `u64` buffers
//! (current / pending / pending-mask), so reads and writes are plain
//! indexed loads and stores with no allocation.
//!
//! # Semantics relative to the event kernel
//!
//! Two-phase (nonblocking) writes, change-suppressed activation, edge
//! triggering and `run_at_init` behave exactly as in the event kernel,
//! so a netlist whose activations form a chain (each process woken by
//! at most one upstream commit per settle) produces identical
//! [`ActivityCoverage`] run counts. The one divergence is *diamond
//! coalescing*: where the event kernel may evaluate a process twice in
//! one settle (woken early with stale fan-in, then again after the
//! fan-in commits), the levelized schedule evaluates it once with all
//! inputs final. The `stbus_rtl` netlist has no such diamond, which the
//! cross-engine differential tests enforce empirically.

use crate::coverage::{ActivityCoverage, BranchActivity, BranchId, ProcessActivity};
use crate::error::SimError;
use crate::process::{Edge, ProcessId};
use crate::signal::{Signal, SignalId, WordValue};
use crate::time::SimTime;
use std::fmt;
use telemetry::{Counter, MetricsRegistry};

/// Selects which simulation kernel elaborates and runs a netlist.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SimBackend {
    /// The event-driven delta-cycle scheduler — the reference oracle.
    #[default]
    Event,
    /// The levelized static-schedule backend in this module.
    Compiled,
}

impl SimBackend {
    /// The canonical lowercase name (`"event"` / `"compiled"`).
    pub fn name(self) -> &'static str {
        match self {
            SimBackend::Event => "event",
            SimBackend::Compiled => "compiled",
        }
    }

    /// Every backend, in declaration order.
    pub const ALL: [SimBackend; 2] = [SimBackend::Event, SimBackend::Compiled];
}

impl fmt::Display for SimBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SimBackend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "event" => Ok(SimBackend::Event),
            "compiled" => Ok(SimBackend::Compiled),
            other => Err(format!(
                "unknown engine `{other}` (expected `event` or `compiled`)"
            )),
        }
    }
}

/// Cumulative work counters of one [`CompiledSim`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompiledStats {
    /// Calls to [`CompiledSim::settle`] (including those implied by
    /// [`CompiledSim::run_for`]).
    pub settle_calls: u64,
    /// Process bodies run (activations).
    pub process_activations: u64,
    /// Signal commits that actually changed a value.
    pub signal_commits: u64,
    /// Extra iterations spent converging feedback cones (0 on a fully
    /// acyclic schedule).
    pub fallback_iterations: u64,
}

/// Live metric handles published under the `kernel.compiled.*`
/// namespace when a registry is attached.
struct CompiledMetrics {
    settle_calls: Counter,
    process_activations: Counter,
    signal_commits: Counter,
    fallback_iterations: Counter,
}

impl CompiledMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        CompiledMetrics {
            settle_calls: registry.counter("kernel.compiled.settle_calls"),
            process_activations: registry.counter("kernel.compiled.process_activations"),
            signal_commits: registry.counter("kernel.compiled.signal_commits"),
            fallback_iterations: registry.counter("kernel.compiled.fallback_iterations"),
        }
    }
}

/// What wakes a process.
enum Trigger {
    /// Sensitive to any value change of the listed signals.
    Comb,
    /// Sensitive to an edge of a `bool` signal (which edge is encoded in
    /// the signal's `sensitive_rising`/`sensitive_falling` lists).
    Edge(SignalId),
}

/// Boxed process body; taken out of the slot during evaluation so the
/// context can borrow the rest of the simulator mutably.
type ProcBody = Box<dyn FnMut(&mut CompiledCtx<'_>)>;

struct CompProc {
    name: String,
    body: Option<ProcBody>,
    trigger: Trigger,
    /// Declared read set (sensitivity) — empty for edge processes.
    reads: Vec<SignalId>,
    /// Declared write set; schedule edges point from writers to readers.
    writes: Vec<SignalId>,
    runs: u64,
    run_at_init: bool,
    /// Whether the initial `run_at_init` activation already happened.
    inited: bool,
    /// Bitmask over signal indexes of the declared write set, used by
    /// debug builds to catch undeclared writes (which would silently
    /// break the static schedule).
    #[cfg(debug_assertions)]
    write_mask: Vec<u64>,
}

/// One entry of the static schedule.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Cone {
    /// A single process outside any cycle: evaluates at most once per
    /// settle.
    Acyclic(u32),
    /// A strongly connected component with a cycle (or self-loop):
    /// iterated until quiet, bounded by the delta limit.
    Feedback(Vec<u32>),
}

/// The execution context passed to compiled process bodies.
///
/// Mirrors [`ProcCtx`](crate::ProcCtx): reads see current values, writes
/// are two-phase and become visible when the process's commit lands.
pub struct CompiledCtx<'a> {
    cur: &'a [u64],
    pend: &'a mut [u64],
    has_pend: &'a mut [bool],
    written: &'a mut Vec<u32>,
    branch_hits: &'a mut [u64],
    time: SimTime,
    #[cfg(debug_assertions)]
    write_mask: &'a [u64],
    #[cfg(debug_assertions)]
    names: &'a [String],
}

impl CompiledCtx<'_> {
    /// Reads the current value of a signal.
    pub fn get<T: WordValue>(&self, sig: Signal<T>) -> T {
        T::from_word(self.cur[sig.id.index()])
    }

    /// Schedules `value` onto `sig` for this process's commit phase.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `sig` is not in the process's declared
    /// write set — an undeclared write would invalidate the static
    /// schedule.
    pub fn set<T: WordValue>(&mut self, sig: Signal<T>, value: T) {
        let i = sig.id.index();
        #[cfg(debug_assertions)]
        if self.write_mask[i / 64] & (1 << (i % 64)) == 0 {
            panic!(
                "compiled process wrote undeclared signal `{}`",
                self.names[i]
            );
        }
        let word = value.to_word();
        if !self.has_pend[i] {
            // No-op suppression: re-driving the committed value cannot
            // change anything, so it never has to enter the commit scan.
            // This keeps the per-settle commit cost proportional to the
            // signals that actually toggle, not to the write set.
            if word == self.cur[i] {
                return;
            }
            self.has_pend[i] = true;
            self.written.push(i as u32);
        }
        self.pend[i] = word;
    }

    /// Records a hit on a coverage branch point.
    pub fn cov(&mut self, branch: BranchId) {
        self.branch_hits[branch.index()] += 1;
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.time
    }
}

/// Every mutable part of a [`CompiledSim`] at one instant, taken by
/// [`CompiledSim::checkpoint`] and restored by [`CompiledSim::rewind`]:
/// the committed, pending and pending-mask words, the write list,
/// activation marks, process run counts and initialization flags, branch
/// hits, time and the work counters. The netlist and its compiled
/// schedule are not copied: neither changes once the simulator runs.
pub struct CompiledCheckpoint {
    cur: Vec<u64>,
    pend: Vec<u64>,
    has_pend: Vec<bool>,
    written: Vec<u32>,
    activated: Vec<bool>,
    runs: Vec<(u64, bool)>,
    branch_hits: Vec<u64>,
    time: SimTime,
    stats: CompiledStats,
}

/// A simulator that runs a netlist through a levelized static schedule.
///
/// The registration API parallels the event-driven
/// [`Simulator`](crate::Simulator) — signals, combinational processes,
/// clocked processes, coverage branches — with one addition: processes
/// declare their *write* sets, which is what lets the schedule be built
/// once instead of discovered per delta.
///
/// ```
/// use sim_kernel::{CompiledSim, Edge};
///
/// let mut sim = CompiledSim::new();
/// let clk = sim.add_signal("clk", false);
/// let d = sim.add_signal("d", 0u8);
/// let q = sim.add_signal("q", 0u8);
/// let q2 = sim.add_signal("q2", 0u8);
/// sim.add_clocked_process("reg", clk, Edge::Rising, &[q.id()], move |ctx| {
///     let v = ctx.get(d);
///     ctx.set(q, v);
/// });
/// sim.add_comb_process("follow", &[q.id()], &[q2.id()], move |ctx| {
///     let v = ctx.get(q);
///     ctx.set(q2, v.wrapping_add(1));
/// });
/// sim.drive(d, 7u8);
/// sim.settle().unwrap();
/// sim.drive(clk, true);
/// sim.settle().unwrap();
/// assert_eq!(sim.value(q), 7);
/// assert_eq!(sim.value(q2), 8);
/// ```
pub struct CompiledSim {
    names: Vec<String>,
    widths: Vec<usize>,
    /// Struct-of-arrays signal state: committed values ...
    cur: Vec<u64>,
    /// ... pending (written, uncommitted) values ...
    pend: Vec<u64>,
    /// ... and the per-signal pending mask.
    has_pend: Vec<bool>,
    /// Indexes with `has_pend` set, in write order.
    written: Vec<u32>,
    /// Scratch list swapped with `written` during commits.
    commit_scratch: Vec<u32>,
    /// Per-signal comb sensitivity (process indexes).
    sensitive: Vec<Vec<u32>>,
    /// Per-signal rising/falling sensitivity (bool signals only).
    sensitive_rising: Vec<Vec<u32>>,
    sensitive_falling: Vec<Vec<u32>>,
    procs: Vec<CompProc>,
    branch_names: Vec<String>,
    branch_hits: Vec<u64>,
    /// The levelized schedule; rebuilt lazily after any registration.
    schedule: Option<Vec<Cone>>,
    /// Activation marks, reused across settles.
    activated: Vec<bool>,
    time: SimTime,
    delta_limit: u32,
    stats: CompiledStats,
    metrics: Option<CompiledMetrics>,
}

impl Default for CompiledSim {
    fn default() -> Self {
        Self::new()
    }
}

impl CompiledSim {
    /// Creates an empty compiled simulator.
    pub fn new() -> Self {
        CompiledSim {
            names: Vec::new(),
            widths: Vec::new(),
            cur: Vec::new(),
            pend: Vec::new(),
            has_pend: Vec::new(),
            written: Vec::new(),
            commit_scratch: Vec::new(),
            sensitive: Vec::new(),
            sensitive_rising: Vec::new(),
            sensitive_falling: Vec::new(),
            procs: Vec::new(),
            branch_names: Vec::new(),
            branch_hits: Vec::new(),
            schedule: None,
            activated: Vec::new(),
            time: SimTime::ZERO,
            delta_limit: 1000,
            stats: CompiledStats::default(),
            metrics: None,
        }
    }

    /// Registers a signal with an initial value and returns its handle.
    pub fn add_signal<T: WordValue>(&mut self, name: &str, init: T) -> Signal<T> {
        let id = SignalId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.widths.push(T::WIDTH);
        self.cur.push(init.to_word());
        self.pend.push(0);
        self.has_pend.push(false);
        self.sensitive.push(Vec::new());
        self.sensitive_rising.push(Vec::new());
        self.sensitive_falling.push(Vec::new());
        self.schedule = None;
        Signal::new(id)
    }

    /// Registers a combinational process sensitive to `reads` and
    /// writing only signals in `writes`. Runs once at the next settle
    /// (`run_at_init`), like the event kernel's combinational processes.
    pub fn add_comb_process(
        &mut self,
        name: &str,
        reads: &[SignalId],
        writes: &[SignalId],
        body: impl FnMut(&mut CompiledCtx<'_>) + 'static,
    ) -> ProcessId {
        let idx = self.procs.len() as u32;
        for sig in reads {
            self.sensitive[sig.index()].push(idx);
        }
        self.push_proc(name, Trigger::Comb, reads, writes, true, Box::new(body))
    }

    /// Registers a clocked process triggered by an edge of `clk`.
    ///
    /// Like an HDL process suspended on `wait until rising_edge(clk)`,
    /// it does not run at initialization.
    pub fn add_clocked_process(
        &mut self,
        name: &str,
        clk: Signal<bool>,
        edge: Edge,
        writes: &[SignalId],
        body: impl FnMut(&mut CompiledCtx<'_>) + 'static,
    ) -> ProcessId {
        let idx = self.procs.len() as u32;
        match edge {
            Edge::Rising => self.sensitive_rising[clk.id().index()].push(idx),
            Edge::Falling => self.sensitive_falling[clk.id().index()].push(idx),
            Edge::Any => self.sensitive[clk.id().index()].push(idx),
        }
        self.push_proc(
            name,
            Trigger::Edge(clk.id()),
            &[],
            writes,
            false,
            Box::new(body),
        )
    }

    fn push_proc(
        &mut self,
        name: &str,
        trigger: Trigger,
        reads: &[SignalId],
        writes: &[SignalId],
        run_at_init: bool,
        body: Box<dyn FnMut(&mut CompiledCtx<'_>)>,
    ) -> ProcessId {
        let id = ProcessId(self.procs.len() as u32);
        #[cfg(debug_assertions)]
        let write_mask = {
            let mut mask = vec![0u64; self.names.len().div_ceil(64).max(1)];
            for sig in writes {
                mask[sig.index() / 64] |= 1 << (sig.index() % 64);
            }
            mask
        };
        self.procs.push(CompProc {
            name: name.to_owned(),
            body: Some(body),
            trigger,
            reads: reads.to_vec(),
            writes: writes.to_vec(),
            runs: 0,
            run_at_init,
            inited: false,
            #[cfg(debug_assertions)]
            write_mask,
        });
        self.activated.push(false);
        self.schedule = None;
        id
    }

    /// Number of registered signals.
    pub fn signal_count(&self) -> usize {
        self.names.len()
    }

    /// Registers a coverage branch point (`"process/branch"` label).
    pub fn add_branch(&mut self, name: &str) -> BranchId {
        let id = BranchId(self.branch_names.len() as u32);
        self.branch_names.push(name.to_owned());
        self.branch_hits.push(0);
        id
    }

    /// Writes a value onto a signal from outside any process; it commits
    /// at the start of the next [`CompiledSim::settle`].
    pub fn drive<T: WordValue>(&mut self, sig: Signal<T>, value: T) {
        let i = sig.id.index();
        let word = value.to_word();
        if !self.has_pend[i] {
            // Same no-op suppression as [`CompiledCtx::set`]: an external
            // drive of the already-committed value is not a write.
            if word == self.cur[i] {
                return;
            }
            self.has_pend[i] = true;
            self.written.push(i as u32);
        }
        self.pend[i] = word;
    }

    /// Reads the committed value of a signal.
    pub fn value<T: WordValue>(&self, sig: Signal<T>) -> T {
        T::from_word(self.cur[sig.id.index()])
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Replaces the feedback-cone iteration bound (default 1000).
    pub fn set_delta_limit(&mut self, limit: u32) {
        self.delta_limit = limit.max(1);
    }

    /// Cumulative work counters.
    pub fn stats(&self) -> CompiledStats {
        self.stats
    }

    /// Additionally publishes the work counters as shared metrics under
    /// the `kernel.compiled.*` namespace.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        let m = CompiledMetrics::new(registry);
        m.settle_calls.add(self.stats.settle_calls);
        m.process_activations.add(self.stats.process_activations);
        m.signal_commits.add(self.stats.signal_commits);
        m.fallback_iterations.add(self.stats.fallback_iterations);
        self.metrics = Some(m);
    }

    /// Captures every mutable part of the simulator (see
    /// [`CompiledCheckpoint`]) for a later [`CompiledSim::rewind`].
    pub fn checkpoint(&self) -> CompiledCheckpoint {
        CompiledCheckpoint {
            cur: self.cur.clone(),
            pend: self.pend.clone(),
            has_pend: self.has_pend.clone(),
            written: self.written.clone(),
            activated: self.activated.clone(),
            runs: self.procs.iter().map(|p| (p.runs, p.inited)).collect(),
            branch_hits: self.branch_hits.clone(),
            time: self.time,
            stats: self.stats,
        }
    }

    /// Restores the simulator to `checkpoint`, exactly, and detaches any
    /// attached metrics (see [`Simulator::rewind`](crate::Simulator::rewind)).
    ///
    /// # Panics
    ///
    /// If the checkpoint was taken from a simulator with another netlist.
    pub fn rewind(&mut self, checkpoint: &CompiledCheckpoint) {
        assert!(
            checkpoint.cur.len() == self.cur.len()
                && checkpoint.runs.len() == self.procs.len()
                && checkpoint.branch_hits.len() == self.branch_hits.len(),
            "checkpoint taken from another netlist"
        );
        self.cur.copy_from_slice(&checkpoint.cur);
        self.pend.copy_from_slice(&checkpoint.pend);
        self.has_pend.copy_from_slice(&checkpoint.has_pend);
        self.written.clone_from(&checkpoint.written);
        self.activated.copy_from_slice(&checkpoint.activated);
        for (proc, &(runs, inited)) in self.procs.iter_mut().zip(&checkpoint.runs) {
            proc.runs = runs;
            proc.inited = inited;
        }
        self.branch_hits.copy_from_slice(&checkpoint.branch_hits);
        self.time = checkpoint.time;
        self.stats = checkpoint.stats;
        self.metrics = None;
    }

    /// The process-activity and branch coverage report.
    pub fn activity_coverage(&self) -> ActivityCoverage {
        ActivityCoverage {
            processes: self
                .procs
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
                .map(|(name, &hits)| BranchActivity {
                    name: name.clone(),
                    hits,
                })
                .collect(),
        }
    }

    /// The compiled schedule as process-name groups, in evaluation
    /// order; feedback cones appear as multi-element (or self-looping
    /// single-element) groups. Compiles the schedule if needed.
    pub fn schedule_names(&mut self) -> Vec<Vec<String>> {
        self.ensure_compiled();
        self.schedule
            .as_ref()
            .expect("just compiled")
            .iter()
            .map(|cone| match cone {
                Cone::Acyclic(p) => vec![self.procs[*p as usize].name.clone()],
                Cone::Feedback(ps) => ps
                    .iter()
                    .map(|&p| self.procs[p as usize].name.clone())
                    .collect(),
            })
            .collect()
    }

    /// How many feedback cones the schedule contains.
    pub fn feedback_cones(&mut self) -> usize {
        self.ensure_compiled();
        self.schedule
            .as_ref()
            .expect("just compiled")
            .iter()
            .filter(|c| matches!(c, Cone::Feedback(_)))
            .count()
    }

    /// Builds the static schedule: Tarjan SCC condensation of the
    /// writer→reader process graph, then a deterministic Kahn topological
    /// sort (components become ready in registration-index order).
    fn ensure_compiled(&mut self) {
        if self.schedule.is_some() {
            return;
        }
        let n = self.procs.len();
        // Adjacency: p → q when p writes a signal q is triggered by.
        // Readers per signal: comb sensitivity plus edge clocks.
        let mut readers: Vec<Vec<u32>> = vec![Vec::new(); self.names.len()];
        for (qi, q) in self.procs.iter().enumerate() {
            match &q.trigger {
                Trigger::Comb => {
                    for sig in &q.reads {
                        readers[sig.index()].push(qi as u32);
                    }
                }
                Trigger::Edge(sig) => readers[sig.index()].push(qi as u32),
            }
        }
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (pi, p) in self.procs.iter().enumerate() {
            for sig in &p.writes {
                for &qi in &readers[sig.index()] {
                    if !adj[pi].contains(&qi) {
                        adj[pi].push(qi);
                    }
                }
            }
            adj[pi].sort_unstable();
        }
        let sccs = tarjan_sccs(&adj);
        // Map each process to its component, detect internal cycles.
        let mut comp_of = vec![0u32; n];
        for (ci, comp) in sccs.iter().enumerate() {
            for &p in comp {
                comp_of[p as usize] = ci as u32;
            }
        }
        let nc = sccs.len();
        let mut comp_adj: Vec<Vec<u32>> = vec![Vec::new(); nc];
        let mut indegree = vec![0usize; nc];
        let mut has_self_loop = vec![false; nc];
        for (pi, targets) in adj.iter().enumerate() {
            let cp = comp_of[pi] as usize;
            for &qi in targets {
                let cq = comp_of[qi as usize] as usize;
                if cp == cq {
                    if pi == qi as usize {
                        has_self_loop[cp] = true;
                    }
                    continue;
                }
                if !comp_adj[cp].contains(&(cq as u32)) {
                    comp_adj[cp].push(cq as u32);
                    indegree[cq] += 1;
                }
            }
        }
        // Kahn over the condensation; ties broken by the smallest member
        // process index so the order is a pure function of registration
        // order, never of hash state or SCC discovery order.
        let comp_key: Vec<u32> = sccs
            .iter()
            .map(|c| c.iter().copied().min().unwrap_or(0))
            .collect();
        let mut ready: std::collections::BTreeSet<(u32, u32)> = (0..nc)
            .filter(|&c| indegree[c] == 0)
            .map(|c| (comp_key[c], c as u32))
            .collect();
        let mut order: Vec<Cone> = Vec::with_capacity(nc);
        while let Some(&(key, c)) = ready.iter().next() {
            ready.remove(&(key, c));
            let comp = &sccs[c as usize];
            if comp.len() > 1 || has_self_loop[c as usize] {
                let mut members = comp.clone();
                members.sort_unstable();
                order.push(Cone::Feedback(members));
            } else {
                order.push(Cone::Acyclic(comp[0]));
            }
            for &cq in &comp_adj[c as usize] {
                indegree[cq as usize] -= 1;
                if indegree[cq as usize] == 0 {
                    ready.insert((comp_key[cq as usize], cq));
                }
            }
        }
        debug_assert_eq!(order.len(), nc, "condensation must be acyclic");
        self.schedule = Some(order);
    }

    /// Commits every pending write, bumping counters and marking the
    /// processes each actual change wakes. Returns how many signals
    /// changed.
    fn commit_pending(&mut self) -> usize {
        let mut scratch = std::mem::take(&mut self.commit_scratch);
        scratch.clear();
        std::mem::swap(&mut scratch, &mut self.written);
        let mut changed = 0usize;
        for &i in &scratch {
            let i = i as usize;
            self.has_pend[i] = false;
            let new = self.pend[i];
            let old = self.cur[i];
            if new == old {
                continue;
            }
            self.cur[i] = new;
            self.stats.signal_commits += 1;
            changed += 1;
            for &p in &self.sensitive[i] {
                self.activated[p as usize] = true;
            }
            if self.widths[i] == 1 {
                let list = if new != 0 {
                    &self.sensitive_rising[i]
                } else {
                    &self.sensitive_falling[i]
                };
                for &p in list {
                    self.activated[p as usize] = true;
                }
            }
        }
        if let Some(m) = &self.metrics {
            m.signal_commits.add(changed as u64);
        }
        self.commit_scratch = scratch;
        changed
    }

    /// Runs one process body against the current state; its writes stay
    /// pending until the caller commits.
    fn run_proc(&mut self, p: usize) {
        self.activated[p] = false;
        let slot = &mut self.procs[p];
        slot.runs += 1;
        self.stats.process_activations += 1;
        let mut body = slot.body.take().expect("process re-entered");
        {
            let mut ctx = CompiledCtx {
                cur: &self.cur,
                pend: &mut self.pend,
                has_pend: &mut self.has_pend,
                written: &mut self.written,
                branch_hits: &mut self.branch_hits,
                time: self.time,
                #[cfg(debug_assertions)]
                write_mask: &self.procs[p].write_mask,
                #[cfg(debug_assertions)]
                names: &self.names,
            };
            body(&mut ctx);
        }
        self.procs[p].body = Some(body);
        if let Some(m) = &self.metrics {
            m.process_activations.inc();
        }
    }

    /// Propagates all pending external writes through the schedule.
    ///
    /// # Errors
    ///
    /// [`SimError::CombLoop`] when a feedback cone fails to converge
    /// within the delta limit.
    pub fn settle(&mut self) -> Result<(), SimError> {
        self.ensure_compiled();
        self.stats.settle_calls += 1;
        if let Some(m) = &self.metrics {
            m.settle_calls.inc();
        }
        // First-settle activations for processes registered run_at_init.
        for p in 0..self.procs.len() {
            if self.procs[p].run_at_init && !self.procs[p].inited {
                self.procs[p].inited = true;
                self.activated[p] = true;
            }
        }
        // Commit external drives; actual changes mark their readers.
        self.commit_pending();
        // Walk the schedule. Each acyclic cone evaluates at most once
        // and commits immediately, so activation only ever flows forward.
        let schedule = self.schedule.take().expect("just compiled");
        let mut result = Ok(());
        'walk: for cone in &schedule {
            match cone {
                Cone::Acyclic(p) => {
                    let p = *p as usize;
                    if self.activated[p] {
                        self.run_proc(p);
                        self.commit_pending();
                    }
                }
                Cone::Feedback(members) => {
                    // Bounded delta iteration local to the cone: re-run
                    // activated members until the cone is quiet.
                    let mut iterations = 0u32;
                    while members.iter().any(|&p| self.activated[p as usize]) {
                        iterations += 1;
                        if iterations > self.delta_limit {
                            result = Err(SimError::CombLoop {
                                time: self.time,
                                limit: self.delta_limit,
                                processes: members
                                    .iter()
                                    .map(|&p| self.procs[p as usize].name.clone())
                                    .collect(),
                            });
                            break 'walk;
                        }
                        if iterations > 1 {
                            self.stats.fallback_iterations += 1;
                            if let Some(m) = &self.metrics {
                                m.fallback_iterations.inc();
                            }
                        }
                        for &p in members {
                            let p = p as usize;
                            if self.activated[p] {
                                self.run_proc(p);
                                self.commit_pending();
                            }
                        }
                    }
                }
            }
        }
        self.schedule = Some(schedule);
        result
    }

    /// Settles, then advances simulated time by `ticks`.
    ///
    /// The compiled backend has no event queue — time exists only to
    /// stamp traces and error messages — so this is settle-plus-advance.
    ///
    /// # Errors
    ///
    /// Propagates [`CompiledSim::settle`] errors.
    pub fn run_for(&mut self, ticks: u64) -> Result<(), SimError> {
        self.settle()?;
        self.time += ticks;
        Ok(())
    }
}

/// Iterative Tarjan strongly-connected components over a process
/// adjacency list. Components are returned in reverse topological order
/// of discovery; the caller re-sorts them, so only the *partition* is
/// used, which makes the result independent of traversal details.
fn tarjan_sccs(adj: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let n = adj.len();
    let mut index = vec![u32::MAX; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut sccs: Vec<Vec<u32>> = Vec::new();
    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != u32::MAX {
            continue;
        }
        frames.push((start as u32, 0));
        index[start] = next_index;
        lowlink[start] = next_index;
        next_index += 1;
        stack.push(start as u32);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            let vu = v as usize;
            if *child < adj[vu].len() {
                let w = adj[vu][*child] as usize;
                *child += 1;
                if index[w] == u32::MAX {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w as u32);
                    on_stack[w] = true;
                    frames.push((w as u32, 0));
                } else if on_stack[w] {
                    lowlink[vu] = lowlink[vu].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    let pu = parent as usize;
                    lowlink[pu] = lowlink[pu].min(lowlink[vu]);
                }
                if lowlink[vu] == index[vu] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp.push(w);
                        if w as usize == vu {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parse_and_display() {
        assert_eq!("event".parse::<SimBackend>().unwrap(), SimBackend::Event);
        assert_eq!(
            "compiled".parse::<SimBackend>().unwrap(),
            SimBackend::Compiled
        );
        assert!("vhdl".parse::<SimBackend>().is_err());
        assert_eq!(SimBackend::Compiled.to_string(), "compiled");
        assert_eq!(SimBackend::default(), SimBackend::Event);
    }

    #[test]
    fn word_value_round_trips() {
        assert!(bool::from_word(true.to_word()));
        assert_eq!(u8::from_word(0xabu8.to_word()), 0xab);
        assert_eq!(u16::from_word(0xbeefu16.to_word()), 0xbeef);
        assert_eq!(u32::from_word(0xdead_beefu32.to_word()), 0xdead_beef);
        assert_eq!(u64::from_word(u64::MAX.to_word()), u64::MAX);
    }

    /// A 3-stage pipeline of combinational processes: each evaluates
    /// exactly once per settle, in dependency order, regardless of
    /// registration order.
    #[test]
    fn rewind_restores_values_coverage_and_stats() {
        let build = || {
            let mut sim = CompiledSim::new();
            let clk = sim.add_signal("clk", false);
            let q = sim.add_signal("q", 0u32);
            let q2 = sim.add_signal("q2", 0u32);
            let odd = sim.add_branch("cnt/odd");
            sim.add_clocked_process("cnt", clk, Edge::Rising, &[q.id()], move |ctx| {
                let v = ctx.get(q);
                if v % 2 == 1 {
                    ctx.cov(odd);
                }
                ctx.set(q, v + 1);
            });
            sim.add_comb_process("follow", &[q.id()], &[q2.id()], move |ctx| {
                let v = ctx.get(q);
                ctx.set(q2, v * 2);
            });
            (sim, clk, q2)
        };
        let cycle = |sim: &mut CompiledSim, clk: Signal<bool>| {
            sim.drive(clk, true);
            sim.run_for(5).unwrap();
            sim.drive(clk, false);
            sim.run_for(5).unwrap();
        };
        let (mut sim, clk, q2) = build();
        sim.settle().unwrap();
        let checkpoint = sim.checkpoint();
        let (v0, t0, cov0, stats0) = (
            sim.value(q2),
            sim.now(),
            sim.activity_coverage(),
            sim.stats(),
        );

        let registry = MetricsRegistry::new();
        sim.attach_metrics(&registry);
        (0..7).for_each(|_| cycle(&mut sim, clk));
        let after = (sim.value(q2), sim.activity_coverage(), sim.stats());
        assert_ne!(after.0, v0, "the run moved the counter");

        sim.rewind(&checkpoint);
        assert_eq!((sim.value(q2), sim.now()), (v0, t0));
        assert_eq!(sim.activity_coverage(), cov0);
        assert_eq!(sim.stats(), stats0);

        let published = registry.snapshot();
        (0..7).for_each(|_| cycle(&mut sim, clk));
        assert_eq!((sim.value(q2), sim.activity_coverage(), sim.stats()), after);
        assert_eq!(registry.snapshot(), published, "rewind detaches metrics");
    }

    #[test]
    fn acyclic_chain_single_pass() {
        let mut sim = CompiledSim::new();
        let a = sim.add_signal("a", 0u32);
        let b = sim.add_signal("b", 0u32);
        let c = sim.add_signal("c", 0u32);
        let d = sim.add_signal("d", 0u32);
        // Registered deliberately in reverse dependency order.
        sim.add_comb_process("p_cd", &[c.id()], &[d.id()], move |ctx| {
            let v = ctx.get(c);
            ctx.set(d, v + 1);
        });
        sim.add_comb_process("p_bc", &[b.id()], &[c.id()], move |ctx| {
            let v = ctx.get(b);
            ctx.set(c, v + 1);
        });
        sim.add_comb_process("p_ab", &[a.id()], &[b.id()], move |ctx| {
            let v = ctx.get(a);
            ctx.set(b, v + 1);
        });
        sim.drive(a, 10u32);
        sim.settle().unwrap();
        assert_eq!(sim.value(d), 13);
        // Init pass: each ran once.
        let cov = sim.activity_coverage();
        assert!(cov.processes.iter().all(|p| p.runs == 1), "{cov:?}");
        // A second settle with a real change again runs each body once.
        sim.drive(a, 20u32);
        sim.settle().unwrap();
        assert_eq!(sim.value(d), 23);
        let cov = sim.activity_coverage();
        assert!(cov.processes.iter().all(|p| p.runs == 2), "{cov:?}");
        // A no-change drive wakes nobody.
        sim.drive(a, 20u32);
        sim.settle().unwrap();
        let cov = sim.activity_coverage();
        assert!(cov.processes.iter().all(|p| p.runs == 2), "{cov:?}");
    }

    #[test]
    fn schedule_order_is_levelized_and_deterministic() {
        let build = || {
            let mut sim = CompiledSim::new();
            let a = sim.add_signal("a", 0u32);
            let b = sim.add_signal("b", 0u32);
            let c = sim.add_signal("c", 0u32);
            sim.add_comb_process("sink", &[b.id(), c.id()], &[], |_| {});
            sim.add_comb_process("mid_c", &[a.id()], &[c.id()], move |ctx| {
                let v = ctx.get(a);
                ctx.set(c, v);
            });
            sim.add_comb_process("mid_b", &[a.id()], &[b.id()], move |ctx| {
                let v = ctx.get(a);
                ctx.set(b, v);
            });
            sim
        };
        let order = build().schedule_names();
        // Sources before the sink; equal-level ties resolved by
        // registration index (mid_c registered before mid_b).
        assert_eq!(
            order,
            vec![
                vec!["mid_c".to_owned()],
                vec!["mid_b".to_owned()],
                vec!["sink".to_owned()]
            ]
        );
        // Rebuilding the same netlist yields the identical order.
        assert_eq!(build().schedule_names(), order);
    }

    /// A converging feedback pair (each process copies the other's
    /// signal) is detected as a cycle and settled by bounded iteration.
    #[test]
    fn feedback_cone_routed_to_delta_fallback() {
        let mut sim = CompiledSim::new();
        let x = sim.add_signal("x", 0u32);
        let y = sim.add_signal("y", 0u32);
        sim.add_comb_process("fwd", &[x.id()], &[y.id()], move |ctx| {
            let v = ctx.get(x);
            ctx.set(y, v);
        });
        sim.add_comb_process("bwd", &[y.id()], &[x.id()], move |ctx| {
            let v = ctx.get(y);
            ctx.set(x, v);
        });
        assert_eq!(sim.feedback_cones(), 1);
        assert_eq!(
            sim.schedule_names(),
            vec![vec!["fwd".to_owned(), "bwd".to_owned()]]
        );
        sim.settle().unwrap();
        // Driving y forces the value to flow against the cone's member
        // order (bwd first, then fwd on the next iteration), so the
        // bounded fallback must take more than one pass.
        sim.drive(y, 9u32);
        sim.settle().unwrap();
        assert_eq!(sim.value(x), 9);
        assert_eq!(sim.value(y), 9);
        assert!(sim.stats().fallback_iterations > 0);
    }

    /// A self-loop (process reading its own output) is also a feedback
    /// cone, even though its SCC has one member.
    #[test]
    fn self_loop_is_a_feedback_cone() {
        let mut sim = CompiledSim::new();
        let x = sim.add_signal("x", 0u32);
        sim.add_comb_process("settle_down", &[x.id()], &[x.id()], move |ctx| {
            let v = ctx.get(x);
            ctx.set(x, if v > 3 { v - 1 } else { v });
        });
        assert_eq!(sim.feedback_cones(), 1);
        sim.drive(x, 7u32);
        sim.settle().unwrap();
        assert_eq!(sim.value(x), 3);
    }

    /// An unstable combinational loop errors out with the cone's process
    /// names instead of hanging.
    #[test]
    fn divergent_loop_reports_comb_loop_error() {
        let mut sim = CompiledSim::new();
        let x = sim.add_signal("x", false);
        sim.add_comb_process("inv", &[x.id()], &[x.id()], move |ctx| {
            let v = ctx.get(x);
            ctx.set(x, !v);
        });
        sim.set_delta_limit(64);
        let err = sim.settle().unwrap_err();
        match &err {
            SimError::CombLoop {
                limit, processes, ..
            } => {
                assert_eq!(*limit, 64);
                assert_eq!(processes, &["inv".to_owned()]);
            }
            other => panic!("expected CombLoop, got {other:?}"),
        }
        assert!(err.to_string().contains("inv"), "{err}");
        assert!(err.to_string().contains("feedback cone"), "{err}");
    }

    /// Edge processes fire only on their edge and never at init; a
    /// same-value clock drive is not an edge.
    #[test]
    fn edge_semantics_match_event_kernel() {
        let mut sim = CompiledSim::new();
        let clk = sim.add_signal("clk", false);
        let q = sim.add_signal("q", 0u32);
        sim.add_clocked_process("count", clk, Edge::Rising, &[q.id()], move |ctx| {
            let v = ctx.get(q);
            ctx.set(q, v + 1);
        });
        sim.settle().unwrap();
        assert_eq!(sim.value(q), 0, "edge process must not run at init");
        sim.drive(clk, false);
        sim.settle().unwrap();
        assert_eq!(sim.value(q), 0, "no change, no edge");
        sim.drive(clk, true);
        sim.settle().unwrap();
        assert_eq!(sim.value(q), 1);
        sim.drive(clk, false);
        sim.settle().unwrap();
        assert_eq!(sim.value(q), 1, "falling edge does not trigger Rising");
        sim.drive(clk, true);
        sim.settle().unwrap();
        assert_eq!(sim.value(q), 2);
    }

    /// The edge process's write must wake downstream combinational
    /// logic in the same settle, like a delta cascade.
    #[test]
    fn edge_write_cascades_to_comb_in_same_settle() {
        let mut sim = CompiledSim::new();
        let clk = sim.add_signal("clk", false);
        let q = sim.add_signal("q", 0u32);
        let q1 = sim.add_signal("q1", 0u32);
        sim.add_clocked_process("reg", clk, Edge::Rising, &[q.id()], move |ctx| {
            let v = ctx.get(q);
            ctx.set(q, v + 1);
        });
        sim.add_comb_process("mirror", &[q.id()], &[q1.id()], move |ctx| {
            let v = ctx.get(q);
            ctx.set(q1, v * 10);
        });
        sim.settle().unwrap();
        sim.drive(clk, true);
        sim.settle().unwrap();
        assert_eq!(sim.value(q), 1);
        assert_eq!(sim.value(q1), 10);
        // mirror ran once at init and once after the edge.
        let cov = sim.activity_coverage();
        let mirror = cov.processes.iter().find(|p| p.name == "mirror").unwrap();
        assert_eq!(mirror.runs, 2);
    }

    #[test]
    fn branch_coverage_and_metrics() {
        let reg = MetricsRegistry::default();
        let mut sim = CompiledSim::new();
        let a = sim.add_signal("a", 0u32);
        let b = sim.add_signal("b", 0u32);
        let hit = sim.add_branch("p/pos");
        let miss = sim.add_branch("p/neg");
        sim.add_comb_process("p", &[a.id()], &[b.id()], move |ctx| {
            let v = ctx.get(a);
            if v > 0 {
                ctx.cov(hit);
            } else {
                ctx.cov(miss);
            }
            ctx.set(b, v);
        });
        sim.attach_metrics(&reg);
        sim.drive(a, 1u32);
        sim.settle().unwrap();
        let cov = sim.activity_coverage();
        assert_eq!(cov.branch("p/pos").unwrap().hits, 1);
        assert_eq!(cov.branch("p/neg").unwrap().hits, 0);
        let snap = reg.snapshot();
        let get = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
        assert_eq!(get("kernel.compiled.settle_calls"), 1);
        assert!(get("kernel.compiled.process_activations") >= 1);
        assert!(get("kernel.compiled.signal_commits") >= 1);
    }

    #[test]
    fn run_for_advances_time() {
        let mut sim = CompiledSim::new();
        let a = sim.add_signal("a", false);
        sim.drive(a, true);
        sim.run_for(25).unwrap();
        assert_eq!(sim.now(), SimTime::from_ticks(25));
        assert!(sim.value(a));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "undeclared signal")]
    fn undeclared_write_panics_in_debug() {
        let mut sim = CompiledSim::new();
        let a = sim.add_signal("a", false);
        let b = sim.add_signal("b", false);
        sim.add_comb_process("rogue", &[a.id()], &[], move |ctx| {
            ctx.set(b, true);
        });
        sim.drive(a, true);
        let _ = sim.settle();
    }
}
