//! The RTL node: the cycle-level spec elaborated onto kernel signals and
//! processes, on either of two simulation backends.
//!
//! The **event** backend ([`Simulator`]) is the reference HDL-style
//! delta-cycle kernel. The **compiled** backend ([`CompiledSim`]) levelizes
//! the same netlist into a static schedule at elaboration and evaluates it
//! straight through with no event queue. Both backends are elaborated by
//! one routine, so signal names, registration order and process structure
//! are identical — the compiled engine is a drop-in replacement whose
//! outputs, coverage and traces-at-the-port are byte-identical.

use crate::bugs::RtlBug;
use crate::signals::{ReqWires, RspWires, SigAlloc, SigRead, SigWrite};
use crate::spec::{EvalScratch, NodeSpec, NodeState, Plan, ProbePoint};
use sim_kernel::{
    ActivityCoverage, BranchId, CompiledCheckpoint, CompiledSim, CompiledStats, Edge, Signal,
    SignalId, SimBackend, SimCheckpoint, SimError, Simulator, WordValue,
};
use stbus_protocol::{DutInputs, DutOutputs, DutView, NodeConfig, ProgCommand, ViewKind};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// The signal-level (RTL) view of the STBus node.
///
/// Internally this owns a simulation kernel carrying one signal per
/// interface field, a combinational mega-process implementing the request
/// and response paths, and a clocked process committing the register state
/// — the classic evaluate/commit structure of synthesizable RTL. The
/// [`DutView`] implementation drives the input wires, settles the
/// combinational logic, samples the output wires and toggles the clock.
///
/// The kernel is selected at elaboration with [`RtlNode::with_engine`]:
/// [`SimBackend::Event`] (the default) runs on the event-driven delta-cycle
/// scheduler, [`SimBackend::Compiled`] on the levelized compiled-simulation
/// backend.
///
/// # Example
///
/// ```
/// use stbus_protocol::{DutInputs, DutView, NodeConfig};
/// use stbus_rtl::RtlNode;
///
/// let cfg = NodeConfig::reference();
/// let mut node = RtlNode::new(cfg.clone());
/// let outputs = node.step(&DutInputs::idle(&cfg));
/// assert!(!outputs.initiator[0].gnt);
/// ```
pub struct RtlNode {
    spec: NodeSpec,
    kern: Kern,
    clk: Signal<bool>,
    state: Rc<RefCell<NodeState>>,
    plan: PlanBox,
    state_version: Signal<u64>,
    // Initiator-side wires.
    init_req: Vec<ReqWires>,
    init_r_gnt: Vec<Signal<bool>>,
    init_gnt: Vec<Signal<bool>>,
    init_rsp: Vec<RspWires>,
    // Target-side wires.
    tgt_req: Vec<ReqWires>,
    tgt_gnt: Vec<Signal<bool>>,
    tgt_rsp: Vec<RspWires>,
    tgt_r_gnt: Vec<Signal<bool>>,
    // Programming port wires.
    prog_valid: Signal<bool>,
    prog_prios: Vec<Signal<u8>>,
    // Evaluation-phase timer shared with the comb process closure.
    eval_ns: Rc<Cell<u64>>,
    eval_timing: Rc<Cell<bool>>,
    cycles: u64,
    /// The node as elaboration left it; [`RtlNode::rewind`] restores it.
    elaborated: Checkpoint,
}

/// What [`RtlNode::rewind`] restores besides the register state, which
/// elaboration leaves at [`NodeSpec::initial_state`] (its settle runs the
/// combinational process once, but no clock edge commits anything).
struct Checkpoint {
    kern: KernCheckpoint,
    plan: Plan,
    plan_valid: bool,
}

enum KernCheckpoint {
    Event(SimCheckpoint),
    Compiled {
        sim: CompiledCheckpoint,
        ports: DutInputs,
    },
}

/// The simulation kernel the node was elaborated onto.
///
/// The compiled variant also carries the input end of the *compiled port
/// marshalling*: levelization makes the dataflow static — the node's
/// combinational process is the only reader of the input wires and
/// nothing inside the netlist reads the output wires — so the
/// interpretive per-signal round trip (`DutInputs` → wires → `DutInputs`
/// on the way in, `Plan` → wires → `DutOutputs` on the way out) is
/// compiled away. [`RtlNode::drive_inputs`] still drives every changed
/// input *wire* (their committed-change detection is what keeps process
/// activation identical to the event kernel) but also snapshots the port
/// struct into `ports`, which the comb process reads directly;
/// symmetrically, `RtlNode::sample_outputs` reads the settled plan's
/// outputs instead of reassembling them signal by signal. Both shortcuts
/// are lossless (every wire value round-trips exactly through its
/// [`WordValue`] word), which the cross-engine equivalence suite pins
/// down byte for byte against the event node, which marshals every port
/// through its wires.
enum Kern {
    Event(Simulator),
    Compiled {
        sim: CompiledSim,
        ports: Rc<RefCell<DutInputs>>,
    },
}

impl Kern {
    fn settle(&mut self) -> Result<(), SimError> {
        match self {
            Kern::Event(sim) => sim.settle(),
            Kern::Compiled { sim, .. } => sim.settle(),
        }
    }

    fn run_for(&mut self, ticks: u64) -> Result<(), SimError> {
        match self {
            Kern::Event(sim) => sim.run_for(ticks),
            Kern::Compiled { sim, .. } => sim.run_for(ticks),
        }
    }

    fn activity_coverage(&self) -> ActivityCoverage {
        match self {
            Kern::Event(sim) => sim.activity_coverage(),
            Kern::Compiled { sim, .. } => sim.activity_coverage(),
        }
    }

    fn signal_count(&self) -> usize {
        match self {
            Kern::Event(sim) => sim.signal_count(),
            Kern::Compiled { sim, .. } => sim.signal_count(),
        }
    }

    fn checkpoint(&self) -> KernCheckpoint {
        match self {
            Kern::Event(sim) => KernCheckpoint::Event(sim.checkpoint()),
            Kern::Compiled { sim, ports } => KernCheckpoint::Compiled {
                sim: sim.checkpoint(),
                ports: ports.borrow().clone(),
            },
        }
    }

    fn rewind(&mut self, checkpoint: &KernCheckpoint) {
        match (self, checkpoint) {
            (Kern::Event(sim), KernCheckpoint::Event(cp)) => sim.rewind(cp),
            (Kern::Compiled { sim, ports }, KernCheckpoint::Compiled { sim: cp, ports: p }) => {
                sim.rewind(cp);
                ports.borrow_mut().clone_from(p);
            }
            _ => unreachable!("a node rewinds to its own kernel's checkpoint"),
        }
    }
}

impl SigRead for Kern {
    fn read<T: WordValue>(&self, sig: Signal<T>) -> T {
        match self {
            Kern::Event(sim) => sim.value(sig),
            Kern::Compiled { sim, .. } => sim.value(sig),
        }
    }
}

impl SigWrite for Kern {
    fn write<T: WordValue>(&mut self, sig: Signal<T>, value: T) {
        match self {
            Kern::Event(sim) => sim.drive(sig, value),
            Kern::Compiled { sim, .. } => sim.drive(sig, value),
        }
    }
}

/// Where the evaluated-but-uncommitted plan lives between the comb and
/// clocked processes, on either backend. The comb process overwrites one
/// reused `Plan` in place and sets `valid`; the clocked process commits
/// it only when `valid` is set. Together with the comb process's reused
/// input buffer and [`EvalScratch`], this keeps the per-cycle evaluation
/// allocation-free on both kernels.
#[derive(Clone)]
struct PlanBox {
    plan: Rc<RefCell<Plan>>,
    valid: Rc<Cell<bool>>,
}

impl PlanBox {
    fn new() -> Self {
        PlanBox {
            plan: Rc::new(RefCell::new(Plan::empty())),
            valid: Rc::new(Cell::new(false)),
        }
    }

    fn invalidate(&self) {
        self.valid.set(false);
    }

    /// The clocked half: commits the pending plan into the register
    /// state and consumes it. Returns false when no plan was pending.
    fn commit(&self, spec: &NodeSpec, state: &RefCell<NodeState>) -> bool {
        if !self.valid.replace(false) {
            return false;
        }
        spec.commit(&mut state.borrow_mut(), &self.plan.borrow());
        true
    }
}

/// Everything elaboration registers on a kernel, in a fixed order shared
/// by both backends.
struct Elab {
    clk: Signal<bool>,
    state_version: Signal<u64>,
    init_req: Vec<ReqWires>,
    init_r_gnt: Vec<Signal<bool>>,
    init_gnt: Vec<Signal<bool>>,
    init_rsp: Vec<RspWires>,
    tgt_req: Vec<ReqWires>,
    tgt_gnt: Vec<Signal<bool>>,
    tgt_rsp: Vec<RspWires>,
    tgt_r_gnt: Vec<Signal<bool>>,
    prog_valid: Signal<bool>,
    prog_prios: Vec<Signal<u8>>,
    branches: Vec<BranchId>,
}

/// Registers every wire and branch of the node. Both backends call this
/// with the same configuration, so `SignalId`s, names and branch labels
/// line up exactly across engines.
fn elaborate<S: SigAlloc>(sim: &mut S, config: &NodeConfig) -> Elab {
    let clk = sim.signal("clk", false);
    let state_version = sim.signal("state_version", 0u64);

    let ni = config.n_initiators;
    let nt = config.n_targets;
    let init_req: Vec<ReqWires> = (0..ni)
        .map(|i| ReqWires::add(sim, &format!("init{i}")))
        .collect();
    let init_r_gnt: Vec<Signal<bool>> = (0..ni)
        .map(|i| sim.signal(&format!("init{i}_r_gnt"), false))
        .collect();
    let init_gnt: Vec<Signal<bool>> = (0..ni)
        .map(|i| sim.signal(&format!("init{i}_gnt"), false))
        .collect();
    let init_rsp: Vec<RspWires> = (0..ni)
        .map(|i| RspWires::add(sim, &format!("init{i}")))
        .collect();
    let tgt_req: Vec<ReqWires> = (0..nt)
        .map(|t| ReqWires::add(sim, &format!("tgt{t}")))
        .collect();
    let tgt_gnt: Vec<Signal<bool>> = (0..nt)
        .map(|t| sim.signal(&format!("tgt{t}_gnt"), false))
        .collect();
    let tgt_rsp: Vec<RspWires> = (0..nt)
        .map(|t| RspWires::add(sim, &format!("tgt{t}")))
        .collect();
    let tgt_r_gnt: Vec<Signal<bool>> = (0..nt)
        .map(|t| sim.signal(&format!("tgt{t}_r_gnt"), false))
        .collect();
    let prog_valid = sim.signal("prog_valid", false);
    let prog_prios: Vec<Signal<u8>> = (0..ni)
        .map(|i| sim.signal(&format!("prog_pri{i}"), 0u8))
        .collect();

    let branches: Vec<BranchId> = ProbePoint::ALL
        .iter()
        .map(|p| sim.branch(&format!("node/{}", p.name())))
        .collect();

    Elab {
        clk,
        state_version,
        init_req,
        init_r_gnt,
        init_gnt,
        init_rsp,
        tgt_req,
        tgt_gnt,
        tgt_rsp,
        tgt_r_gnt,
        prog_valid,
        prog_prios,
        branches,
    }
}

impl Elab {
    /// Sensitivity list of the combinational process: every input wire
    /// plus the state version bumped by the clocked process.
    fn comb_sensitivity(&self) -> Vec<SignalId> {
        let mut sensitivity: Vec<SignalId> = vec![self.state_version.id(), self.prog_valid.id()];
        for w in &self.init_req {
            sensitivity.extend(w.signal_ids());
        }
        sensitivity.extend(self.init_r_gnt.iter().map(|s| s.id()));
        sensitivity.extend(self.tgt_gnt.iter().map(|s| s.id()));
        for w in &self.tgt_rsp {
            sensitivity.extend(w.signal_ids());
        }
        sensitivity.extend(self.prog_prios.iter().map(|s| s.id()));
        sensitivity
    }

    /// Every output wire the combinational process drives — the write
    /// set the compiled backend's levelizer needs up front.
    fn comb_writes(&self) -> Vec<SignalId> {
        let mut writes: Vec<SignalId> = Vec::new();
        writes.extend(self.init_gnt.iter().map(|s| s.id()));
        for w in &self.init_rsp {
            writes.extend(w.signal_ids());
        }
        for w in &self.tgt_req {
            writes.extend(w.signal_ids());
        }
        writes.extend(self.tgt_r_gnt.iter().map(|s| s.id()));
        writes
    }

    /// Clones the wire handles the comb process closure captures. Wire
    /// bundles hold only Copy signal handles, so rebuilding is cheap.
    fn comb_wires(&self) -> CombWires {
        CombWires {
            init_req: self.init_req.iter().map(clone_req).collect(),
            init_r_gnt: self.init_r_gnt.clone(),
            init_gnt: self.init_gnt.clone(),
            init_rsp: self.init_rsp.iter().map(clone_rsp).collect(),
            tgt_req: self.tgt_req.iter().map(clone_req).collect(),
            tgt_gnt: self.tgt_gnt.clone(),
            tgt_rsp: self.tgt_rsp.iter().map(clone_rsp).collect(),
            tgt_r_gnt: self.tgt_r_gnt.clone(),
            prog_valid: self.prog_valid,
            prog_prios: self.prog_prios.clone(),
        }
    }
}

impl RtlNode {
    /// Elaborates the node for a configuration on the default (event)
    /// backend.
    pub fn new(config: NodeConfig) -> Self {
        Self::with_bugs(config, &[])
    }

    /// Elaborates the node on the selected simulation backend.
    pub fn with_engine(config: NodeConfig, engine: SimBackend) -> Self {
        Self::with_bugs_engine(config, &[], engine)
    }

    /// Elaborates the node with defects from the [`RtlBug`] catalogue
    /// injected (mutation qualification). The spec is cloned into the
    /// kernel process closures here, so bugs cannot be added after
    /// elaboration.
    pub fn with_bugs(config: NodeConfig, bugs: &[RtlBug]) -> Self {
        Self::with_bugs_engine(config, bugs, SimBackend::Event)
    }

    /// Elaborates the node with injected defects on the selected backend.
    pub fn with_bugs_engine(config: NodeConfig, bugs: &[RtlBug], engine: SimBackend) -> Self {
        let spec = NodeSpec::with_bugs(config.clone(), bugs);
        let state = Rc::new(RefCell::new(spec.initial_state()));
        let eval_ns = Rc::new(Cell::new(0u64));
        let eval_timing = Rc::new(Cell::new(false));

        let plan = PlanBox::new();

        let (mut kern, e) = match engine {
            SimBackend::Event => {
                let mut sim = Simulator::new();
                let e = elaborate(&mut sim, &config);
                let sensitivity = e.comb_sensitivity();

                let wires = e.comb_wires();
                let branches = e.branches.clone();
                let comb_spec = spec.clone();
                let comb_state = Rc::clone(&state);
                let comb_plan = plan.clone();
                let mut inputs = DutInputs::idle(&config);
                let mut scratch = EvalScratch::default();
                let timing = Rc::clone(&eval_timing);
                let ns = Rc::clone(&eval_ns);
                sim.add_comb_process("node_comb", &sensitivity, move |ctx| {
                    wires.sample_inputs_into(ctx, &mut inputs);
                    let mut p = comb_plan.plan.borrow_mut();
                    {
                        let st = comb_state.borrow();
                        let t0 = timing.get().then(Instant::now);
                        let mut probe = |pp: ProbePoint| ctx_cov(ctx, &branches, pp);
                        comb_spec.evaluate_into(&st, &inputs, &mut probe, &mut scratch, &mut p);
                        if let Some(t0) = t0 {
                            ns.set(ns.get() + t0.elapsed().as_nanos() as u64);
                        }
                    }
                    wires.drive_outputs(ctx, &p.outputs);
                    comb_plan.valid.set(true);
                });

                let seq_spec = spec.clone();
                let seq_state = Rc::clone(&state);
                let seq_plan = plan.clone();
                let state_version = e.state_version;
                sim.add_clocked_process("node_seq", e.clk, Edge::Rising, move |ctx| {
                    if seq_plan.commit(&seq_spec, &seq_state) {
                        let v = ctx.get(state_version);
                        ctx.set(state_version, v + 1);
                    }
                });

                (Kern::Event(sim), e)
            }
            SimBackend::Compiled => {
                let mut sim = CompiledSim::new();
                let e = elaborate(&mut sim, &config);
                let sensitivity = e.comb_sensitivity();
                let writes = e.comb_writes();

                let branches = e.branches.clone();
                let comb_spec = spec.clone();
                let comb_state = Rc::clone(&state);
                let comb_plan = plan.clone();
                let ports: Rc<RefCell<DutInputs>> = Rc::new(RefCell::new(DutInputs::idle(&config)));
                let comb_ports = Rc::clone(&ports);
                let mut scratch = EvalScratch::default();
                let timing = Rc::clone(&eval_timing);
                let ns = Rc::clone(&eval_ns);
                sim.add_comb_process("node_comb", &sensitivity, &writes, move |ctx| {
                    // The input wires woke this process; their settled
                    // values are exactly the snapshot `drive_inputs`
                    // cached, so the per-signal reassembly is skipped.
                    let inputs = comb_ports.borrow();
                    let st = comb_state.borrow();
                    let mut p = comb_plan.plan.borrow_mut();
                    let t0 = timing.get().then(Instant::now);
                    {
                        let mut probe = |pp: ProbePoint| ctx_cov_compiled(ctx, &branches, pp);
                        comb_spec.evaluate_into(&st, &inputs, &mut probe, &mut scratch, &mut p);
                    }
                    if let Some(t0) = t0 {
                        ns.set(ns.get() + t0.elapsed().as_nanos() as u64);
                    }
                    comb_plan.valid.set(true);
                });

                let seq_spec = spec.clone();
                let seq_state = Rc::clone(&state);
                let seq_plan = plan.clone();
                let state_version = e.state_version;
                sim.add_clocked_process(
                    "node_seq",
                    e.clk,
                    Edge::Rising,
                    &[state_version.id()],
                    move |ctx| {
                        if seq_plan.commit(&seq_spec, &seq_state) {
                            let v = ctx.get(state_version);
                            ctx.set(state_version, v + 1);
                        }
                    },
                );

                (Kern::Compiled { sim, ports }, e)
            }
        };

        kern.settle().expect("node elaboration settles");
        let elaborated = Checkpoint {
            kern: kern.checkpoint(),
            plan: plan.plan.borrow().clone(),
            plan_valid: plan.valid.get(),
        };
        RtlNode {
            spec,
            kern,
            clk: e.clk,
            state,
            plan,
            state_version: e.state_version,
            init_req: e.init_req,
            init_r_gnt: e.init_r_gnt,
            init_gnt: e.init_gnt,
            init_rsp: e.init_rsp,
            tgt_req: e.tgt_req,
            tgt_gnt: e.tgt_gnt,
            tgt_rsp: e.tgt_rsp,
            tgt_r_gnt: e.tgt_r_gnt,
            prog_valid: e.prog_valid,
            prog_prios: e.prog_prios,
            eval_ns,
            eval_timing,
            cycles: 0,
            elaborated,
        }
    }

    /// Restores the node to the state elaboration left it in, exactly:
    /// the kernel (signal values, process runs, branch hits, time and work
    /// counters), the register state, the pending plan, the cycle count,
    /// the compiled port cache and the evaluation timer. What runs next
    /// behaves and counts as it would on a freshly elaborated node, so a
    /// campaign can elaborate a view once and rewind it per cell.
    ///
    /// Unlike [`DutView::reset`], which keeps the structural coverage
    /// accumulating across runs, `rewind` also rewinds the coverage, and
    /// it detaches any attached metrics registry. An internal trace keeps
    /// what it recorded.
    pub fn rewind(&mut self) {
        self.kern.rewind(&self.elaborated.kern);
        *self.state.borrow_mut() = self.spec.initial_state();
        self.plan
            .plan
            .borrow_mut()
            .clone_from(&self.elaborated.plan);
        self.plan.valid.set(self.elaborated.plan_valid);
        self.eval_ns.set(0);
        self.cycles = 0;
    }

    /// The simulation backend this node was elaborated onto.
    pub fn engine(&self) -> SimBackend {
        match &self.kern {
            Kern::Event(_) => SimBackend::Event,
            Kern::Compiled { .. } => SimBackend::Compiled,
        }
    }

    /// Number of clock cycles stepped since construction or reset.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The structural (process/branch) coverage collected so far — the RTL
    /// stand-in for the paper's line/branch code coverage.
    pub fn activity_coverage(&self) -> ActivityCoverage {
        self.kern.activity_coverage()
    }

    /// Scheduling statistics of the compiled backend; `None` on the event
    /// backend.
    pub fn compiled_stats(&self) -> Option<CompiledStats> {
        match &self.kern {
            Kern::Event(_) => None,
            Kern::Compiled { sim, .. } => Some(sim.stats()),
        }
    }

    /// Starts recording every internal kernel signal (wires *and* the
    /// node's registers) for [`RtlNode::internal_trace_vcd`]. This is the
    /// RTL-only debugging visibility the paper's flow gets from NCSim —
    /// the BCA view has no such signals, so no equivalent exists there.
    /// Only the event backend records internal traces; on the compiled
    /// backend this is a no-op (re-run the scenario on the event engine
    /// to debug at wire level).
    pub fn enable_internal_trace(&mut self) {
        if let Kern::Event(sim) = &mut self.kern {
            sim.set_trace(sim_kernel::VecTrace::default());
            sim.trace_all();
        }
    }

    /// Renders everything recorded since
    /// [`RtlNode::enable_internal_trace`] as a VCD document; `None` if
    /// tracing was never enabled (always `None` on the compiled backend).
    pub fn internal_trace_vcd(&self) -> Option<String> {
        match &self.kern {
            Kern::Event(sim) => {
                let trace: &sim_kernel::VecTrace = sim.trace()?;
                Some(crate::trace::render_kernel_trace(sim, trace))
            }
            Kern::Compiled { .. } => None,
        }
    }

    fn drive_inputs(&mut self, inputs: &DutInputs) {
        let cfg = self.spec.config();
        let ni = cfg.n_initiators;
        assert_eq!(inputs.initiator.len(), ni, "initiator count");
        assert_eq!(inputs.target.len(), cfg.n_targets, "target count");
        match &mut self.kern {
            Kern::Event(sim) => {
                for (i, p) in inputs.initiator.iter().enumerate() {
                    self.init_req[i].drive(sim, p.req, &p.cell);
                    sim.drive(self.init_r_gnt[i], p.r_gnt);
                }
                for (t, p) in inputs.target.iter().enumerate() {
                    sim.drive(self.tgt_gnt[t], p.gnt);
                    self.tgt_rsp[t].drive(sim, p.r_req, &p.r_cell);
                }
                match &inputs.prog {
                    Some(ProgCommand { priorities }) => {
                        sim.drive(self.prog_valid, true);
                        for (i, s) in self.prog_prios.iter().enumerate() {
                            sim.drive(*s, priorities.get(i).copied().unwrap_or(0));
                        }
                    }
                    None => sim.drive(self.prog_valid, false),
                }
            }
            Kern::Compiled { sim, ports } => {
                // Compiled port marshalling (see [`Kern`]): the cache
                // mirrors the wires exactly, so a port whose struct is
                // unchanged needs no wire traffic at all — every one of
                // its drives would be suppressed as a no-op anyway. Ports
                // that did change drive their wires as usual; the wires'
                // committed-change detection is what wakes the comb
                // process, exactly as on the event kernel.
                let mut cache = ports.borrow_mut();
                for (i, p) in inputs.initiator.iter().enumerate() {
                    if *p != cache.initiator[i] {
                        cache.initiator[i] = *p;
                        self.init_req[i].drive(sim, p.req, &p.cell);
                        sim.drive(self.init_r_gnt[i], p.r_gnt);
                    }
                }
                for (t, p) in inputs.target.iter().enumerate() {
                    if *p != cache.target[t] {
                        cache.target[t] = *p;
                        sim.drive(self.tgt_gnt[t], p.gnt);
                        self.tgt_rsp[t].drive(sim, p.r_req, &p.r_cell);
                    }
                }
                if inputs.prog != cache.prog {
                    match &inputs.prog {
                        Some(ProgCommand { priorities }) => {
                            sim.drive(self.prog_valid, true);
                            // The cache holds what the event comb would
                            // sample off the wires: exactly one entry per
                            // initiator, zero-padded.
                            let q = cache.prog.get_or_insert_with(|| ProgCommand {
                                priorities: Vec::new(),
                            });
                            q.priorities.clear();
                            for (i, s) in self.prog_prios.iter().enumerate() {
                                let pri = priorities.get(i).copied().unwrap_or(0);
                                q.priorities.push(pri);
                                sim.drive(*s, pri);
                            }
                        }
                        None => {
                            cache.prog = None;
                            sim.drive(self.prog_valid, false);
                        }
                    }
                }
            }
        }
    }

    fn sample_outputs(&self) -> DutOutputs {
        if let Kern::Compiled { .. } = self.kern {
            // Compiled port marshalling (see [`Kern`]): the settled plan
            // holds this cycle's outputs verbatim.
            return self.plan.plan.borrow().outputs.clone();
        }
        let cfg = self.spec.config();
        let mut out = DutOutputs::idle(cfg);
        for i in 0..cfg.n_initiators {
            out.initiator[i].gnt = self.kern.read(self.init_gnt[i]);
            let (r_req, cell) = self.init_rsp[i].sample(&self.kern);
            out.initiator[i].r_req = r_req;
            out.initiator[i].r_cell = cell;
        }
        for t in 0..cfg.n_targets {
            let (req, cell) = self.tgt_req[t].sample(&self.kern);
            out.target[t].req = req;
            out.target[t].cell = cell;
            out.target[t].r_gnt = self.kern.read(self.tgt_r_gnt[t]);
        }
        out
    }
}

impl DutView for RtlNode {
    fn config(&self) -> &NodeConfig {
        self.spec.config()
    }

    fn attach_metrics(&mut self, registry: &telemetry::MetricsRegistry) {
        match &mut self.kern {
            Kern::Event(sim) => sim.attach_metrics(registry),
            Kern::Compiled { sim, .. } => sim.attach_metrics(registry),
        }
    }

    fn view_kind(&self) -> ViewKind {
        ViewKind::Rtl
    }

    fn set_phase_timing(&mut self, enabled: bool) {
        self.eval_timing.set(enabled);
    }

    fn phase_eval_us(&self) -> u64 {
        self.eval_ns.get() / 1_000
    }

    fn reset(&mut self) {
        *self.state.borrow_mut() = self.spec.initial_state();
        self.plan.invalidate();
        self.cycles = 0;
        let idle = DutInputs::idle(self.spec.config());
        self.drive_inputs(&idle);
        let v = self.kern.read(self.state_version);
        self.kern.write(self.state_version, v + 1);
        self.kern.settle().expect("reset settles");
    }

    fn step(&mut self, inputs: &DutInputs) -> DutOutputs {
        self.drive_inputs(inputs);
        self.kern.settle().expect("combinational paths settle");
        let outputs = self.sample_outputs();
        // Rising edge halfway through the cycle: the clocked process
        // commits the planned state. Kernel time advances so internal
        // traces carry real timestamps.
        self.kern.run_for(5).expect("idle time advance");
        self.kern.write(self.clk, true);
        self.kern.settle().expect("posedge settles");
        // Falling edge closes the cycle.
        self.kern.run_for(5).expect("idle time advance");
        self.kern.write(self.clk, false);
        self.kern.settle().expect("negedge settles");
        self.cycles += 1;
        outputs
    }
}

impl std::fmt::Debug for RtlNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtlNode")
            .field("config", &self.spec.config().name)
            .field("engine", &self.engine())
            .field("cycles", &self.cycles)
            .field("signals", &self.kern.signal_count())
            .finish()
    }
}

/// The wire handles captured by the combinational process.
struct CombWires {
    init_req: Vec<ReqWires>,
    init_r_gnt: Vec<Signal<bool>>,
    init_gnt: Vec<Signal<bool>>,
    init_rsp: Vec<RspWires>,
    tgt_req: Vec<ReqWires>,
    tgt_gnt: Vec<Signal<bool>>,
    tgt_rsp: Vec<RspWires>,
    tgt_r_gnt: Vec<Signal<bool>>,
    prog_valid: Signal<bool>,
    prog_prios: Vec<Signal<u8>>,
}

impl CombWires {
    /// Samples the input wires into an existing, correctly-sized
    /// `DutInputs` buffer, reusing its programming-port vector, so the
    /// event comb process allocates nothing per activation.
    fn sample_inputs_into<R: SigRead>(&self, r: &R, inputs: &mut DutInputs) {
        for (i, w) in self.init_req.iter().enumerate() {
            let (req, cell) = w.sample(r);
            inputs.initiator[i].req = req;
            inputs.initiator[i].cell = cell;
            inputs.initiator[i].r_gnt = r.read(self.init_r_gnt[i]);
        }
        for (t, w) in self.tgt_rsp.iter().enumerate() {
            inputs.target[t].gnt = r.read(self.tgt_gnt[t]);
            let (r_req, cell) = w.sample(r);
            inputs.target[t].r_req = r_req;
            inputs.target[t].r_cell = cell;
        }
        if r.read(self.prog_valid) {
            let prog = inputs.prog.get_or_insert_with(|| ProgCommand {
                priorities: Vec::new(),
            });
            prog.priorities.clear();
            prog.priorities
                .extend(self.prog_prios.iter().map(|s| r.read(*s)));
        } else {
            inputs.prog = None;
        }
    }

    fn drive_outputs<W: SigWrite>(&self, w: &mut W, outputs: &DutOutputs) {
        for (i, p) in outputs.initiator.iter().enumerate() {
            w.write(self.init_gnt[i], p.gnt);
            self.init_rsp[i].drive(w, p.r_req, &p.r_cell);
        }
        for (t, p) in outputs.target.iter().enumerate() {
            self.tgt_req[t].drive(w, p.req, &p.cell);
            w.write(self.tgt_r_gnt[t], p.r_gnt);
        }
    }
}

fn clone_req(w: &ReqWires) -> ReqWires {
    ReqWires {
        req: w.req,
        addr: w.addr,
        opc: w.opc,
        data: w.data,
        be: w.be,
        eop: w.eop,
        lock: w.lock,
        tid: w.tid,
        src: w.src,
        pri: w.pri,
    }
}

fn clone_rsp(w: &RspWires) -> RspWires {
    RspWires {
        r_req: w.r_req,
        data: w.data,
        err: w.err,
        eop: w.eop,
        tid: w.tid,
        src: w.src,
    }
}

fn ctx_cov(ctx: &mut sim_kernel::ProcCtx<'_>, branches: &[BranchId], p: ProbePoint) {
    ctx.cov(branches[p.index()]);
}

fn ctx_cov_compiled(ctx: &mut sim_kernel::CompiledCtx<'_>, branches: &[BranchId], p: ProbePoint) {
    ctx.cov(branches[p.index()]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbus_protocol::packet::{PacketParams, RequestPacket};
    use stbus_protocol::{InitiatorId, Opcode, RspCell, TransactionId, TransferSize};

    fn params(cfg: &NodeConfig) -> PacketParams {
        PacketParams {
            bus_bytes: cfg.bus_bytes,
            protocol: cfg.protocol,
            endianness: cfg.endianness,
        }
    }

    #[test]
    fn idle_node_stays_idle() {
        let cfg = NodeConfig::reference();
        let mut node = RtlNode::new(cfg.clone());
        for _ in 0..10 {
            let out = node.step(&DutInputs::idle(&cfg));
            assert!(out.initiator.iter().all(|p| !p.gnt && !p.r_req));
            assert!(out.target.iter().all(|p| !p.req));
        }
        assert_eq!(node.cycles(), 10);
    }

    #[test]
    fn request_flows_through_to_target_port() {
        let cfg = NodeConfig::reference();
        let mut node = RtlNode::new(cfg.clone());
        let pkt = RequestPacket::build(
            Opcode::load(TransferSize::B8),
            0x0000_0020,
            &[],
            params(&cfg),
            InitiatorId(1),
            TransactionId(7),
            0,
            false,
        )
        .unwrap();
        let mut inputs = DutInputs::idle(&cfg);
        inputs.initiator[1].req = true;
        inputs.initiator[1].cell = pkt.cells()[0];
        inputs.target[0].gnt = true;
        let out = node.step(&inputs);
        assert!(out.initiator[1].gnt);
        assert!(out.target[0].req);
        assert_eq!(out.target[0].cell.addr, 0x20);
        assert_eq!(out.target[0].cell.tid, TransactionId(7));
        assert_eq!(out.target[0].cell.src, InitiatorId(1));
    }

    #[test]
    fn response_routes_back_to_initiator() {
        let cfg = NodeConfig::reference();
        let mut node = RtlNode::new(cfg.clone());
        // Issue a load from initiator 0 to target 1 and complete it.
        let pkt = RequestPacket::build(
            Opcode::load(TransferSize::B8),
            0x0100_0000,
            &[],
            params(&cfg),
            InitiatorId(0),
            TransactionId(3),
            0,
            false,
        )
        .unwrap();
        let mut inputs = DutInputs::idle(&cfg);
        inputs.initiator[0].req = true;
        inputs.initiator[0].cell = pkt.cells()[0];
        inputs.initiator[0].r_gnt = true;
        inputs.target[1].gnt = true;
        let out = node.step(&inputs);
        assert!(out.initiator[0].gnt);
        assert!(out.target[1].req);

        // Target 1 responds next cycle.
        let mut inputs = DutInputs::idle(&cfg);
        inputs.initiator[0].r_gnt = true;
        inputs.target[1].r_req = true;
        inputs.target[1].r_cell = RspCell::ok(InitiatorId(0), TransactionId(3), true);
        let out = node.step(&inputs);
        assert!(out.initiator[0].r_req);
        assert!(out.target[1].r_gnt);
        assert_eq!(out.initiator[0].r_cell.tid, TransactionId(3));
    }

    #[test]
    fn reset_restores_initial_behavior() {
        let cfg = NodeConfig::reference();
        let mut node = RtlNode::new(cfg.clone());
        let pkt = RequestPacket::build(
            Opcode::load(TransferSize::B8),
            0x0,
            &[],
            params(&cfg),
            InitiatorId(0),
            TransactionId(1),
            0,
            false,
        )
        .unwrap();
        let mut inputs = DutInputs::idle(&cfg);
        inputs.initiator[0].req = true;
        inputs.initiator[0].cell = pkt.cells()[0];
        inputs.target[0].gnt = true;
        let first = node.step(&inputs);
        node.reset();
        assert_eq!(node.cycles(), 0);
        let again = node.step(&inputs);
        assert_eq!(first.initiator[0].gnt, again.initiator[0].gnt);
        assert_eq!(first.target[0].req, again.target[0].req);
    }

    #[test]
    fn coverage_accumulates_on_traffic() {
        let cfg = NodeConfig::reference();
        let mut node = RtlNode::new(cfg.clone());
        let pkt = RequestPacket::build(
            Opcode::load(TransferSize::B8),
            0x0,
            &[],
            params(&cfg),
            InitiatorId(0),
            TransactionId(1),
            0,
            false,
        )
        .unwrap();
        let mut inputs = DutInputs::idle(&cfg);
        inputs.initiator[0].req = true;
        inputs.initiator[0].cell = pkt.cells()[0];
        inputs.target[0].gnt = true;
        node.step(&inputs);
        let cov = node.activity_coverage();
        assert_eq!(cov.process_coverage(), 1.0);
        let fwd = cov
            .branches
            .iter()
            .find(|b| b.name == "node/request_forwarded")
            .unwrap();
        assert!(fwd.hits > 0);
    }

    #[test]
    fn determinism_same_inputs_same_outputs() {
        let cfg = NodeConfig::reference();
        let mut a = RtlNode::new(cfg.clone());
        let mut b = RtlNode::new(cfg.clone());
        let pkt = RequestPacket::build(
            Opcode::store(TransferSize::B16),
            0x0100_0040,
            &(0..16).collect::<Vec<u8>>(),
            params(&cfg),
            InitiatorId(2),
            TransactionId(5),
            0,
            false,
        )
        .unwrap();
        for k in 0..pkt.len() {
            let mut inputs = DutInputs::idle(&cfg);
            inputs.initiator[2].req = true;
            inputs.initiator[2].cell = pkt.cells()[k];
            inputs.target[1].gnt = true;
            let oa = a.step(&inputs);
            let ob = b.step(&inputs);
            assert_eq!(oa, ob, "cycle {k}");
        }
    }

    /// A deterministic little traffic generator shared by the
    /// cross-engine parity tests.
    fn lcg_traffic(cfg: &NodeConfig, cycles: usize) -> Vec<DutInputs> {
        let mut seed: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        let p = params(cfg);
        (0..cycles)
            .map(|k| {
                let mut inputs = DutInputs::idle(cfg);
                for i in 0..cfg.n_initiators {
                    if next() % 3 == 0 {
                        let pkt = RequestPacket::build(
                            Opcode::load(TransferSize::B8),
                            (next() % 0x8000) * 8,
                            &[],
                            p,
                            InitiatorId(i as u8),
                            TransactionId((next() % 16) as u8),
                            (next() % 4) as u8,
                            false,
                        )
                        .unwrap();
                        inputs.initiator[i].req = true;
                        inputs.initiator[i].cell = pkt.cells()[0];
                    }
                    inputs.initiator[i].r_gnt = next() % 4 != 0;
                }
                for t in 0..cfg.n_targets {
                    inputs.target[t].gnt = next() % 4 != 0;
                    if next() % 5 == 0 {
                        inputs.target[t].r_req = true;
                        inputs.target[t].r_cell = RspCell::ok(
                            InitiatorId((next() % cfg.n_initiators as u64) as u8),
                            TransactionId((next() % 16) as u8),
                            true,
                        );
                    }
                }
                if k % 37 == 17 {
                    inputs.prog = Some(ProgCommand {
                        priorities: (0..cfg.n_initiators).map(|i| (i % 4) as u8).collect(),
                    });
                }
                inputs
            })
            .collect()
    }

    #[test]
    fn compiled_engine_matches_event_engine_cycle_by_cycle() {
        let cfg = NodeConfig::reference();
        let mut ev = RtlNode::with_engine(cfg.clone(), SimBackend::Event);
        let mut cp = RtlNode::with_engine(cfg.clone(), SimBackend::Compiled);
        assert_eq!(ev.engine(), SimBackend::Event);
        assert_eq!(cp.engine(), SimBackend::Compiled);
        for (k, inputs) in lcg_traffic(&cfg, 300).iter().enumerate() {
            let oe = ev.step(inputs);
            let oc = cp.step(inputs);
            assert_eq!(oe, oc, "cycle {k}");
        }
        // The structural coverage report must match exactly: same process
        // run counts, same branch hit counts.
        let ce = ev.activity_coverage();
        let cc = cp.activity_coverage();
        assert_eq!(ce.processes, cc.processes);
        assert_eq!(ce.branches, cc.branches);
    }

    #[test]
    fn compiled_engine_parity_survives_reset() {
        let cfg = NodeConfig::reference();
        let mut ev = RtlNode::with_engine(cfg.clone(), SimBackend::Event);
        let mut cp = RtlNode::with_engine(cfg.clone(), SimBackend::Compiled);
        let traffic = lcg_traffic(&cfg, 60);
        for inputs in &traffic {
            ev.step(inputs);
            cp.step(inputs);
        }
        ev.reset();
        cp.reset();
        for (k, inputs) in traffic.iter().enumerate() {
            let oe = ev.step(inputs);
            let oc = cp.step(inputs);
            assert_eq!(oe, oc, "post-reset cycle {k}");
        }
    }

    #[test]
    fn rewound_node_matches_a_freshly_elaborated_one() {
        let cfg = NodeConfig::reference();
        let traffic = lcg_traffic(&cfg, 150);
        for engine in SimBackend::ALL {
            let mut node = RtlNode::with_engine(cfg.clone(), engine);
            let stale = telemetry::MetricsRegistry::new();
            node.attach_metrics(&stale);
            node.set_phase_timing(true);
            for (k, inputs) in traffic.iter().enumerate() {
                if k == 90 {
                    node.reset();
                }
                node.step(inputs);
            }
            node.rewind();
            // A rewound node publishes nothing until a registry is
            // attached again.
            let published = stale.snapshot();
            for inputs in &traffic[..20] {
                node.step(inputs);
            }
            assert_eq!(stale.snapshot(), published, "{engine}: rewind detaches");
            node.rewind();

            let mut fresh = RtlNode::with_engine(cfg.clone(), engine);
            assert_eq!(node.cycles(), 0);
            assert_eq!(node.phase_eval_us(), 0);
            assert_eq!(node.activity_coverage(), fresh.activity_coverage());
            assert_eq!(node.compiled_stats(), fresh.compiled_stats());

            // Stepped straight after the rewind (no reset in between), then
            // again after a reset, the two nodes agree cycle for cycle and
            // count the same kernel work into their own registries.
            let (rewound, elaborated) = (
                telemetry::MetricsRegistry::new(),
                telemetry::MetricsRegistry::new(),
            );
            node.attach_metrics(&rewound);
            fresh.attach_metrics(&elaborated);
            for round in 0..2 {
                for (k, inputs) in traffic.iter().enumerate() {
                    let (a, b) = (node.step(inputs), fresh.step(inputs));
                    assert_eq!(a, b, "{engine} round {round} cycle {k}");
                }
                node.reset();
                fresh.reset();
            }
            assert_eq!(node.activity_coverage(), fresh.activity_coverage());
            assert_eq!(node.compiled_stats(), fresh.compiled_stats());
            assert_eq!(rewound.snapshot(), elaborated.snapshot(), "{engine}");
            assert_eq!(stale.snapshot(), published, "{engine}");
        }
    }

    #[test]
    fn compiled_engine_schedule_has_no_feedback_cones() {
        let cfg = NodeConfig::reference();
        let node = RtlNode::with_engine(cfg, SimBackend::Compiled);
        let stats = node.compiled_stats().expect("compiled backend");
        assert_eq!(stats.fallback_iterations, 0, "node netlist is acyclic");
    }

    #[test]
    fn phase_timing_accumulates_eval_time() {
        let cfg = NodeConfig::reference();
        let mut node = RtlNode::with_engine(cfg.clone(), SimBackend::Compiled);
        node.set_phase_timing(true);
        for inputs in lcg_traffic(&cfg, 50) {
            node.step(&inputs);
        }
        assert!(node.phase_eval_us() > 0 || node.cycles() == 0);
    }
}
