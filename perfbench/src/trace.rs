//! Outside-in tracing: timers around the calls into each layer's public
//! functions, made from the benchmark's own code.
//!
//! [`TracedView`] wraps any [`DutView`] and times `reset`/`step` (the
//! simulation layers), keeping every [`CycleRecord`] the testbench sees.
//! [`traced_run`] times [`Testbench::run`] around it — the testbench's
//! self time is the run minus the step time — and then replays the
//! recorded cycles through the public monitor, checker, scoreboard,
//! coverage and VCD-dump entry points, in the testbench's own order, to
//! split that self time by component. The replay must reproduce the
//! run's checker report, scoreboard verdict, coverage and VCD text
//! exactly; any difference is recorded as a fidelity error, which fails
//! the benchmark instead of producing a number.
//!
//! Work that only the traced run does — cloning the cycle records, the
//! replay and the fidelity comparisons — is accumulated in
//! [`Layers::trace_only`] and taken out of the traced wall, so the layer
//! times plus `unattributed_s` add up to the traced wall exactly.

use catg::{
    CycleRecord, FunctionalCoverage, MonitorEvent, PortId, PortMonitor, ProtocolChecker, RunResult,
    Scoreboard, TestSpec, Testbench, TestbenchOptions, VcdDump,
};
use stbus_protocol::{DutInputs, DutOutputs, DutView, NodeConfig, ViewKind};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Time and work per layer, accumulated over one traced campaign.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// RTL netlist elaboration (`RtlNode` construction).
    pub rtl_elaborate: Duration,
    /// RTL `reset` + `step`.
    pub rtl_step: Duration,
    /// RTL cycles stepped.
    pub rtl_cycles: u64,
    /// BCA `reset` + `step`.
    pub bca_step: Duration,
    /// BCA cycles stepped.
    pub bca_cycles: u64,
    /// TLM `reset` + `step`.
    pub tlm_step: Duration,
    /// TLM cycles stepped.
    pub tlm_cycles: u64,
    /// `Testbench::run` minus step time and record cloning.
    pub tb_self: Duration,
    /// Testbench runs.
    pub tb_runs: u64,
    /// Runs that reached the cycle limit without draining.
    pub hung_runs: u64,
    /// Replay: `PortMonitor::observe` over every port.
    pub monitor_observe: Duration,
    /// Replay: monitor events produced.
    pub monitor_events: u64,
    /// Replay: `ProtocolChecker::observe`.
    pub checker_observe: Duration,
    /// Replay: checks the checker passed.
    pub checker_checks: u64,
    /// Replay: checker violations (recorded plus suppressed).
    pub checker_violations: u64,
    /// Replay: `Scoreboard::observe`.
    pub scoreboard_observe: Duration,
    /// Replay: scoreboard comparisons that passed.
    pub scoreboard_checks: u64,
    /// Replay: `FunctionalCoverage::observe_cycle`/`observe_event` and
    /// the ordering notes.
    pub coverage_observe: Duration,
    /// Replay: `VcdDump::record`.
    pub trace_record: Duration,
    /// Replay: `VcdDump::finish`.
    pub trace_finish: Duration,
    /// Replay: VCD bytes produced.
    pub trace_bytes: u64,
    /// `stba::compare_vcd_with`.
    pub stba_cycle_compare: Duration,
    /// `stba::compare_transactions_with`.
    pub stba_tx_compare: Duration,
    /// STBA comparisons made.
    pub stba_compares: u64,
    /// VCD bytes handed to STBA.
    pub stba_bytes_in: u64,
    /// `cache::Store::get`.
    pub cache_get: Duration,
    /// `cache::Store::put`.
    pub cache_put: Duration,
    /// Store lookups answered.
    pub cache_hits: u64,
    /// Store lookups with no usable entry.
    pub cache_misses: u64,
    /// Payload bytes read from the store.
    pub cache_bytes_read: u64,
    /// Payload bytes written to the store.
    pub cache_bytes_written: u64,
    /// `cell_codec::encode`.
    pub codec_encode: Duration,
    /// `cell_codec::decode`.
    pub codec_decode: Duration,
    /// Report rendering (table plus rendered manifest or document).
    pub report_render: Duration,
    /// Rendered report bytes.
    pub report_bytes: u64,
    /// Cells whose verdict was a detection (qualification).
    pub mutation_detections: u64,
    /// Work only the traced run does (record cloning, replay, fidelity
    /// checks); excluded from the traced wall.
    pub trace_only: Duration,
    /// Fidelity failures: every one is a benchmark error.
    pub fidelity_errors: Vec<String>,
}

impl Layers {
    /// The layer times the traced wall is reconciled against (replay
    /// times are excluded: they only break `tb_self` down).
    pub fn attributed(&self) -> Duration {
        self.rtl_elaborate
            + self.rtl_step
            + self.bca_step
            + self.tlm_step
            + self.tb_self
            + self.stba_cycle_compare
            + self.stba_tx_compare
            + self.cache_get
            + self.cache_put
            + self.codec_encode
            + self.codec_decode
            + self.report_render
    }

    fn add_step(&mut self, view: ViewKind, step: Duration, cycles: u64) {
        let (time, count) = match view {
            ViewKind::Rtl => (&mut self.rtl_step, &mut self.rtl_cycles),
            ViewKind::Bca => (&mut self.bca_step, &mut self.bca_cycles),
            ViewKind::Tlm => (&mut self.tlm_step, &mut self.tlm_cycles),
        };
        *time += step;
        *count += cycles;
    }

    /// Times one STBA comparison of `a` against `b`.
    pub fn compare<T>(&mut self, tx_order: bool, a: &str, b: &str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        let elapsed = started.elapsed();
        if tx_order {
            self.stba_tx_compare += elapsed;
        } else {
            self.stba_cycle_compare += elapsed;
        }
        self.stba_compares += 1;
        self.stba_bytes_in += (a.len() + b.len()) as u64;
        out
    }

    /// Times a design-view construction; counted as elaboration when it
    /// produced the RTL view.
    pub fn build_view(&mut self, build: impl FnOnce() -> Box<dyn DutView>) -> Box<dyn DutView> {
        let started = Instant::now();
        let view = build();
        if view.view_kind() == ViewKind::Rtl {
            self.rtl_elaborate += started.elapsed();
        }
        view
    }

    /// Times the rendering of a report; `render` returns the rendered
    /// texts.
    pub fn render(&mut self, render: impl FnOnce() -> Vec<String>) -> Vec<String> {
        let started = Instant::now();
        let texts = render();
        self.report_render += started.elapsed();
        self.report_bytes += texts.iter().map(|t| t.len() as u64).sum::<u64>();
        texts
    }

    /// Records a fidelity failure.
    pub fn fidelity_error(&mut self, what: impl Into<String>) {
        self.fidelity_errors.push(what.into());
    }
}

/// A [`DutView`] wrapper timing `reset`/`step` and keeping the cycle
/// records the testbench builds from them.
pub struct TracedView<'a> {
    inner: &'a mut dyn DutView,
    step: Duration,
    cycles: u64,
    records: Vec<CycleRecord>,
    record_clone: Duration,
}

impl<'a> TracedView<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn DutView) -> Self {
        TracedView {
            inner,
            step: Duration::ZERO,
            cycles: 0,
            records: Vec::new(),
            record_clone: Duration::ZERO,
        }
    }
}

impl DutView for TracedView<'_> {
    fn config(&self) -> &NodeConfig {
        self.inner.config()
    }

    fn view_kind(&self) -> ViewKind {
        self.inner.view_kind()
    }

    fn reset(&mut self) {
        let started = Instant::now();
        self.inner.reset();
        self.step += started.elapsed();
        self.records.clear();
        self.cycles = 0;
    }

    fn step(&mut self, inputs: &DutInputs) -> DutOutputs {
        let started = Instant::now();
        let outputs = self.inner.step(inputs);
        let stepped = Instant::now();
        self.step += stepped - started;
        self.records.push(CycleRecord {
            cycle: self.cycles,
            inputs: inputs.clone(),
            outputs: outputs.clone(),
        });
        self.record_clone += stepped.elapsed();
        self.cycles += 1;
        outputs
    }

    fn attach_metrics(&mut self, registry: &telemetry::MetricsRegistry) {
        self.inner.attach_metrics(registry);
    }

    fn set_phase_timing(&mut self, enabled: bool) {
        self.inner.set_phase_timing(enabled);
    }

    fn phase_eval_us(&self) -> u64 {
        self.inner.phase_eval_us()
    }
}

/// Runs `spec` on `dut` through `bench` with the view traced, then
/// replays the run through the environment components (see the module
/// docs). `options` must be the options `bench` was built with.
pub fn traced_run(
    bench: &Testbench,
    options: &TestbenchOptions,
    dut: &mut dyn DutView,
    spec: &TestSpec,
    seed: u64,
    layers: &mut Layers,
) -> RunResult {
    let view = dut.view_kind();
    let mut traced = TracedView::new(dut);
    let started = Instant::now();
    let result = bench.run(&mut traced, spec, seed);
    let run_time = started.elapsed();
    let TracedView {
        step,
        cycles,
        records,
        record_clone,
        ..
    } = traced;
    layers.add_step(view, step, cycles);
    layers.tb_self += run_time.saturating_sub(step + record_clone);
    layers.tb_runs += 1;
    if !result.completed {
        layers.hung_runs += 1;
    }
    let replay_started = Instant::now();
    replay(bench.config(), options, &records, &result, layers);
    drop(records);
    layers.trace_only += record_clone + replay_started.elapsed();
    result
}

/// Feeds recorded cycles through fresh environment components in the
/// testbench's order, timing each, and checks the outcome against the
/// run's own result.
fn replay(
    cfg: &NodeConfig,
    options: &TestbenchOptions,
    records: &[CycleRecord],
    result: &RunResult,
    layers: &mut Layers,
) {
    let mut monitors: Vec<PortMonitor> = (0..cfg.n_initiators)
        .map(PortId::Initiator)
        .chain((0..cfg.n_targets).map(PortId::Target))
        .map(PortMonitor::new)
        .collect();
    let mut checker = ProtocolChecker::new(cfg);
    if let Some(limit) = options.starvation_limit {
        checker.set_starvation_limit(limit);
    }
    let mut scoreboard = Scoreboard::new(cfg);
    let mut coverage = FunctionalCoverage::new(cfg);
    let mut vcd = result.vcd.is_some().then(|| VcdDump::new(cfg));
    let mut issue_order: Vec<VecDeque<Option<usize>>> = vec![VecDeque::new(); cfg.n_initiators];
    let mut events: Vec<MonitorEvent> = Vec::new();

    for rec in records {
        events.clear();
        let t = Instant::now();
        for m in &mut monitors {
            m.observe(rec, &mut events);
        }
        layers.monitor_observe += t.elapsed();
        layers.monitor_events += events.len() as u64;
        if options.checks {
            let t = Instant::now();
            checker.observe(rec);
            layers.checker_observe += t.elapsed();
        }
        if options.collect_coverage {
            let t = Instant::now();
            coverage.observe_cycle(rec);
            layers.coverage_observe += t.elapsed();
        }
        for e in &events {
            if options.checks {
                let t = Instant::now();
                scoreboard.observe(e);
                layers.scoreboard_observe += t.elapsed();
            }
            let t = Instant::now();
            if options.collect_coverage {
                coverage.observe_event(e);
            }
            match e {
                MonitorEvent::RequestPacket {
                    port: PortId::Initiator(i),
                    packet,
                    ..
                } => {
                    let dest = cfg.address_map.decode(packet.addr()).map(|t| t.0 as usize);
                    issue_order[*i].push_back(dest);
                    if issue_order[*i].len() >= 2 {
                        coverage.note_outstanding_gt1();
                    }
                }
                MonitorEvent::ResponsePacket {
                    port: PortId::Initiator(i),
                    responder,
                    ..
                } => {
                    if issue_order[*i].front() != Some(responder) {
                        coverage.note_out_of_order();
                    }
                    if let Some(pos) = issue_order[*i].iter().position(|d| d == responder) {
                        issue_order[*i].remove(pos);
                    } else {
                        issue_order[*i].pop_front();
                    }
                }
                _ => {}
            }
            layers.coverage_observe += t.elapsed();
        }
        if let Some(v) = &mut vcd {
            let t = Instant::now();
            v.record(rec);
            layers.trace_record += t.elapsed();
        }
    }

    let what = format!(
        "{} {} seed {} {}",
        cfg.name, result.test, result.seed, result.view
    );
    let report = checker.into_report();
    layers.checker_checks += report.total_checks();
    layers.checker_violations += report.total_violations();
    if options.checks && format!("{report:?}") != format!("{:?}", result.checker) {
        layers.fidelity_error(format!("{what}: replayed checker report differs"));
    }
    layers.scoreboard_checks += scoreboard.checks();
    if options.checks
        && (scoreboard.checks() != result.scoreboard_checks
            || scoreboard.errors() != result.scoreboard_errors.as_slice())
    {
        layers.fidelity_error(format!("{what}: replayed scoreboard differs"));
    }
    if options.collect_coverage && coverage.report() != result.coverage {
        layers.fidelity_error(format!("{what}: replayed coverage differs"));
    }
    if let Some(v) = vcd {
        let t = Instant::now();
        let text = v.finish();
        layers.trace_finish += t.elapsed();
        layers.trace_bytes += text.len() as u64;
        if result.vcd.as_ref() != Some(&text) {
            layers.fidelity_error(format!("{what}: replayed VCD text differs"));
        }
    }
}
