//! The testbench: the paper's Figure 2/6 architecture around a pluggable
//! DUT view.

use crate::checker::{CheckerReport, ProtocolChecker};
use crate::constraint::ConstraintModel;
use crate::coverage::{CoverageReport, FunctionalCoverage};
use crate::harness::{InitiatorBfm, InitiatorStats};
use crate::monitor::{MonitorEvent, PortMonitor};
use crate::record::{CycleRecord, PortId};
use crate::scoreboard::{Scoreboard, ScoreboardError};
use crate::target::{TargetBfm, TargetProfile};
use crate::vcd_dump::VcdDump;
use stbus_protocol::{
    DutInputs, DutView, InitiatorPortIn, InitiatorPortOut, NodeConfig, ProgCommand, TargetPortIn,
    TargetPortOut, ViewKind,
};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use telemetry::{Json, Span, Telemetry};

/// Hard cycle limit of a run, including the drain phase.
const MAX_CYCLES: u64 = 50_000;

/// Knobs of a testbench run.
#[derive(Clone, Debug)]
pub struct TestbenchOptions {
    /// Capture the run's waveform as VCD text in [`RunResult::vcd`] — the
    /// paper's file-based flow, for exports and examples. Rendering the
    /// text costs far more than recording the trace it is rendered from.
    pub capture_vcd: bool,
    /// Capture the run's typed port trace in [`RunResult::trace`] — what
    /// the STBA comparators take.
    pub capture_trace: bool,
    /// Starvation-watchdog threshold override.
    pub starvation_limit: Option<u64>,
    /// Run the protocol checkers and scoreboard (default). Disabling
    /// them exists for the environment-overhead ablation only — a run
    /// without checks proves nothing.
    pub checks: bool,
    /// Collect functional coverage (default).
    pub collect_coverage: bool,
    /// Telemetry handle; every run is wrapped in a `tb.run` span and
    /// feeds the `tb.*` metrics. Disabled (zero-cost) by default.
    pub telemetry: Telemetry,
}

impl Default for TestbenchOptions {
    fn default() -> Self {
        TestbenchOptions {
            capture_vcd: false,
            capture_trace: false,
            starvation_limit: None,
            checks: true,
            collect_coverage: true,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// One of the (generic, configuration-independent) test cases:
/// constraint models for every port plus an optional programming-port
/// script. Directed tests usually build the models by lowering a
/// [`crate::TrafficProfile`] through
/// [`crate::TrafficProfile::to_model`].
#[derive(Clone, Debug)]
pub struct TestSpec {
    /// Test name (stable across configurations; used in reports).
    pub name: String,
    /// What the test exercises.
    pub description: String,
    /// Per-initiator constraint models (cycled when the node has more
    /// ports).
    pub profiles: Vec<ConstraintModel>,
    /// Per-target personalities (cycled likewise).
    pub target_profiles: Vec<TargetProfile>,
    /// `(cycle, priorities)` writes to the programming port.
    pub prog_schedule: Vec<(u64, Vec<u8>)>,
}

impl TestSpec {
    /// The constraint model used for initiator `i` under `config`.
    pub fn profile_for(&self, i: usize) -> &ConstraintModel {
        &self.profiles[i % self.profiles.len()]
    }

    /// The personality of target `t`.
    pub fn target_profile_for(&self, t: usize) -> TargetProfile {
        self.target_profiles[t % self.target_profiles.len()]
    }
}

/// Everything one `{config, view, test, seed}` run produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The test name.
    pub test: String,
    /// The seed.
    pub seed: u64,
    /// Which design view ran.
    pub view: ViewKind,
    /// Cycles simulated (including drain).
    pub cycles: u64,
    /// Protocol-checker outcome.
    pub checker: CheckerReport,
    /// Scoreboard failures.
    pub scoreboard_errors: Vec<ScoreboardError>,
    /// Scoreboard comparisons that passed.
    pub scoreboard_checks: u64,
    /// Functional coverage of this run.
    pub coverage: CoverageReport,
    /// Per-initiator traffic statistics.
    pub stats: Vec<InitiatorStats>,
    /// Harness-level anomalies (unexpected responses).
    pub anomalies: Vec<String>,
    /// True when every harness drained before the cycle limit.
    pub completed: bool,
    /// Transactions completed across all initiators.
    pub transactions: u64,
    /// The VCD text, when [`TestbenchOptions::capture_vcd`] was set.
    pub vcd: Option<String>,
    /// The typed port trace, when [`TestbenchOptions::capture_trace`] was
    /// set.
    pub trace: Option<stba::Trace>,
}

impl RunResult {
    /// The paper's pass criterion: all checkers green, scoreboard green,
    /// no anomalies, and the run drained.
    pub fn passed(&self) -> bool {
        self.checker.passed()
            && self.scoreboard_errors.is_empty()
            && self.anomalies.is_empty()
            && self.completed
    }

    /// The result without its waveforms (VCD text and trace): reports and
    /// cache entries keep verdicts, not waveforms.
    pub fn without_waveforms(mut self) -> Self {
        self.vcd = None;
        self.trace = None;
        self
    }

    /// A one-line summary for regression logs.
    pub fn summary(&self) -> String {
        format!(
            "{:<24} seed {:<4} {:<4} {:>6} cycles {:>5} tx  checks {:>6}  cov {:5.1}%  {}",
            self.test,
            self.seed,
            self.view.to_string(),
            self.cycles,
            self.transactions,
            self.checker.total_checks() + self.scoreboard_checks,
            self.coverage.coverage() * 100.0,
            if self.passed() { "PASS" } else { "FAIL" }
        )
    }
}

/// The common testbench: build once per configuration, then run any test
/// on any DUT view.
#[derive(Clone, Debug)]
pub struct Testbench {
    config: NodeConfig,
    options: TestbenchOptions,
}

impl Testbench {
    /// A testbench for one node configuration.
    pub fn new(config: NodeConfig, options: TestbenchOptions) -> Self {
        Testbench { config, options }
    }

    /// The configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// Runs `spec` with `seed` against a DUT view.
    ///
    /// The DUT is reset first; the run continues until all scheduled
    /// traffic drains (or the cycle limit is hit).
    ///
    /// # Panics
    ///
    /// Panics if the DUT's configuration disagrees with the testbench's.
    pub fn run(&self, dut: &mut dyn DutView, spec: &TestSpec, seed: u64) -> RunResult {
        self.run_logged(dut, spec, seed, None)
    }

    /// [`Testbench::run`], recording the run's port values into `log`
    /// when one is given.
    pub(crate) fn run_logged(
        &self,
        dut: &mut dyn DutView,
        spec: &TestSpec,
        seed: u64,
        log: Option<&mut PortLog>,
    ) -> RunResult {
        let mut run = self.open(dut, spec, seed);
        let result = self.simulate(dut, spec, seed, &mut run, log);
        self.publish(run, dut, &result, false);
        result
    }

    /// Runs `spec` with `seed` against `dut` by replaying `log`, the port
    /// values of `first`, an earlier run of the same spec and seed on this
    /// testbench (DESIGN §28).
    ///
    /// `dut` is reset and stepped through the logged inputs. If its
    /// outputs equal the logged outputs on every cycle, the environment
    /// would have seen the very same port values, so the result is
    /// `first`'s relabelled with `dut`'s view. On the first mismatch, or
    /// when the log outgrew [`PORT_LOG_CYCLES`], the run starts over in
    /// full, as [`Testbench::run`]. Either way it is one `tb.run` span,
    /// whose `replayed` field tells which.
    pub(crate) fn replay(
        &self,
        dut: &mut dyn DutView,
        spec: &TestSpec,
        seed: u64,
        log: &PortLog,
        first: &RunResult,
    ) -> RunResult {
        debug_assert!(first.test == spec.name && first.seed == seed);
        let mut run = self.open(dut, spec, seed);
        let replayed = !log.overflowed && self.matches_log(dut, log, &mut run);
        let result = if replayed {
            RunResult {
                view: dut.view_kind(),
                ..first.clone()
            }
        } else {
            self.simulate(dut, spec, seed, &mut run, None)
        };
        self.publish(run, dut, &result, replayed);
        result
    }

    /// Opens a run's `tb.run` span and phase clock.
    fn open(&self, dut: &mut dyn DutView, spec: &TestSpec, seed: u64) -> RunClock {
        assert_eq!(
            dut.config().n_initiators,
            self.config.n_initiators,
            "DUT/testbench configuration mismatch"
        );
        assert_eq!(dut.config().n_targets, self.config.n_targets);
        let tel = &self.options.telemetry;
        let started = Instant::now();
        // Phase attribution (drive / settle / check / vcd, with check split
        // into its five sub-layers) costs a clock read per slice per cycle,
        // so it is gated on telemetry being live: a disabled handle keeps
        // the hot loop clock-free.
        let profiling = tel.is_enabled();
        // The eval sub-phase (model evaluation inside `settle`) is timed
        // by the view itself, where the kernel hands control to the model.
        dut.set_phase_timing(profiling);
        let eval_us_base = dut.phase_eval_us();
        // A disabled handle builds none of the span's fields.
        let mut span = tel.span("tb.run");
        if profiling {
            span = span
                .field("test", Json::from(spec.name.as_str()))
                .field("seed", Json::from(seed))
                .field("view", Json::from(dut.view_kind().to_string()));
        }
        RunClock {
            span,
            started,
            profiling,
            eval_us_base,
            phases: Phases::default(),
        }
    }

    /// Steps `dut` from reset through `log`'s inputs; true when its
    /// outputs equal the logged ones on every cycle. The steps are timed
    /// as `settle`, the comparison as `check`.
    fn matches_log(&self, dut: &mut dyn DutView, log: &PortLog, run: &mut RunClock) -> bool {
        let (ni, nt) = (self.config.n_initiators, self.config.n_targets);
        dut.reset();
        let mut inputs = DutInputs::idle(&self.config);
        let mut prog = log.prog.iter().peekable();
        for (c, cycle) in (0..log.cycles).enumerate() {
            let mut mark = run.profiling.then(Instant::now);
            let (i, t) = (c * ni..(c + 1) * ni, c * nt..(c + 1) * nt);
            inputs
                .initiator
                .copy_from_slice(&log.initiator_in[i.clone()]);
            inputs.target.copy_from_slice(&log.target_in[t.clone()]);
            inputs.prog = prog.next_if(|(at, _)| *at == cycle).map(|(_, p)| p.clone());
            lap(&mut mark, &mut run.phases.drive);
            let outputs = dut.step(&inputs);
            lap(&mut mark, &mut run.phases.settle);
            let same = outputs.initiator[..] == log.initiator_out[i]
                && outputs.target[..] == log.target_out[t];
            lap(&mut mark, &mut run.phases.replay);
            if !same {
                return false;
            }
        }
        true
    }

    /// The run itself: resets `dut`, drives it with the environment until
    /// the traffic drains or the cycle limit, and assembles the result.
    fn simulate(
        &self,
        dut: &mut dyn DutView,
        spec: &TestSpec,
        seed: u64,
        run: &mut RunClock,
        mut log: Option<&mut PortLog>,
    ) -> RunResult {
        let cfg = &self.config;
        let (profiling, phases) = (run.profiling, &mut run.phases);
        dut.reset();

        let mut harnesses: Vec<InitiatorBfm> = (0..cfg.n_initiators)
            .map(|i| {
                let model = spec.profile_for(i);
                InitiatorBfm::new(
                    cfg,
                    i,
                    model.solve(cfg, i, seed),
                    seed ^ 0x5EED ^ i as u64,
                    model.r_gnt_throttle_percent,
                )
            })
            .collect();
        let mut targets: Vec<TargetBfm> = (0..cfg.n_targets)
            .map(|t| TargetBfm::new(cfg, t, spec.target_profile_for(t), seed ^ 0x7A67 ^ t as u64))
            .collect();
        let mut monitors: Vec<PortMonitor> = (0..cfg.n_initiators)
            .map(PortId::Initiator)
            .chain((0..cfg.n_targets).map(PortId::Target))
            .map(PortMonitor::new)
            .collect();
        let mut checker = ProtocolChecker::new(cfg);
        if let Some(limit) = self.options.starvation_limit {
            checker.set_starvation_limit(limit);
        }
        let mut scoreboard = Scoreboard::new(cfg);
        let mut coverage = FunctionalCoverage::new(cfg);
        // The `vcd` phase times waveform capture: recording the trace,
        // plus rendering VCD text when that was asked for.
        let capture = self.options.capture_vcd || self.options.capture_trace;
        let mut vcd = capture.then(|| VcdDump::new(cfg));

        // Out-of-order and outstanding tracking for the coverage features.
        let mut issue_order: Vec<VecDeque<Option<usize>>> = vec![VecDeque::new(); cfg.n_initiators];
        let mut prog_iter = spec.prog_schedule.iter().peekable();
        let mut events: Vec<MonitorEvent> = Vec::new();

        let mut cycle = 0u64;
        let mut completed = false;
        // One input buffer for the whole run: every port entry is driven
        // afresh each cycle, and the record hands the buffer back.
        let mut inputs = DutInputs::idle(cfg);
        while cycle < MAX_CYCLES {
            let mut mark = profiling.then(Instant::now);
            for (i, h) in harnesses.iter_mut().enumerate() {
                inputs.initiator[i] = h.drive(cycle);
            }
            for (t, tg) in targets.iter_mut().enumerate() {
                inputs.target[t] = tg.drive(cycle);
            }
            inputs.prog = None;
            if cfg.prog_port {
                if let Some((at, prios)) = prog_iter.peek() {
                    if *at <= cycle {
                        inputs.prog = Some(ProgCommand {
                            priorities: prios.clone(),
                        });
                        prog_iter.next();
                    }
                }
            }
            lap(&mut mark, &mut phases.drive);

            let outputs = dut.step(&inputs);
            lap(&mut mark, &mut phases.settle);
            let rec = CycleRecord {
                cycle,
                inputs,
                outputs,
            };

            for h in &mut harnesses {
                h.observe(&rec);
            }
            for tg in &mut targets {
                tg.observe(&rec);
            }
            lap(&mut mark, &mut phases.bfm);
            events.clear();
            for m in &mut monitors {
                m.observe(&rec, &mut events);
            }
            lap(&mut mark, &mut phases.monitor);
            if self.options.checks {
                checker.observe(&rec);
                lap(&mut mark, &mut phases.checker);
                for e in &events {
                    scoreboard.observe(e);
                }
                lap(&mut mark, &mut phases.scoreboard);
            }
            if self.options.collect_coverage {
                coverage.observe_cycle(&rec);
                for e in &events {
                    coverage.observe_event(e);
                }
            }
            for e in &events {
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
            }
            lap(&mut mark, &mut phases.coverage);
            if let Some(v) = &mut vcd {
                v.record(&rec);
            }
            if let Some(log) = log.as_deref_mut() {
                log.record(&rec);
            }
            lap(&mut mark, &mut phases.vcd);
            inputs = rec.inputs;

            cycle += 1;
            let drained = harnesses.iter().all(InitiatorBfm::done)
                && targets.iter().all(TargetBfm::drained)
                && scoreboard.outstanding() == 0;
            if drained {
                completed = true;
                break;
            }
        }

        let transactions = harnesses.iter().map(|h| h.stats().completed).sum();
        let mut mark = profiling.then(Instant::now);
        let trace = vcd.map(VcdDump::finish_trace);
        let vcd_text = trace
            .as_ref()
            .filter(|_| self.options.capture_vcd)
            .map(|trace| trace.to_vcd(crate::vcd_dump::CYCLE_TIME));
        let trace = trace.filter(|_| self.options.capture_trace);
        lap(&mut mark, &mut phases.vcd);
        RunResult {
            test: spec.name.clone(),
            seed,
            view: dut.view_kind(),
            cycles: cycle,
            checker: checker.into_report(),
            scoreboard_errors: scoreboard.errors().to_vec(),
            scoreboard_checks: scoreboard.checks(),
            coverage: coverage.report(),
            stats: harnesses.iter().map(|h| h.stats()).collect(),
            anomalies: harnesses
                .iter()
                .flat_map(|h| h.anomalies().iter().cloned())
                .collect(),
            completed,
            transactions,
            vcd: vcd_text,
            trace,
        }
    }

    /// Feeds a finished run into the `tb.*` counters and closes its span,
    /// whether the run was simulated or replayed.
    fn publish(&self, run: RunClock, dut: &dyn DutView, result: &RunResult, replayed: bool) {
        let metrics = self.options.telemetry.metrics();
        metrics.counter("tb.runs").inc();
        metrics.counter("tb.cycles").add(result.cycles);
        metrics.counter("tb.transactions").add(result.transactions);
        metrics
            .counter("tb.checker_checks")
            .add(result.checker.total_checks());
        metrics
            .counter("tb.checker_violations")
            .add(result.checker.violations.len() as u64);
        metrics
            .counter("tb.scoreboard_checks")
            .add(result.scoreboard_checks);
        metrics
            .counter("tb.scoreboard_errors")
            .add(result.scoreboard_errors.len() as u64);
        if !result.passed() {
            metrics.counter("tb.failures").inc();
        }
        if !run.profiling {
            return;
        }
        let phases = &run.phases;
        let wall = run.started.elapsed();
        let cycles_per_sec = result.cycles as f64 / wall.as_secs_f64().max(1e-9);
        run.span.end([
            ("cycles", Json::from(result.cycles)),
            ("transactions", Json::from(result.transactions)),
            ("cycles_per_sec", Json::from(cycles_per_sec)),
            ("checker_checks", Json::from(result.checker.total_checks())),
            (
                "checker_violations",
                Json::from(result.checker.violations.len()),
            ),
            ("scoreboard_checks", Json::from(result.scoreboard_checks)),
            (
                "scoreboard_errors",
                Json::from(result.scoreboard_errors.len()),
            ),
            (
                "coverage_pct",
                Json::from(result.coverage.coverage() * 100.0),
            ),
            ("passed", Json::from(result.passed())),
            // Whether the verdict was reused from the cell's first view.
            ("replayed", Json::from(replayed)),
            // Phase attribution for the span-tree profiler: these become
            // synthetic `phase:*` children of the tb.run node.
            ("phase_drive_us", micros(phases.drive)),
            ("phase_settle_us", micros(phases.settle)),
            ("phase_check_us", micros(phases.check())),
            ("phase_vcd_us", micros(phases.vcd)),
            // Model evaluation proper, a sub-slice of `settle` reported by
            // the view (zero for uninstrumented views like the BCA).
            (
                "phase_eval_us",
                Json::from(dut.phase_eval_us().saturating_sub(run.eval_us_base)),
            ),
            // The check phase's sub-layers, sub-slices of `check`.
            ("phase_check:bfm_us", micros(phases.bfm)),
            ("phase_check:monitor_us", micros(phases.monitor)),
            ("phase_check:checker_us", micros(phases.checker)),
            ("phase_check:coverage_us", micros(phases.coverage)),
            ("phase_check:scoreboard_us", micros(phases.scoreboard)),
            (
                "checker_rules",
                Json::obj(
                    result
                        .checker
                        .checks_passed
                        .iter()
                        .map(|(rule, count)| (rule.to_string(), Json::from(*count))),
                ),
            ),
        ]);
    }
}

/// The cycles a [`PortLog`] holds at most. The default campaign's longest
/// run is 902 cycles; a hung run reaches the 50,000-cycle limit, which
/// would log about 30 MB for the reference configuration.
pub const PORT_LOG_CYCLES: u64 = 4096;

/// One run's port values, cycle by cycle: the inputs the environment
/// drove and the outputs the view answered, as flat cycle-major arrays
/// per port kind, plus the rare programming-port writes. A later view of
/// the same cell replays against it ([`Testbench::replay`]).
#[derive(Debug, Default)]
pub(crate) struct PortLog {
    initiator_in: Vec<InitiatorPortIn>,
    target_in: Vec<TargetPortIn>,
    initiator_out: Vec<InitiatorPortOut>,
    target_out: Vec<TargetPortOut>,
    /// `(cycle, write)` in cycle order.
    prog: Vec<(u64, ProgCommand)>,
    cycles: u64,
    /// The run outgrew [`PORT_LOG_CYCLES`]: nothing replays against it.
    overflowed: bool,
}

impl PortLog {
    fn record(&mut self, rec: &CycleRecord) {
        if self.overflowed {
            return;
        }
        if self.cycles == PORT_LOG_CYCLES {
            *self = PortLog {
                overflowed: true,
                ..PortLog::default()
            };
            return;
        }
        self.initiator_in.extend_from_slice(&rec.inputs.initiator);
        self.target_in.extend_from_slice(&rec.inputs.target);
        self.initiator_out.extend_from_slice(&rec.outputs.initiator);
        self.target_out.extend_from_slice(&rec.outputs.target);
        if let Some(prog) = &rec.inputs.prog {
            self.prog.push((rec.cycle, prog.clone()));
        }
        self.cycles += 1;
    }
}

/// A run's `tb.run` span and phase clock, from opening to publishing.
struct RunClock {
    span: Span,
    started: Instant,
    profiling: bool,
    eval_us_base: u64,
    phases: Phases,
}

/// Per-phase wall time of one run; only accumulated while profiling.
#[derive(Default)]
struct Phases {
    drive: Duration,
    settle: Duration,
    bfm: Duration,
    monitor: Duration,
    checker: Duration,
    coverage: Duration,
    scoreboard: Duration,
    /// A replay's output comparison, which has no sub-layer of its own.
    replay: Duration,
    vcd: Duration,
}

impl Phases {
    /// The check phase: its five sub-layers, which tile a simulated run's
    /// check, plus a replay's output comparison.
    fn check(&self) -> Duration {
        self.bfm + self.monitor + self.checker + self.coverage + self.scoreboard + self.replay
    }
}

/// Adds the time since `mark` to `phase` and restarts the mark; does
/// nothing (and reads no clock) when the mark is off.
fn lap(mark: &mut Option<Instant>, phase: &mut Duration) {
    if let Some(t) = mark {
        let now = Instant::now();
        *phase += now - *t;
        *t = now;
    }
}

fn micros(d: Duration) -> Json {
    Json::from(d.as_micros() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_lib;
    use crate::views::build_view;
    use stbus_protocol::ViewKind;

    #[test]
    fn basic_test_passes_on_both_views() {
        let cfg = NodeConfig::reference();
        let tb = Testbench::new(cfg.clone(), TestbenchOptions::default());
        let spec = tests_lib::basic_read_write(20);
        for kind in [ViewKind::Rtl, ViewKind::Bca] {
            let mut dut = build_view(&cfg, kind);
            let result = tb.run(dut.as_mut(), &spec, 7);
            assert!(
                result.passed(),
                "{kind}: {:?} {:?} {:?}",
                result.checker.violations,
                result.scoreboard_errors,
                result.anomalies
            );
            assert!(result.transactions > 0);
        }
    }

    #[test]
    fn same_seed_same_stimulus_different_seed_differs() {
        let cfg = NodeConfig::reference();
        let tb = Testbench::new(cfg.clone(), TestbenchOptions::default());
        let spec = tests_lib::random_mixed(15);
        let mut a = build_view(&cfg, ViewKind::Bca);
        let mut b = build_view(&cfg, ViewKind::Bca);
        let ra = tb.run(a.as_mut(), &spec, 3);
        let rb = tb.run(b.as_mut(), &spec, 3);
        assert_eq!(ra.cycles, rb.cycles);
        assert_eq!(ra.transactions, rb.transactions);
        let rc = tb.run(a.as_mut(), &spec, 4);
        assert!(
            rc.cycles != ra.cycles || rc.transactions != ra.transactions || ra.stats != rc.stats
        );
    }

    #[test]
    fn run_emits_span_and_metrics() {
        let (sink, handle) = telemetry::MemorySink::new();
        let tel = Telemetry::builder().with_sink(Box::new(sink)).build();
        let cfg = NodeConfig::reference();
        let tb = Testbench::new(
            cfg.clone(),
            TestbenchOptions {
                telemetry: tel.clone(),
                ..TestbenchOptions::default()
            },
        );
        let spec = tests_lib::basic_read_write(10);
        let mut dut = build_view(&cfg, ViewKind::Rtl);
        dut.attach_metrics(tel.metrics());
        let result = tb.run(dut.as_mut(), &spec, 5);

        let events = handle.events();
        let end = events
            .iter()
            .find(|e| e.scope == "tb.run.end")
            .expect("span end event");
        assert_eq!(
            end.field("cycles").and_then(telemetry::Json::as_u64),
            Some(result.cycles)
        );
        assert_eq!(
            end.field("transactions").and_then(telemetry::Json::as_u64),
            Some(result.transactions)
        );
        assert!(end.field("cycles_per_sec").is_some());
        for phase in ["drive", "settle", "check", "vcd", "eval"] {
            assert!(
                end.field(&format!("phase_{phase}_us"))
                    .and_then(telemetry::Json::as_u64)
                    .is_some(),
                "phase_{phase}_us missing"
            );
        }
        // The check phase's sub-layers tile it (each is floored to whole
        // microseconds on its own).
        let us = |key: &str| {
            end.field(key)
                .and_then(telemetry::Json::as_u64)
                .unwrap_or_else(|| panic!("{key} missing"))
        };
        let sub: u64 = ["bfm", "monitor", "checker", "coverage", "scoreboard"]
            .iter()
            .map(|layer| us(&format!("phase_check:{layer}_us")))
            .sum();
        let check = us("phase_check_us");
        assert!(sub <= check && check < sub + 5, "{sub} vs {check}");
        assert_eq!(
            end.field("passed").and_then(telemetry::Json::as_bool),
            Some(true)
        );

        let snap = tel.metrics().snapshot();
        assert_eq!(snap.counters["tb.runs"], 1);
        assert_eq!(snap.counters["tb.cycles"], result.cycles);
        assert_eq!(snap.counters["tb.transactions"], result.transactions);
        // The RTL view runs on the instrumented kernel.
        assert!(snap.counters["kernel.delta_cycles"] > 0);
        assert!(snap.counters["kernel.process_activations"] > 0);
    }

    #[test]
    fn vcd_capture_produces_parsable_dump() {
        let cfg = NodeConfig::reference();
        let tb = Testbench::new(
            cfg.clone(),
            TestbenchOptions {
                capture_vcd: true,
                ..TestbenchOptions::default()
            },
        );
        let spec = tests_lib::basic_read_write(5);
        let mut dut = build_view(&cfg, ViewKind::Bca);
        let result = tb.run(dut.as_mut(), &spec, 1);
        let text = result.vcd.expect("captured");
        let doc = vcd::VcdDocument::parse(&text).unwrap();
        assert!(doc.end_time() > 0);
        assert!(result.trace.is_none(), "trace capture not requested");
    }

    #[test]
    fn trace_capture_is_what_vcd_text_renders() {
        let cfg = NodeConfig::reference();
        let spec = tests_lib::basic_read_write(5);
        let run = |capture_vcd, capture_trace| {
            let tb = Testbench::new(
                cfg.clone(),
                TestbenchOptions {
                    capture_vcd,
                    capture_trace,
                    ..TestbenchOptions::default()
                },
            );
            let mut dut = build_view(&cfg, ViewKind::Rtl);
            tb.run(dut.as_mut(), &spec, 1)
        };
        let traced = run(false, true);
        assert!(traced.vcd.is_none(), "no text unless asked for");
        let trace = traced.trace.expect("captured");
        assert_eq!(trace.cycles(), traced.cycles);
        let both = run(true, true);
        assert_eq!(both.trace.as_ref(), Some(&trace));
        assert_eq!(both.vcd, Some(trace.to_vcd(crate::vcd_dump::CYCLE_TIME)));
        let stripped = both.without_waveforms();
        assert!(stripped.vcd.is_none() && stripped.trace.is_none());
    }
}
