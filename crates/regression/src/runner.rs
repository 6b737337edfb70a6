//! The batch runner: the Figure 4/5 flow in code.
//!
//! For every configuration: run the test suite with the same seeds on both
//! views; merge functional coverage; and — once everything passed — run
//! the bus-accurate comparison on the waveform pairs ("Compare VCD results
//! if full functional coverage") — on the typed port traces the
//! testbench records, not on rendered VCD text.
//!
//! The `{config × test × seed}` matrix is embarrassingly parallel: each
//! cell owns its testbench, its RTL and BCA nodes, both runs and the
//! waveform comparison, and nothing else. The runner describes every
//! cell as a [`catg::cell::CellSpec`], plain `Send` data run by
//! [`catg::cell::run_cell`], fans the specs out across an [`exec`] worker
//! pool ([`RegressionOptions::jobs`]), and reassembles
//! the results in matrix order. The report carries no clock: time lives
//! only in the campaign's spans (`regress.campaign`, `regress.cell`,
//! `tb.run`, `stba.compare`), so the table, the manifest and the
//! [`RegressionReport`] are byte-identical for any worker count and for a
//! cold or warm cell store. The RTL view is built *on* the worker because
//! its simulator is intentionally single-threaded (`Rc`/`RefCell` process
//! closures); only the descriptor crosses threads.

use crate::cell_codec;
use cache::{GcPolicy, Key, Lookup, Store};
use catg::cell::{min_rate, sum_ports, CellSpec, Compare, PortFigures};
use catg::{CoverageReport, RunResult, TestSpec, ViewSpec};
use sim_kernel::{ActivityCoverage, SimBackend};
use stba::SIGNOFF_RATE;
use stbus_bca::{BcaBug, Fidelity};
use stbus_protocol::{NodeConfig, ViewKind};
use std::path::PathBuf;
use std::sync::Arc;
use telemetry::{Json, Telemetry};

/// Options of one regression campaign.
#[derive(Clone, Debug)]
pub struct RegressionOptions {
    /// Seeds applied to every test ("Same test file could be run more
    /// than one time with a different seed").
    pub seeds: Vec<u64>,
    /// Per-initiator transactions per test. The default, 30, is the CLI's:
    /// deep enough to reach full functional coverage on every sweep
    /// configuration.
    pub intensity: usize,
    /// BCA fidelity (Relaxed reproduces the paper's <100% alignment).
    pub fidelity: Fidelity,
    /// Defects injected into the BCA view (experiment E2).
    pub bca_bugs: Vec<BcaBug>,
    /// Design views every cell runs. The default pair `[Rtl, Bca]` is the
    /// paper's flow; adding [`ViewKind::Tlm`] runs the untimed
    /// transaction-level model through the same testbench and compares it
    /// against RTL twice — cycle-accurately (expected to fail sign-off:
    /// an untimed model holds no cycle discipline) and by committed
    /// transaction order (expected to pass; see
    /// [`stba::compare_transactions`]). RTL and BCA are always required:
    /// they anchor the alignment comparisons.
    pub views: Vec<ViewKind>,
    /// Simulation backend the RTL view is elaborated onto: the
    /// event-driven reference kernel (default) or the levelized compiled
    /// engine. Results — pass/fail, coverage, alignment, the report tree —
    /// are identical on both; only the `kernel.*` vs `kernel.compiled.*`
    /// metric namespaces (and wall-clock) differ.
    pub engine: SimBackend,
    /// Capture waveform traces and run the alignment comparison.
    pub compare_waveforms: bool,
    /// Worker threads running `{config, test, seed}` cells; `0` (the
    /// default) means one per available hardware thread, `1` runs the
    /// matrix serially. Results are identical for any value.
    pub jobs: usize,
    /// Telemetry handle; the campaign emits one `regress.cell` span per
    /// `{config, test, seed, view}` cell, wires the testbench and kernel
    /// metrics, and snapshots everything into the final report. Workers
    /// emit through [`Telemetry::buffered`] handles, so events batch into
    /// the shared sinks instead of contending per event. Disabled by
    /// default.
    pub telemetry: Telemetry,
    /// Root of the content-addressed cell store. When set, every
    /// `{config, test, seed}` cell consults the store before simulating
    /// and records its result on a miss, so an unchanged cell is never
    /// re-simulated — a fully warm campaign performs zero simulations and
    /// reports byte-identically (modulo wall-clock) to a cold one. `None`
    /// (the default) disables caching entirely.
    pub cache_dir: Option<PathBuf>,
    /// Eviction bounds applied to the store after the campaign (LRU,
    /// oldest entries first). All-`None` (the default) keeps everything.
    pub cache_gc: GcPolicy,
    /// Run cells on this shared worker pool instead of a private one.
    /// The serve daemon hands every client campaign the same pool, which
    /// is what bounds concurrent simulation work (backpressure): excess
    /// cells queue. `None` (the default) spawns a pool per campaign from
    /// [`RegressionOptions::jobs`].
    pub pool: Option<Arc<exec::ThreadPool>>,
}

impl Default for RegressionOptions {
    fn default() -> Self {
        RegressionOptions {
            seeds: vec![1, 2],
            intensity: 30,
            fidelity: Fidelity::Relaxed,
            bca_bugs: Vec::new(),
            views: vec![ViewKind::Rtl, ViewKind::Bca],
            engine: SimBackend::Event,
            compare_waveforms: true,
            jobs: 0,
            telemetry: Telemetry::disabled(),
            cache_dir: None,
            cache_gc: GcPolicy::default(),
            pool: None,
        }
    }
}

/// The hash of the sources that decide a cell's outcome, computed by the
/// build script ([`crate::fingerprint`]).
pub const SOURCE_FINGERPRINT: &str = env!("STBUS_SOURCE_FINGERPRINT");

/// The content key of one `{config, test, seed}` cell under `options`.
///
/// Every input that can change the cell's result is a key part: the
/// payload schema (so format changes invalidate), the
/// [`SOURCE_FINGERPRINT`] (so a store never answers for code other than
/// the code that filled it), the full
/// configuration and test spec (via their derived `Debug` forms, which
/// are pure functions of the struct contents — no map iteration order,
/// no addresses), the seed, the BCA fidelity and injected bugs, the
/// simulation backend, and whether waveforms are compared. Flipping any
/// one of them forces a miss.
pub fn cell_key(
    config: &NodeConfig,
    spec: &TestSpec,
    seed: u64,
    options: &RegressionOptions,
) -> Key {
    Key::from_parts([
        format!("schema:{}", cell_codec::CELL_SCHEMA),
        format!("source:{SOURCE_FINGERPRINT}"),
        format!("config:{config:?}"),
        format!("test:{spec:?}"),
        format!("seed:{seed}"),
        format!("views:{:?}", options.views),
        format!("fidelity:{:?}", options.fidelity),
        format!("bca_bugs:{:?}", options.bca_bugs),
        format!("engine:{}", options.engine),
        format!("compare:{}", options.compare_waveforms),
    ])
}

/// What the cell cache did during one campaign (on the in-memory report
/// only — deliberately not part of the manifest, whose metrics must be
/// byte-identical between cold and warm runs): the campaign's increase
/// of the `cache.hit`, `cache.miss`, `cache.put` and `cache.corrupt`
/// counters, plus what the post-campaign GC pass evicted and swept.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSummary {
    /// Cells answered from the store without simulating.
    pub hits: u64,
    /// Cells with no usable entry.
    pub misses: u64,
    /// Results recorded into the store.
    pub puts: u64,
    /// Entries found corrupt/stale and re-simulated (never trusted).
    pub corrupt: u64,
    /// Entries evicted by the post-campaign GC pass.
    pub evicted: u64,
    /// Temp files of killed writers the post-campaign sweep removed
    /// ([`cache::Store::sweep_orphans`]).
    pub orphans: u64,
    /// Cells that actually ran a simulation: every miss, by
    /// construction. A fully warm campaign reports `simulated == 0` and
    /// `hits == cell count` — the proof the acceptance gate checks.
    pub simulated: u64,
}

/// The registry counters behind [`CacheSummary`]'s `hits`, `misses`,
/// `puts` and `corrupt`, in that order.
const CACHE_COUNTERS: [&str; 4] = ["cache.hit", "cache.miss", "cache.put", "cache.corrupt"];

fn cache_counts(tel: &Telemetry) -> [u64; 4] {
    let counters = tel.metrics().snapshot().counters;
    CACHE_COUNTERS.map(|name| counters.get(name).copied().unwrap_or(0))
}

/// Schema tag of `cache_stats.json`.
pub const CACHE_STATS_SCHEMA: &str = "stbus-cache-stats/1";

impl CacheSummary {
    /// The `cache_stats.json` document. The serve daemon reports the same
    /// object, so a `--client` run writes the same file a local one does.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(CACHE_STATS_SCHEMA)),
            ("hits", Json::from(self.hits)),
            ("misses", Json::from(self.misses)),
            ("puts", Json::from(self.puts)),
            ("corrupt", Json::from(self.corrupt)),
            ("evicted", Json::from(self.evicted)),
            ("orphans", Json::from(self.orphans)),
            ("simulated", Json::from(self.simulated)),
        ])
    }
}

/// One `{test, seed}` entry of a configuration's outcome.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Test name.
    pub test: String,
    /// Seed.
    pub seed: u64,
    /// RTL run result.
    pub rtl: RunResult,
    /// BCA run result.
    pub bca: RunResult,
    /// Per-port `(port, matching cycles, total cycles)` of this pair,
    /// when compared.
    pub alignment: Option<PortFigures>,
    /// TLM run result, when [`RegressionOptions::views`] includes the
    /// untimed view.
    pub tlm: Option<RunResult>,
    /// Per-port cycle alignment of TLM against RTL — the figure the
    /// untimed view is *expected* to fail (`rate <` [`SIGNOFF_RATE`]), demonstrating
    /// why the cycle discipline cannot accept it.
    pub tlm_alignment: Option<PortFigures>,
    /// Per-port `(port, matching transfers, total transfers)` of TLM
    /// against RTL under transaction-order comparison
    /// ([`stba::compare_transactions`]) — the discipline an untimed view
    /// signs off under.
    pub tlm_tx_alignment: Option<PortFigures>,
    // The five clock fields are always zero: a run's time lives in its
    // `regress.cell` span. They stay until the manifest schema drops them.
    /// Always 0.
    pub rtl_wall_us: u64,
    /// Always 0.
    pub bca_wall_us: u64,
    /// Always 0.
    pub tlm_wall_us: u64,
    /// `Some(0)` when the waveform comparison ran, else `None`.
    pub compare_wall_us: Option<u64>,
    /// `Some(0)` when the TLM-vs-RTL comparisons ran, else `None`.
    pub tlm_compare_wall_us: Option<u64>,
}

impl RunRecord {
    /// Minimum per-port alignment rate of this single pair.
    pub fn min_alignment(&self) -> Option<f64> {
        self.alignment.as_deref().and_then(min_rate)
    }

    /// Minimum per-port *cycle* alignment rate of TLM against RTL.
    pub fn min_tlm_alignment(&self) -> Option<f64> {
        self.tlm_alignment.as_deref().and_then(min_rate)
    }

    /// Minimum per-port *transaction-order* alignment rate of TLM against
    /// RTL.
    pub fn min_tlm_tx_alignment(&self) -> Option<f64> {
        self.tlm_tx_alignment.as_deref().and_then(min_rate)
    }
}

/// The outcome of one configuration.
#[derive(Clone, Debug)]
pub struct ConfigOutcome {
    /// The configuration.
    pub config: NodeConfig,
    /// Every `{test, seed}` record.
    pub runs: Vec<RunRecord>,
    /// Functional coverage merged over all RTL runs.
    pub coverage_rtl: Option<CoverageReport>,
    /// Functional coverage merged over all BCA runs.
    pub coverage_bca: Option<CoverageReport>,
    /// Functional coverage merged over all TLM runs, when the campaign
    /// ran the untimed view.
    pub coverage_tlm: Option<CoverageReport>,
    /// RTL structural (process/branch) coverage merged over the campaign.
    pub code_coverage_rtl: Option<ActivityCoverage>,
}

impl ConfigOutcome {
    /// All checker/scoreboard checks green on both views.
    pub fn all_passed(&self) -> bool {
        self.runs.iter().all(|r| r.rtl.passed() && r.bca.passed())
    }

    /// View runs made: RTL and BCA for every record, plus TLM where it
    /// ran.
    pub fn view_runs(&self) -> usize {
        self.runs
            .iter()
            .map(|r| 2 + usize::from(r.tlm.is_some()))
            .sum()
    }

    /// Functional coverage (RTL side), 0..=1.
    pub fn functional_coverage(&self) -> f64 {
        self.coverage_rtl
            .as_ref()
            .map_or(0.0, CoverageReport::coverage)
    }

    /// Coverage equality across views — the paper: "of course they must be
    /// equal running the same tests". Hit patterns are compared (hit
    /// counts may differ by a few on the spec-unconstrained cycles where
    /// the views legitimately diverge).
    pub fn coverage_matches_across_views(&self) -> bool {
        match (&self.coverage_rtl, &self.coverage_bca) {
            (Some(a), Some(b)) => a.same_hits(b),
            _ => false,
        }
    }

    /// The campaign alignment rate per port: aligned cycles over total
    /// cycles, aggregated across every compared run — the paper's "number
    /// of cycles RTL and BCA signals port are aligned over total number
    /// of clock cycles" — then the minimum over ports.
    pub fn min_alignment(&self) -> Option<f64> {
        self.aggregate_min_rate(|r| r.alignment.as_ref())
    }

    /// The paper's sign-off: everything passed, full functional coverage,
    /// and ≥99% alignment at every port.
    pub fn signed_off(&self) -> bool {
        self.all_passed()
            && self
                .coverage_rtl
                .as_ref()
                .is_some_and(CoverageReport::is_full)
            && self.min_alignment().is_some_and(|a| a >= SIGNOFF_RATE)
    }

    /// All checker/scoreboard checks green on the TLM runs; `false` when
    /// the campaign did not run the untimed view.
    pub fn tlm_all_passed(&self) -> bool {
        !self.runs.is_empty()
            && self
                .runs
                .iter()
                .all(|r| r.tlm.as_ref().is_some_and(RunResult::passed))
    }

    /// Campaign-aggregate per-port *cycle* alignment of TLM against RTL
    /// (minimum over ports), mirroring [`ConfigOutcome::min_alignment`].
    pub fn min_tlm_alignment(&self) -> Option<f64> {
        self.aggregate_min_rate(|r| r.tlm_alignment.as_ref())
    }

    /// Campaign-aggregate per-port *transaction-order* alignment of TLM
    /// against RTL (minimum over ports).
    pub fn min_tlm_tx_alignment(&self) -> Option<f64> {
        self.aggregate_min_rate(|r| r.tlm_tx_alignment.as_ref())
    }

    fn aggregate_min_rate(
        &self,
        figures: impl Fn(&RunRecord) -> Option<&PortFigures>,
    ) -> Option<f64> {
        min_rate(&sum_ports(self.runs.iter().filter_map(figures)))
    }

    /// The untimed view's sign-off: every functional gate green, full
    /// *behavioral* coverage (the `stall` wait-time bins are exempt — a
    /// model with no arbitration can never stall, so only its zero-wait
    /// bin must be hit), and ≥99% transaction-order alignment against
    /// RTL. Cycle alignment is deliberately *not* part of this gate: the
    /// companion figure [`ConfigOutcome::min_tlm_alignment`] documents
    /// that the untimed view fails the cycle discipline.
    pub fn tlm_signed_off(&self) -> bool {
        self.tlm_all_passed()
            && self.coverage_tlm.as_ref().is_some_and(|cov| {
                cov.groups.iter().all(|g| {
                    if g.name == "stall" {
                        g.bins.get("zero").copied().unwrap_or(0) > 0
                    } else {
                        g.coverage() == 1.0
                    }
                })
            })
            && self
                .min_tlm_tx_alignment()
                .is_some_and(|a| a >= SIGNOFF_RATE)
    }
}

/// A whole campaign's outcome.
#[derive(Clone, Debug, Default)]
pub struct RegressionReport {
    /// Per-configuration outcomes.
    pub configs: Vec<ConfigOutcome>,
    /// Simulation backend the RTL runs used.
    pub engine: SimBackend,
    /// Always 0: the campaign's time lives in its `regress.campaign` span.
    pub wall_us: u64,
    /// Snapshot of every metric the campaign recorded (kernel, testbench
    /// and analyzer counters), taken right after the last run. The
    /// `cache.*` and `serve.*` bookkeeping is left out: it describes how
    /// a result was obtained, not the result, and lives in
    /// [`RegressionReport::cache`].
    pub metrics: telemetry::MetricsSnapshot,
    /// Cell-cache activity, when [`RegressionOptions::cache_dir`] was
    /// set. In-memory only: the manifest omits it so cold and warm runs
    /// stay byte-identical.
    pub cache: Option<CacheSummary>,
}

impl RegressionReport {
    /// Renders the §5-style table: one row per configuration.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "config        ports  bus  proto arch          arbitration        runs  pass  fcov%   align%  signoff\n",
        );
        for c in &self.configs {
            let cfg = &c.config;
            out.push_str(&format!(
                "{:<13} {:>2}x{:<2} {:>4} {:<5} {:<13} {:<18} {:>4} {:>5} {:>6.1} {:>8} {:>8}\n",
                cfg.name,
                cfg.n_initiators,
                cfg.n_targets,
                cfg.bus_bits(),
                cfg.protocol.to_string(),
                cfg.arch.to_string(),
                cfg.arbitration.to_string(),
                c.runs.len() * 2,
                c.runs
                    .iter()
                    .map(|r| usize::from(r.rtl.passed()) + usize::from(r.bca.passed()))
                    .sum::<usize>(),
                c.functional_coverage() * 100.0,
                c.min_alignment()
                    .map_or("n/a".to_owned(), |a| format!("{:.3}", a * 100.0)),
                if c.signed_off() { "YES" } else { "no" },
            ));
        }
        // The TLM block only renders when the campaign actually ran the
        // untimed view, so two-view output stays byte-stable.
        if self.configs.iter().any(|c| c.coverage_tlm.is_some()) {
            out.push_str("\ntlm view      runs  pass  fcov%  cyc-align%  tx-align%  tlm-signoff\n");
            for c in &self.configs {
                let pct = |rate: Option<f64>| {
                    rate.map_or("n/a".to_owned(), |a| format!("{:.3}", a * 100.0))
                };
                out.push_str(&format!(
                    "{:<13} {:>4} {:>5} {:>6.1} {:>11} {:>10} {:>12}\n",
                    c.config.name,
                    c.runs.len(),
                    c.runs
                        .iter()
                        .filter(|r| r.tlm.as_ref().is_some_and(RunResult::passed))
                        .count(),
                    c.coverage_tlm
                        .as_ref()
                        .map_or(0.0, CoverageReport::coverage)
                        * 100.0,
                    pct(c.min_tlm_alignment()),
                    pct(c.min_tlm_tx_alignment()),
                    if c.tlm_signed_off() { "YES" } else { "no" },
                ));
            }
        }
        out
    }

    /// Number of configurations fully signed off.
    pub fn signed_off_count(&self) -> usize {
        self.configs.iter().filter(|c| c.signed_off()).count()
    }

    /// Zeroes every wall-clock field and drops the `cache.*`/`serve.*`
    /// metrics. A report from [`run_regression`] already has neither, so
    /// this changes only a report assembled by hand.
    pub fn strip_timings(&mut self) {
        self.wall_us = 0;
        for config in &mut self.configs {
            for run in &mut config.runs {
                run.rtl_wall_us = 0;
                run.bca_wall_us = 0;
                run.tlm_wall_us = 0;
                run.compare_wall_us = run.compare_wall_us.map(|_| 0);
                run.tlm_compare_wall_us = run.tlm_compare_wall_us.map(|_| 0);
            }
        }
        drop_bookkeeping(&mut self.metrics);
    }
}

/// Drops the cache and daemon bookkeeping metrics: they describe *how* a
/// result was obtained, not the result (a warm run counts hits where the
/// cold run counted misses), so a report that kept them would differ
/// between the two.
fn drop_bookkeeping(metrics: &mut telemetry::MetricsSnapshot) {
    let volatile = |name: &str| name.starts_with("cache.") || name.starts_with("serve.");
    metrics.counters.retain(|name, _| !volatile(name));
    metrics.gauges.retain(|name, _| !volatile(name));
    metrics.histograms.retain(|name, _| !volatile(name));
}

/// Everything a worker needs to run one `{config, test, seed}` cell:
/// plain owned data (the `Send` audit of the construction path happens
/// right here — the non-`Send` simulator is built on the worker).
struct CellJob {
    config_idx: usize,
    cell: CellSpec,
    telemetry: Telemetry,
    /// Memoization context, when the campaign runs with a cache.
    cache: Option<CellCache>,
}

/// The store handle and this cell's precomputed content key.
struct CellCache {
    store: Store,
    key: Key,
}

/// What one cell hands back for matrix-order reassembly.
struct CellResult {
    config_idx: usize,
    record: RunRecord,
    /// Structural coverage of this cell's (fresh) RTL node; merged
    /// per-configuration by the assembler.
    rtl_activity: ActivityCoverage,
}

/// Tries to answer the cell from the store. A decoded entry must also
/// agree with the job on test name and seed — the key already encodes
/// both, so a disagreement means a stale or mis-filed entry, handled
/// exactly like corruption: drop it and re-simulate.
fn cached_cell(job: &CellJob, cc: &CellCache) -> Option<CellResult> {
    let campaign_metrics = job.telemetry.metrics();
    let (lookup, payload) = cc.store.get(&cc.key);
    if lookup == Lookup::Miss {
        return None;
    }
    let cell = payload
        .as_deref()
        .and_then(cell_codec::decode)
        .filter(|c| c.record.test == job.cell.test.name && c.record.seed == job.cell.seed);
    let Some(cell) = cell else {
        campaign_metrics.counter("cache.corrupt").inc();
        job.telemetry.warn(
            "cache",
            "corrupt entry dropped, cell re-simulated",
            [("key", Json::from(cc.key.as_str()))],
        );
        cc.store.remove(&cc.key);
        return None;
    };
    campaign_metrics.counter("cache.hit").inc();
    // Replay the cell's metric contribution so the campaign totals are
    // the ones a cold run would report.
    campaign_metrics.absorb(&cell.metrics);
    Some(CellResult {
        config_idx: job.config_idx,
        record: cell.record,
        rtl_activity: cell.rtl_activity,
    })
}

/// Runs one job: the cell through [`catg::cell::run_cell`] on this worker
/// thread, folded into a [`RunRecord`]. With a cache attached, the store
/// is consulted first and a simulated result is recorded back.
fn run_job(job: &CellJob) -> CellResult {
    if let Some(cc) = &job.cache {
        if let Some(hit) = cached_cell(job, cc) {
            return hit;
        }
        job.telemetry.metrics().counter("cache.miss").inc();
    }
    // With a cache, the cell runs under a scoped handle: a private
    // metrics registry whose snapshot becomes part of the cache entry
    // (events still stream to the shared sinks). Without one, workers
    // share the campaign registry directly, as before.
    let tel = match &job.cache {
        Some(_) => job.telemetry.scoped_metrics(),
        None => job.telemetry.buffered(),
    };
    let outcome = catg::cell::run_cell(&job.cell, &tel);
    let mut runs = outcome.runs.into_iter();
    let (Some(rtl), Some(bca), mut tlm) = (runs.next(), runs.next(), runs.next()) else {
        unreachable!("every regression cell runs RTL and BCA");
    };

    // Only a cache entry stores the trace digests; without a store
    // nobody reads them, so they are not computed.
    let digest = |r: &RunResult| r.trace.as_deref().map(stba::Trace::digest);
    let digests = job.cache.as_ref().map(|_| {
        (
            digest(&rtl.result),
            digest(&bca.result),
            tlm.as_ref().and_then(|t| digest(&t.result)),
        )
    });
    let result = CellResult {
        config_idx: job.config_idx,
        record: RunRecord {
            test: job.cell.test.name.clone(),
            seed: job.cell.seed,
            rtl: rtl.result.without_waveforms(),
            bca: bca.result.without_waveforms(),
            alignment: bca.cycle,
            tlm_alignment: tlm.as_mut().and_then(|t| t.cycle.take()),
            tlm_tx_alignment: tlm.as_mut().and_then(|t| t.transactions.take()),
            rtl_wall_us: 0,
            bca_wall_us: 0,
            tlm_wall_us: 0,
            compare_wall_us: bca.compared.then_some(0),
            tlm_compare_wall_us: tlm.as_ref().and_then(|t| t.compared.then_some(0)),
            tlm: tlm.map(|t| t.result.without_waveforms()),
        },
        rtl_activity: outcome
            .rtl_activity
            .expect("every regression cell runs RTL"),
    };

    if let (Some(cc), Some((rtl_vcd_digest, bca_vcd_digest, tlm_vcd_digest))) =
        (&job.cache, digests)
    {
        // One snapshot serves both the cache entry and the campaign
        // absorb below — byte-for-byte the same contribution a later
        // warm run will replay.
        let contribution = tel.metrics().snapshot();
        let payload = cell_codec::encode(&cell_codec::CachedCell {
            record: result.record.clone(),
            rtl_activity: result.rtl_activity.clone(),
            metrics: contribution.clone(),
            rtl_vcd_digest,
            bca_vcd_digest,
            tlm_vcd_digest,
        });
        // The store is an optimization: a failed write costs the next
        // run a re-simulation, never correctness.
        match cc.store.put(&cc.key, &payload) {
            Ok(()) => {
                job.telemetry.metrics().counter("cache.put").inc();
            }
            Err(err) => job.telemetry.warn(
                "cache",
                "failed to record cell",
                [
                    ("key", Json::from(cc.key.as_str())),
                    ("error", Json::from(err.to_string())),
                ],
            ),
        }
        // The private registry's contribution still has to reach the
        // campaign totals on this (cold) run.
        job.telemetry.metrics().absorb(&contribution);
    }
    result
}

/// Runs the campaign: `configs × tests × seeds × {RTL, BCA}`.
///
/// This is the batch mode of the paper's regression tool: it "launches
/// parallel regression tests on BCA and RTL models. It applies same test
/// cases on both with same seeds. So that it can later, proceed to
/// alignment comparison activity, if all checkers passed." Cells fan out
/// across [`RegressionOptions::jobs`] worker threads and reassemble in
/// matrix order, so the report does not depend on the worker count.
pub fn run_regression(
    configs: &[NodeConfig],
    tests: &[TestSpec],
    options: &RegressionOptions,
) -> RegressionReport {
    let tel = &options.telemetry;
    let campaign_span = tel
        .span("regress.campaign")
        .field("configs", Json::from(configs.len()))
        .field("tests", Json::from(tests.len()))
        .field("seeds", Json::from(options.seeds.len()))
        .field("engine", Json::from(options.engine.to_string()))
        .field("jobs", Json::from(exec::resolve_jobs(options.jobs)));

    // The memoization context, shared by every cell of the campaign.
    let store = options
        .cache_dir
        .as_ref()
        .map(|root| Store::open(root.clone()));
    let counts_before = store.as_ref().map(|_| cache_counts(tel));

    // The views every cell runs: RTL is the reference; BCA is compared
    // cycle by cycle, and the untimed view both ways (the discipline it
    // is expected to fail, and the one it signs off under).
    let compare = |mode| {
        if options.compare_waveforms {
            mode
        } else {
            Compare::None
        }
    };
    let bca = ViewSpec::Bca(options.fidelity, options.bca_bugs.clone());
    let mut views = vec![
        (ViewSpec::Rtl(options.engine, Vec::new()), Compare::None),
        (bca, compare(Compare::Cycle)),
    ];
    if options.views.contains(&ViewKind::Tlm) {
        views.push((ViewSpec::of(ViewKind::Tlm), compare(Compare::Both)));
    }

    // The work list, in matrix order: config-major, then test, then seed.
    let mut cells = Vec::with_capacity(configs.len() * tests.len() * options.seeds.len());
    for (config_idx, config) in configs.iter().enumerate() {
        for spec in tests {
            for &seed in &options.seeds {
                cells.push(CellJob {
                    config_idx,
                    cell: CellSpec {
                        attach_metrics: true,
                        run_span: Some("regress.cell"),
                        ..CellSpec::new(config.clone(), spec.clone(), seed, views.clone())
                    },
                    telemetry: tel.handoff(),
                    cache: store.as_ref().map(|store| CellCache {
                        store: store.clone(),
                        key: cell_key(config, spec, seed, options),
                    }),
                });
            }
        }
    }
    let results = match &options.pool {
        Some(pool) => pool.map_ordered(cells, |job| run_job(&job)),
        None => exec::map_ordered(options.jobs, cells, |job| run_job(&job)),
    };

    // Reassemble per configuration, in matrix order: merging functional
    // and structural coverage in the same (test, seed) order the serial
    // runner used keeps every aggregate bit-identical.
    let per_config = tests.len() * options.seeds.len();
    let assemble_span = tel.span("regress.assemble");
    let mut report = RegressionReport {
        engine: options.engine,
        ..RegressionReport::default()
    };
    let mut results = results.into_iter();
    for (config_idx, config) in configs.iter().enumerate() {
        let mut runs = Vec::with_capacity(per_config);
        let mut coverage_rtl: Option<CoverageReport> = None;
        let mut coverage_bca: Option<CoverageReport> = None;
        let mut coverage_tlm: Option<CoverageReport> = None;
        let mut code_coverage_rtl: Option<ActivityCoverage> = None;
        for _ in 0..per_config {
            let cell = results.next().expect("one result per cell");
            debug_assert_eq!(cell.config_idx, config_idx);
            CoverageReport::accumulate(&mut coverage_rtl, &cell.record.rtl.coverage);
            CoverageReport::accumulate(&mut coverage_bca, &cell.record.bca.coverage);
            if let Some(tlm) = &cell.record.tlm {
                CoverageReport::accumulate(&mut coverage_tlm, &tlm.coverage);
            }
            match &mut code_coverage_rtl {
                Some(acc) => acc.merge(&cell.rtl_activity),
                None => code_coverage_rtl = Some(cell.rtl_activity),
            }
            runs.push(cell.record);
        }
        let outcome = ConfigOutcome {
            config: config.clone(),
            runs,
            coverage_rtl,
            coverage_bca,
            coverage_tlm,
            code_coverage_rtl,
        };
        tel.info(
            "regress.config",
            "configuration assembled",
            [
                ("config", Json::from(config.name.as_str())),
                ("runs", Json::from(outcome.view_runs())),
                ("all_passed", Json::from(outcome.all_passed())),
                (
                    "functional_coverage_pct",
                    Json::from(outcome.functional_coverage() * 100.0),
                ),
                (
                    "min_alignment_pct",
                    Json::from(outcome.min_alignment().map(|a| a * 100.0)),
                ),
                ("signed_off", Json::from(outcome.signed_off())),
            ],
        );
        report.configs.push(outcome);
    }
    assemble_span.end([("configs", Json::from(configs.len()))]);

    if let (Some(store), Some(before)) = (&store, counts_before) {
        // Orphaned temp files of killed writers go after every cached
        // campaign; entries are only scanned when a bound asks for it.
        let (evicted, orphans) =
            if options.cache_gc.max_entries.is_some() || options.cache_gc.max_bytes.is_some() {
                let gc = store.gc(&options.cache_gc);
                tel.metrics().counter("cache.evict").add(gc.evicted as u64);
                (gc.evicted as u64, gc.orphans as u64)
            } else {
                (0, store.sweep_orphans().0 as u64)
            };
        tel.metrics().counter("cache.orphans").add(orphans);
        let after = cache_counts(tel);
        let delta = |i: usize| after[i] - before[i];
        let summary = CacheSummary {
            hits: delta(0),
            misses: delta(1),
            puts: delta(2),
            corrupt: delta(3),
            evicted,
            orphans,
            simulated: delta(1),
        };
        tel.info(
            "cache",
            "campaign cache summary",
            [
                ("hits", Json::from(summary.hits)),
                ("misses", Json::from(summary.misses)),
                ("puts", Json::from(summary.puts)),
                ("corrupt", Json::from(summary.corrupt)),
                ("evicted", Json::from(summary.evicted)),
                ("orphans", Json::from(summary.orphans)),
                ("simulated", Json::from(summary.simulated)),
            ],
        );
        report.cache = Some(summary);
    }

    report.metrics = tel.metrics().snapshot();
    drop_bookkeeping(&mut report.metrics);
    campaign_span.end([("signed_off", Json::from(report.signed_off_count()))]);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use catg::tests_lib;

    #[test]
    fn small_campaign_signs_off() {
        let configs = vec![NodeConfig::reference()];
        let tests = vec![tests_lib::basic_read_write(10), tests_lib::out_of_order(10)];
        let options = RegressionOptions {
            seeds: vec![1],
            ..RegressionOptions::default()
        };
        let report = run_regression(&configs, &tests, &options);
        assert_eq!(report.configs.len(), 1);
        let c = &report.configs[0];
        assert!(
            c.all_passed(),
            "{:#?}",
            c.runs
                .iter()
                .map(|r| (&r.test, r.rtl.passed(), r.bca.passed()))
                .collect::<Vec<_>>()
        );
        assert!(c.coverage_matches_across_views());
        let align = c.min_alignment().expect("compared");
        assert!(align >= SIGNOFF_RATE, "alignment {align}");
        // Two tests alone do not reach full functional coverage.
        assert!(c.functional_coverage() < 1.0);
        let table = report.table();
        assert!(table.contains("reference"));
    }

    #[test]
    fn injected_bug_fails_the_bca_side_only() {
        let configs = vec![NodeConfig::reference()];
        let tests = vec![tests_lib::random_mixed(12)];
        let options = RegressionOptions {
            seeds: vec![1],
            bca_bugs: vec![BcaBug::DroppedByteEnables],
            compare_waveforms: false,
            ..RegressionOptions::default()
        };
        let report = run_regression(&configs, &tests, &options);
        let run = &report.configs[0].runs[0];
        assert!(run.rtl.passed());
        assert!(!run.bca.passed(), "B1 must be caught by the common env");
    }

    #[test]
    fn run_record_rates_fold_per_port() {
        let record = RunRecord {
            test: "t".into(),
            seed: 1,
            rtl: dummy_result(),
            bca: dummy_result(),
            alignment: Some(vec![("p0".into(), 9, 10), ("p1".into(), 10, 10)]),
            tlm: None,
            tlm_alignment: None,
            tlm_tx_alignment: Some(vec![("p0".into(), 20, 20)]),
            rtl_wall_us: 0,
            bca_wall_us: 0,
            tlm_wall_us: 0,
            compare_wall_us: None,
            tlm_compare_wall_us: None,
        };
        assert_eq!(record.min_alignment(), Some(0.9));
        assert_eq!(record.min_tlm_alignment(), None);
        assert_eq!(record.min_tlm_tx_alignment(), Some(1.0));
    }

    fn dummy_result() -> RunResult {
        let configs = vec![NodeConfig::reference()];
        let tests = vec![tests_lib::basic_read_write(2)];
        let options = RegressionOptions {
            seeds: vec![1],
            compare_waveforms: false,
            jobs: 1,
            ..RegressionOptions::default()
        };
        run_regression(&configs, &tests, &options).configs[0].runs[0]
            .rtl
            .clone()
    }

    #[test]
    fn three_view_cell_passes_functionally_and_fails_only_the_cycle_discipline() {
        let configs = vec![NodeConfig::reference()];
        let tests = vec![tests_lib::random_mixed(12)];
        let options = RegressionOptions {
            seeds: vec![1],
            views: vec![ViewKind::Rtl, ViewKind::Bca, ViewKind::Tlm],
            ..RegressionOptions::default()
        };
        let report = run_regression(&configs, &tests, &options);
        let c = &report.configs[0];
        assert!(c.all_passed());
        assert!(c.tlm_all_passed(), "{:?}", c.runs[0].tlm);
        let cycle = c.min_tlm_alignment().expect("compared");
        assert!(
            cycle < SIGNOFF_RATE,
            "untimed view must fail cycle sign-off: {cycle}"
        );
        let tx = c.min_tlm_tx_alignment().expect("compared");
        assert_eq!(tx, 1.0, "clean TLM must match RTL transaction order");
        let table = report.table();
        assert!(table.contains("tlm view"), "{table}");
    }

    #[test]
    fn config_event_counts_every_view_run() {
        let (sink, handle) = telemetry::MemorySink::new();
        let options = RegressionOptions {
            seeds: vec![1, 2],
            views: vec![ViewKind::Rtl, ViewKind::Bca, ViewKind::Tlm],
            compare_waveforms: false,
            telemetry: Telemetry::builder().with_sink(Box::new(sink)).build(),
            ..RegressionOptions::default()
        };
        let tests = vec![tests_lib::basic_read_write(4)];
        run_regression(&[NodeConfig::reference()], &tests, &options);
        let events = handle.events();
        let config = events
            .iter()
            .find(|e| e.scope == "regress.config")
            .expect("config event");
        // One test, two seeds, three views.
        assert_eq!(config.field("runs").and_then(Json::as_u64), Some(6));
    }

    #[test]
    fn two_view_table_has_no_tlm_block() {
        let configs = vec![NodeConfig::reference()];
        let tests = vec![tests_lib::basic_read_write(5)];
        let options = RegressionOptions {
            seeds: vec![1],
            compare_waveforms: false,
            ..RegressionOptions::default()
        };
        let report = run_regression(&configs, &tests, &options);
        assert!(!report.table().contains("tlm view"));
    }

    #[test]
    fn warm_cache_run_simulates_nothing_and_reports_identically() {
        let dir =
            std::env::temp_dir().join(format!("stbus-runner-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let configs = vec![NodeConfig::reference()];
        let tests = vec![tests_lib::basic_read_write(8)];
        // A fresh options value per run: the metrics registry inside a
        // `Telemetry` handle accumulates for the handle's lifetime, so
        // sharing one across campaigns would sum their totals (true of
        // uncached runs too; each CLI invocation builds its own handle).
        let options = || RegressionOptions {
            seeds: vec![1, 2],
            cache_dir: Some(dir.clone()),
            ..RegressionOptions::default()
        };

        let cold = run_regression(&configs, &tests, &options());
        let cold_cache = cold.cache.expect("cache enabled");
        assert_eq!(cold_cache.hits, 0);
        assert_eq!(cold_cache.simulated, 2);
        assert_eq!(cold_cache.puts, 2);

        let warm = run_regression(&configs, &tests, &options());
        let warm_cache = warm.cache.expect("cache enabled");
        assert_eq!(warm_cache.hits, 2, "every cell answered from the store");
        assert_eq!(warm_cache.simulated, 0, "warm run must not simulate");

        assert_eq!(
            cold.manifest_json().render_pretty(),
            warm.manifest_json().render_pretty(),
            "warm report must be byte-identical to cold"
        );
        // The manifest carries no cache bookkeeping.
        assert!(!cold.manifest_json().render().contains("cache."));
        // But the warm run still replayed the kernel's counters.
        assert!(warm.metrics.counters["kernel.delta_cycles"] > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_key_separates_every_input() {
        let config = NodeConfig::reference();
        let spec = tests_lib::basic_read_write(8);
        let options = RegressionOptions::default();
        let base = cell_key(&config, &spec, 1, &options);
        assert_eq!(base, cell_key(&config, &spec, 1, &options));
        assert_ne!(base, cell_key(&config, &spec, 2, &options));
        let mut other = NodeConfig::reference();
        other.n_initiators += 1;
        assert_ne!(base, cell_key(&other, &spec, 1, &options));
        let compiled = RegressionOptions {
            engine: SimBackend::Compiled,
            ..RegressionOptions::default()
        };
        assert_ne!(base, cell_key(&config, &spec, 1, &compiled));
        let exact = RegressionOptions {
            fidelity: Fidelity::Exact,
            ..RegressionOptions::default()
        };
        assert_ne!(base, cell_key(&config, &spec, 1, &exact));
        let three_views = RegressionOptions {
            views: vec![ViewKind::Rtl, ViewKind::Bca, ViewKind::Tlm],
            ..RegressionOptions::default()
        };
        assert_ne!(
            base,
            cell_key(&config, &spec, 1, &three_views),
            "adding the TLM view must miss the two-view entry"
        );
    }

    #[test]
    fn reports_carry_no_wall_clock() {
        let configs = vec![NodeConfig::reference()];
        let tests = vec![tests_lib::basic_read_write(5)];
        let options = RegressionOptions {
            seeds: vec![1],
            views: vec![ViewKind::Rtl, ViewKind::Bca, ViewKind::Tlm],
            ..RegressionOptions::default()
        };
        let report = run_regression(&configs, &tests, &options);
        assert_eq!(report.wall_us, 0);
        let run = &report.configs[0].runs[0];
        assert_eq!(run.rtl_wall_us, 0);
        assert_eq!(run.bca_wall_us, 0);
        assert_eq!(run.tlm_wall_us, 0);
        assert_eq!(run.compare_wall_us, Some(0));
        assert_eq!(run.tlm_compare_wall_us, Some(0));
    }
}
