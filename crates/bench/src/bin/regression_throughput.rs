//! Regression-campaign throughput: per-engine wall-clock across a
//! worker-count sweep, plus a direct RTL-view step-rate comparison.
//!
//! For each simulation backend (`event` and `compiled`, or the one named
//! with `--engine`) this runs the same `{config × test × seed}` campaign
//! once per entry of the jobs sweep — `1` (the serial baseline), `2`,
//! `4`, and `0` (auto: one worker per hardware thread) — verifies every
//! report is identical to that engine's serial one modulo timings, and
//! cross-checks the two engines' reports against each other. It then
//! replays the same campaign's RTL runs with the DUT's `step` calls
//! timed directly, which isolates the simulation backend from the
//! (engine-independent) testbench, scoreboard and comparison overhead.
//! It then runs a cold/warm cache pair per engine — the same campaign
//! serially against an empty cell store and again against the store the
//! cold run filled — verifying the warm run simulates nothing (100% hit
//! rate) and reports byte-identically, and recording the warm-run
//! speedup. It then profiles the serial campaign per engine and records
//! the kernel's `settle` and `eval` buckets and the check phase with its
//! five sub-layers (`check:bfm`, `check:monitor`, `check:checker`,
//! `check:coverage`, `check:scoreboard`), each the median of five
//! profiled runs, and the RTL view's step time, the median of five
//! replays. With `--baseline PATH` (an earlier `BENCH_regression.json`,
//! for instance from the parent commit) every such layer becomes a
//! before/after pair. Everything lands in `BENCH_regression.json`
//! (schema `stbus-bench-regression/5`):
//!
//! ```text
//! regression_throughput [--configs N] [--seeds N] [--intensity N]
//!                       [--jobs N] [--engine event|compiled]
//!                       [--out PATH] [--baseline PATH]
//!                       [--history-dir DIR] [--no-history]
//! ```
//!
//! `--jobs N` replaces the sweep with the single worker count N. The
//! JSON records the campaign shape, the host (core count), one
//! `{jobs, wall_us, speedup}` entry per engine per sweep point, and the
//! `rtl_view` section with the measured compiled-vs-event step-rate
//! speedup — so the headline claim of the compiled backend is measured,
//! not asserted. Multi-worker sweep points recorded on a 1-core host are
//! flagged `single_core_artifact` and excluded from `best_speedup`: a
//! "parallel speedup" measured without parallel hardware is an artifact
//! of scheduling noise, not a property of the engine. Each sweep point
//! also appends a `source: "bench"` record to the persistent campaign
//! history (`.stbus/history.jsonl`, see the `stbus-regress history`
//! subcommand), keyed per engine, making bench runs part of the same
//! trend the CLI inspects.
//!
//! Note: the checked-in `BENCH_regression.json` records the core count of
//! the host it was measured on (`host`). On a 1-core host every
//! multi-worker sweep point is flagged `single_core_artifact` and the
//! meaningful numbers are the RTL-view step rates and the cache warm-run
//! speedup, which do not need parallel hardware.

use regression::{run_regression, standard_configs, RegressionOptions, RegressionReport};
use sim_kernel::SimBackend;
use stbus_protocol::{DutInputs, DutOutputs, DutView, NodeConfig, ViewKind};
use std::time::Instant;
use telemetry::{Json, Level, MemorySink, Telemetry};

/// The kernel's profile phase buckets on the RTL view.
const KERNEL_LAYERS: [&str; 2] = ["settle", "eval"];

/// The check phase and its sub-layers, as profile phase buckets.
const CHECK_LAYERS: [&str; 6] = [
    "check",
    "check:bfm",
    "check:monitor",
    "check:checker",
    "check:coverage",
    "check:scoreboard",
];

/// Profiled campaigns (or RTL replays) per engine behind each layer
/// figure.
const PROFILE_REPEATS: usize = 5;

/// The median of `samples`.
fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Per `layers` entry: the median over [`PROFILE_REPEATS`] profiled runs
/// of the campaign `opts` describes, in microseconds.
fn profiled_layer_us(
    configs: &[NodeConfig],
    tests: &[catg::TestSpec],
    layers: &[&str],
    opts: impl Fn() -> RegressionOptions,
) -> Vec<u64> {
    let mut samples = vec![Vec::new(); layers.len()];
    for _ in 0..PROFILE_REPEATS {
        let (sink, handle) = MemorySink::new();
        let mut options = opts();
        options.telemetry = Telemetry::builder()
            .min_level(Level::Info)
            .with_sink(Box::new(sink))
            .build();
        run_regression(configs, tests, &options);
        let spans = profile::collect_spans(&handle.events());
        let phases =
            profile::build_profile(&spans, &profile::ProfileOptions::default()).phase_totals();
        for (layer, s) in layers.iter().zip(&mut samples) {
            s.push(phases.get(*layer).copied().unwrap_or(0));
        }
    }
    samples.into_iter().map(median).collect()
}

/// The entry named `value` under `key` in the array `doc[section][list]`.
fn find_entry<'a>(
    doc: Option<&'a Json>,
    section: &str,
    list: &str,
    key: &str,
    value: &str,
) -> Option<&'a Json> {
    let Json::Arr(entries) = doc?.get(section)?.get(list)? else {
        return None;
    };
    entries
        .iter()
        .find(|e| e.get(key).and_then(Json::as_str) == Some(value))
}

/// A layer's `after_us` figure for `engine` in `section` of an earlier
/// bench document.
fn baseline_us(
    baseline: Option<&Json>,
    section: &str,
    engine: SimBackend,
    layer: &str,
) -> Option<u64> {
    let entry = find_entry(baseline, section, "engines", "engine", engine.name())?;
    let Json::Arr(layers) = entry.get("layers")? else {
        return None;
    };
    layers
        .iter()
        .find(|l| l.get("layer").and_then(Json::as_str) == Some(layer))?
        .get("after_us")?
        .as_u64()
}

/// One engine's entry of a per-layer section: `after_us` per layer,
/// paired with the baseline's figure where it has one.
fn layer_section(
    section: &str,
    engine: SimBackend,
    layers: &[&str],
    after: &[u64],
    baseline: Option<&Json>,
) -> Json {
    let layers = layers.iter().zip(after).map(|(layer, &after_us)| {
        let before_us = baseline_us(baseline, section, engine, layer);
        eprintln!(
            "  {engine:>8} {layer:<17} {after_us:>8} us{}",
            before_us.map_or(String::new(), |b| format!("  (before {b} us)"))
        );
        Json::obj([
            ("layer", Json::from(*layer)),
            ("before_us", before_us.map(Json::from).unwrap_or(Json::Null)),
            ("after_us", Json::from(after_us)),
        ])
    });
    Json::obj([
        ("engine", Json::from(engine.to_string())),
        ("layers", Json::Arr(layers.collect())),
    ])
}

/// A [`DutView`] decorator that accumulates wall-clock time spent inside
/// the wrapped view's `step` — the RTL-view cost with every
/// environment-side microsecond excluded.
struct TimedDut<D> {
    inner: D,
    step_ns: u64,
    cycles: u64,
}

impl<D: DutView> TimedDut<D> {
    fn new(inner: D) -> Self {
        TimedDut {
            inner,
            step_ns: 0,
            cycles: 0,
        }
    }
}

impl<D: DutView> DutView for TimedDut<D> {
    fn config(&self) -> &NodeConfig {
        self.inner.config()
    }

    fn view_kind(&self) -> ViewKind {
        self.inner.view_kind()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn step(&mut self, inputs: &DutInputs) -> DutOutputs {
        let t0 = Instant::now();
        let out = self.inner.step(inputs);
        self.step_ns += t0.elapsed().as_nanos() as u64;
        self.cycles += 1;
        out
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

/// The campaign manifest with the fields that legitimately differ across
/// engines (the engine tag and the kernel-counter namespaces) dropped,
/// so the two backends' reports can be compared byte for byte.
fn engine_neutral_manifest(report: &RegressionReport) -> String {
    let Json::Obj(fields) = report.manifest_json() else {
        panic!("manifest is an object")
    };
    Json::Obj(
        fields
            .into_iter()
            .filter(|(k, _)| k != "engine" && k != "metrics")
            .collect(),
    )
    .render_pretty()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut n_configs = 8usize;
    let mut n_seeds = 2u64;
    let mut intensity = 10usize;
    let mut jobs_override: Option<usize> = None;
    let mut engines: Vec<SimBackend> = SimBackend::ALL.to_vec();
    let mut out = "BENCH_regression.json".to_owned();
    let mut history_dir = ".".to_owned();
    let mut baseline_path: Option<String> = None;
    let mut no_history = false;
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or_else(|| {
                    eprintln!("{what} takes a number");
                    std::process::exit(2);
                })
        };
        match arg.as_str() {
            "--configs" => n_configs = take("--configs") as usize,
            "--seeds" => n_seeds = take("--seeds"),
            "--intensity" => intensity = take("--intensity") as usize,
            "--jobs" => jobs_override = Some(take("--jobs") as usize),
            "--engine" => match args.next().map(|s| s.parse::<SimBackend>()) {
                Some(Ok(engine)) => engines = vec![engine],
                Some(Err(e)) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
                None => {
                    eprintln!("--engine takes `event` or `compiled`");
                    std::process::exit(2);
                }
            },
            "--out" => out = args.next().unwrap_or(out),
            "--baseline" => match args.next() {
                Some(path) => baseline_path = Some(path),
                None => {
                    eprintln!("--baseline takes a path");
                    std::process::exit(2);
                }
            },
            "--history-dir" => history_dir = args.next().unwrap_or(history_dir),
            "--no-history" => no_history = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: regression_throughput [--configs N] [--seeds N] [--intensity N] [--jobs N] [--engine event|compiled] [--out PATH] [--baseline PATH] [--history-dir DIR] [--no-history]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }

    let baseline = baseline_path.as_ref().map(|path| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
            .unwrap_or_else(|e| {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(2);
            })
    });

    let sweep = standard_configs();
    let n_configs = n_configs.clamp(1, sweep.len());
    let configs = &sweep[..n_configs];
    let tests = vec![
        catg::tests_lib::basic_read_write(intensity),
        catg::tests_lib::random_mixed(intensity),
    ];
    // Each campaign gets its own options — and with them a fresh default
    // telemetry/metrics registry, so no run's manifest accumulates a
    // previous run's counters.
    let mk_opts = |jobs: usize, engine: SimBackend| RegressionOptions {
        seeds: (1..=n_seeds).collect(),
        intensity,
        jobs,
        engine,
        ..RegressionOptions::default()
    };
    let n_cell_seeds = n_seeds as usize;
    let cells = configs.len() * tests.len() * n_cell_seeds;
    let cores = exec::available_parallelism();
    let single_core = cores == 1;
    // The sweep: serial baseline first, then growing pools, then auto.
    // Duplicates (e.g. auto resolving to 1, 2 or 4) are dropped.
    let jobs_sweep: Vec<usize> = match jobs_override {
        Some(n) => {
            if n == 1 {
                vec![1]
            } else {
                vec![1, n]
            }
        }
        None => {
            let mut sweep = vec![1usize, 2, 4, 0];
            let mut seen = std::collections::BTreeSet::new();
            sweep.retain(|&j| seen.insert(exec::resolve_jobs(j)));
            sweep
        }
    };
    eprintln!(
        "regression_throughput: {} configs x {} tests x {} seeds = {cells} cells, {cores} hardware threads, engines {:?}, jobs sweep {:?}",
        configs.len(),
        tests.len(),
        n_cell_seeds,
        engines.iter().map(|e| e.name()).collect::<Vec<_>>(),
        jobs_sweep.iter().map(|&j| exec::resolve_jobs(j)).collect::<Vec<_>>(),
    );

    let store = profile::HistoryStore::in_dir(std::path::Path::new(&history_dir));
    let mut engine_sections: Vec<Json> = Vec::new();
    let mut neutral_manifests: Vec<String> = Vec::new();
    let mut best_speedup = 1.0f64;
    let mut signed_off = 0usize;
    for &engine in &engines {
        // The content key ties every sweep point (and any later re-run of
        // the same shape) to one comparable history line, per engine.
        let mut key_parts: Vec<String> = vec![format!("engine:{}", env!("CARGO_PKG_VERSION"))];
        key_parts.extend(configs.iter().map(|c| format!("config:{c:?}")));
        key_parts.extend(tests.iter().map(|t| format!("test:{}", t.name)));
        key_parts.push(format!("intensity:{intensity}"));
        key_parts.push(format!("seeds:1..={n_seeds}"));
        key_parts.push(format!("engine_backend:{engine}"));
        key_parts.push("bench:throughput".to_owned());
        let content_key = profile::content_key(&key_parts);

        let mut serial_stripped: Option<String> = None;
        let mut serial_us = 0u64;
        let mut runs: Vec<Json> = Vec::new();
        let mut last_report = None;
        for &jobs in &jobs_sweep {
            let resolved = exec::resolve_jobs(jobs);
            let mut report = run_regression(configs, &tests, &mk_opts(jobs, engine));
            let wall_us = report.wall_us;
            report.strip_timings();
            let manifest = report.manifest_json().render_pretty();
            // A throughput number is only meaningful if every run did the
            // same work and reached the same verdicts.
            match &serial_stripped {
                None => {
                    serial_stripped = Some(manifest);
                    serial_us = wall_us;
                    neutral_manifests.push(engine_neutral_manifest(&report));
                }
                Some(baseline) => assert_eq!(
                    baseline, &manifest,
                    "{engine} jobs={resolved} campaign diverged from the serial baseline"
                ),
            }
            let speedup = if wall_us == 0 {
                1.0
            } else {
                serial_us as f64 / wall_us as f64
            };
            // A multi-worker "speedup" measured on one core is noise,
            // never evidence; flag it and keep it out of best_speedup.
            let artifact = single_core && resolved > 1;
            if !artifact {
                best_speedup = best_speedup.max(speedup);
            }
            eprintln!(
                "  {engine:>8} jobs={resolved:<3} {wall_us:>9} us  speedup {speedup:.2}x{}",
                if artifact { "  (1-core artifact)" } else { "" }
            );
            runs.push(Json::obj([
                ("jobs", Json::from(resolved)),
                ("wall_us", Json::from(wall_us)),
                ("speedup", Json::from(speedup)),
                ("single_core_artifact", Json::from(artifact)),
            ]));
            if !no_history {
                let record = profile::HistoryRecord {
                    key: content_key.clone(),
                    source: "bench".to_owned(),
                    engine_version: env!("CARGO_PKG_VERSION").to_owned(),
                    recorded_unix: std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map(|d| d.as_secs())
                        .unwrap_or(0),
                    host: profile::HostInfo::current(resolved as u64),
                    shape: profile::CampaignShape {
                        configs: configs.len() as u64,
                        tests: tests.len() as u64,
                        seeds: n_cell_seeds as u64,
                        intensity: intensity as u64,
                        cells: cells as u64,
                    },
                    wall_us,
                    // The bench campaign runs with telemetry disabled (no
                    // per-phase attribution): the record carries the total
                    // only, which is what the throughput trend compares.
                    phases: Default::default(),
                    passed: report.configs.iter().all(|c| c.all_passed()),
                };
                if let Err(e) = store.append(&record) {
                    eprintln!("cannot append history at {}: {e}", store.path().display());
                }
            }
            last_report = Some(report);
        }
        let last_report = last_report.expect("sweep is never empty");
        signed_off = last_report.signed_off_count();
        let engine_best = runs
            .iter()
            .filter(|r| r.get("single_core_artifact").and_then(Json::as_bool) != Some(true))
            .filter_map(|r| r.get("speedup").and_then(Json::as_f64))
            .fold(1.0f64, f64::max);
        engine_sections.push(Json::obj([
            ("engine", Json::from(engine.to_string())),
            ("content_key", Json::from(content_key)),
            ("serial_wall_us", Json::from(serial_us)),
            ("runs", Json::Arr(runs)),
            ("best_speedup", Json::from(engine_best)),
        ]));
    }
    // The two backends must be interchangeable: identical verdicts,
    // coverage and alignment for the whole bench campaign.
    let cross_engine_identical = neutral_manifests.windows(2).all(|w| w[0] == w[1]);
    assert!(
        cross_engine_identical,
        "engines disagree on the bench campaign"
    );

    // --- cold/warm cache pair ------------------------------------------
    // The same serial campaign against an empty cell store, then against
    // the store that cold run filled. The warm run must answer every
    // cell from the store (zero simulations) and report byte-identically;
    // the wall-clock ratio is the memoization payoff on this shape.
    let mut cache_sections: Vec<Json> = Vec::new();
    for &engine in &engines {
        let cache_root =
            std::env::temp_dir().join(format!("stbus-bench-cache-{engine}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_root);
        let cached_opts = || {
            let mut o = mk_opts(1, engine);
            o.cache_dir = Some(cache_root.clone());
            o
        };
        let mut cold = run_regression(configs, &tests, &cached_opts());
        let cold_us = cold.wall_us;
        let cold_stats = cold.cache.expect("cache summary present");
        let mut warm = run_regression(configs, &tests, &cached_opts());
        let warm_us = warm.wall_us;
        let warm_stats = warm.cache.expect("cache summary present");
        assert_eq!(
            warm_stats.simulated, 0,
            "{engine} warm campaign must perform zero simulations"
        );
        assert_eq!(
            warm_stats.hits, cells as u64,
            "{engine} warm campaign must answer every cell from the store"
        );
        cold.strip_timings();
        warm.strip_timings();
        assert_eq!(
            cold.manifest_json().render_pretty(),
            warm.manifest_json().render_pretty(),
            "{engine} warm campaign diverged from its cold baseline"
        );
        let hit_rate = warm_stats.hits as f64 / (warm_stats.hits + warm_stats.misses) as f64;
        let warm_speedup = if warm_us == 0 {
            1.0
        } else {
            cold_us as f64 / warm_us as f64
        };
        eprintln!(
            "  cache {engine:>8}: cold {cold_us} us, warm {warm_us} us ({warm_speedup:.2}x), hit rate {:.0}%",
            hit_rate * 100.0
        );
        cache_sections.push(Json::obj([
            ("engine", Json::from(engine.to_string())),
            ("cold_wall_us", Json::from(cold_us)),
            ("warm_wall_us", Json::from(warm_us)),
            ("warm_speedup", Json::from(warm_speedup)),
            ("hit_rate", Json::from(hit_rate)),
            ("cold_simulated", Json::from(cold_stats.simulated)),
            ("warm_simulated", Json::from(warm_stats.simulated)),
            ("warm_report_identical", Json::from(true)),
        ]));
        let _ = std::fs::remove_dir_all(&cache_root);
    }

    // --- the kernel and the check phase, per layer ---------------------
    // Profiled serial campaigns: the testbench attributes its per-cycle
    // time to the kernel's `settle`/`eval` and to five check sub-layers,
    // which the span-tree profile folds into phase buckets. Against a
    // baseline document each layer is a before/after pair.
    let profiled: Vec<&str> = KERNEL_LAYERS.iter().chain(&CHECK_LAYERS).copied().collect();
    let mut kernel_sections: Vec<Json> = Vec::new();
    let mut check_sections: Vec<Json> = Vec::new();
    for &engine in &engines {
        let after = profiled_layer_us(configs, &tests, &profiled, || mk_opts(1, engine));
        let (kernel, check) = after.split_at(KERNEL_LAYERS.len());
        let base = baseline.as_ref();
        kernel_sections.push(layer_section(
            "kernel_phase",
            engine,
            &KERNEL_LAYERS,
            kernel,
            base,
        ));
        check_sections.push(layer_section(
            "check_phase",
            engine,
            &CHECK_LAYERS,
            check,
            base,
        ));
    }

    // --- the RTL view in isolation -------------------------------------
    // Replay the campaign's RTL runs with `step` timed directly. The
    // full-campaign wall clock above is dominated by engine-independent
    // environment work (BFMs, monitors, scoreboard, dual-view compare),
    // so it bounds any backend's visible gain; this is the number the
    // compiled backend actually moves. Each figure is the median of
    // [`PROFILE_REPEATS`] replays.
    let mut rtl_view: Vec<Json> = Vec::new();
    let mut step_us: Vec<(SimBackend, u64)> = Vec::new();
    for &engine in &engines {
        let mut replays_ns = Vec::new();
        let mut total_cycles = 0u64;
        for _ in 0..PROFILE_REPEATS {
            let mut replay_ns = 0u64;
            total_cycles = 0;
            for cfg in configs {
                let tb = catg::Testbench::new(cfg.clone(), catg::TestbenchOptions::default());
                for test in &tests {
                    for seed in 1..=n_seeds {
                        let mut dut =
                            TimedDut::new(stbus_rtl::RtlNode::with_engine(cfg.clone(), engine));
                        let result = tb.run(&mut dut, test, seed);
                        assert!(result.completed, "{} {} seed {seed}", cfg.name, test.name);
                        replay_ns += dut.step_ns;
                        total_cycles += dut.cycles;
                    }
                }
            }
            replays_ns.push(replay_ns);
        }
        let total_ns = median(replays_ns);
        let wall_us = total_ns / 1_000;
        let before_us = find_entry(
            baseline.as_ref(),
            "rtl_view",
            "runs",
            "engine",
            engine.name(),
        )
        .and_then(|run| run.get("step_wall_us"))
        .and_then(Json::as_u64);
        let rate = if total_ns == 0 {
            0.0
        } else {
            total_cycles as f64 / (total_ns as f64 / 1e9)
        };
        eprintln!(
            "  rtl-view {engine:>8}: {total_cycles} cycles, {wall_us} us in step ({rate:.0} cyc/s){}",
            before_us.map_or(String::new(), |b| format!("  (before {b} us)"))
        );
        step_us.push((engine, wall_us));
        rtl_view.push(Json::obj([
            ("engine", Json::from(engine.to_string())),
            ("cycles", Json::from(total_cycles)),
            (
                "before_step_wall_us",
                before_us.map(Json::from).unwrap_or(Json::Null),
            ),
            ("step_wall_us", Json::from(wall_us)),
            ("cycles_per_sec", Json::from(rate)),
        ]));
    }
    let compiled_speedup = match (
        step_us.iter().find(|(e, _)| *e == SimBackend::Event),
        step_us.iter().find(|(e, _)| *e == SimBackend::Compiled),
    ) {
        (Some(&(_, ev)), Some(&(_, cp))) if cp > 0 => Some(ev as f64 / cp as f64),
        _ => None,
    };
    if let Some(s) = compiled_speedup {
        eprintln!("  rtl-view compiled speedup: {s:.2}x");
    }

    let json = Json::obj([
        ("schema", Json::from("stbus-bench-regression/5")),
        ("benchmark", Json::from("regression_throughput")),
        ("configs", Json::from(configs.len())),
        ("tests", Json::from(tests.len())),
        ("seeds", Json::from(n_cell_seeds)),
        ("intensity", Json::from(intensity)),
        ("cells", Json::from(cells)),
        (
            "host",
            Json::obj([
                ("cores", Json::from(cores)),
                ("single_core", Json::from(single_core)),
                ("os", Json::from(std::env::consts::OS)),
                ("arch", Json::from(std::env::consts::ARCH)),
            ]),
        ),
        ("engines", Json::Arr(engine_sections)),
        ("best_speedup", Json::from(best_speedup)),
        ("cache", Json::Arr(cache_sections)),
        (
            "kernel_phase",
            Json::obj([
                ("repeats", Json::from(PROFILE_REPEATS)),
                ("engines", Json::Arr(kernel_sections)),
            ]),
        ),
        (
            "check_phase",
            Json::obj([
                ("repeats", Json::from(PROFILE_REPEATS)),
                ("engines", Json::Arr(check_sections)),
            ]),
        ),
        (
            "rtl_view",
            Json::obj([
                ("runs", Json::Arr(rtl_view)),
                (
                    "compiled_speedup",
                    compiled_speedup.map(Json::from).unwrap_or(Json::Null),
                ),
            ]),
        ),
        ("signed_off_configs", Json::from(signed_off)),
        ("reports_identical", Json::from(true)),
        ("cross_engine_identical", Json::from(cross_engine_identical)),
    ]);
    if let Err(e) = std::fs::write(&out, json.render_pretty()) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    match compiled_speedup {
        Some(s) => println!(
            "{out}: best jobs speedup {best_speedup:.2}x, RTL-view compiled speedup {s:.2}x over {cells} cells"
        ),
        None => println!("{out}: best jobs speedup {best_speedup:.2}x over {cells} cells"),
    }
}
