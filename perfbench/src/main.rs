//! `stbus-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload as a closed loop with a single caller — one
//! campaign, wait for its report, then the next — for `S` seconds, checks
//! every report against the pinned outcomes, and prints the end-to-end
//! metrics (`--trace 0`) or, after tracing every workload's campaign once,
//! the per-layer metrics named `<workload>.<layer metric>` (`--trace 1`).
//! The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--write-pins DIR` regenerates the pins files into `DIR`;
//! `--survey-seeds N` prints the work each seed `1..=N` costs.
//!
//! Exit codes: 0 on a measured run (also when outputs are wrong:
//! `correct` says so), 1 when the benchmark itself cannot run, 2 on a
//! bad argument.

use stbus_perfbench::host::{self, ScratchDir};
use stbus_perfbench::pins::{Pins, Tally};
use stbus_perfbench::trace::Layers;
use stbus_perfbench::{qualify, regress, CellDigest, Identity};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use telemetry::Json;

const REGRESS_PINS: &str = include_str!("../pins/regress.pins");
const QUALIFY_PINS: &str = include_str!("../pins/qualify.pins");

/// Where set-up is only input construction (microseconds), it is
/// repeated before every pass, at least `SETUP_REPS` times and until
/// `SETUP_SLICE_S` has accumulated, so the set-up samples span the same
/// window as the passes rather than one instant of a noisy host.
const SETUP_REPS: usize = 15;
const SETUP_SLICE_S: f64 = 0.05;

/// Store fills per `regress-warm` run (each into a fresh store), made
/// before the passes.
const WARM_FILLS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    RegressCold,
    RegressWarm,
    Qualify,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "regress-cold" => Some(Workload::RegressCold),
            "regress-warm" => Some(Workload::RegressWarm),
            "qualify" => Some(Workload::Qualify),
            _ => None,
        }
    }

    fn seed_set(self, seed: u64) -> u64 {
        match self {
            Workload::Qualify => seed % qualify::SEED_SETS,
            _ => seed % regress::SEED_SETS,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: stbus-perfbench --workload regress-cold|regress-warm|qualify --seed N --seconds S --trace 0|1\n       stbus-perfbench --write-pins DIR\n       stbus-perfbench --survey-seeds N"
    );
    std::process::exit(2)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--survey-seeds") {
        let Some(n) = argv.get(1).and_then(|n| n.parse().ok()) else {
            usage()
        };
        survey_seeds(n);
        return;
    }
    if argv.first().map(String::as_str) == Some("--write-pins") {
        let Some(dir) = argv.get(1) else { usage() };
        if let Err(e) = write_pins(std::path::Path::new(dir)) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
    };
    match run(&args) {
        Ok(out) => out.print(),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// One untraced pass: the timed call and what it produced.
struct Pass {
    wall_s: f64,
    rss_mb: f64,
    cells: Vec<CellDigest>,
    output: String,
    identity: Identity,
    engine: String,
    /// Workload-specific checks that failed.
    errors: Vec<String>,
    /// The qualification report, kept for the traced run's rendering.
    qualification: Option<mutation::QualificationReport>,
}

/// Everything a run reports.
struct Outcome {
    lines: Vec<String>,
    tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        for e in &self.tally.errors {
            println!("ERROR {e}");
        }
        println!(
            "cell_error_rate = {} ratio ({} of {} cells)",
            self.tally.cell_error_rate(),
            self.tally.failed,
            self.tally.attempted
        );
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        let metrics = Json::obj(self.metrics.iter().map(|(name, value, unit)| {
            (
                name.as_str(),
                Json::obj([("value", Json::from(*value)), ("unit", Json::from(*unit))]),
            )
        }));
        let result = Json::obj([
            ("correct", Json::from(self.tally.correct())),
            ("attempted", Json::from(self.tally.attempted)),
            ("failed", Json::from(self.tally.failed)),
            ("metrics", metrics),
        ]);
        println!("{}", result.render());
    }
}

/// The state a workload's passes share, built by set-up.
enum Prepared {
    Regress {
        inputs: regress::Inputs,
        seeds: Vec<u64>,
        store: Option<ScratchDir>,
    },
    Qualify {
        seeds: Vec<u64>,
    },
}

fn pins_for(workload: Workload) -> Result<Pins, String> {
    Pins::parse(match workload {
        Workload::Qualify => QUALIFY_PINS,
        _ => REGRESS_PINS,
    })
}

/// Set-up: build the campaign inputs (and, for `regress-warm`, fill a
/// fresh cell store). Returns the prepared state and the set-up seconds.
fn set_up(
    workload: Workload,
    k: u64,
    fill_layers: Option<&mut Layers>,
) -> Result<(Prepared, f64), String> {
    let started = Instant::now();
    let prepared = match workload {
        Workload::RegressCold => Prepared::Regress {
            inputs: regress::inputs(),
            seeds: regress::seeds(k),
            store: None,
        },
        Workload::Qualify => {
            let seeds = qualify::seeds(k);
            std::hint::black_box(qualify::options(&seeds));
            Prepared::Qualify { seeds }
        }
        Workload::RegressWarm => {
            let inputs = regress::inputs();
            let seeds = regress::seeds(k);
            let dir = ScratchDir::new("store").map_err(|e| format!("cannot create store: {e}"))?;
            let options = regress::options(&seeds, Some(dir.path()));
            let fill = match fill_layers {
                Some(layers) => regress::traced_campaign(&inputs, &options, layers),
                None => regress::campaign(&inputs, &options).0,
            };
            let cells = regress::identity(&fill).cells;
            let puts = fill.cache.map_or(0, |c| c.puts);
            if puts != cells {
                return Err(format!("store fill recorded {puts} of {cells} cells"));
            }
            Prepared::Regress {
                inputs,
                seeds,
                store: Some(dir),
            }
        }
    };
    Ok((prepared, started.elapsed().as_secs_f64()))
}

/// Runs one untraced pass. A panicking campaign yields `None`.
fn pass(prepared: &Prepared) -> Option<Pass> {
    host::reset_peak_rss();
    match prepared {
        Prepared::Regress {
            inputs,
            seeds,
            store,
        } => {
            let options = regress::options(seeds, store.as_ref().map(ScratchDir::path));
            let started = Instant::now();
            let (report, texts) =
                catch_unwind(AssertUnwindSafe(|| regress::campaign(inputs, &options))).ok()?;
            let wall_s = started.elapsed().as_secs_f64();
            let rss_mb = host::peak_rss_mb().unwrap_or(0.0);
            drop(texts);
            let identity = regress::identity(&report);
            let mut errors = Vec::new();
            if let Some(cache) = report.cache {
                if cache.hits != identity.cells || cache.simulated != 0 {
                    errors.push(format!(
                        "warm pass: {} of {} cells hit, {} simulated",
                        cache.hits, identity.cells, cache.simulated
                    ));
                }
            }
            Some(Pass {
                wall_s,
                rss_mb,
                cells: regress::cell_digests(&report),
                output: regress::output_digest(&report),
                identity,
                engine: report.engine.to_string(),
                errors,
                qualification: None,
            })
        }
        Prepared::Qualify { seeds } => {
            let options = qualify::options(seeds);
            let started = Instant::now();
            let (report, texts) =
                catch_unwind(AssertUnwindSafe(|| qualify::campaign(&options))).ok()?;
            let wall_s = started.elapsed().as_secs_f64();
            let rss_mb = host::peak_rss_mb().unwrap_or(0.0);
            drop(texts);
            Some(Pass {
                wall_s,
                rss_mb,
                cells: qualify::cell_digests(&report, &options),
                output: qualify::output_digest(&report),
                identity: qualify::matrix_identity(&options),
                engine: regression::RegressionOptions::default().engine.to_string(),
                errors: Vec::new(),
                qualification: Some(report),
            })
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let k = workload.seed_set(args.seed);
    let pins = pins_for(workload)?;
    let matrix_only = workload == Workload::Qualify;
    let mut checked = Tally::default();

    // Every interval that reaches an end-to-end metric is timed between
    // two runs of the reference kernel and converted to reference-host
    // seconds; the measured seconds are printed beside the converted ones.
    let mut clock = host::ReferenceClock::new();

    // Set-up, timed and repeated; `setup_s` is the median. The traced run
    // reports no set-up time and sets up once (the store fill traced).
    let mut fill_layers = Layers::default();
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut prepared = None;
    let cheap_setup = workload != Workload::RegressWarm && !args.trace;
    let mut set_up_slice =
        |prepared: &mut Option<Prepared>, clock: &mut host::ReferenceClock| -> Result<(), String> {
            let (min_reps, budget_s) = if cheap_setup {
                (SETUP_REPS, SETUP_SLICE_S)
            } else {
                (1, 0.0)
            };
            let (slice, scale) = clock.time(|| {
                let mut slice = Vec::new();
                let mut spent = 0.0;
                for rep in 0.. {
                    if rep >= min_reps && spent >= budget_s {
                        break;
                    }
                    let traced_fill = (args.trace && workload == Workload::RegressWarm)
                        .then_some(&mut fill_layers);
                    // Drop the previous state (and its store) before the next set-up.
                    drop(prepared.take());
                    let (p, secs) = set_up(workload, k, traced_fill)?;
                    slice.push(secs);
                    spent += secs;
                    *prepared = Some(p);
                }
                Ok::<_, String>(slice)
            });
            let slice = slice?;
            setups.extend(slice.iter().map(|secs| secs * scale));
            raw_setups.extend(slice);
            Ok(())
        };
    let fills = if workload == Workload::RegressWarm && !args.trace {
        WARM_FILLS
    } else {
        1
    };
    for _ in 0..fills {
        set_up_slice(&mut prepared, &mut clock)?;
    }

    // The closed loop: one campaign after another for the run length.
    let mut walls = Vec::new();
    let mut raw_walls = Vec::new();
    let mut first_rss_mb = 0.0;
    let mut last = None;
    let loop_started = Instant::now();
    while walls.is_empty() || loop_started.elapsed().as_secs_f64() < args.seconds {
        if cheap_setup && !walls.is_empty() {
            set_up_slice(&mut prepared, &mut clock)?;
        }
        match clock.time(|| pass(prepared.as_ref().expect("set up"))) {
            (Some(mut p), scale) => {
                checked.check(&pins, k, &p.cells, &p.output, &p.identity, matrix_only);
                checked.errors.append(&mut p.errors);
                if walls.is_empty() {
                    first_rss_mb = p.rss_mb;
                }
                walls.push(p.wall_s * scale);
                raw_walls.push(p.wall_s);
                last = Some(p);
            }
            (None, _) => {
                checked.panicked(&pins, k);
                break;
            }
        }
    }
    let prepared = prepared.expect("set up");
    checked.errors.append(&mut fill_layers.fidelity_errors);
    let Some(last) = last else {
        return Ok(Outcome {
            lines: vec![format!("workload {workload:?}: campaign panicked")],
            tally: checked,
            metrics: Vec::new(),
        });
    };
    let raw_wall_s = host::median(&raw_walls);
    let mut lines = vec![
        format!(
            "workload {} seed {} -> seed set {k} (test seeds {:?})",
            workload_name(workload),
            args.seed,
            match &prepared {
                Prepared::Regress { seeds, .. } | Prepared::Qualify { seeds } => seeds,
            }
        ),
        format!(
            "host nproc={} jobs=1 engine={} peak_rss_reset={}",
            host::nproc(),
            last.engine,
            host::reset_peak_rss()
        ),
        if matrix_only {
            // The report states no cycle counts; the traced run checks
            // the pinned ones.
            format!(
                "work {} (pinned: {})",
                last.identity
                    .render()
                    .split(" rtl_cycles")
                    .next()
                    .unwrap_or_default(),
                pins.set(k).map_or("none", |p| p.identity.as_str())
            )
        } else {
            format!("work {}", last.identity.render())
        },
        format!("output digest {}", last.output),
        format!(
            "passes {} (closed loop, one caller); measured wall per pass {:?} s; at reference speed {:?} s",
            walls.len(),
            raw_walls,
            walls
        ),
        format!(
            "reference kernel runs (REFERENCE_S {} s) {:?} s",
            host::REFERENCE_S,
            clock.kernel_s()
        ),
        format!(
            "measured medians: wall {raw_wall_s} s, set-up {} s",
            host::median(&raw_setups)
        ),
    ];
    if let Some(report) = &last.qualification {
        lines.push(qualify::score_line(report));
    }

    let metrics = if args.trace {
        let selected = Selected {
            workload,
            prepared: &prepared,
            last: &last,
            wall_s: raw_wall_s,
            fill: fill_layers,
        };
        trace_all(args.seed, selected, &mut checked, &mut lines)?
    } else {
        vec![
            ("wall_s".to_owned(), host::median(&walls), "s"),
            ("setup_s".to_owned(), host::median(&setups), "s"),
            // The first pass's peak: later passes start from the heap the
            // earlier ones left resident, so their peaks would depend on
            // how many passes the host's speed allowed.
            ("peak_rss_mb".to_owned(), first_rss_mb, "MiB"),
        ]
    };
    Ok(Outcome {
        lines,
        tally: checked,
        metrics,
    })
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::RegressCold => "regress-cold",
        Workload::RegressWarm => "regress-warm",
        Workload::Qualify => "qualify",
    }
}

/// The workload the run was asked for, after its untraced passes.
struct Selected<'a> {
    workload: Workload,
    prepared: &'a Prepared,
    last: &'a Pass,
    wall_s: f64,
    fill: Layers,
}

const WORKLOADS: [Workload; 3] = [
    Workload::RegressCold,
    Workload::RegressWarm,
    Workload::Qualify,
];

/// The traced run: every workload's campaign traced once, so every
/// per-layer metric is measured, on the workload whose name it carries,
/// in every traced run. The selected workload's untraced passes are its
/// overhead baseline; each other workload is set up and makes one
/// untraced pass (checked like any other) first.
fn trace_all(
    seed: u64,
    mut selected: Selected,
    checked: &mut Tally,
    lines: &mut Vec<String>,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let k = w.seed_set(seed);
        let pins = pins_for(w)?;
        let own;
        let (prepared, untraced, wall_s, fill) = if w == selected.workload {
            let fill = std::mem::take(&mut selected.fill);
            (selected.prepared, selected.last, selected.wall_s, fill)
        } else {
            let mut fill = Layers::default();
            let traced_fill = (w == Workload::RegressWarm).then_some(&mut fill);
            let (prepared, _) = set_up(w, k, traced_fill)?;
            let Some(mut pass) = pass(&prepared) else {
                checked.panicked(&pins, k);
                continue;
            };
            checked.check(
                &pins,
                k,
                &pass.cells,
                &pass.output,
                &pass.identity,
                w == Workload::Qualify,
            );
            checked.errors.append(&mut pass.errors);
            checked.errors.append(&mut fill.fidelity_errors);
            own = (prepared, pass);
            (&own.0, &own.1, own.1.wall_s, fill)
        };
        metrics.extend(traced(
            w, k, &pins, prepared, untraced, wall_s, fill, checked, lines,
        )?);
    }
    Ok(metrics)
}

/// Per-layer metrics each workload reports: the layers its campaign
/// actually crosses (a layer it never calls would read a constant 0).
fn reports_layer(w: Workload, metric: &str) -> bool {
    const WHOLE_RUN: [&str; 5] = [
        "report.render_s",
        "report.bytes",
        "traced_wall_s",
        "unattributed_s",
        "tracing_overhead_s",
    ];
    const SIMULATION: [&str; 20] = [
        "rtl.elaborate_s",
        "rtl.step_s",
        "rtl.cycles",
        "bca.step_s",
        "bca.cycles",
        "tb.self_s",
        "tb.runs",
        "monitor.observe_s",
        "monitor.events",
        "checker.observe_s",
        "checker.checks",
        "scoreboard.observe_s",
        "scoreboard.checks",
        "coverage.observe_s",
        "trace.record_s",
        "trace.finish_s",
        "trace.bytes",
        "stba.cycle_compare_s",
        "stba.compares",
        "stba.bytes_in",
    ];
    const QUALIFY_ONLY: [&str; 6] = [
        "tlm.step_s",
        "tlm.cycles",
        "checker.violations",
        "stba.tx_compare_s",
        "mutation.detections",
        "mutation.hung_runs",
    ];
    WHOLE_RUN.contains(&metric)
        || match w {
            Workload::RegressCold => SIMULATION.contains(&metric),
            Workload::RegressWarm => metric.starts_with("cache.") || metric.starts_with("codec."),
            Workload::Qualify => SIMULATION.contains(&metric) || QUALIFY_ONLY.contains(&metric),
        }
}

/// One workload's traced campaign: its per-layer metrics, named
/// `<workload>.<metric>`, reconciled with its wall.
#[allow(clippy::too_many_arguments)]
fn traced(
    w: Workload,
    k: u64,
    pins: &Pins,
    prepared: &Prepared,
    untraced: &Pass,
    untraced_wall_s: f64,
    fill: Layers,
    checked: &mut Tally,
    lines: &mut Vec<String>,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let mut layers = Layers::default();
    let started = Instant::now();
    let (cells, output, identity) = match prepared {
        Prepared::Regress {
            inputs,
            seeds,
            store,
        } => {
            let options = regress::options(seeds, store.as_ref().map(ScratchDir::path));
            let report = regress::traced_campaign(inputs, &options, &mut layers);
            let verify = Instant::now();
            let identity = regress::identity(&report);
            if store.is_some() && (layers.cache_hits != identity.cells || layers.tb_runs != 0) {
                layers.fidelity_error("traced warm pass simulated or missed the store");
            }
            let out = (
                regress::cell_digests(&report),
                regress::output_digest(&report),
                identity,
            );
            layers.trace_only += verify.elapsed();
            out
        }
        Prepared::Qualify { seeds } => {
            let options = qualify::options(seeds);
            let cells = qualify::traced_campaign(&options, &mut layers);
            let report = untraced
                .qualification
                .as_ref()
                .expect("qualification report");
            layers.render(|| qualify::render(report));
            let identity = qualify::traced_identity(&options, &layers);
            (cells, untraced.output.clone(), identity)
        }
    };
    let traced_wall = started.elapsed().saturating_sub(layers.trace_only);

    // Fidelity: the traced campaign must have done the untraced work.
    checked.check(pins, k, &cells, &output, &identity, false);
    if cells != untraced.cells {
        checked
            .errors
            .push("traced per-cell verdicts differ from the untraced report".to_owned());
    }
    checked.errors.append(&mut layers.fidelity_errors);

    let attributed = layers.attributed();
    let unattributed = traced_wall.as_secs_f64() - attributed.as_secs_f64();
    if unattributed < -1e-3 {
        checked.errors.push(format!(
            "layer times {:?} exceed the traced wall {traced_wall:?}",
            attributed
        ));
    }
    lines.push(format!(
        "{}: traced wall {:.6} s = layers {:.6} s + unattributed {:.6} s; trace-only work {:.6} s excluded",
        workload_name(w),
        traced_wall.as_secs_f64(),
        attributed.as_secs_f64(),
        unattributed,
        layers.trace_only.as_secs_f64()
    ));
    lines.push(format!(
        "{}: traced work {}",
        workload_name(w),
        identity.render()
    ));

    let s = |d: Duration| d.as_secs_f64();
    let n = |c: u64| c as f64;
    let l = &layers;
    let lookups = l.cache_hits + l.cache_misses;
    let all = [
        ("rtl.elaborate_s", s(l.rtl_elaborate), "s"),
        ("rtl.step_s", s(l.rtl_step), "s"),
        ("rtl.cycles", n(l.rtl_cycles), "count"),
        ("bca.step_s", s(l.bca_step), "s"),
        ("bca.cycles", n(l.bca_cycles), "count"),
        ("tlm.step_s", s(l.tlm_step), "s"),
        ("tlm.cycles", n(l.tlm_cycles), "count"),
        ("tb.self_s", s(l.tb_self), "s"),
        ("tb.runs", n(l.tb_runs), "count"),
        ("monitor.observe_s", s(l.monitor_observe), "s"),
        ("monitor.events", n(l.monitor_events), "count"),
        ("checker.observe_s", s(l.checker_observe), "s"),
        ("checker.checks", n(l.checker_checks), "count"),
        ("checker.violations", n(l.checker_violations), "count"),
        ("scoreboard.observe_s", s(l.scoreboard_observe), "s"),
        ("scoreboard.checks", n(l.scoreboard_checks), "count"),
        ("coverage.observe_s", s(l.coverage_observe), "s"),
        ("trace.record_s", s(l.trace_record), "s"),
        ("trace.finish_s", s(l.trace_finish), "s"),
        ("trace.bytes", n(l.trace_bytes), "bytes"),
        ("stba.cycle_compare_s", s(l.stba_cycle_compare), "s"),
        ("stba.tx_compare_s", s(l.stba_tx_compare), "s"),
        ("stba.compares", n(l.stba_compares), "count"),
        ("stba.bytes_in", n(l.stba_bytes_in), "bytes"),
        ("cache.get_s", s(l.cache_get), "s"),
        ("cache.put_s", s(fill.cache_put), "s"),
        ("cache.hits", n(l.cache_hits), "count"),
        ("cache.misses", n(l.cache_misses), "count"),
        (
            "cache.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                n(l.cache_hits) / n(lookups)
            },
            "ratio",
        ),
        ("cache.bytes_read", n(l.cache_bytes_read), "bytes"),
        ("cache.bytes_written", n(fill.cache_bytes_written), "bytes"),
        ("codec.encode_s", s(fill.codec_encode), "s"),
        ("codec.decode_s", s(l.codec_decode), "s"),
        ("report.render_s", s(l.report_render), "s"),
        ("report.bytes", n(l.report_bytes), "bytes"),
        ("mutation.detections", n(l.mutation_detections), "count"),
        ("mutation.hung_runs", n(l.hung_runs), "count"),
        ("traced_wall_s", s(traced_wall), "s"),
        ("unattributed_s", unattributed, "s"),
        ("tracing_overhead_s", s(traced_wall) - untraced_wall_s, "s"),
    ];
    Ok(all
        .into_iter()
        .filter(|(name, _, _)| reports_layer(w, name))
        .map(|(name, value, unit)| (format!("{}.{name}", workload_name(w)), value, unit))
        .collect())
}

/// Regenerates both pins files from reference campaigns over every seed
/// set. The qualification identity (cycles per view, hung runs) comes
/// from a traced run whose verdicts must equal the untraced report's.
fn write_pins(dir: &std::path::Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let inputs = regress::inputs();
    let mut sets = Vec::new();
    for k in 0..regress::SEED_SETS {
        let (report, _) = regress::campaign(&inputs, &regress::options(&regress::seeds(k), None));
        eprintln!(
            "regress seed set {k}: {}",
            regress::identity(&report).render()
        );
        sets.push((
            k,
            regress::output_digest(&report),
            regress::identity(&report),
            regress::cell_digests(&report),
        ));
    }
    let pins = Pins::from_reference(sets)?;
    let header = "stbus-perfbench pins: regress-cold / regress-warm\nregenerate with: stbus-perfbench --write-pins DIR";
    std::fs::write(dir.join("regress.pins"), pins.render(header)).map_err(|e| e.to_string())?;

    let mut sets = Vec::new();
    for k in 0..qualify::SEED_SETS {
        let options = qualify::options(&qualify::seeds(k));
        let (report, _) = qualify::campaign(&options);
        let cells = qualify::cell_digests(&report, &options);
        let mut layers = Layers::default();
        let traced_cells = qualify::traced_campaign(&options, &mut layers);
        if traced_cells != cells || !layers.fidelity_errors.is_empty() {
            return Err(format!(
                "qualify seed set {k}: traced run disagrees with the report"
            ));
        }
        let identity = qualify::traced_identity(&options, &layers);
        eprintln!(
            "qualify seed set {k}: {} {}",
            identity.render(),
            qualify::score_line(&report)
        );
        sets.push((k, qualify::output_digest(&report), identity, cells));
    }
    let pins = Pins::from_reference(sets)?;
    let header = "stbus-perfbench pins: qualify\nregenerate with: stbus-perfbench --write-pins DIR";
    std::fs::write(dir.join("qualify.pins"), pins.render(header)).map_err(|e| e.to_string())?;
    Ok(())
}

/// Prints the simulated work of each single test seed `1..=n`: for the
/// regression campaign the cycles per view, for the qualification
/// campaign the traced cycles per view and hung runs. The seed tables in
/// `regress.rs` and `qualify.rs` were chosen from this survey.
fn survey_seeds(n: u64) {
    let inputs = regress::inputs();
    let seeds: Vec<u64> = (1..=n).collect();
    let (report, _) = regress::campaign(&inputs, &regress::options(&seeds, None));
    for &seed in &seeds {
        let (mut rtl, mut bca) = (0, 0);
        for run in report
            .configs
            .iter()
            .flat_map(|c| &c.runs)
            .filter(|r| r.seed == seed)
        {
            rtl += run.rtl.cycles;
            bca += run.bca.cycles;
        }
        println!("regress seed {seed} rtl_cycles={rtl} bca_cycles={bca}");
    }
    for &seed in &seeds {
        let options = qualify::options(&[seed]);
        let mut layers = Layers::default();
        let started = Instant::now();
        qualify::traced_campaign(&options, &mut layers);
        println!(
            "qualify seed {seed} {} traced_s={:.3}",
            qualify::traced_identity(&options, &layers).render(),
            started.elapsed().as_secs_f64()
        );
    }
}
