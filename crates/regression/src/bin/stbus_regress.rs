//! The regression CLI: the paper's regression tool without the GUI.
//!
//! One invocation runs exactly one mode. A mode is picked by its mode
//! flag (regress is the default) and reads only the flags listed for it
//! below; any other flag, or a second mode flag, exits 2 before anything
//! runs. The logging flags `[--log-format text|json] [--log-file PATH]
//! [--quiet]` are accepted everywhere. `--help` prints the same table.
//!
//! ```text
//! stbus-regress [--configs DIR] [--out DIR] [--seeds N] [--intensity N]
//!               [--jobs N] [--engine event|compiled]
//!               [--views rtl,bca[,tlm]] [--no-compare] [--exact]
//!               [--cache] [--cache-dir DIR] [--cache-max-entries N]
//!               [--cache-max-bytes N] [--profile] [--trace-out FILE]
//!               [--no-history] [--history-dir DIR]
//! stbus-regress --client SOCKET [--configs DIR] [--out DIR] [--seeds N]
//!               [--intensity N] [--engine event|compiled]
//!               [--views rtl,bca[,tlm]] [--no-compare] [--exact]
//! stbus-regress --serve SOCKET [--cache-dir DIR] [--cache-max-entries N]
//!               [--cache-max-bytes N] [--jobs N]
//! stbus-regress --qualify [--seeds N] [--intensity N] [--jobs N]
//!               [--out DIR] [--hunts-dir DIR]
//! stbus-regress --hunt [--hunt-budget N] [--hunt-seed N]
//!               [--hunt-inject LABEL[,LABEL]] [--hunt-shrink N]
//!               [--hunt-shrink-budget N] [--jobs N] [--out DIR]
//! stbus-regress --hunt-replay FILE
//! stbus-regress --hunt-promote FILE [--hunts-dir DIR]
//! stbus-regress --close-coverage [--configs DIR] [--batch N] [--budget N]
//!               [--jobs N] [--out DIR]
//! stbus-regress --signoff [--configs DIR] [--waivers FILE]
//!               [--from-closure FILE] [--exact] [--seeds N] [--intensity N]
//!               [--jobs N] [--out DIR]
//! stbus-regress history [--baseline N] [--max-regression PCT]
//!               [--history-dir DIR]
//! ```
//!
//! Two pairs are rejected even inside one mode, because the first flag
//! makes the second meaningless: `--from-closure` with `--seeds` or
//! `--intensity`, and `--no-history` with `--history-dir`. A missing or
//! malformed flag value exits 2 naming the flag; an `--out` artifact that
//! cannot be written exits 1 once the mode's table is printed.
//!
//! **regress** runs the `{config × test × seed}` matrix on RTL and BCA
//! (plus TLM with `--views rtl,bca,tlm`), writes `summary.txt`,
//! `manifest.json` and per-config reports to `--out`, and ends with the
//! "N of M configurations signed off" line. `--configs DIR` loads every
//! `*.cfg` file in the directory ("It's sufficient to indicate the
//! directory to which the tool has to point"); otherwise the built-in
//! sweep of more than 36 configurations runs. `--jobs N` fans cells out across N
//! workers (0 = one per hardware thread); results are reassembled in
//! matrix order. No report holds a clock (time lives only in the spans
//! behind `--profile`, `--trace-out`, `--log-file` and the history
//! record), so every artifact but `cache_stats.json` is byte-identical
//! across runs, worker counts and cold or warm cell stores. `--engine`
//! picks the RTL backend (event-driven reference or levelized compiled;
//! same reports). `--cache` (or any `--cache-*` flag) consults the
//! content-addressed cell store (default `.stbus/cell-cache`) and writes
//! `cache_stats.json`. `--profile` prints the span-tree profile after the
//! table (`profile.txt` / `profile.folded` under `--out`), `--trace-out`
//! writes Chrome `trace_event` JSON, and every campaign appends one record
//! to `.stbus/history.jsonl` under `--history-dir` unless `--no-history`.
//!
//! **--client SOCKET** submits the campaign described by its flags to a
//! `--serve SOCKET` daemon, which shares one cell store and one worker
//! pool across all clients and stops on a `shutdown` request or EOF on
//! its stdin. The client forwards its campaign flags verbatim, and the
//! daemon reads them as regress does, so the client's stdout and
//! `manifest.json` are those of a local run with the same flags; the
//! store's counters go to stderr (unless `--quiet`) and to
//! `cache_stats.json`. A daemon built from other sources than the
//! client (another source fingerprint) rejects the campaign, and the
//! client exits 1.
//!
//! **--qualify** injects every catalogue defect in turn and fails unless
//! each is killed by its declared detector, then replays every promoted
//! reproducer under `--hunts-dir` (default `hunts/`); `--out` receives
//! `qualification.json`. **--hunt** draws random `(configuration, recipe,
//! seed)` probes, runs each on RTL and exact BCA, shrinks divergences to
//! minimal reproducers and writes `hunt.json` plus `repro_<k>.json`; a
//! clean hunt that diverges, or a seeded hunt that does not, exits 1.
//! **--hunt-replay FILE** re-runs one reproducer; **--hunt-promote FILE**
//! validates it and pins it into `--hunts-dir`.
//!
//! **--close-coverage** runs the CDG loop (generate, run both views, merge
//! coverage, re-bias at the holes) on one configuration — the first
//! `--configs` entry or the reference node — and writes `closure.json`.
//! **--signoff** distills the minimal regression from the test library or
//! a recorded `--from-closure` trajectory on that same configuration,
//! judges the paper's three gates against `--waivers`, and writes
//! `signoff.json`; it exits 2 on an invalid waiver file and 1 on a failed
//! gate.
//!
//! **history** prints the campaign trend of the store under
//! `--history-dir` and compares the latest record with the
//! `--baseline`-th prior one sharing its content key, exiting 1 when a
//! phase slowed beyond `--max-regression` percent (default 20).

use stbus_protocol::NodeConfig;
use stbus_regression::flags::{count, positive, value, CAMPAIGN_FLAGS};
use stbus_regression::{
    parse_config, render_config, run_regression, serve, standard_configs, RegressionOptions,
    SOURCE_FINGERPRINT,
};
use std::cell::Cell;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use telemetry::{Json, JsonlSink, Level, MemorySink, MemorySinkHandle, Telemetry, TextSink};

/// Where promoted reproducers live when no `--hunts-dir` is given.
const DEFAULT_HUNTS_DIR: &str = "hunts";

/// The tool's modes; exactly one runs per invocation.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Regress,
    Client,
    Serve,
    Qualify,
    Hunt,
    HuntReplay,
    HuntPromote,
    CloseCoverage,
    Signoff,
    History,
}

/// One row of the mode table: the token that selects the mode, the flags
/// its function reads, and the function.
struct ModeSpec {
    mode: Mode,
    /// The selecting token (`""` for the default regress mode).
    select: &'static str,
    /// Placeholder of the token's operand (`""` when it takes none).
    operand: &'static str,
    /// Space-separated flags the mode reads, besides [`LOGGING`].
    flags: &'static str,
    run: fn(&Ctx) -> i32,
}

impl ModeSpec {
    fn name(&self) -> &'static str {
        if self.select.is_empty() {
            "regress"
        } else {
            self.select
        }
    }

    /// The flags of the row; `--client` also reads the campaign flags it
    /// forwards to the daemon.
    fn flags(&self) -> impl Iterator<Item = &'static str> {
        let forwarded = (self.mode == Mode::Client).then_some(serve::CLIENT_FLAGS);
        self.flags
            .split_whitespace()
            .chain(forwarded.into_iter().flatten())
    }

    fn reads(&self, flag: &str) -> bool {
        LOGGING.contains(&flag) || self.flags().any(|f| f == flag)
    }
}

const MODES: &[ModeSpec] = &[
    ModeSpec {
        mode: Mode::Regress,
        select: "",
        operand: "",
        flags: "--configs --out --seeds --intensity --jobs --engine --views \
                --no-compare --exact --cache --cache-dir --cache-max-entries --cache-max-bytes \
                --profile --trace-out --no-history --history-dir",
        run: regress,
    },
    ModeSpec {
        mode: Mode::Client,
        select: "--client",
        operand: "SOCKET",
        flags: "--configs --out",
        run: client,
    },
    ModeSpec {
        mode: Mode::Serve,
        select: "--serve",
        operand: "SOCKET",
        flags: "--cache-dir --cache-max-entries --cache-max-bytes --jobs",
        run: serve_daemon,
    },
    ModeSpec {
        mode: Mode::Qualify,
        select: "--qualify",
        operand: "",
        flags: "--seeds --intensity --jobs --out --hunts-dir",
        run: qualify,
    },
    ModeSpec {
        mode: Mode::Hunt,
        select: "--hunt",
        operand: "",
        flags: "--hunt-budget --hunt-seed --hunt-inject --hunt-shrink --hunt-shrink-budget \
                --jobs --out",
        run: bug_hunt,
    },
    ModeSpec {
        mode: Mode::HuntReplay,
        select: "--hunt-replay",
        operand: "FILE",
        flags: "",
        run: hunt_replay,
    },
    ModeSpec {
        mode: Mode::HuntPromote,
        select: "--hunt-promote",
        operand: "FILE",
        flags: "--hunts-dir",
        run: hunt_promote,
    },
    ModeSpec {
        mode: Mode::CloseCoverage,
        select: "--close-coverage",
        operand: "",
        flags: "--configs --batch --budget --jobs --out",
        run: close_coverage,
    },
    ModeSpec {
        mode: Mode::Signoff,
        select: "--signoff",
        operand: "",
        flags: "--configs --waivers --from-closure --exact --seeds --intensity --jobs --out",
        run: sign_off,
    },
    ModeSpec {
        mode: Mode::History,
        select: "history",
        operand: "",
        flags: "--baseline --max-regression --history-dir",
        run: history,
    },
];

/// Every option flag besides [`CAMPAIGN_FLAGS`] and its value placeholder
/// (`""` for a switch).
const FLAGS: &[(&str, &str)] = &[
    ("--configs", "DIR"),
    ("--out", "DIR"),
    ("--profile", ""),
    ("--trace-out", "FILE"),
    ("--no-history", ""),
    ("--history-dir", "DIR"),
    ("--hunts-dir", "DIR"),
    ("--hunt-budget", "N"),
    ("--hunt-seed", "N"),
    ("--hunt-inject", "LABEL[,LABEL]"),
    ("--hunt-shrink", "N"),
    ("--hunt-shrink-budget", "N"),
    ("--batch", "N"),
    ("--budget", "N"),
    ("--waivers", "FILE"),
    ("--from-closure", "FILE"),
    ("--baseline", "N"),
    ("--max-regression", "PCT"),
    ("--log-format", "text|json"),
    ("--log-file", "PATH"),
    ("--quiet", ""),
];

/// The flag `arg` names, with its value placeholder.
fn flag(arg: &str) -> Option<(&'static str, &'static str)> {
    CAMPAIGN_FLAGS
        .iter()
        .chain(FLAGS)
        .find(|(f, _)| *f == arg)
        .copied()
}

/// Flags every mode accepts.
const LOGGING: &[&str] = &["--log-format", "--log-file", "--quiet"];

/// `(a, b)`: once `a` is given, `b` has no effect, so it is rejected.
const OVERRIDES: &[(&str, &str)] = &[
    ("--from-closure", "--seeds"),
    ("--from-closure", "--intensity"),
    ("--no-history", "--history-dir"),
];

fn main() {
    let args = parse(std::env::args().skip(1));
    let spec = validate(&args);
    let ctx = Ctx::new(args);
    let mut code = (spec.run)(&ctx);
    ctx.tel.flush();
    if ctx.write_failed.get() {
        code = code.max(1);
    }
    std::process::exit(code);
}

/// Prints `msg` to stderr and exits with `code`.
fn die(code: i32, msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
}

/// The command line. Numeric values are parsed into the option structs
/// the modes hand to their engines; paths and switches are read back
/// from `given`.
struct Args {
    mode: Mode,
    /// The mode token's SOCKET or FILE operand.
    operand: String,
    /// Every option flag given, with its raw value (`""` for a switch).
    given: Vec<(&'static str, String)>,
    /// The [`CAMPAIGN_FLAGS`] given, with their values, verbatim and in
    /// order: applied to `regress`, and what `--client` forwards.
    campaign: Vec<String>,
    regress: RegressionOptions,
    hunt: hunt::HuntOptions,
    closure: cdg::ClosureOptions,
    baseline: usize,
    max_regression: f64,
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| *f == flag)
    }

    /// The value of the last occurrence of `flag`.
    fn text(&self, flag: &str) -> Option<&str> {
        let (_, v) = self.given.iter().rev().find(|(f, _)| *f == flag)?;
        Some(v)
    }

    /// Stores the typed form of one mode-specific flag value; the campaign
    /// flags go to [`RegressionOptions::apply_args`] instead.
    fn set(&mut self, flag: &str, v: &str) -> Result<(), String> {
        match flag {
            "--hunt-budget" => self.hunt.budget = positive(flag, v)?,
            "--hunt-seed" => self.hunt.campaign_seed = count(flag, v)?,
            "--hunt-shrink" => self.hunt.max_shrinks = count(flag, v)?,
            "--hunt-shrink-budget" => self.hunt.shrink_budget = positive(flag, v)?,
            "--batch" => self.closure.tests_per_batch = positive(flag, v)?,
            "--budget" => self.closure.max_batches = positive(flag, v)?,
            "--baseline" => self.baseline = positive(flag, v)?,
            "--max-regression" => {
                self.max_regression = value(flag, v, "a percentage", |p: &f64| *p >= 0.0)?;
            }
            "--log-format" if v != "text" && v != "json" => {
                return Err("--log-format takes `text` or `json`".to_owned())
            }
            _ => {}
        }
        Ok(())
    }
}

/// The next argument as the value of `flag`, or exit 2 naming the flag.
fn take(argv: &mut impl Iterator<Item = String>, flag: &str, placeholder: &str) -> String {
    argv.next()
        .unwrap_or_else(|| die(2, format!("{flag} takes {placeholder}")))
}

/// Reads every flag into one [`Args`]. An unknown flag, a missing or
/// malformed value, or a second mode token exits 2; `--help` prints the
/// mode table and exits 0.
fn parse(argv: impl IntoIterator<Item = String>) -> Args {
    let mut args = Args {
        mode: Mode::Regress,
        operand: String::new(),
        given: Vec::new(),
        campaign: Vec::new(),
        regress: RegressionOptions::default(),
        hunt: hunt::HuntOptions::default(),
        closure: cdg::ClosureOptions::default(),
        baseline: 1,
        max_regression: 20.0,
    };
    let mut mode_token: Option<String> = None;
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        if arg == "--help" || arg == "-h" {
            eprint!("{}", usage());
            std::process::exit(0);
        }
        if let Some(spec) = MODES
            .iter()
            .find(|m| !m.select.is_empty() && m.select == arg)
        {
            if let Some(first) = &mode_token {
                die(2, format!("{first} and {arg} select two modes; give one"));
            }
            args.mode = spec.mode;
            if !spec.operand.is_empty() {
                args.operand = take(&mut argv, &arg, spec.operand);
            }
            mode_token = Some(arg);
            continue;
        }
        let Some((flag, placeholder)) = flag(&arg) else {
            die(2, format!("unknown argument `{arg}` (try --help)"));
        };
        let v = if placeholder.is_empty() {
            String::new()
        } else {
            take(&mut argv, flag, placeholder)
        };
        if CAMPAIGN_FLAGS.iter().any(|(f, _)| *f == flag) {
            args.campaign.push(arg);
            if !placeholder.is_empty() {
                args.campaign.push(v.clone());
            }
        }
        args.set(flag, &v).unwrap_or_else(|e| die(2, e));
        args.given.push((flag, v));
    }
    let every = CAMPAIGN_FLAGS.map(|(f, _)| f);
    args.regress
        .apply_args(&args.campaign, &every)
        .unwrap_or_else(|e| die(2, e));
    if args.has("--hunt-inject") {
        let labels: Vec<&str> = args
            .given
            .iter()
            .filter(|(f, _)| *f == "--hunt-inject")
            .flat_map(|(_, v)| v.split(',').filter(|s| !s.is_empty()))
            .collect();
        if labels.is_empty() {
            die(2, "--hunt-inject takes catalogue labels (R1..R6, B1..B5)");
        }
        args.hunt.inject = hunt::Injections::from_labels(&labels)
            .unwrap_or_else(|e| die(2, format!("--hunt-inject: {e}")));
    }
    args
}

/// The mode's table row, once every given flag is known to take effect
/// in it; otherwise exits 2 naming the flag and the mode.
fn validate(args: &Args) -> &'static ModeSpec {
    let spec = MODES
        .iter()
        .find(|m| m.mode == args.mode)
        .expect("every mode has a table row");
    for (flag, _) in &args.given {
        if !spec.reads(flag) {
            die(
                2,
                format!("{flag} has no effect in {} mode (see --help)", spec.name()),
            );
        }
    }
    for (by, flag) in OVERRIDES {
        if args.has(by) && args.has(flag) {
            die(2, format!("{flag} has no effect together with {by}"));
        }
    }
    spec
}

/// `--help`: one synopsis line per mode, built from the mode table.
fn usage() -> String {
    let mut text = String::from("usage:\n");
    for spec in MODES {
        let mut line = String::from("  stbus-regress");
        for word in [spec.select, spec.operand] {
            if !word.is_empty() {
                line += &format!(" {word}");
            }
        }
        for (name, placeholder) in spec.flags().map(|f| flag(f).expect("known flag")) {
            line += &format!(" [{}]", format!("{name} {placeholder}").trim_end());
        }
        text += &format!("{line}\n");
    }
    text += "every mode also takes [--log-format text|json] [--log-file PATH] [--quiet]\n";
    for (by, flag) in OVERRIDES {
        text += &format!("{flag} is rejected together with {by}\n");
    }
    text
}

/// What every mode shares: the parsed flags, the telemetry pipeline, and
/// the artifact writer's failure flag.
struct Ctx {
    args: Args,
    tel: Telemetry,
    /// In-memory copy of the event stream, replayed by regress's
    /// profile, trace and history record.
    capture: Option<MemorySinkHandle>,
    write_failed: Cell<bool>,
}

impl Ctx {
    fn new(args: Args) -> Ctx {
        let mut builder = Telemetry::builder().min_level(Level::Info);
        if !args.has("--quiet") {
            builder = if args.text("--log-format") == Some("json") {
                builder.with_sink(Box::new(JsonlSink::new(std::io::stderr())))
            } else {
                builder.with_sink(Box::new(TextSink::stderr()))
            };
        }
        // Captured regardless of --quiet: the span-tree profiler replays it.
        let capture = args.mode == Mode::Regress
            && (args.has("--profile") || args.has("--trace-out") || !args.has("--no-history"));
        let capture = if capture {
            let (sink, handle) = MemorySink::new();
            builder = builder.with_sink(Box::new(sink));
            Some(handle)
        } else {
            None
        };
        if let Some(path) = args.text("--log-file") {
            builder = builder
                .with_jsonl_file(Path::new(path))
                .unwrap_or_else(|e| die(1, format!("cannot open log file {path}: {e}")));
        }
        Ctx {
            tel: builder.build(),
            capture,
            args,
            write_failed: Cell::new(false),
        }
    }

    /// The configurations of `--configs DIR` (every `*.cfg`, sorted), or
    /// the built-in sweep. An unreadable or empty set, or an unreadable
    /// file, exits 1.
    fn configs(&self) -> Vec<NodeConfig> {
        let Some(dir) = self.args.text("--configs") else {
            return standard_configs();
        };
        let entries =
            std::fs::read_dir(dir).unwrap_or_else(|e| die(1, format!("cannot read {dir}: {e}")));
        let mut paths: Vec<_> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "cfg"))
            .collect();
        if paths.is_empty() {
            die(1, "no configurations to run");
        }
        paths.sort();
        paths
            .iter()
            .map(|path| {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| die(1, format!("{}: {e}", path.display())));
                parse_config(&text).unwrap_or_else(|e| die(1, format!("{}: {e}", path.display())))
            })
            .collect()
    }

    /// The one configuration closure and sign-off target: the first
    /// `--configs` entry, or the built-in reference node.
    fn target_config(&self) -> NodeConfig {
        match self.args.text("--configs") {
            Some(_) => self.configs().swap_remove(0),
            None => NodeConfig::reference(),
        }
    }

    /// The one `--out` writer: `write` gets the directory, created on
    /// demand. A failure is logged and remembered; the mode still prints
    /// its table, then the process exits 1.
    fn out(&self, what: &str, write: impl FnOnce(&Path) -> std::io::Result<()>) {
        if let Some(dir) = self.args.text("--out") {
            let dir = Path::new(dir);
            let result = std::fs::create_dir_all(dir).and_then(|()| write(dir));
            self.check(what, dir, result);
        }
    }

    /// Writes one `--out` file rendered by `render`.
    fn out_file(&self, name: &str, render: impl FnOnce() -> String) {
        self.out(name, |dir| std::fs::write(dir.join(name), render()));
    }

    /// Logs the outcome of one artifact write; a failure is also printed
    /// and remembered for the exit code.
    fn check(&self, what: &str, path: &Path, result: std::io::Result<()>) {
        let path = path.display().to_string();
        match result {
            Ok(()) => self.tel.info(
                "cli.out",
                &format!("{what} written"),
                [("path", Json::from(path))],
            ),
            Err(e) => {
                let error = [("error", Json::from(e.to_string()))];
                self.tel
                    .error("cli.out", &format!("cannot write {what}"), error);
                eprintln!("cannot write {what} to {path}: {e}");
                self.write_failed.set(true);
            }
        }
    }
}

/// Regress: the `{config × test × seed}` matrix on every view.
fn regress(ctx: &Ctx) -> i32 {
    let (args, tel) = (&ctx.args, &ctx.tel);
    let mut options = args.regress.clone();
    options.telemetry = tel.clone();
    let configs = ctx.configs();
    let tests = catg::tests_lib::all(options.intensity);
    let views: Vec<String> = options.views.iter().map(ToString::to_string).collect();
    tel.info(
        "regress.start",
        "campaign starting on both views",
        [
            ("configs", Json::from(configs.len())),
            ("tests", Json::from(tests.len())),
            ("seeds", Json::from(options.seeds.len())),
            ("intensity", Json::from(options.intensity)),
            ("engine", Json::from(options.engine.to_string())),
            ("views", Json::from(views.join(","))),
            ("compare", Json::from(options.compare_waveforms)),
            ("jobs", Json::from(exec::resolve_jobs(options.jobs))),
        ],
    );
    let report = run_regression(&configs, &tests, &options);
    println!("{}", report.table());
    ctx.out("reports", |dir| report.write_reports(dir));
    // Cache statistics are volatile by design (a warm run differs from a
    // cold one), so they live in their own file next to the reports
    // rather than inside manifest.json.
    if let Some(stats) = &report.cache {
        ctx.out_file("cache_stats.json", || stats.to_json().render_pretty());
    }
    if let Some(handle) = &ctx.capture {
        let spans = profile::collect_spans(&handle.events());
        if !args.has("--no-history") {
            append_history(ctx, &options, &configs, &tests, &report, &spans);
        }
        if args.has("--profile") {
            let group_by = vec!["config".to_owned(), "view".to_owned()];
            let prof = profile::build_profile(&spans, &profile::ProfileOptions { group_by });
            let text = prof.render_text();
            print!("{text}");
            ctx.out_file("profile.txt", || text);
            ctx.out_file("profile.folded", || prof.render_folded());
        }
        if let Some(path) = args.text("--trace-out") {
            let write = std::fs::write(path, profile::trace_json(&spans).render());
            ctx.check("Chrome trace", Path::new(path), write);
        }
    }
    tel.flush();
    print_signed_off(report.signed_off_count(), report.configs.len());
    0
}

/// regress's last stdout line, local or `--client`.
fn print_signed_off(signed_off: usize, configs: usize) {
    println!(
        "{signed_off} of {configs} configurations signed off (all checks green, full functional coverage, >=99% alignment)"
    );
}

/// Appends regress's record to the campaign history store.
fn append_history(
    ctx: &Ctx,
    options: &RegressionOptions,
    configs: &[NodeConfig],
    tests: &[catg::TestSpec],
    report: &stbus_regression::RegressionReport,
    spans: &[profile::SpanRecord],
) {
    let phases = profile::build_profile(spans, &profile::ProfileOptions::default()).phase_totals();
    let mut parts: Vec<String> = vec![format!("engine:{}", env!("CARGO_PKG_VERSION"))];
    parts.extend(configs.iter().map(|c| format!("config:{c:?}")));
    parts.extend(tests.iter().map(|t| format!("test:{}", t.name)));
    parts.push(format!("intensity:{}", options.intensity));
    parts.push(format!("seeds:{:?}", options.seeds));
    parts.push(format!("views:{:?}", options.views));
    parts.push(format!("fidelity:{:?}", options.fidelity));
    parts.push(format!("engine_backend:{}", options.engine));
    parts.push(format!("compare:{}", options.compare_waveforms));
    let record = profile::HistoryRecord {
        key: profile::content_key(&parts),
        source: "regress".to_owned(),
        engine_version: env!("CARGO_PKG_VERSION").to_owned(),
        recorded_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        host: profile::HostInfo::current(exec::resolve_jobs(options.jobs) as u64),
        shape: profile::CampaignShape {
            configs: configs.len() as u64,
            tests: tests.len() as u64,
            seeds: options.seeds.len() as u64,
            intensity: options.intensity as u64,
            cells: (configs.len() * tests.len() * options.seeds.len()) as u64,
        },
        wall_us: spans
            .iter()
            .find(|s| s.name == "regress.campaign")
            .map_or(0, profile::SpanRecord::duration_us),
        phases,
        passed: report.configs.iter().all(|c| c.all_passed()),
    };
    let dir = ctx.args.text("--history-dir").unwrap_or(".");
    let store = profile::HistoryStore::in_dir(Path::new(dir));
    match store.append(&record) {
        Ok(()) => ctx.tel.info(
            "regress.history",
            "campaign history appended",
            [
                ("path", Json::from(store.path().display().to_string())),
                ("key", Json::from(record.key.clone())),
            ],
        ),
        Err(e) => ctx.tel.warn(
            "regress.history",
            "cannot append campaign history",
            [("error", Json::from(e.to_string()))],
        ),
    }
}

/// `--client SOCKET`: submits the campaign to a daemon, prints its report.
fn client(ctx: &Ctx) -> i32 {
    let args = &ctx.args;
    // The resolved configurations, so the daemon runs exactly what this
    // invocation would have run locally, and the campaign flags verbatim.
    let strings = |items: Vec<String>| Json::Arr(items.into_iter().map(Json::from).collect());
    let configs = ctx.configs();
    let request = Json::obj([
        ("op", Json::from("campaign")),
        ("source", Json::from(SOURCE_FINGERPRINT)),
        (
            "config_text",
            strings(configs.iter().map(render_config).collect()),
        ),
        ("args", strings(args.campaign.clone())),
    ]);
    let socket = &args.operand;
    let responses = serve::client_request(Path::new(socket), &request.render())
        .unwrap_or_else(|e| die(1, format!("cannot reach daemon at {socket}: {e}")));
    let report = responses.last().expect("client_request answers a line");
    if report.get("event").and_then(Json::as_str) != Some("report") {
        let error = report.get("error").and_then(Json::as_str);
        let error = error.unwrap_or("daemon sent no report");
        die(1, format!("campaign rejected: {error}"));
    }
    if let Some(table) = report.get("table").and_then(Json::as_str) {
        println!("{table}");
    }
    if let Some(manifest) = report.get("manifest") {
        ctx.out_file("manifest.json", || manifest.render_pretty());
    }
    if let Some(cache) = report.get("cache") {
        ctx.out_file("cache_stats.json", || cache.render_pretty());
        let n = |k: &str| cache.get(k).and_then(Json::as_u64).unwrap_or(0);
        if !args.has("--quiet") {
            eprintln!(
                "cache: {} hits, {} misses, {} simulated",
                n("hits"),
                n("misses"),
                n("simulated")
            );
        }
    }
    // The same last line as a local run's.
    let signed_off = report.get("signed_off").and_then(Json::as_u64);
    print_signed_off(signed_off.unwrap_or(0) as usize, configs.len());
    0
}

/// `--serve SOCKET`: the long-lived daemon.
fn serve_daemon(ctx: &Ctx) -> i32 {
    let args = &ctx.args;
    // The daemon always keeps a store: `--cache` switches it on wherever
    // the given `--cache-dir` (if any) put it.
    let mut base = args.regress.clone();
    base.apply_args(&["--cache"], &["--cache"])
        .expect("--cache takes no value");
    base.telemetry = ctx.tel.clone();
    let server = serve::Server::bind(PathBuf::from(&args.operand), base)
        .unwrap_or_else(|e| die(1, format!("cannot serve on {}: {e}", args.operand)));
    // EOF on stdin is the no-signal shutdown path: the daemon dies with
    // whoever spawned it once the write end of its stdin closes.
    let flag = server.shutdown_flag();
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        flag.store(true, std::sync::atomic::Ordering::SeqCst);
    });
    match server.run() {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("daemon failed: {e}");
            1
        }
    }
}

/// `--qualify`: mutation qualification plus the promoted reproducers.
fn qualify(ctx: &Ctx) -> i32 {
    let (args, tel) = (&ctx.args, &ctx.tel);
    let mut qopts = mutation::QualifyOptions {
        jobs: args.regress.jobs,
        telemetry: tel.clone(),
        ..mutation::QualifyOptions::default()
    };
    if args.has("--seeds") {
        qopts.seeds = args.regress.seeds.clone();
    }
    if args.has("--intensity") {
        qopts.tests = catg::tests_lib::all(args.regress.intensity);
    }
    tel.info(
        "mutation.start",
        "qualification campaign starting",
        [
            ("configs", Json::from(qopts.configs.len())),
            ("tests", Json::from(qopts.tests.len())),
            ("seeds", Json::from(qopts.seeds.len())),
            ("jobs", Json::from(exec::resolve_jobs(qopts.jobs))),
        ],
    );
    let report = mutation::run_qualification(&qopts);
    // The promoted-reproducer catalogue rides along: every pinned hunt
    // find must still fire its recorded detector class, or the
    // qualification fails like any escaped mutation.
    let hunts_dir = args.text("--hunts-dir").unwrap_or(DEFAULT_HUNTS_DIR);
    let entries = mutation::PromotedRepro::load_dir(Path::new(hunts_dir)).unwrap_or_else(|e| {
        tel.flush();
        die(1, e)
    });
    let promoted = mutation::run_promoted(&entries, tel);
    println!("{}", report.table());
    if !promoted.is_empty() {
        println!("{}", mutation::promoted::promoted_table(&promoted));
    }
    ctx.out_file("qualification.json", || {
        let mut doc = report.qualification_json();
        if let Json::Obj(pairs) = &mut doc {
            let section = mutation::promoted::promoted_json(&promoted);
            pairs.push(("promoted".to_owned(), section));
        }
        doc.render_pretty()
    });
    let unattributed: Vec<_> = promoted.iter().filter(|o| !o.attributed).collect();
    if report.passed() && unattributed.is_empty() {
        return 0;
    }
    for o in report.attribution_issues() {
        let got = o
            .detector
            .map_or("no detection".to_owned(), |d| d.to_string());
        eprintln!(
            "qualification failure: {} expected {}, got {got}",
            o.label, o.expected_detector
        );
    }
    for o in unattributed {
        eprintln!(
            "promoted reproducer failure: {} expected class `{}`, got {}",
            o.source,
            o.expected_column,
            o.observed.as_deref().unwrap_or("no divergence"),
        );
    }
    1
}

/// `--hunt`: the differential bug-hunt fleet.
fn bug_hunt(ctx: &Ctx) -> i32 {
    let (args, tel) = (&ctx.args, &ctx.tel);
    let opts = hunt::HuntOptions {
        jobs: args.regress.jobs,
        telemetry: tel.clone(),
        ..args.hunt.clone()
    };
    let labels = opts.inject.labels();
    tel.info(
        "hunt.start",
        "differential hunt starting",
        [
            ("budget", Json::from(opts.budget)),
            ("campaign_seed", Json::from(opts.campaign_seed)),
            (
                "inject",
                Json::Arr(labels.iter().map(|s| Json::str(s.as_str())).collect()),
            ),
            ("jobs", Json::from(exec::resolve_jobs(opts.jobs))),
        ],
    );
    let report = hunt::run_hunt(&opts);
    println!("{}", report.table());
    ctx.out_file("hunt.json", || report.hunt_json().render_pretty());
    for (k, repro) in report.repros.iter().enumerate() {
        ctx.out_file(&format!("repro_{k}.json"), || {
            repro.to_json().render_pretty()
        });
    }
    // A clean hunt that diverges has found a real cross-view bug — fail
    // loudly so CI notices. A seeded hunt that does NOT diverge let a
    // planted defect escape the fleet — also a failure.
    let diverged = report.divergences() > 0;
    if opts.inject.is_empty() && diverged {
        eprintln!(
            "hunt found {} cross-view divergence(s); see the repro files",
            report.divergences()
        );
        return 1;
    }
    if !opts.inject.is_empty() && !diverged {
        eprintln!(
            "seeded defect(s) {} escaped the {}-probe hunt",
            report.injected.join("+"),
            report.budget,
        );
        return 1;
    }
    0
}

/// What replaying a reproducer showed, against its record.
enum Verdict {
    /// Its recorded detector class fired.
    Fires(mutation::DiffFinding),
    /// Another detector class fired.
    Drifted(mutation::DiffFinding),
    /// It no longer diverges.
    Silent,
}

/// Loads the mode's reproducer operand, logs `message` under `scope`, and
/// replays it. An unusable file or replay exits 2.
fn replay_operand(ctx: &Ctx, scope: &str, message: &str) -> (hunt::Repro, Verdict) {
    let path = &ctx.args.operand;
    let repro = load_repro(path);
    let fields = [
        ("id", Json::from(repro.id())),
        ("path", Json::str(path.as_str())),
    ];
    ctx.tel.info(scope, message, fields);
    let verdict = match repro.replay(&ctx.tel) {
        Ok(Some(finding)) if repro.matches(&finding) => Verdict::Fires(finding),
        Ok(Some(finding)) => Verdict::Drifted(finding),
        Ok(None) => Verdict::Silent,
        Err(e) => {
            ctx.tel.flush();
            die(2, format!("{path}: {e}"))
        }
    };
    (repro, verdict)
}

/// `--hunt-replay FILE`: exit 0 only if the reproducer still fires its
/// recorded detector class.
fn hunt_replay(ctx: &Ctx) -> i32 {
    let (repro, verdict) = replay_operand(ctx, "hunt.replay", "replaying reproducer");
    if let Verdict::Fires(finding) | Verdict::Drifted(finding) = &verdict {
        println!(
            "replay {}: {} fired on the {} view (recorded {})",
            repro.id(),
            finding.detector,
            finding.view,
            repro.detector,
        );
    }
    match verdict {
        Verdict::Fires(_) => return 0,
        Verdict::Drifted(finding) => eprintln!(
            "replay misattributed: expected class `{}`, got `{}`",
            repro.detector_column,
            finding.detector.column(),
        ),
        Verdict::Silent => eprintln!(
            "replay {}: no divergence — the reproducer no longer fires",
            repro.id()
        ),
    }
    1
}

/// `--hunt-promote FILE`: validate the reproducer, then pin it into the
/// `--hunts-dir` catalogue under its content id. Only a reproducer that
/// still fires its recorded detector class is pinned: the catalogue must
/// never hold an entry that fails its first qualification replay.
fn hunt_promote(ctx: &Ctx) -> i32 {
    let path = &ctx.args.operand;
    let (mut repro, verdict) = replay_operand(
        ctx,
        "hunt.promote",
        "validating reproducer before promotion",
    );
    match verdict {
        Verdict::Fires(_) => {}
        Verdict::Drifted(finding) => {
            eprintln!(
                "refusing to promote {path}: detector class drifted to `{}` (recorded `{}`)",
                finding.detector.column(),
                repro.detector_column,
            );
            return 1;
        }
        Verdict::Silent => {
            eprintln!("refusing to promote {path}: the reproducer no longer diverges");
            return 1;
        }
    }
    let dir = Path::new(ctx.args.text("--hunts-dir").unwrap_or(DEFAULT_HUNTS_DIR));
    let dest = dir.join(format!("{}.json", repro.id()));
    repro.replay = format!("stbus-regress --hunt-replay {}", dest.display());
    let write = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&dest, repro.to_json().render_pretty()));
    if let Err(e) = write {
        eprintln!("cannot write {}: {e}", dest.display());
        return 1;
    }
    println!(
        "promoted {path} -> {} ({}, class {})",
        dest.display(),
        repro.detector,
        repro.detector_column,
    );
    0
}

/// `--close-coverage`: the CDG closure loop on one configuration.
fn close_coverage(ctx: &Ctx) -> i32 {
    let config = ctx.target_config();
    let opts = cdg::ClosureOptions {
        jobs: ctx.args.regress.jobs,
        telemetry: ctx.tel.clone(),
        ..ctx.args.closure.clone()
    };
    ctx.tel.info(
        "cdg.start",
        "coverage-closure campaign starting",
        [
            ("config", Json::from(config.name.clone())),
            ("batch", Json::from(opts.tests_per_batch)),
            ("budget", Json::from(opts.max_batches)),
            ("jobs", Json::from(exec::resolve_jobs(opts.jobs))),
        ],
    );
    let report = cdg::close_coverage(&config, &cdg::Recipe::narrow(&config), &opts);
    println!("closing functional coverage on `{}`:", config.name);
    println!("{}", report.table());
    ctx.out_file("closure.json", || report.closure_json().render_pretty());
    if report.closed {
        return 0;
    }
    let budget = opts.max_batches;
    eprintln!("coverage did not close within {budget} iterations");
    1
}

/// `--signoff`: distill the minimal regression and judge the three gates.
fn sign_off(ctx: &Ctx) -> i32 {
    let (args, tel) = (&ctx.args, &ctx.tel);
    let config = ctx.target_config();
    let waivers = match args.text("--waivers") {
        Some(path) => load(path, signoff::WaiverFile::parse),
        None => {
            tel.warn(
                "signoff.waivers",
                "no --waivers file; using the generated template (an audited flow should review and commit one)",
                [("config", Json::from(config.name.clone()))],
            );
            signoff::WaiverFile::template(&config)
        }
    };
    let candidates = match args.text("--from-closure") {
        Some(path) => signoff::closure_candidates(&load(path, cdg::parse_closure_replay)),
        None => signoff::library_candidates(args.regress.intensity, &args.regress.seeds),
    };
    let sopts = signoff::SignoffOptions {
        jobs: args.regress.jobs,
        fidelity: args.regress.fidelity,
        telemetry: tel.clone(),
        ..signoff::SignoffOptions::default()
    };
    tel.info(
        "signoff.start",
        "sign-off gate run starting",
        [
            ("config", Json::from(config.name.clone())),
            ("candidates", Json::from(candidates.len())),
            ("waivers", Json::from(waivers.waivers.len())),
            ("jobs", Json::from(exec::resolve_jobs(sopts.jobs))),
        ],
    );
    let report = match signoff::run_signoff(&config, &waivers, &candidates, &sopts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    print!("{}", report.table());
    ctx.out_file("signoff.json", || report.signoff_json().render_pretty());
    if report.passed() {
        return 0;
    }
    for gate in report.gates() {
        for line in &gate.detail {
            eprintln!("sign-off failure ({}): {line}", gate.name);
        }
    }
    1
}

/// `history`: the trend table plus a comparison of the latest record
/// against the `--baseline`-th prior record sharing its content key.
fn history(ctx: &Ctx) -> i32 {
    let (baseline, max_pct) = (ctx.args.baseline, ctx.args.max_regression);
    let dir = ctx.args.text("--history-dir").unwrap_or(".");
    let store = profile::HistoryStore::in_dir(Path::new(dir));
    let records = store.load();
    if records.is_empty() {
        println!("no campaign history at {}", store.path().display());
        return 0;
    }
    let latest = records.len() - 1;
    let key = &records[latest].key;
    let baseline_index = profile::find_baseline(&records, latest, baseline);
    print!("{}", profile::render_trend(&records, baseline_index));
    let Some(b) = baseline_index else {
        println!("\nno prior record with content key {key}; nothing to compare");
        return 0;
    };
    let cmp = profile::compare_records(&records[latest], &records[b], max_pct);
    println!(
        "\nlatest (#{latest}) vs baseline (#{b}), content key {key}, threshold {max_pct:.0}%:"
    );
    print!("{}", profile::render_comparison(&cmp, max_pct));
    if cmp.regressions.is_empty() {
        return 0;
    }
    let n = cmp.regressions.len();
    eprintln!("{n} phase(s) regressed beyond {max_pct:.0}%");
    1
}

/// Reads and parses a file named on the command line; an unreadable or
/// malformed file is a bad argument (exit 2).
fn load<T, E: Display>(path: &str, parse: impl FnOnce(&str) -> Result<T, E>) -> T {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(2, format!("cannot read {path}: {e}")));
    parse(&text).unwrap_or_else(|e| die(2, format!("{path}: {e}")))
}

/// Loads and parses one `stbus-repro/1` file (exit 2 if unusable).
fn load_repro(path: &str) -> hunt::Repro {
    load(path, |text| {
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        hunt::Repro::from_json(&json)
    })
}
