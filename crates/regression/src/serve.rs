//! Regression as a standing service: `stbus-regress --serve <socket>`.
//!
//! The daemon owns exactly two shared resources and rents them to every
//! client: the content-addressed cell store (so one client's cold run is
//! every later client's warm run) and one [`exec::ThreadPool`] (so the
//! total simulation parallelism is bounded no matter how many clients
//! connect — excess cells queue behind the pool, which is the service's
//! backpressure).
//!
//! The protocol is deliberately primitive: a Unix stream socket carrying
//! line-delimited JSON. One request per line, one-or-more response lines
//! per request, every response line a JSON object with an `"ok"` bool.
//! Requests:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! {"op":"campaign","source":"<fingerprint>","configs":["reference"],
//!  "seeds":[1,2],"intensity":10,"engine":"event",
//!  "views":["rtl","bca","tlm"],"compare":true}
//! ```
//!
//! `ping` and `stats` report the daemon's `source`, the
//! [`SOURCE_FINGERPRINT`] of the code it was built from. A campaign
//! request must carry the client's own fingerprint as `source`: the
//! daemon only answers for its own code, so a request with a different
//! or missing fingerprint is rejected with an error naming both.
//!
//! A campaign request answers with an `"accepted"` line (echoing the
//! resolved shape) and then a `"report"` line carrying the §5 table, the
//! full manifest JSON and the cache summary. The table and manifest hold
//! no clock, so a warm campaign answers the same bytes as a cold one. Unknown ops and malformed
//! lines — including lines that are not UTF-8 — answer
//! `{"ok":false,...}` without killing the connection. So does a line
//! longer than [`MAX_REQUEST_LINE`] bytes, whose rest is read and thrown
//! away unparsed. A last request line cut off by EOF without its newline
//! is still answered.
//!
//! `stats` reads the daemon's metrics registry: the `serve.*` counters
//! (`connections`, `requests`, `campaigns`, `cells`, `cache_hits`,
//! `cache_misses`, `errors`), where `errors` counts every
//! `{"ok":false}` reply.
//!
//! Shutdown is cooperative: a `shutdown` request, EOF on the daemon's
//! stdin (the CLI watches for it), or [`Server::shutdown_flag`] flipped
//! by the embedder. There is no in-process SIGTERM hook — the workspace
//! forbids `unsafe`, and signal handlers cannot be installed without it —
//! so a SIGTERM simply terminates the process and the *next* daemon heals
//! the stale socket file at bind time (connect-probe, then unlink).

use crate::runner::{parse_views, run_regression, RegressionOptions, SOURCE_FINGERPRINT};
use crate::standard_configs;
use cache::GcPolicy;
use exec::ThreadPool;
use stbus_protocol::ViewKind;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use telemetry::{Json, Telemetry};

/// Protocol identifier echoed by `ping`, bumped with any incompatible
/// protocol change (`/2`: campaigns carry the client's `source`).
pub const SERVE_PROTOCOL: &str = "stbus-serve/2";

/// How the daemon is configured at bind time.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Path of the Unix socket to listen on.
    pub socket: PathBuf,
    /// Root of the shared cell store.
    pub cache_dir: PathBuf,
    /// Worker threads in the shared pool (0 = one per hardware thread).
    pub jobs: usize,
    /// Eviction bounds applied after every campaign.
    pub cache_gc: GcPolicy,
    /// Telemetry for `serve.*` counters and request events.
    pub telemetry: Telemetry,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            socket: PathBuf::from("stbus-regress.sock"),
            cache_dir: PathBuf::from(".stbus/cell-cache"),
            jobs: 0,
            cache_gc: GcPolicy::default(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: UnixListener,
    options: ServeOptions,
    pool: Arc<ThreadPool>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the socket, healing a stale file left by a killed daemon: if
    /// the address is taken but nothing answers a connect probe, the file
    /// is an orphan — unlink it and bind again. A *live* daemon on the
    /// socket is an error.
    pub fn bind(options: ServeOptions) -> std::io::Result<Server> {
        if let Some(dir) = options.socket.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let listener = match UnixListener::bind(&options.socket) {
            Ok(l) => l,
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                if UnixStream::connect(&options.socket).is_ok() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::AddrInUse,
                        format!("a daemon is already serving {}", options.socket.display()),
                    ));
                }
                options.telemetry.warn(
                    "serve",
                    "recovered stale socket",
                    [("socket", Json::from(options.socket.display().to_string()))],
                );
                std::fs::remove_file(&options.socket)?;
                UnixListener::bind(&options.socket)?
            }
            Err(e) => return Err(e),
        };
        listener.set_nonblocking(true)?;
        let pool = Arc::new(ThreadPool::new(exec::resolve_jobs(options.jobs)));
        Ok(Server {
            listener,
            options,
            pool,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The flag that stops [`Server::run`]; flip it from any thread (the
    /// CLI's stdin-EOF watcher does) for a clean shutdown.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Accepts and serves connections until the shutdown flag flips.
    /// Returns the number of connections served. The socket file is
    /// removed on the way out.
    pub fn run(&self) -> std::io::Result<u64> {
        let tel = &self.options.telemetry;
        tel.info(
            "serve",
            "daemon listening",
            [
                (
                    "socket",
                    Json::from(self.options.socket.display().to_string()),
                ),
                ("jobs", Json::from(self.pool.threads())),
                (
                    "cache_dir",
                    Json::from(self.options.cache_dir.display().to_string()),
                ),
            ],
        );
        let mut handlers = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    tel.metrics().counter("serve.connections").inc();
                    let ctx = ConnCtx {
                        options: self.options.clone(),
                        pool: Arc::clone(&self.pool),
                        shutdown: Arc::clone(&self.shutdown),
                    };
                    handlers.push(std::thread::spawn(move || serve_connection(stream, &ctx)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
            handlers.retain(|h| !h.is_finished());
        }
        for h in handlers {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.options.socket);
        let served = tel.metrics().counter("serve.connections").get();
        tel.info(
            "serve",
            "daemon stopped",
            [
                ("connections", Json::from(served)),
                (
                    "campaigns",
                    Json::from(tel.metrics().counter("serve.campaigns").get()),
                ),
            ],
        );
        Ok(served)
    }
}

/// Everything a connection thread needs.
struct ConnCtx {
    options: ServeOptions,
    pool: Arc<ThreadPool>,
    shutdown: Arc<AtomicBool>,
}

/// The longest request line the daemon reads, newline excluded. A
/// campaign request names its configurations and seeds, so real requests
/// stay far below it; the cap keeps one client from growing a
/// connection's line buffer without bound.
const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Reads one request line into `line` (cleared first): `None` at EOF or
/// on a read error, `Some(false)` when the line is longer than
/// [`MAX_REQUEST_LINE`], in which case its rest is read up to the next
/// newline and discarded.
fn read_request(reader: &mut impl BufRead, line: &mut Vec<u8>) -> Option<bool> {
    line.clear();
    // Raw bytes rather than `lines()`, which fails on a line that is not
    // UTF-8: such a line is a bad request to answer, not a reason to drop
    // the connection.
    let limit = MAX_REQUEST_LINE as u64 + 1;
    match reader.by_ref().take(limit).read_until(b'\n', line) {
        Ok(0) | Err(_) => return None,
        Ok(_) => {}
    }
    if line.len() <= MAX_REQUEST_LINE || line.ends_with(b"\n") {
        return Some(true);
    }
    line.clear();
    reader.skip_until(b'\n').ok()?;
    Some(false)
}

fn serve_connection(stream: UnixStream, ctx: &ConnCtx) {
    let tel = &ctx.options.telemetry;
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        let Some(fits) = read_request(&mut reader, &mut line) else {
            return;
        };
        let request = line.trim_ascii();
        if fits && request.is_empty() {
            continue;
        }
        tel.metrics().counter("serve.requests").inc();
        let request = if fits {
            Ok(request)
        } else {
            Err(format!(
                "malformed request: line longer than {MAX_REQUEST_LINE} bytes"
            ))
        };
        let responses = handle_request(request, ctx);
        for response in &responses {
            if writeln!(writer, "{}", response.render()).is_err() {
                return;
            }
        }
        if writer.flush().is_err() {
            return;
        }
        // A shutdown request stops the daemon after being acknowledged.
        if ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn error_line(message: impl Into<String>) -> Vec<Json> {
    vec![Json::obj([
        ("ok", Json::from(false)),
        ("error", Json::from(message.into())),
    ])]
}

/// The `serve.*` counters the `stats` op reports, as `(field, counter)`.
const STATS_COUNTERS: [(&str, &str); 7] = [
    ("connections", "serve.connections"),
    ("requests", "serve.requests"),
    ("campaigns", "serve.campaigns"),
    ("cells", "serve.cells"),
    ("cache_hits", "serve.cache_hits"),
    ("cache_misses", "serve.cache_misses"),
    ("errors", "serve.errors"),
];

/// Answers one request line, or the error that reading it met; every
/// `{"ok":false}` reply is counted here, once, as `serve.errors`.
fn handle_request(line: Result<&[u8], String>, ctx: &ConnCtx) -> Vec<Json> {
    let tel = &ctx.options.telemetry;
    let request = line
        .and_then(|line| {
            std::str::from_utf8(line).map_err(|_| "malformed request: not UTF-8".to_owned())
        })
        .and_then(|text| Json::parse(text).map_err(|e| format!("malformed request: {e:?}")));
    let (span, responses) = match request {
        Ok(request) => {
            let op = request.get("op").and_then(Json::as_str).unwrap_or("");
            let span = tel.span("serve.request").field("op", Json::from(op));
            (Some(span), answer(op, &request, ctx))
        }
        Err(e) => (None, error_line(e)),
    };
    let ok = responses
        .last()
        .and_then(|r| r.get("ok"))
        .and_then(Json::as_bool)
        .unwrap_or(false);
    if !ok {
        tel.metrics().counter("serve.errors").inc();
    }
    if let Some(span) = span {
        span.end([("ok", Json::from(ok))]);
    }
    responses
}

fn answer(op: &str, request: &Json, ctx: &ConnCtx) -> Vec<Json> {
    match op {
        "ping" => vec![Json::obj([
            ("ok", Json::from(true)),
            ("event", Json::from("pong")),
            ("protocol", Json::from(SERVE_PROTOCOL)),
            ("source", Json::from(SOURCE_FINGERPRINT)),
        ])],
        "stats" => {
            let metrics = ctx.options.telemetry.metrics();
            let counters = STATS_COUNTERS
                .map(|(field, counter)| (field, Json::from(metrics.counter(counter).get())));
            vec![Json::obj(
                [("ok", Json::from(true)), ("event", Json::from("stats"))]
                    .into_iter()
                    .chain(counters)
                    .chain([
                        ("pool_threads", Json::from(ctx.pool.threads())),
                        ("source", Json::from(SOURCE_FINGERPRINT)),
                    ]),
            )]
        }
        "shutdown" => {
            ctx.shutdown.store(true, Ordering::SeqCst);
            vec![Json::obj([
                ("ok", Json::from(true)),
                ("event", Json::from("shutting-down")),
            ])]
        }
        "campaign" => run_campaign(request, ctx),
        other => error_line(format!("unknown op `{other}`")),
    }
}

fn run_campaign(request: &Json, ctx: &ConnCtx) -> Vec<Json> {
    let tel = &ctx.options.telemetry;

    // The daemon's store and verdicts are only valid for the code it was
    // built from; a client built from other sources must not get them.
    let source = request.get("source").and_then(Json::as_str);
    if source != Some(SOURCE_FINGERPRINT) {
        return error_line(format!(
            "source fingerprint mismatch: client {}, daemon {SOURCE_FINGERPRINT}",
            source.unwrap_or("(none)")
        ));
    }

    // Resolve the configuration list: named standard configurations
    // and/or inline config-file texts; a request naming neither runs the
    // whole standard sweep.
    let all = standard_configs();
    let mut configs = Vec::new();
    match request.get("configs") {
        None | Some(Json::Null) => {}
        Some(Json::Arr(names)) => {
            for name in names {
                let Some(name) = name.as_str() else {
                    return error_line("`configs` must be an array of names");
                };
                match all.iter().find(|c| c.name == name) {
                    Some(config) => configs.push(config.clone()),
                    None => return error_line(format!("unknown configuration `{name}`")),
                }
            }
        }
        Some(_) => return error_line("`configs` must be an array of names"),
    }
    if let Some(texts) = request.get("config_text").and_then(Json::as_arr) {
        for text in texts {
            let Some(text) = text.as_str() else {
                return error_line("`config_text` must be an array of strings");
            };
            match crate::parse_config(text) {
                Ok(config) => configs.push(config),
                Err(e) => return error_line(format!("bad config text: {e}")),
            }
        }
    }
    if configs.is_empty() {
        configs = all;
    }

    let seeds = match request.get("seeds") {
        None | Some(Json::Null) => vec![1, 2],
        Some(Json::Arr(seeds)) => {
            let parsed: Option<Vec<u64>> = seeds.iter().map(Json::as_u64).collect();
            match parsed {
                Some(s) if !s.is_empty() => s,
                _ => return error_line("`seeds` must be a non-empty array of integers"),
            }
        }
        Some(_) => return error_line("`seeds` must be an array of integers"),
    };
    let intensity = match request.get("intensity") {
        None | Some(Json::Null) => 10,
        Some(j) => match j.as_u64() {
            Some(n) if n > 0 => n as usize,
            _ => return error_line("`intensity` must be a positive integer"),
        },
    };
    let engine = match request.get("engine").and_then(Json::as_str) {
        None => sim_kernel::SimBackend::Event,
        Some(s) => match s.parse() {
            Ok(engine) => engine,
            Err(e) => return error_line(e),
        },
    };
    // Optional view list ("rtl"/"bca"/"tlm" names); the default pair is
    // the paper's two-view flow. A non-string entry is an unknown view.
    let views = match request.get("views") {
        None | Some(Json::Null) => vec![ViewKind::Rtl, ViewKind::Bca],
        Some(Json::Arr(names)) => {
            match parse_views(names.iter().map(|n| n.as_str().unwrap_or(""))) {
                Ok(views) => views,
                Err(e) => return error_line(format!("`views`: {e}")),
            }
        }
        Some(_) => return error_line("`views` must be an array of view names"),
    };
    let compare = request
        .get("compare")
        .and_then(Json::as_bool)
        .unwrap_or(true);

    let tests = catg::tests_lib::all(intensity);
    let cells = configs.len() * tests.len() * seeds.len();
    let accepted = Json::obj([
        ("ok", Json::from(true)),
        ("event", Json::from("accepted")),
        ("configs", Json::from(configs.len())),
        ("tests", Json::from(tests.len())),
        ("seeds", Json::from(seeds.len())),
        ("cells", Json::from(cells)),
    ]);

    tel.metrics().counter("serve.campaigns").inc();
    tel.metrics().counter("serve.cells").add(cells as u64);
    let span = tel.span("serve.campaign").field("cells", Json::from(cells));

    // Each campaign gets a fresh telemetry handle (private metrics, the
    // daemon's sinks) so its manifest reports its own totals, while the
    // store and pool are the daemon-shared ones.
    let options = RegressionOptions {
        seeds,
        intensity,
        engine,
        views,
        compare_waveforms: compare,
        telemetry: tel.scoped_metrics(),
        cache_dir: Some(ctx.options.cache_dir.clone()),
        cache_gc: ctx.options.cache_gc,
        pool: Some(Arc::clone(&ctx.pool)),
        ..RegressionOptions::default()
    };
    let report = run_regression(&configs, &tests, &options);
    let summary = report.cache.unwrap_or_default();
    tel.metrics().counter("serve.cache_hits").add(summary.hits);
    tel.metrics()
        .counter("serve.cache_misses")
        .add(summary.misses);
    span.end([
        ("hits", Json::from(summary.hits)),
        ("simulated", Json::from(summary.simulated)),
    ]);

    vec![
        accepted,
        Json::obj([
            ("ok", Json::from(true)),
            ("event", Json::from("report")),
            ("table", Json::from(report.table())),
            ("signed_off", Json::from(report.signed_off_count())),
            ("cache", summary.to_json()),
            ("manifest", report.manifest_json()),
        ]),
    ]
}

/// Thin client: connect, send one request line, collect response lines
/// until the final event of the request arrives (`report` for campaigns,
/// anything else immediately) or the daemon hangs up.
pub fn client_request(socket: &Path, request: &str) -> std::io::Result<Vec<Json>> {
    let stream = UnixStream::connect(socket)?;
    let mut writer = stream.try_clone()?;
    writeln!(writer, "{}", request.trim())?;
    writer.flush()?;
    let is_campaign = Json::parse(request.trim())
        .ok()
        .and_then(|j| {
            j.get("op")
                .and_then(Json::as_str)
                .map(|op| op == "campaign")
        })
        .unwrap_or(false);
    let reader = BufReader::new(stream);
    let mut responses = Vec::new();
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let json = Json::parse(&line).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("daemon sent malformed JSON: {e:?}"),
            )
        })?;
        let done = {
            let event = json.get("event").and_then(Json::as_str);
            let failed = json.get("ok").and_then(Json::as_bool) == Some(false);
            failed || !is_campaign || event == Some("report")
        };
        responses.push(json);
        if done {
            break;
        }
    }
    if responses.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "daemon closed the connection without answering",
        ));
    }
    Ok(responses)
}
