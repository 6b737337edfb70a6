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
//! {"op":"campaign","source":"<fingerprint>",
//!  "config_text":["name = reference\n..."],
//!  "args":["--seeds","1","--intensity","10","--views","rtl,bca,tlm","--exact"]}
//! ```
//!
//! `ping` and `stats` report the daemon's `source`, the
//! [`SOURCE_FINGERPRINT`] of the code it was built from. A campaign
//! request must carry the client's own fingerprint as `source`: the
//! daemon only answers for its own code, so a request with a different
//! or missing fingerprint is rejected with an error naming both.
//!
//! A campaign carries its configurations as config-file texts and its
//! shape as `stbus-regress` flags ([`CLIENT_FLAGS`]), which the daemon
//! applies to its base options with [`RegressionOptions::apply_args`],
//! as the CLI does: it keeps no defaults of its own. Any other key or
//! flag is refused naming it.
//!
//! A campaign request answers with an `"accepted"` line (echoing the
//! resolved shape) and then a `"report"` line carrying the §5 table, the
//! full manifest JSON and the cache summary. The table and manifest hold
//! no clock, so a warm campaign answers the same bytes as a cold one.
//! Unknown ops and malformed lines — including lines that are not UTF-8
//! — answer `{"ok":false,...}` without killing the connection. So does a
//! line longer than `MAX_REQUEST_LINE` (64 KiB), whose rest is read and
//! thrown away unparsed. A last request line cut off by EOF without its
//! newline is still answered.
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

use crate::parse_config;
use crate::runner::{run_regression, RegressionOptions, SOURCE_FINGERPRINT};
use exec::ThreadPool;
use stbus_protocol::NodeConfig;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use telemetry::Json;

/// Protocol identifier echoed by `ping`, bumped with any incompatible
/// protocol change (`/2`: campaigns carry the client's `source`; `/3`:
/// campaigns carry `config_text` and `args` and nothing else).
pub const SERVE_PROTOCOL: &str = "stbus-serve/3";

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: UnixListener,
    socket: PathBuf,
    base: RegressionOptions,
    pool: Arc<ThreadPool>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds `socket`, healing a stale file left by a killed daemon: if
    /// the address is taken but nothing answers a connect probe, the file
    /// is an orphan — unlink it and bind again. A *live* daemon on the
    /// socket is an error.
    ///
    /// Every campaign starts from `base` before its request's `args`
    /// apply: `cache_dir` is the shared cell store (`None` serves without
    /// one), `cache_gc` the eviction bounds applied after every campaign,
    /// `jobs` the shared pool's size, and `telemetry` carries the
    /// `serve.*` counters and request events.
    pub fn bind(socket: PathBuf, base: RegressionOptions) -> std::io::Result<Server> {
        if let Some(dir) = socket.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let listener = match UnixListener::bind(&socket) {
            Ok(l) => l,
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                if UnixStream::connect(&socket).is_ok() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::AddrInUse,
                        format!("a daemon is already serving {}", socket.display()),
                    ));
                }
                base.telemetry.warn(
                    "serve",
                    "recovered stale socket",
                    [("socket", Json::from(socket.display().to_string()))],
                );
                std::fs::remove_file(&socket)?;
                UnixListener::bind(&socket)?
            }
            Err(e) => return Err(e),
        };
        listener.set_nonblocking(true)?;
        let pool = Arc::new(ThreadPool::new(exec::resolve_jobs(base.jobs)));
        Ok(Server {
            listener,
            socket,
            base,
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
        let tel = &self.base.telemetry;
        tel.info(
            "serve",
            "daemon listening",
            [
                ("socket", Json::from(self.socket.display().to_string())),
                ("jobs", Json::from(self.pool.threads())),
                (
                    "cache_dir",
                    self.base
                        .cache_dir
                        .as_ref()
                        .map_or(Json::Null, |d| Json::from(d.display().to_string())),
                ),
            ],
        );
        let mut handlers = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    tel.metrics().counter("serve.connections").inc();
                    let ctx = ConnCtx {
                        base: self.base.clone(),
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
        let _ = std::fs::remove_file(&self.socket);
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
    base: RegressionOptions,
    pool: Arc<ThreadPool>,
    shutdown: Arc<AtomicBool>,
}

/// The longest request line the daemon reads, newline excluded. A
/// campaign request carries its configuration texts and a few flags (the
/// whole built-in sweep renders to under 16 KiB), so real requests stay
/// below it; the cap keeps one client from growing a
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
    let tel = &ctx.base.telemetry;
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
    let tel = &ctx.base.telemetry;
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
            let metrics = ctx.base.telemetry.metrics();
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

/// The flags a `--client` forwards in a campaign request's `args`: the
/// campaign shape. The store, the pool and the eviction bounds are the
/// daemon's own, so `--jobs` and the `--cache*` flags are refused.
pub const CLIENT_FLAGS: [&str; 6] = [
    "--seeds",
    "--intensity",
    "--engine",
    "--views",
    "--no-compare",
    "--exact",
];

/// The keys a campaign request may carry.
const CAMPAIGN_KEYS: [&str; 4] = ["op", "source", "config_text", "args"];

/// The campaign a request asks for: its configurations, and the daemon's
/// base options with the request's `args` applied.
fn campaign_of(
    request: &Json,
    base: &RegressionOptions,
) -> Result<(Vec<NodeConfig>, RegressionOptions), String> {
    if let Json::Obj(pairs) = request {
        if let Some((key, _)) = pairs
            .iter()
            .find(|(k, _)| !CAMPAIGN_KEYS.contains(&k.as_str()))
        {
            return Err(format!(
                "unknown campaign request key `{key}` (expected {})",
                CAMPAIGN_KEYS.join(", ")
            ));
        }
    }
    // The daemon's store and verdicts are only valid for the code it was
    // built from; a client built from other sources must not get them.
    let source = request.get("source").and_then(Json::as_str);
    if source != Some(SOURCE_FINGERPRINT) {
        return Err(format!(
            "source fingerprint mismatch: client {}, daemon {SOURCE_FINGERPRINT}",
            source.unwrap_or("(none)")
        ));
    }
    let strings = |key: &str| -> Option<Vec<&str>> {
        match request.get(key) {
            None => Some(Vec::new()),
            Some(j) => j.as_arr()?.iter().map(Json::as_str).collect(),
        }
    };
    let texts = strings("config_text")
        .filter(|t| !t.is_empty())
        .ok_or("`config_text` must be a non-empty array of configuration texts")?;
    let configs = texts
        .into_iter()
        .map(|text| parse_config(text).map_err(|e| format!("bad config text: {e}")))
        .collect::<Result<_, _>>()?;
    let args = strings("args").ok_or("`args` must be an array of strings")?;
    let mut options = base.clone();
    options.apply_args(&args, &CLIENT_FLAGS)?;
    Ok((configs, options))
}

fn run_campaign(request: &Json, ctx: &ConnCtx) -> Vec<Json> {
    let tel = &ctx.base.telemetry;
    let (configs, mut options) = match campaign_of(request, &ctx.base) {
        Ok(campaign) => campaign,
        Err(e) => return error_line(e),
    };
    let tests = catg::tests_lib::all(options.intensity);
    let cells = configs.len() * tests.len() * options.seeds.len();
    let accepted = Json::obj([
        ("ok", Json::from(true)),
        ("event", Json::from("accepted")),
        ("configs", Json::from(configs.len())),
        ("tests", Json::from(tests.len())),
        ("seeds", Json::from(options.seeds.len())),
        ("cells", Json::from(cells)),
    ]);

    tel.metrics().counter("serve.campaigns").inc();
    tel.metrics().counter("serve.cells").add(cells as u64);
    let span = tel.span("serve.campaign").field("cells", Json::from(cells));

    // Each campaign gets a fresh telemetry handle (private metrics, the
    // daemon's sinks) so its manifest reports its own totals, while the
    // store and pool are the daemon-shared ones.
    options.telemetry = tel.scoped_metrics();
    options.pool = Some(Arc::clone(&ctx.pool));
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
/// until the final one of the request arrives (any line but a campaign's
/// `accepted`) or the daemon hangs up.
pub fn client_request(socket: &Path, request: &str) -> std::io::Result<Vec<Json>> {
    let stream = UnixStream::connect(socket)?;
    let mut writer = stream.try_clone()?;
    writeln!(writer, "{}", request.trim())?;
    writer.flush()?;
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
        // Only a campaign's `accepted` line is followed by another.
        let done = json.get("event").and_then(Json::as_str) != Some("accepted");
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
