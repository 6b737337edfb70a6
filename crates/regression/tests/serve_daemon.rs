//! The serve daemon: concurrent clients over one Unix socket, one shared
//! cell store (a cold campaign warms every later client), clean
//! cooperative shutdown (request op and the embedder's flag, which is
//! what the CLI's stdin-EOF watcher flips), stale-socket recovery,
//! error replies to malformed, non-UTF-8 and oversized lines on a
//! connection that stays usable, campaigns refused to clients built
//! from other sources, requests in another shape refused naming the key
//! or flag, and `--client` answering what a local regress run prints.

#![cfg(unix)]

use stbus_regression::serve::{client_request, Server, SERVE_PROTOCOL};
use stbus_regression::{
    render_config, standard_configs, CacheSummary, RegressionOptions, CACHE_STATS_SCHEMA,
    SOURCE_FINGERPRINT,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use telemetry::Json;

fn temp_base(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("stbus-serve-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn wait_for_socket(path: &Path) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !path.exists() {
        assert!(Instant::now() < deadline, "daemon socket never appeared");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Binds a daemon under `base`: its socket, its store in `cache`, and a
/// pool of `jobs` workers.
fn bind(base: &Path, cache: &str, jobs: usize) -> std::io::Result<Server> {
    let options = RegressionOptions {
        cache_dir: Some(base.join(cache)),
        jobs,
        ..RegressionOptions::default()
    };
    Server::bind(base.join("daemon.sock"), options)
}

/// The text of standard configuration `name`.
fn config_text(name: &str) -> String {
    let configs = standard_configs();
    render_config(configs.iter().find(|c| c.name == name).expect(name))
}

/// A campaign request in the `/3` shape: the config texts and the flags.
fn request(config_text: &[String], args: &[&str]) -> String {
    Json::obj([
        ("op", Json::from("campaign")),
        ("source", Json::from(SOURCE_FINGERPRINT)),
        (
            "config_text",
            Json::Arr(config_text.iter().map(|t| Json::str(t.as_str())).collect()),
        ),
        (
            "args",
            Json::Arr(args.iter().map(|a| Json::str(*a)).collect()),
        ),
    ])
    .render()
}

/// A quick overlapping campaign: `cfg01`, the whole test library at low
/// intensity, seeds `1..=seeds`.
fn campaign_request(seeds: &str) -> String {
    request(
        &[config_text("cfg01")],
        &["--seeds", seeds, "--intensity", "4"],
    )
}

fn report_of(responses: &[Json]) -> &Json {
    responses
        .iter()
        .find(|r| r.get("event").and_then(Json::as_str) == Some("report"))
        .expect("campaign answers with a report line")
}

fn cache_stat(report: &Json, name: &str) -> u64 {
    report
        .get("cache")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(u64::MAX)
}

#[test]
fn daemon_shares_one_cache_across_concurrent_clients() {
    let base = temp_base("shared");
    let socket = base.join("daemon.sock");
    let server = bind(&base, "cache", 2).expect("bind");
    let daemon = std::thread::spawn(move || server.run().expect("daemon run"));
    wait_for_socket(&socket);

    // The daemon answers a ping with its protocol tag.
    let pong = client_request(&socket, r#"{"op":"ping"}"#).expect("ping");
    assert_eq!(
        pong[0].get("protocol").and_then(Json::as_str),
        Some(SERVE_PROTOCOL)
    );
    assert_eq!(
        pong[0].get("source").and_then(Json::as_str),
        Some(SOURCE_FINGERPRINT)
    );

    // Two concurrent clients with overlapping campaigns (seed 1 is in
    // both). Each must get a complete, correct report.
    let sock_a = socket.clone();
    let client_a =
        std::thread::spawn(move || client_request(&sock_a, &campaign_request("1")).unwrap());
    let sock_b = socket.clone();
    let client_b =
        std::thread::spawn(move || client_request(&sock_b, &campaign_request("2")).unwrap());
    let responses_a = client_a.join().unwrap();
    let responses_b = client_b.join().unwrap();
    let report_a = report_of(&responses_a);
    let report_b = report_of(&responses_b);
    // 12 library tests × seeds; every cell either hit the shared store
    // or was simulated exactly once into it.
    assert_eq!(
        cache_stat(report_a, "hits") + cache_stat(report_a, "misses"),
        12
    );
    assert_eq!(
        cache_stat(report_b, "hits") + cache_stat(report_b, "misses"),
        24
    );
    assert!(report_a
        .get("table")
        .and_then(Json::as_str)
        .is_some_and(|t| t.contains("cfg01")));

    // A third client repeating the wider campaign is fully warm: the
    // store the other clients filled answers every cell, and the
    // report is byte-identical to the cold one.
    let responses_c = client_request(&socket, &campaign_request("2")).expect("warm client");
    let report_c = report_of(&responses_c);
    assert_eq!(
        cache_stat(report_c, "hits"),
        24,
        "warm client must be all hits"
    );
    assert_eq!(cache_stat(report_c, "simulated"), 0);
    assert_eq!(
        report_b.get("manifest").map(Json::render_pretty),
        report_c.get("manifest").map(Json::render_pretty),
        "cold and warm clients must receive byte-identical manifests"
    );

    // Lifetime stats aggregate across connections.
    let stats = client_request(&socket, r#"{"op":"stats"}"#).expect("stats");
    assert!(stats[0].get("campaigns").and_then(Json::as_u64) >= Some(3));
    assert!(stats[0].get("cache_hits").and_then(Json::as_u64) >= Some(24));
    assert_eq!(
        stats[0].get("source").and_then(Json::as_str),
        Some(SOURCE_FINGERPRINT)
    );

    // A shutdown request is acknowledged, then the daemon exits and
    // removes its socket.
    let bye = client_request(&socket, r#"{"op":"shutdown"}"#).expect("shutdown");
    assert_eq!(
        bye[0].get("event").and_then(Json::as_str),
        Some("shutting-down")
    );
    daemon.join().expect("daemon thread");
    assert!(!socket.exists(), "socket file must be removed on shutdown");

    let _ = std::fs::remove_dir_all(&base);
}

/// `--client` writes the daemon's `cache` object as `cache_stats.json`,
/// so it must be the document a local run writes: same schema tag, same
/// fields.
#[test]
fn daemon_cache_report_is_the_cache_stats_document() {
    let base = temp_base("cachestats");
    let socket = base.join("daemon.sock");
    let server = bind(&base, "cache", 1).expect("bind");
    let daemon = std::thread::spawn(move || server.run().expect("daemon run"));
    wait_for_socket(&socket);

    let responses = client_request(&socket, &campaign_request("1")).expect("campaign");
    let cache = report_of(&responses).get("cache").expect("cache object");
    assert_eq!(
        cache.get("schema").and_then(Json::as_str),
        Some(CACHE_STATS_SCHEMA)
    );
    let keys = |doc: &Json| match doc {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        other => panic!("not an object: {other:?}"),
    };
    assert_eq!(keys(cache), keys(&CacheSummary::default().to_json()));

    client_request(&socket, r#"{"op":"shutdown"}"#).expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn three_view_campaigns_warm_their_own_cells() {
    let base = temp_base("threeview");
    let socket = base.join("daemon.sock");
    let server = bind(&base, "cache", 2).expect("bind");
    let daemon = std::thread::spawn(move || server.run().expect("daemon run"));
    wait_for_socket(&socket);

    let request = &request(
        &[config_text("cfg01")],
        &["--seeds", "1", "--intensity", "4", "--views", "rtl,bca,tlm"],
    );
    let cold = client_request(&socket, request).expect("cold three-view campaign");
    let cold_report = report_of(&cold);
    assert_eq!(cache_stat(cold_report, "misses"), 12);
    assert!(cold_report
        .get("table")
        .and_then(Json::as_str)
        .is_some_and(|t| t.contains("tx-align")));

    // The same request again is fully warm and byte-identical.
    let warm = client_request(&socket, request).expect("warm three-view campaign");
    let warm_report = report_of(&warm);
    assert_eq!(cache_stat(warm_report, "hits"), 12);
    assert_eq!(cache_stat(warm_report, "simulated"), 0);
    assert_eq!(
        cold_report.get("manifest").map(Json::render_pretty),
        warm_report.get("manifest").map(Json::render_pretty),
        "warm three-view manifest must be byte-identical"
    );

    // A two-view campaign must not be answered from three-view cells.
    let two = client_request(&socket, &campaign_request("1")).expect("two-view campaign");
    let two_report = report_of(&two);
    assert_eq!(
        cache_stat(two_report, "hits"),
        0,
        "the view list must be part of the daemon's cell key"
    );

    let bye = client_request(&socket, r#"{"op":"shutdown"}"#).expect("shutdown");
    assert_eq!(
        bye[0].get("event").and_then(Json::as_str),
        Some("shutting-down")
    );
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn malformed_and_unknown_requests_do_not_kill_the_connection() {
    let base = temp_base("errors");
    let socket = base.join("daemon.sock");
    let server = bind(&base, "cache", 1).expect("bind");
    let flag = server.shutdown_flag();
    let daemon = std::thread::spawn(move || server.run().expect("daemon run"));
    wait_for_socket(&socket);

    let bad = client_request(&socket, "this is not json").expect("error answer");
    assert_eq!(bad[0].get("ok").and_then(Json::as_bool), Some(false));
    let unknown = client_request(&socket, r#"{"op":"frobnicate"}"#).expect("error answer");
    assert_eq!(unknown[0].get("ok").and_then(Json::as_bool), Some(false));
    let rejected = client_request(
        &socket,
        &request(&["no such config".to_owned()], &["--seeds", "1"]),
    )
    .unwrap();
    assert_eq!(rejected[0].get("ok").and_then(Json::as_bool), Some(false));
    let error = rejected[0].get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("bad config text"), "{error}");
    // The daemon is still alive and answering.
    let pong = client_request(&socket, r#"{"op":"ping"}"#).expect("ping after errors");
    assert_eq!(pong[0].get("event").and_then(Json::as_str), Some("pong"));

    // The embedder's shutdown flag (the CLI flips it on stdin EOF) stops
    // the accept loop without any request.
    flag.store(true, std::sync::atomic::Ordering::SeqCst);
    daemon.join().expect("daemon thread");
    assert!(!socket.exists());

    let _ = std::fs::remove_dir_all(&base);
}

/// Reads one reply line from a raw connection.
fn read_reply(reader: &mut BufReader<UnixStream>) -> Json {
    let mut line = String::new();
    let read = reader.read_line(&mut line).expect("read reply");
    assert!(
        read > 0,
        "daemon closed the connection instead of answering"
    );
    Json::parse(&line).expect("reply is JSON")
}

#[test]
fn non_utf8_lines_are_answered_and_a_last_line_without_newline_counts() {
    let base = temp_base("bytes");
    let socket = base.join("daemon.sock");
    let server = bind(&base, "cache", 1).expect("bind");
    let flag = server.shutdown_flag();
    let daemon = std::thread::spawn(move || server.run().expect("daemon run"));
    wait_for_socket(&socket);

    let mut stream = UnixStream::connect(&socket).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // A line that is not UTF-8 is a bad request, not a dropped connection.
    stream.write_all(b"{\"op\":\"ping\xff\"}\n").unwrap();
    let bad = read_reply(&mut reader);
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    let error = bad.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("UTF-8"), "{error}");

    // A campaign with a bad flag value is an error reply like any other.
    let bad_seeds = campaign_request("0");
    stream
        .write_all(format!("{bad_seeds}\n").as_bytes())
        .unwrap();
    let rejected = read_reply(&mut reader);
    assert_eq!(rejected.get("ok").and_then(Json::as_bool), Some(false));

    // The same connection still answers.
    stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let pong = read_reply(&mut reader);
    assert_eq!(pong.get("event").and_then(Json::as_str), Some("pong"));

    // A last request cut off by EOF without its newline is answered, and
    // `stats` counts both error replies and all four requests.
    stream.write_all(br#"{"op":"stats"}"#).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let stats = read_reply(&mut reader);
    assert_eq!(stats.get("event").and_then(Json::as_str), Some("stats"));
    assert_eq!(stats.get("errors").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("requests").and_then(Json::as_u64), Some(4));
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert_eq!(rest, "", "nothing after the last reply");

    flag.store(true, std::sync::atomic::Ordering::SeqCst);
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn an_oversized_request_line_is_answered_and_discarded() {
    let base = temp_base("oversized");
    let socket = base.join("daemon.sock");
    let server = bind(&base, "cache", 1).expect("bind");
    let flag = server.shutdown_flag();
    let daemon = std::thread::spawn(move || server.run().expect("daemon run"));
    wait_for_socket(&socket);

    let mut stream = UnixStream::connect(&socket).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // A line far over the cap, whose tail looks like a request of its
    // own: it is refused whole, and nothing of it is parsed.
    let mut line = vec![b' '; 1 << 20];
    line.extend_from_slice(b"{\"op\":\"shutdown\"}\n");
    let writer = {
        let mut stream = stream.try_clone().expect("clone");
        std::thread::spawn(move || stream.write_all(&line).expect("write"))
    };
    let refused = read_reply(&mut reader);
    writer.join().expect("writer");
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    let error = refused.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("longer than"), "{error}");

    // The connection is still usable, and the daemon still running.
    stream.write_all(b"{\"op\":\"stats\"}\n").unwrap();
    let stats = read_reply(&mut reader);
    assert_eq!(stats.get("event").and_then(Json::as_str), Some("stats"));
    assert_eq!(stats.get("errors").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("requests").and_then(Json::as_u64), Some(2));

    flag.store(true, std::sync::atomic::Ordering::SeqCst);
    stream.shutdown(Shutdown::Both).unwrap();
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn stale_socket_files_are_recovered_live_daemons_are_not_displaced() {
    let base = temp_base("stale");
    let socket = base.join("daemon.sock");

    // A dead daemon's leftover: nothing listens on the path.
    std::fs::write(&socket, b"").unwrap();
    let server = bind(&base, "cache", 1).expect("stale socket file must be healed");

    // While that daemon is bound, a second bind on the same path must
    // refuse rather than displace it.
    let err = match bind(&base, "cache2", 1) {
        Err(e) => e,
        Ok(_) => panic!("live daemon must not be displaced"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);

    let flag = server.shutdown_flag();
    let daemon = std::thread::spawn(move || server.run().expect("daemon run"));
    wait_for_socket(&socket);
    flag.store(true, std::sync::atomic::Ordering::SeqCst);
    daemon.join().expect("daemon thread");

    let _ = std::fs::remove_dir_all(&base);
}

/// Sends `request` to a fresh daemon and returns its answer; the daemon
/// must reject it without simulating and stay up.
fn rejected_by_fresh_daemon(tag: &str, request: &str) -> Json {
    let base = temp_base(tag);
    let socket = base.join("daemon.sock");
    let server = bind(&base, "cache", 1).expect("bind");
    let flag = server.shutdown_flag();
    let daemon = std::thread::spawn(move || server.run().expect("daemon run"));
    wait_for_socket(&socket);

    let answer = client_request(&socket, request).expect("error answer");
    assert_eq!(answer.len(), 1, "rejected before any `accepted` line");
    let stats = client_request(&socket, r#"{"op":"stats"}"#).expect("stats after rejection");
    assert_eq!(stats[0].get("cells").and_then(Json::as_u64), Some(0));

    flag.store(true, std::sync::atomic::Ordering::SeqCst);
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&base);
    answer.into_iter().next().unwrap()
}

#[test]
fn campaign_from_other_sources_is_rejected_naming_both_fingerprints() {
    let request = campaign_request("1").replace(SOURCE_FINGERPRINT, "0123456789abcdef");
    let answer = rejected_by_fresh_daemon("mismatch", &request);
    assert_eq!(answer.get("ok").and_then(Json::as_bool), Some(false));
    let error = answer.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("0123456789abcdef"), "{error}");
    assert!(error.contains(SOURCE_FINGERPRINT), "{error}");
}

#[test]
fn campaign_without_a_source_is_rejected() {
    let request =
        campaign_request("1").replace(&format!(r#""source":"{SOURCE_FINGERPRINT}","#), "");
    assert!(!request.contains("source"));
    let answer = rejected_by_fresh_daemon("nosource", &request);
    assert_eq!(answer.get("ok").and_then(Json::as_bool), Some(false));
    let error = answer.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("(none)"), "{error}");
    assert!(error.contains(SOURCE_FINGERPRINT), "{error}");
}

#[test]
fn a_campaign_in_another_shape_is_refused_naming_the_key() {
    // The `/2` shape: fields instead of flags, `configs` by name.
    let old = format!(
        r#"{{"op":"campaign","source":"{SOURCE_FINGERPRINT}","configs":["cfg01"],"seeds":[1],"intensity":4}}"#
    );
    // A `/3` request with one `/2` field added.
    let mixed = campaign_request("1").replace(r#""args""#, r#""seeds":[1],"args""#);
    for (tag, request, key) in [("old", old, "configs"), ("mixed", mixed, "seeds")] {
        let answer = rejected_by_fresh_daemon(tag, &request);
        assert_eq!(answer.get("ok").and_then(Json::as_bool), Some(false));
        let error = answer.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains(&format!("`{key}`")), "{error}");
    }
}

#[test]
fn a_flag_outside_the_client_row_is_refused_naming_it() {
    // The store, the pool and the eviction bounds are the daemon's own.
    for flag in ["--jobs", "--cache-dir", "--cache-max-entries", "--configs"] {
        let request = request(&[config_text("cfg01")], &["--seeds", "1", flag, "2"]);
        let answer = rejected_by_fresh_daemon(&format!("flag{flag}"), &request);
        assert_eq!(answer.get("ok").and_then(Json::as_bool), Some(false));
        let error = answer.get("error").and_then(Json::as_str).unwrap();
        assert!(error.starts_with(flag), "{error}");
    }
}

fn run_cli(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_stbus-regress"))
        .args(args)
        .output()
        .expect("spawn stbus-regress");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}\n{stdout}\n{stderr}");
    stdout
}

/// `--client` forwards regress's own flags, `--exact` included, and the
/// daemon reads them the way the CLI does: the same table and the same
/// `manifest.json` as a local run with the same flags.
#[test]
fn a_client_campaign_matches_a_local_run_with_the_same_flags() {
    let base = temp_base("parity");
    let configs = base.join("configs");
    std::fs::create_dir_all(&configs).unwrap();
    // A Type 3 configuration on which the relaxed BCA view misaligns, so
    // the table shows whether `--exact` took effect.
    std::fs::write(configs.join("cfg02.cfg"), config_text("cfg02")).unwrap();
    let socket = base.join("daemon.sock").display().to_string();
    let store = base.join("cache").display().to_string();
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_stbus-regress"))
        .args([
            "--serve",
            &socket,
            "--cache-dir",
            &store,
            "--jobs",
            "2",
            "--quiet",
        ])
        .stdin(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    wait_for_socket(Path::new(&socket));

    let configs = configs.display().to_string();
    let flags = [
        "--configs",
        &configs,
        "--seeds",
        "1",
        "--intensity",
        "2",
        "--views",
        "rtl,bca,tlm",
        "--quiet",
    ];
    // stdout of a run with `flags`, `extra` and `--out <base>/<out>`.
    let campaign = |extra: &[&str], out: &str| {
        let out = base.join(out).display().to_string();
        run_cli(&[&flags[..], extra, &["--out", &out]].concat())
    };
    let remote = campaign(&["--client", &socket, "--exact"], "remote");
    let local = campaign(&["--exact", "--no-history"], "local");
    let relaxed = campaign(&["--no-history"], "relaxed");
    assert!(local.contains("tx-align"), "{local}");
    assert_eq!(remote, local);
    assert_ne!(relaxed, local, "--exact had no effect");
    let read = |out: &str, file: &str| std::fs::read(base.join(out).join(file)).expect(out);
    let stats = String::from_utf8(read("remote", "cache_stats.json")).unwrap();
    let stats = Json::parse(&stats).expect("cache_stats.json");
    let n = |key: &str| stats.get(key).and_then(Json::as_u64);
    assert_eq!(
        (n("hits"), n("misses"), n("simulated")),
        (Some(0), Some(12), Some(12))
    );
    let manifest = |out: &str| read(out, "manifest.json");
    assert_eq!(
        manifest("remote"),
        manifest("local"),
        "manifest.json differs"
    );

    // EOF on the daemon's stdin stops it.
    drop(daemon.stdin.take());
    assert!(daemon.wait().expect("daemon exit").success());
    assert!(!Path::new(&socket).exists());
    let _ = std::fs::remove_dir_all(&base);
}

/// A daemon embedded with `RegressionOptions::default()` answers a client
/// that gives no `--intensity` at the intensity a local run defaults to.
#[test]
fn an_embedded_daemon_defaults_to_the_cli_intensity() {
    let base = temp_base("intensity");
    let configs = base.join("configs");
    std::fs::create_dir_all(&configs).unwrap();
    std::fs::write(configs.join("cfg01.cfg"), config_text("cfg01")).unwrap();
    let socket = base.join("daemon.sock");
    let server = bind(&base, "cache", 2).expect("bind");
    let daemon = std::thread::spawn(move || server.run().expect("daemon run"));
    wait_for_socket(&socket);

    let (configs, socket_arg) = (configs.display().to_string(), socket.display().to_string());
    let flags = ["--configs", &configs, "--seeds", "1", "--quiet"];
    let remote = run_cli(&[&flags[..], &["--client", &socket_arg]].concat());
    let local = run_cli(&[&flags[..], &["--no-history"]].concat());
    assert_eq!(remote, local);
    // Intensity 30 is deep enough for cfg01 to sign off.
    assert!(local.ends_with("1 of 1 configurations signed off (all checks green, full functional coverage, >=99% alignment)\n"), "{local}");

    client_request(&socket, r#"{"op":"shutdown"}"#).expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&base);
}
