//! Chrome `trace_event` export — profiles loadable in Perfetto or
//! `chrome://tracing`.
//!
//! Each telemetry track becomes one trace thread row. Every span emits a
//! `B`/`E` pair, generated from the linked call tree ([`build_tree`]): a
//! child on its parent's track nests inside it, and a child on another
//! track (a fan-out worker's span) opens a top-level block on its own
//! row. Pairing, nesting and per-thread time order hold by construction:
//! the telemetry clock never decreases, and a child that outlived its
//! parent is clipped to it. Synthetic `phase:*` blocks from span phase
//! annotations are laid out back-to-back inside their parent —
//! attribution, not measured intervals, so they only appear on spans with
//! no same-track children, where they cannot collide with real ones.
//! Sub-slice blocks (`phase:<phase>:<part>`) nest inside their phase's
//! block the same way.
//!
//! [`validate_trace`] re-checks an exported (or re-parsed) document:
//! per-thread B/E stack discipline, name matching, and monotonic
//! timestamps — the structural contract downstream viewers rely on.

use crate::span_tree::{build_tree, SpanNode, SpanRecord};
use std::collections::BTreeMap;
use telemetry::Json;

/// Pretty process id used for every event (one process: the campaign).
const PID: u64 = 1;

fn meta(name: &str, tid: u64, value: &str) -> Json {
    Json::obj([
        ("ph", Json::str("M")),
        ("pid", Json::from(PID)),
        ("tid", Json::from(tid)),
        ("name", Json::str(name)),
        ("args", Json::obj([("name", Json::str(value))])),
    ])
}

fn begin(name: &str, tid: u64, ts: u64, args: &[(String, Json)]) -> Json {
    Json::obj([
        ("ph", Json::str("B")),
        ("pid", Json::from(PID)),
        ("tid", Json::from(tid)),
        ("ts", Json::from(ts)),
        ("name", Json::str(name)),
        ("cat", Json::str("span")),
        (
            "args",
            Json::Obj(args.iter().map(|(k, v)| (k.clone(), v.clone())).collect()),
        ),
    ])
}

fn end(name: &str, tid: u64, ts: u64) -> Json {
    Json::obj([
        ("ph", Json::str("E")),
        ("pid", Json::from(PID)),
        ("tid", Json::from(tid)),
        ("ts", Json::from(ts)),
        ("name", Json::str(name)),
        ("cat", Json::str("span")),
    ])
}

/// Attribution blocks: the phases directly under `outer` (top-level
/// phases for `None`, `<outer>:<part>` sub-slices otherwise), laid out
/// back to back from `start` and clamped to `end_us`; each top-level block
/// holds its own sub-slices.
fn emit_phases(
    phases: &[(&str, u64)],
    outer: Option<&str>,
    start: u64,
    end_us: u64,
    tid: u64,
    out: &mut Vec<Json>,
) {
    let mut cursor = start;
    for &(phase, us) in phases {
        let inside = match (outer, phase.split_once(':')) {
            (None, None) => true,
            (Some(outer), Some((of, _))) => of == outer,
            _ => false,
        };
        let len = us.min(end_us - cursor);
        if !inside || len == 0 {
            continue;
        }
        let name = format!("phase:{phase}");
        out.push(begin(&name, tid, cursor, &[]));
        if outer.is_none() {
            emit_phases(phases, Some(phase), cursor, cursor + len, tid, out);
        }
        cursor += len;
        out.push(end(&name, tid, cursor));
    }
}

/// Emits `node` and its same-track descendants, clipped to `limit`.
fn emit_node(node: &SpanNode, tid: u64, limit: u64, out: &mut Vec<Json>) {
    let span = node.span;
    let end_us = span.end_us.min(limit);
    let start_us = span.start_us.min(end_us);
    out.push(begin(&span.name, tid, start_us, &span.fields));
    let mut nested = node
        .children
        .iter()
        .filter(|c| c.span.track == span.track)
        .peekable();
    if nested.peek().is_none() {
        emit_phases(&span.phases(), None, start_us, end_us, tid, out);
    }
    for child in nested {
        emit_node(child, tid, end_us, out);
    }
    out.push(end(&span.name, tid, end_us));
}

/// Files `node` under its track's row when it starts one (no parent on
/// the same track), then recurses into its children.
fn collect_rows<'t, 'a>(
    node: &'t SpanNode<'a>,
    parent_track: Option<u64>,
    rows: &mut BTreeMap<u64, Vec<&'t SpanNode<'a>>>,
) {
    let track = node.span.track;
    if parent_track != Some(track) {
        rows.entry(track).or_default().push(node);
    }
    for child in &node.children {
        collect_rows(child, Some(track), rows);
    }
}

/// Exports a span set as one Chrome `trace_event` JSON document
/// (`{"traceEvents": [...]}` object form).
///
/// Tracks are renumbered to dense thread ids in first-seen (ascending
/// track) order; tid 0 — the earliest-created thread, normally the main
/// one — is labeled `main`, the rest `worker-<n>`.
pub fn trace_json(spans: &[SpanRecord]) -> Json {
    let tree = build_tree(spans);
    let mut rows = BTreeMap::new();
    for root in &tree {
        collect_rows(root, None, &mut rows);
    }
    // Every metadata event names a tid, process_name included: viewers
    // ignore it there, and schema checkers can read it unconditionally.
    let mut events: Vec<Json> = vec![meta("process_name", 0, "stbus-campaign")];
    for (tid, (track, mut blocks)) in rows.into_iter().enumerate() {
        let tid = tid as u64;
        let label = if tid == 0 {
            "main".to_owned()
        } else {
            format!("worker-{tid}")
        };
        events.push(meta(
            "thread_name",
            tid,
            &format!("{label} (track {track})"),
        ));
        blocks.sort_by_key(|n| (n.span.start_us, n.span.id));
        for node in blocks {
            emit_node(node, tid, u64::MAX, &mut events);
        }
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
        (
            "otherData",
            Json::obj([("generator", Json::str("stbus-profile"))]),
        ),
    ])
}

/// Summary of a validated trace document.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total `B`/`E` duration events.
    pub duration_events: u64,
    /// Distinct thread ids.
    pub threads: u64,
    /// Deepest nesting observed on any thread.
    pub max_depth: u64,
}

/// Checks the structural contract of a `trace_event` document: every `B`
/// is closed by an `E` with the same name on the same thread (stack
/// discipline), timestamps never decrease within a thread, and no stack
/// is left open at the end.
///
/// # Errors
///
/// A description of the first violation.
pub fn validate_trace(doc: &Json) -> Result<TraceStats, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    let mut last_ts: std::collections::BTreeMap<u64, u64> = Default::default();
    let mut stats = TraceStats::default();
    for (i, event) in events.iter().enumerate() {
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph == "M" {
            continue;
        }
        if ph != "B" && ph != "E" {
            return Err(format!("event {i}: unexpected phase `{ph}`"));
        }
        let tid = event
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        let ts = event
            .get("ts")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        if let Some(&prev) = last_ts.get(&tid) {
            if ts < prev {
                return Err(format!(
                    "event {i}: timestamp {ts} goes backwards on tid {tid} (was {prev})"
                ));
            }
        }
        last_ts.insert(tid, ts);
        stats.duration_events += 1;
        let stack = stacks.entry(tid).or_default();
        if ph == "B" {
            stack.push(name.to_owned());
            stats.max_depth = stats.max_depth.max(stack.len() as u64);
        } else {
            let open = stack
                .pop()
                .ok_or_else(|| format!("event {i}: E `{name}` on tid {tid} with empty stack"))?;
            if open != name {
                return Err(format!(
                    "event {i}: E `{name}` closes B `{open}` on tid {tid}"
                ));
            }
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("tid {tid}: span `{open}` never closed"));
        }
    }
    stats.threads = stacks.len() as u64;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: Option<u64>,
        name: &str,
        track: u64,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            name: name.to_owned(),
            track,
            id,
            parent,
            start_us: start,
            end_us: end,
            fields: Vec::new(),
        }
    }

    #[test]
    fn trace_round_trips_and_validates() {
        let mut leaf = span(3, Some(2), "tb.run", 3, 30, 90);
        leaf.fields
            .push(("phase_settle_us".into(), Json::from(40u64)));
        leaf.fields
            .push(("phase_drive_us".into(), Json::from(100u64))); // over-long: clamped
        let spans = vec![
            span(1, None, "campaign", 0, 0, 200),
            span(2, Some(1), "cell", 3, 10, 100),
            leaf,
            span(4, Some(1), "cell", 5, 20, 150),
        ];
        let doc = trace_json(&spans);
        // The document must survive its own wire format.
        let parsed = Json::parse(&doc.render()).expect("valid JSON");
        let stats = validate_trace(&parsed).expect("structurally sound");
        // 4 real spans + 2 phase blocks, B and E each.
        assert_eq!(stats.duration_events, 12);
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.max_depth, 3);
        assert_eq!(
            parsed.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
    }

    #[test]
    fn sub_slices_nest_inside_their_phase_block() {
        let mut leaf = span(1, None, "tb.run", 0, 0, 100);
        for (key, us) in [
            ("phase_settle_us", 30u64),
            ("phase_check_us", 50),
            ("phase_check:checker_us", 20),
            ("phase_check:coverage_us", 40), // overruns its phase: clamped
            ("phase_vcd_us", 10),
        ] {
            leaf.fields.push((key.into(), Json::from(us)));
        }
        let doc = trace_json(&[leaf]);
        let stats = validate_trace(&doc).expect("structurally sound");
        assert_eq!(stats.duration_events, 12, "1 span + 5 blocks");
        assert_eq!(stats.max_depth, 3);
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("no events");
        };
        let blocks: Vec<(&str, &str, u64)> = events
            .iter()
            .filter_map(|e| {
                let name = e.get("name")?.as_str()?;
                if !name.starts_with("phase:") {
                    return None;
                }
                Some((e.get("ph")?.as_str()?, name, e.get("ts")?.as_u64()?))
            })
            .collect();
        assert_eq!(
            blocks,
            [
                ("B", "phase:settle", 0),
                ("E", "phase:settle", 30),
                ("B", "phase:check", 30),
                ("B", "phase:check:checker", 30),
                ("E", "phase:check:checker", 50),
                ("B", "phase:check:coverage", 50),
                ("E", "phase:check:coverage", 80),
                ("E", "phase:check", 80),
                ("B", "phase:vcd", 80),
                ("E", "phase:vcd", 90),
            ]
        );
    }

    #[test]
    fn validate_rejects_broken_nesting() {
        let bad = Json::obj([(
            "traceEvents",
            Json::Arr(vec![
                Json::obj([
                    ("ph", Json::str("B")),
                    ("tid", Json::from(0u64)),
                    ("ts", Json::from(0u64)),
                    ("name", Json::str("a")),
                ]),
                Json::obj([
                    ("ph", Json::str("E")),
                    ("tid", Json::from(0u64)),
                    ("ts", Json::from(5u64)),
                    ("name", Json::str("mismatched")),
                ]),
            ]),
        )]);
        assert!(validate_trace(&bad).unwrap_err().contains("closes B"));
    }

    #[test]
    fn validate_rejects_backwards_time_and_unclosed_spans() {
        let backwards = Json::obj([(
            "traceEvents",
            Json::Arr(vec![
                Json::obj([
                    ("ph", Json::str("B")),
                    ("tid", Json::from(0u64)),
                    ("ts", Json::from(10u64)),
                    ("name", Json::str("a")),
                ]),
                Json::obj([
                    ("ph", Json::str("E")),
                    ("tid", Json::from(0u64)),
                    ("ts", Json::from(3u64)),
                    ("name", Json::str("a")),
                ]),
            ]),
        )]);
        assert!(validate_trace(&backwards)
            .unwrap_err()
            .contains("backwards"));
        let unclosed = Json::obj([(
            "traceEvents",
            Json::Arr(vec![Json::obj([
                ("ph", Json::str("B")),
                ("tid", Json::from(0u64)),
                ("ts", Json::from(0u64)),
                ("name", Json::str("a")),
            ])]),
        )]);
        assert!(validate_trace(&unclosed)
            .unwrap_err()
            .contains("never closed"));
    }
}
