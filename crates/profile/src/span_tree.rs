//! From a flat telemetry event stream to a hierarchical profile.
//!
//! The telemetry layer emits one `<scope>.end` event per span, carrying
//! `start_us`, `duration_us`, `track` (the opening thread's ordinal), the
//! span's own `id` and its `parent` (the id of the span it ran under, on
//! its own thread or, for a fan-out worker, on the thread that handed
//! the work out). [`collect_spans`] extracts those into
//! [`SpanRecord`]s; [`build_tree`] links them into one call tree by
//! parent id; [`build_profile`] then folds the tree into one aggregated
//! [`Profile`] keyed by span-name path, with per-node call counts,
//! total/self wall-clock and min/max/mean durations. The recorded links,
//! not the timings, decide the shape, so it is the same for any worker
//! count.
//!
//! Spans may also carry *phase annotations*: any end-event field named
//! `phase_<name>_us` becomes a synthetic `phase:<name>` child of the
//! node — the mechanism the testbench uses to attribute scattered
//! per-cycle time (kernel settle, stimulus drive, VCD write, checking)
//! that no contiguous span could represent. A `<name>` of the form
//! `<phase>:<part>` is a sub-slice: its node nests under `phase:<phase>`
//! (so `phase_check:checker_us` becomes `phase:check` →
//! `phase:check:checker`).

use std::collections::{BTreeMap, HashMap, HashSet};
use telemetry::{Event, Json};

/// One completed span, reconstructed from its `<scope>.end` event.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Span name (the event scope minus the `.end` suffix).
    pub name: String,
    /// Track (thread ordinal) the span ran on.
    pub track: u64,
    /// Process-unique span id.
    pub id: u64,
    /// Id of the span this one ran under; `None` for a top-level span.
    pub parent: Option<u64>,
    /// Open offset, microseconds on the emitting handle's clock.
    pub start_us: u64,
    /// Close offset (`start_us + duration_us`).
    pub end_us: u64,
    /// The remaining end-event fields (pairing fields stripped).
    pub fields: Vec<(String, Json)>,
}

impl SpanRecord {
    /// Wall-clock duration.
    pub fn duration_us(&self) -> u64 {
        self.end_us - self.start_us
    }

    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The `phase_<name>_us` annotations as `(name, us)` pairs, in field
    /// order.
    pub fn phases(&self) -> Vec<(&str, u64)> {
        self.fields
            .iter()
            .filter_map(|(k, v)| {
                let mid = k.strip_prefix("phase_")?.strip_suffix("_us")?;
                Some((mid, v.as_u64()?))
            })
            .collect()
    }
}

/// The end-event fields [`collect_spans`] lifts into [`SpanRecord`].
const SPAN_FIELDS: [&str; 5] = ["start_us", "duration_us", "track", "id", "parent"];

/// Extracts every span from an event stream. Events that are not span
/// ends (or predate the span fields) are ignored.
pub fn collect_spans(events: &[Event]) -> Vec<SpanRecord> {
    events
        .iter()
        .filter_map(|e| {
            let name = e.scope.strip_suffix(".end")?;
            let start_us = e.field("start_us")?.as_u64()?;
            let duration_us = e.field("duration_us")?.as_u64()?;
            Some(SpanRecord {
                name: name.to_owned(),
                track: e.field("track")?.as_u64()?,
                id: e.field("id")?.as_u64()?,
                parent: e.field("parent")?.as_u64(),
                start_us,
                end_us: start_us + duration_us,
                fields: e
                    .fields
                    .iter()
                    .filter(|(k, _)| !SPAN_FIELDS.contains(&k.as_str()))
                    .cloned()
                    .collect(),
            })
        })
        .collect()
}

/// One node of the recorded call tree.
#[derive(Clone, Debug)]
pub struct SpanNode<'a> {
    /// The span.
    pub span: &'a SpanRecord,
    /// Children, ordered by `(start_us, id)`.
    pub children: Vec<SpanNode<'a>>,
}

/// Links spans into one call tree by their recorded parent ids. A span
/// whose parent is absent from the set (never recorded, or still open
/// when the events were collected) is a root. Roots and children are
/// ordered by `(start_us, id)`.
pub fn build_tree(spans: &[SpanRecord]) -> Vec<SpanNode<'_>> {
    let ids: HashSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.start_us, s.id));
    let mut roots = Vec::new();
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for span in ordered {
        match span.parent.filter(|p| ids.contains(p)) {
            Some(parent) => children.entry(parent).or_default().push(span),
            None => roots.push(span),
        }
    }
    fn grow<'a>(
        span: &'a SpanRecord,
        children: &HashMap<u64, Vec<&'a SpanRecord>>,
    ) -> SpanNode<'a> {
        SpanNode {
            span,
            children: children
                .get(&span.id)
                .map_or(&[][..], Vec::as_slice)
                .iter()
                .map(|child| grow(child, children))
                .collect(),
        }
    }
    roots
        .into_iter()
        .map(|root| grow(root, &children))
        .collect()
}

/// Profile construction knobs.
#[derive(Clone, Debug, Default)]
pub struct ProfileOptions {
    /// Field keys whose values split a span name into per-value nodes:
    /// `group_by: ["config"]` turns `regress.cell` into
    /// `regress.cell{config=mid}`, giving per-configuration attribution
    /// in the aggregated tree.
    pub group_by: Vec<String>,
}

/// One aggregated node: every same-path span folded together.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileNode {
    /// Spans folded into this node.
    pub count: u64,
    /// Summed wall-clock, microseconds.
    pub total_us: u64,
    /// Summed self time: each span's duration minus its child spans on
    /// its own track and its phase slices (clamped at zero per span). A
    /// child on another track ran beside the span, not inside its time,
    /// so a fan-out parent keeps its own thread's work.
    pub self_us: u64,
    /// Shortest single span.
    pub min_us: u64,
    /// Longest single span.
    pub max_us: u64,
    /// Child nodes by name.
    pub children: BTreeMap<String, ProfileNode>,
}

impl ProfileNode {
    fn fold(&mut self, duration_us: u64, self_us: u64) {
        if self.count == 0 {
            self.min_us = duration_us;
            self.max_us = duration_us;
        } else {
            self.min_us = self.min_us.min(duration_us);
            self.max_us = self.max_us.max(duration_us);
        }
        self.count += 1;
        self.total_us += duration_us;
        self.self_us += self_us;
    }

    fn strip(&mut self) {
        self.total_us = 0;
        self.self_us = 0;
        self.min_us = 0;
        self.max_us = 0;
        for child in self.children.values_mut() {
            child.strip();
        }
    }
}

/// The aggregated span-tree profile of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Profile {
    /// Top-level nodes by name.
    pub roots: BTreeMap<String, ProfileNode>,
    /// Spans folded in.
    pub spans: u64,
    /// Distinct tracks observed (worker threads plus the main thread).
    pub tracks: u64,
}

fn node_name(span: &SpanRecord, opts: &ProfileOptions) -> String {
    let mut keys: Vec<String> = Vec::new();
    for key in &opts.group_by {
        if let Some(v) = span.field(key) {
            let rendered = match v {
                Json::Str(s) => s.clone(),
                other => other.render(),
            };
            keys.push(format!("{key}={rendered}"));
        }
    }
    if keys.is_empty() {
        span.name.clone()
    } else {
        format!("{}{{{}}}", span.name, keys.join(","))
    }
}

fn add_node(map: &mut BTreeMap<String, ProfileNode>, node: &SpanNode, opts: &ProfileOptions) {
    let span = node.span;
    let phases = span.phases();
    // The phase slices inside `outer` (`""`: the span's own phases).
    let sliced = |outer: &str| -> u64 {
        let within = |phase: &str| phase.split_once(':').map_or("", |(o, _)| o) == outer;
        phases
            .iter()
            .filter(|(p, _)| within(p))
            .map(|(_, us)| us)
            .sum()
    };
    let nested: u64 = node
        .children
        .iter()
        .filter(|c| c.span.track == span.track)
        .map(|c| c.span.duration_us())
        .sum();
    let entry = map.entry(node_name(span, opts)).or_default();
    let duration = span.duration_us();
    entry.fold(duration, duration.saturating_sub(nested + sliced("")));
    for child in &node.children {
        add_node(&mut entry.children, child, opts);
    }
    for &(phase, us) in &phases {
        // A `<phase>:<part>` annotation is a sub-slice of `<phase>`.
        let (siblings, own) = match phase.split_once(':') {
            Some((outer, _)) => {
                let outer = entry.children.entry(format!("phase:{outer}")).or_default();
                (&mut outer.children, us)
            }
            None => (&mut entry.children, us.saturating_sub(sliced(phase))),
        };
        siblings
            .entry(format!("phase:{phase}"))
            .or_default()
            .fold(us, own);
    }
}

/// Folds a span set into an aggregated profile: the call tree is linked
/// ([`build_tree`]) and same-path nodes folded together.
pub fn build_profile(spans: &[SpanRecord], opts: &ProfileOptions) -> Profile {
    let tracks: HashSet<u64> = spans.iter().map(|s| s.track).collect();
    let mut profile = Profile {
        spans: spans.len() as u64,
        tracks: tracks.len() as u64,
        ..Profile::default()
    };
    for node in &build_tree(spans) {
        add_node(&mut profile.roots, node, opts);
    }
    profile
}

impl Profile {
    /// Zeroes every timing figure, leaving names, counts and tree shape.
    /// A stripped profile renders byte-identically for any worker count:
    /// the span *set* of a campaign and its parent links are a pure
    /// function of its inputs; only the timings, ids and track layout,
    /// which the render never shows, vary.
    pub fn strip_timings(&mut self) {
        for root in self.roots.values_mut() {
            root.strip();
        }
    }

    /// Sums the phase buckets the campaign history records: every
    /// synthetic `phase:<name>` node totals into `<name>`, plus the two
    /// contiguous-span phases (`stba.compare` → `compare`,
    /// `regress.assemble` → `merge`).
    pub fn phase_totals(&self) -> BTreeMap<String, u64> {
        fn walk(name: &str, node: &ProfileNode, out: &mut BTreeMap<String, u64>) {
            let base = name.split('{').next().unwrap_or(name);
            let bucket = match base {
                "stba.compare" => Some("compare"),
                "regress.assemble" => Some("merge"),
                _ => base.strip_prefix("phase:"),
            };
            if let Some(bucket) = bucket {
                *out.entry(bucket.to_owned()).or_default() += node.total_us;
            }
            for (child_name, child) in &node.children {
                walk(child_name, child, out);
            }
        }
        let mut out = BTreeMap::new();
        for (name, node) in &self.roots {
            walk(name, node, &mut out);
        }
        out
    }

    /// The sorted text profile: children ordered by total time
    /// descending (name as tiebreak, so a stripped profile orders by
    /// name alone), one indented row per node.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>12} {:>11} {:>7} {:>10} {:>10} {:>10}  span",
            "total ms", "self ms", "count", "min ms", "max ms", "mean ms"
        );
        fn ms(us: u64) -> f64 {
            us as f64 / 1000.0
        }
        fn sorted(map: &BTreeMap<String, ProfileNode>) -> Vec<(&String, &ProfileNode)> {
            let mut rows: Vec<_> = map.iter().collect();
            rows.sort_by(|(na, a), (nb, b)| b.total_us.cmp(&a.total_us).then(na.cmp(nb)));
            rows
        }
        fn walk(out: &mut String, name: &str, node: &ProfileNode, depth: usize) {
            let mean_us = node.total_us.checked_div(node.count).unwrap_or(0);
            let _ = writeln!(
                out,
                "{:>12.3} {:>11.3} {:>7} {:>10.3} {:>10.3} {:>10.3}  {:indent$}{}",
                ms(node.total_us),
                ms(node.self_us),
                node.count,
                ms(node.min_us),
                ms(node.max_us),
                ms(mean_us),
                "",
                name,
                indent = depth * 2
            );
            for (child_name, child) in sorted(&node.children) {
                walk(out, child_name, child, depth + 1);
            }
        }
        for (name, node) in sorted(&self.roots) {
            walk(&mut out, name, node, 0);
        }
        let _ = writeln!(out, "{} spans", self.spans);
        out
    }

    /// Folded-stacks output for flamegraph tooling: one
    /// `root;child;leaf <self_us>` line per node, sorted lexically. A node
    /// without self time reads 0 rather than being left out, so the
    /// stacks listed are the tree's shape: the same for any worker count.
    pub fn render_folded(&self) -> String {
        fn walk(lines: &mut Vec<String>, path: &str, node: &ProfileNode) {
            lines.push(format!("{path} {}", node.self_us));
            for (child_name, child) in &node.children {
                walk(lines, &format!("{path};{child_name}"), child);
            }
        }
        let mut lines = Vec::new();
        for (name, node) in &self.roots {
            walk(&mut lines, name, node);
        }
        lines.sort();
        lines.join("\n") + "\n"
    }
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

    fn names<'a>(nodes: &[SpanNode<'a>]) -> Vec<&'a str> {
        nodes.iter().map(|n| n.span.name.as_str()).collect()
    }

    #[test]
    fn tree_links_spans_by_parent_id_across_tracks() {
        // jobs=4 shape: campaign on the main track, overlapping cells on
        // worker tracks, each with a nested child of its own.
        let spans = vec![
            span(5, Some(1), "assemble", 0, 900, 950),
            span(3, Some(2), "tb.run", 3, 20, 390),
            span(2, Some(1), "cell", 3, 10, 400),
            span(4, Some(1), "cell", 7, 15, 500), // overlaps the track-3 cell
            span(6, Some(4), "tb.run", 7, 30, 490),
            span(1, None, "campaign", 0, 0, 1000),
        ];
        let tree = build_tree(&spans);
        assert_eq!(names(&tree), ["campaign"]);
        let campaign = &tree[0];
        // Ordered by start; concurrent cells never nest in each other.
        assert_eq!(names(&campaign.children), ["cell", "cell", "assemble"]);
        assert_eq!(names(&campaign.children[0].children), ["tb.run"]);
        assert_eq!(campaign.children[0].children[0].span.id, 3);
        assert_eq!(campaign.children[1].children[0].span.id, 6);
    }

    #[test]
    fn tree_shape_ignores_timing() {
        let spans = vec![
            span(1, None, "parent", 0, 0, 100),
            // Overruns its parent's interval: still its child, unclamped.
            span(2, Some(1), "child", 0, 90, 101),
            // Inside the parent's interval but recorded as top-level.
            span(3, None, "sibling", 0, 10, 20),
        ];
        let tree = build_tree(&spans);
        assert_eq!(names(&tree), ["parent", "sibling"]);
        assert_eq!(names(&tree[0].children), ["child"]);
        assert_eq!(tree[0].children[0].span.end_us, 101);
    }

    #[test]
    fn span_with_unrecorded_parent_is_a_root_and_ties_order_by_id() {
        let spans = vec![
            span(9, Some(4), "b", 0, 5, 5),
            span(7, Some(4), "a", 0, 5, 5),
            span(8, Some(42), "orphan", 1, 0, 3),
            span(4, None, "top", 0, 5, 6),
        ];
        let tree = build_tree(&spans);
        assert_eq!(names(&tree), ["orphan", "top"]);
        assert_eq!(names(&tree[1].children), ["a", "b"]);
    }

    #[test]
    fn collect_spans_reads_span_fields_and_strips_them() {
        let (sink, handle) = telemetry::MemorySink::new();
        let tel = telemetry::Telemetry::builder()
            .with_sink(Box::new(sink))
            .build();
        {
            let outer = tel.span("outer").field("config", Json::str("ref"));
            tel.span("inner").end(telemetry::NO_FIELDS);
            outer.end([("phase_settle_us", Json::from(7u64))]);
        }
        tel.info("not.a.span", "ignored", telemetry::NO_FIELDS);
        let spans = collect_spans(&handle.events());
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.field("config").unwrap().as_str(), Some("ref"));
        for key in SPAN_FIELDS {
            assert!(outer.field(key).is_none(), "{key} not stripped");
        }
        assert_eq!(outer.phases(), vec![("settle", 7)]);
        assert!(outer.end_us >= outer.start_us);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
    }

    #[test]
    fn profile_aggregates_counts_totals_and_self_time() {
        let spans = vec![
            span(1, None, "run", 0, 0, 100),
            span(2, Some(1), "step", 0, 10, 30),
            span(3, Some(1), "step", 0, 40, 70),
            span(4, None, "run", 1, 200, 280),
            span(5, Some(4), "step", 1, 205, 225),
        ];
        let p = build_profile(&spans, &ProfileOptions::default());
        assert_eq!(p.spans, 5);
        assert_eq!(p.tracks, 2);
        let run = &p.roots["run"];
        assert_eq!(run.count, 2);
        assert_eq!(run.total_us, 180);
        let step = &run.children["step"];
        assert_eq!(step.count, 3);
        assert_eq!(step.total_us, 70);
        assert_eq!(run.self_us, 110);
        assert_eq!((step.min_us, step.max_us), (20, 30));
    }

    #[test]
    fn self_time_subtracts_only_same_track_children_and_phases() {
        // jobs=2 shape: the campaign on track 0 assembles on its own
        // track while its cells run on worker tracks 1 and 2.
        let mut cell = span(3, Some(1), "cell", 1, 10, 400);
        cell.fields
            .push(("phase_settle_us".into(), Json::from(300u64)));
        let spans = vec![
            span(1, None, "campaign", 0, 0, 1000),
            span(2, Some(1), "assemble", 0, 900, 950),
            cell,
            span(4, Some(1), "cell", 2, 15, 500),
        ];
        let p = build_profile(&spans, &ProfileOptions::default());
        let campaign = &p.roots["campaign"];
        assert_eq!(campaign.self_us, 950, "the workers' cells ran beside it");
        let cell = &campaign.children["cell"];
        assert_eq!((cell.total_us, cell.self_us), (875, 90 + 485));
        assert_eq!(cell.children["phase:settle"].self_us, 300);
        assert_eq!(campaign.children["assemble"].self_us, 50);
        assert_eq!(p.phase_totals()["settle"], 300);
    }

    #[test]
    fn group_by_splits_nodes_per_field_value() {
        let mut a = span(1, None, "cell", 0, 0, 10);
        a.fields.push(("config".into(), Json::str("ref")));
        let mut b = span(2, None, "cell", 0, 20, 40);
        b.fields.push(("config".into(), Json::str("wide")));
        let p = build_profile(
            &[a, b],
            &ProfileOptions {
                group_by: vec!["config".into()],
            },
        );
        assert!(p.roots.contains_key("cell{config=ref}"));
        assert!(p.roots.contains_key("cell{config=wide}"));
    }

    #[test]
    fn phase_annotations_become_synthetic_children() {
        let mut s = span(1, None, "tb.run", 0, 0, 100);
        s.fields.push(("phase_settle_us".into(), Json::from(60u64)));
        s.fields.push(("phase_drive_us".into(), Json::from(25u64)));
        let p = build_profile(&[s], &ProfileOptions::default());
        let run = &p.roots["tb.run"];
        assert_eq!(run.children["phase:settle"].total_us, 60);
        assert_eq!(run.children["phase:drive"].total_us, 25);
        assert_eq!(run.self_us, 15);
        let phases = p.phase_totals();
        assert_eq!(phases["settle"], 60);
        assert_eq!(phases["drive"], 25);
    }

    #[test]
    fn sub_slice_annotations_nest_under_their_phase() {
        let mut s = span(1, None, "tb.run", 0, 0, 100);
        s.fields.push(("phase_check_us".into(), Json::from(40u64)));
        s.fields
            .push(("phase_check:checker_us".into(), Json::from(30u64)));
        s.fields
            .push(("phase_check:coverage_us".into(), Json::from(8u64)));
        let p = build_profile(&[s], &ProfileOptions::default());
        let run = &p.roots["tb.run"];
        assert_eq!(run.children.keys().collect::<Vec<_>>(), ["phase:check"]);
        assert_eq!(run.self_us, 60, "sub-slices are not counted twice");
        let check = &run.children["phase:check"];
        assert_eq!(check.count, 1);
        assert_eq!(check.children["phase:check:checker"].total_us, 30);
        assert_eq!(check.self_us, 2);
        let phases = p.phase_totals();
        assert_eq!(phases["check"], 40);
        assert_eq!(phases["check:checker"], 30);
        assert_eq!(phases["check:coverage"], 8);
    }

    #[test]
    fn stripped_profiles_render_identically_regardless_of_timing_and_tracks() {
        // The same linked span set spread differently over time, ids and
        // tracks — exactly what different --jobs values produce: serial
        // runs keep cells on the main track, parallel runs scatter them
        // over worker tracks.
        let serial = vec![
            span(1, None, "campaign", 0, 0, 100),
            span(2, Some(1), "cell", 0, 5, 20),
            span(3, Some(1), "cell", 0, 25, 60),
        ];
        let parallel = vec![
            span(10, None, "campaign", 0, 0, 900),
            span(12, Some(10), "cell", 3, 1, 300),
            span(11, Some(10), "cell", 7, 100, 450),
        ];
        let mut a = build_profile(&serial, &ProfileOptions::default());
        let mut b = build_profile(&parallel, &ProfileOptions::default());
        assert_ne!(a.render_text(), b.render_text());
        a.strip_timings();
        b.strip_timings();
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.render_text().matches("cell").count(), 1);
    }

    #[test]
    fn folded_output_lists_self_weighted_paths() {
        let spans = vec![
            span(1, None, "a", 0, 0, 100),
            span(2, Some(1), "b", 0, 10, 40),
        ];
        let p = build_profile(&spans, &ProfileOptions::default());
        let folded = p.render_folded();
        assert_eq!(folded, "a 70\na;b 30\n");
        // A node whose children cover it is still listed.
        let spans = vec![
            span(1, None, "a", 0, 0, 30),
            span(2, Some(1), "b", 0, 0, 30),
        ];
        let folded = build_profile(&spans, &ProfileOptions::default()).render_folded();
        assert_eq!(folded, "a 0\na;b 30\n");
    }
}
