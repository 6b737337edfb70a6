//! From a flat telemetry event stream to a hierarchical profile.
//!
//! The telemetry layer emits one `<scope>.end` event per span, carrying
//! `start_us`, `duration_us` and `track` (the opening thread's ordinal).
//! [`collect_spans`] extracts those into [`SpanRecord`]s;
//! [`build_forest`] reassembles each track's records into proper call
//! trees by interval containment (a span is a child of the innermost
//! same-track span whose interval contains it); [`build_profile`] then
//! folds every tree into one aggregated [`Profile`] keyed by span-name
//! path, with per-node call counts, total/self wall-clock and min/max/
//! mean durations.
//!
//! Spans may also carry *phase annotations*: any end-event field named
//! `phase_<name>_us` becomes a synthetic `phase:<name>` child of the
//! node — the mechanism the testbench uses to attribute scattered
//! per-cycle time (kernel settle, stimulus drive, VCD write, checking)
//! that no contiguous span could represent. A `<name>` of the form
//! `<phase>:<part>` is a sub-slice: its node nests under `phase:<phase>`
//! (so `phase_check:checker_us` becomes `phase:check` →
//! `phase:check:checker`).

use std::collections::BTreeMap;
use telemetry::{Event, Json};

/// One completed span, reconstructed from its `<scope>.end` event.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Span name (the event scope minus the `.end` suffix).
    pub name: String,
    /// Track (thread ordinal) the span ran on.
    pub track: u64,
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

/// Extracts every pairable span from an event stream. Events that are
/// not span ends (or predate the pairing fields) are ignored.
pub fn collect_spans(events: &[Event]) -> Vec<SpanRecord> {
    events
        .iter()
        .filter_map(|e| {
            let name = e.scope.strip_suffix(".end")?;
            let start_us = e.field("start_us")?.as_u64()?;
            let duration_us = e.field("duration_us")?.as_u64()?;
            let track = e.field("track")?.as_u64()?;
            Some(SpanRecord {
                name: name.to_owned(),
                track,
                start_us,
                end_us: start_us + duration_us,
                fields: e
                    .fields
                    .iter()
                    .filter(|(k, _)| k != "start_us" && k != "duration_us" && k != "track")
                    .cloned()
                    .collect(),
            })
        })
        .collect()
}

/// One node of a reconstructed per-track call tree.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// The span, with its interval clamped inside its parent's.
    pub span: SpanRecord,
    /// Children, ordered by start time.
    pub children: Vec<SpanNode>,
}

/// Rebuilds each track's call forest by interval containment.
///
/// Within one track the spans come from a real call stack, so sorting by
/// `(start asc, end desc)` and sweeping with a stack recovers the
/// nesting exactly; a child whose recorded end overruns its parent by a
/// rounding microsecond is clamped to the parent's end. Zero-width spans
/// that exactly coincide with a parent's edge degrade to siblings.
pub fn build_forest(spans: Vec<SpanRecord>) -> BTreeMap<u64, Vec<SpanNode>> {
    let mut by_track: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
    for span in spans {
        by_track.entry(span.track).or_default().push(span);
    }
    by_track
        .into_iter()
        .map(|(track, mut spans)| {
            // End events are emitted child-first, so on fully identical
            // intervals the later record (higher index) is the parent;
            // sort_by is stable, so reversing start/end ties keeps it
            // ahead of its children.
            let mut indexed: Vec<(usize, SpanRecord)> = spans.drain(..).enumerate().collect();
            indexed.sort_by(|(ia, a), (ib, b)| {
                a.start_us
                    .cmp(&b.start_us)
                    .then(b.end_us.cmp(&a.end_us))
                    .then(ib.cmp(ia))
            });
            let mut roots: Vec<SpanNode> = Vec::new();
            let mut stack: Vec<SpanNode> = Vec::new();
            fn attach(stack: &mut [SpanNode], roots: &mut Vec<SpanNode>, node: SpanNode) {
                match stack.last_mut() {
                    Some(top) => top.children.push(node),
                    None => roots.push(node),
                }
            }
            for (_, mut span) in indexed {
                while stack
                    .last()
                    .is_some_and(|top| span.start_us >= top.span.end_us)
                {
                    let node = stack.pop().expect("non-empty by condition");
                    attach(&mut stack, &mut roots, node);
                }
                if let Some(top) = stack.last() {
                    span.end_us = span.end_us.min(top.span.end_us);
                }
                stack.push(SpanNode {
                    span,
                    children: Vec::new(),
                });
            }
            while let Some(node) = stack.pop() {
                attach(&mut stack, &mut roots, node);
            }
            (track, roots)
        })
        .collect()
}

/// Re-parents worker-track roots into the anchor track's tree, producing
/// one jobs-independent forest.
///
/// The anchor track is the one owning the earliest-starting (ties:
/// longest, then lowest-track) root span — in a campaign that is the
/// main thread, whose `regress.campaign` span encloses the fan-out.
/// Every other track's roots are adopted under the innermost *native*
/// anchor node whose interval contains them (concurrent siblings from
/// different workers never nest inside each other, because only
/// anchor-track nodes are considered as parents); roots contained by no
/// anchor node stay top-level. With `jobs = 1` the pool runs inline on
/// the main thread and the spans nest natively, so serial and parallel
/// campaigns yield the same adopted shape — the property the stripped
/// text profile's byte-identity rests on.
pub fn adopt_across_tracks(forest: BTreeMap<u64, Vec<SpanNode>>) -> Vec<SpanNode> {
    let mut anchor: Option<(u64, (u64, u64))> = None;
    for (&track, roots) in &forest {
        for root in roots {
            let key = (root.span.start_us, u64::MAX - root.span.end_us);
            if anchor.is_none_or(|(_, best)| key < best) {
                anchor = Some((track, key));
            }
        }
    }
    let Some((anchor_track, _)) = anchor else {
        return Vec::new();
    };

    let mut anchor_roots: Vec<SpanNode> = Vec::new();
    let mut orphans: Vec<(u64, SpanNode)> = Vec::new();
    for (track, roots) in forest {
        if track == anchor_track {
            anchor_roots = roots;
        } else {
            orphans.extend(roots.into_iter().map(|r| (track, r)));
        }
    }
    // Deterministic adoption order: by interval, then source track.
    orphans.sort_by_key(|(track, r)| (r.span.start_us, u64::MAX - r.span.end_us, *track));

    // Descend only through native anchor nodes: `native` counts how many
    // leading children of each node belong to the anchor track, so
    // previously adopted concurrent spans are never considered parents.
    fn place(nodes: &mut [SpanNode], native: usize, mut orphan: SpanNode) -> Option<SpanNode> {
        for node in nodes.iter_mut().take(native) {
            if node.span.start_us <= orphan.span.start_us && orphan.span.start_us < node.span.end_us
            {
                orphan.span.end_us = orphan.span.end_us.min(node.span.end_us);
                let native_children = node
                    .children
                    .iter()
                    .position(|c| c.span.track != node.span.track)
                    .unwrap_or(node.children.len());
                if let Some(back) = place(&mut node.children, native_children, orphan) {
                    node.children.push(back);
                }
                return None;
            }
        }
        Some(orphan)
    }
    let native = anchor_roots.len();
    let mut top = anchor_roots;
    for (_, orphan) in orphans {
        if let Some(unplaced) = place(&mut top, native, orphan) {
            top.push(unplaced);
        }
    }
    fn sort_children(node: &mut SpanNode) {
        node.children
            .sort_by_key(|c| (c.span.start_us, u64::MAX - c.span.end_us));
        for child in &mut node.children {
            sort_children(child);
        }
    }
    top.sort_by_key(|n| (n.span.start_us, u64::MAX - n.span.end_us));
    for node in &mut top {
        sort_children(node);
    }
    top
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
    /// `total_us` minus the children's totals (clamped at zero).
    pub self_us: u64,
    /// Shortest single span.
    pub min_us: u64,
    /// Longest single span.
    pub max_us: u64,
    /// Child nodes by name.
    pub children: BTreeMap<String, ProfileNode>,
}

impl ProfileNode {
    fn fold(&mut self, duration_us: u64) {
        if self.count == 0 {
            self.min_us = duration_us;
            self.max_us = duration_us;
        } else {
            self.min_us = self.min_us.min(duration_us);
            self.max_us = self.max_us.max(duration_us);
        }
        self.count += 1;
        self.total_us += duration_us;
    }

    fn finalize(&mut self) {
        let children_total: u64 = self.children.values().map(|c| c.total_us).sum();
        self.self_us = self.total_us.saturating_sub(children_total);
        for child in self.children.values_mut() {
            child.finalize();
        }
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
    let entry = map.entry(node_name(&node.span, opts)).or_default();
    entry.fold(node.span.duration_us());
    for child in &node.children {
        add_node(&mut entry.children, child, opts);
    }
    for (phase, us) in node.span.phases() {
        // A `<phase>:<part>` annotation is a sub-slice of `<phase>`.
        let siblings = match phase.split_once(':') {
            Some((outer, _)) => {
                &mut entry
                    .children
                    .entry(format!("phase:{outer}"))
                    .or_default()
                    .children
            }
            None => &mut entry.children,
        };
        siblings
            .entry(format!("phase:{phase}"))
            .or_default()
            .fold(us);
    }
}

/// Folds a span set into an aggregated profile: per-track trees are
/// rebuilt ([`build_forest`]), worker roots re-parented into the anchor
/// tree ([`adopt_across_tracks`]), and same-path nodes folded together.
pub fn build_profile(spans: &[SpanRecord], opts: &ProfileOptions) -> Profile {
    let forest = build_forest(spans.to_vec());
    let mut profile = Profile {
        spans: spans.len() as u64,
        tracks: forest.len() as u64,
        ..Profile::default()
    };
    for node in &adopt_across_tracks(forest) {
        add_node(&mut profile.roots, node, opts);
    }
    for root in profile.roots.values_mut() {
        root.finalize();
    }
    profile
}

impl Profile {
    /// Zeroes every timing figure, leaving names, counts and tree shape.
    /// A stripped profile renders byte-identically for any worker count:
    /// the span *set* of a campaign is a pure function of its inputs,
    /// only the timings (and the track layout, which the render never
    /// shows) vary.
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
    /// `root;child;leaf <self_us>` line per node with nonzero self time,
    /// sorted lexically.
    pub fn render_folded(&self) -> String {
        fn walk(lines: &mut Vec<String>, path: &str, node: &ProfileNode) {
            if node.self_us > 0 {
                lines.push(format!("{path} {}", node.self_us));
            }
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

    fn span(name: &str, track: u64, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_owned(),
            track,
            start_us: start,
            end_us: end,
            fields: Vec::new(),
        }
    }

    #[test]
    fn forest_nests_by_containment_per_track() {
        let spans = vec![
            span("outer", 0, 0, 100),
            span("a", 0, 10, 30),
            span("b", 0, 40, 90),
            span("b.inner", 0, 50, 60),
            span("other", 1, 0, 50),
        ];
        let forest = build_forest(spans);
        assert_eq!(forest.len(), 2);
        let t0 = &forest[&0];
        assert_eq!(t0.len(), 1);
        assert_eq!(t0[0].span.name, "outer");
        assert_eq!(t0[0].children.len(), 2);
        assert_eq!(t0[0].children[0].span.name, "a");
        assert_eq!(t0[0].children[1].span.name, "b");
        assert_eq!(t0[0].children[1].children[0].span.name, "b.inner");
        assert_eq!(forest[&1][0].span.name, "other");
    }

    #[test]
    fn forest_clamps_microsecond_overrun_into_parent() {
        let spans = vec![span("parent", 0, 0, 100), span("child", 0, 90, 101)];
        let forest = build_forest(spans);
        let parent = &forest[&0][0];
        assert_eq!(parent.children[0].span.end_us, 100);
    }

    #[test]
    fn collect_spans_reads_pairing_fields_and_strips_them() {
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
        assert_eq!(outer.field("config").unwrap().as_str(), Some("ref"));
        assert!(outer.field("start_us").is_none());
        assert!(outer.field("track").is_none());
        assert_eq!(outer.phases(), vec![("settle", 7)]);
        assert!(outer.end_us >= outer.start_us);
    }

    #[test]
    fn profile_aggregates_counts_totals_and_self_time() {
        let spans = vec![
            span("run", 0, 0, 100),
            span("step", 0, 10, 30),
            span("step", 0, 40, 70),
            // Disjoint in time, so adoption keeps it a top-level root.
            span("run", 1, 200, 280),
            span("step", 1, 205, 225),
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
    fn group_by_splits_nodes_per_field_value() {
        let mut a = span("cell", 0, 0, 10);
        a.fields.push(("config".into(), Json::str("ref")));
        let mut b = span("cell", 0, 20, 40);
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
        let mut s = span("tb.run", 0, 0, 100);
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
        let mut s = span("tb.run", 0, 0, 100);
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
    fn adoption_reparents_worker_roots_under_the_anchor_tree() {
        // jobs=4 shape: campaign on the main track, overlapping cells on
        // worker tracks, each with a nested child of its own.
        let spans = vec![
            span("campaign", 0, 0, 1000),
            span("assemble", 0, 900, 950),
            span("cell", 3, 10, 400),
            span("tb.run", 3, 20, 390),
            span("cell", 7, 15, 500), // overlaps the track-3 cell
            span("tb.run", 7, 30, 490),
        ];
        let top = adopt_across_tracks(build_forest(spans));
        assert_eq!(top.len(), 1);
        let campaign = &top[0];
        assert_eq!(campaign.span.name, "campaign");
        // Both cells adopted under campaign — never inside each other,
        // despite the temporal overlap — and assemble stays native.
        let names: Vec<&str> = campaign
            .children
            .iter()
            .map(|c| c.span.name.as_str())
            .collect();
        assert_eq!(names, vec!["cell", "cell", "assemble"]);
        assert_eq!(campaign.children[0].children[0].span.name, "tb.run");
    }

    #[test]
    fn stripped_profiles_render_identically_regardless_of_timing_and_tracks() {
        // The same span *set* spread differently over time and tracks —
        // exactly what different --jobs values produce: serial runs nest
        // cells natively on the main track, parallel runs scatter them
        // over worker tracks; adoption folds both into one shape.
        let serial = vec![
            span("campaign", 0, 0, 100),
            span("cell", 0, 5, 20),
            span("cell", 0, 25, 60),
        ];
        let parallel = vec![
            span("campaign", 0, 0, 900),
            span("cell", 3, 1, 300),
            span("cell", 7, 100, 450),
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
        let spans = vec![span("a", 0, 0, 100), span("b", 0, 10, 40)];
        let p = build_profile(&spans, &ProfileOptions::default());
        let folded = p.render_folded();
        assert!(folded.contains("a 70"));
        assert!(folded.contains("a;b 30"));
    }
}
