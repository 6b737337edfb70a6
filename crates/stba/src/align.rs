//! Cycle-by-cycle waveform alignment between two traces (or, through
//! the file-based adapter, two VCD dumps).

use crate::trace::{self, PortTrace, Snap, Trace};
use telemetry::Json;
use vcd::{ParseVcdError, VarId, VcdDocument};

/// The alignment result of one port.
#[derive(Clone, Debug, PartialEq)]
pub struct PortAlignment {
    /// Port scope name, e.g. `init0` or `tgt1`.
    pub port: String,
    /// Cycles on which every variable of the port matched.
    pub matching_cycles: u64,
    /// Total cycles compared.
    pub total_cycles: u64,
    /// First diverging cycle, if any.
    pub first_divergence: Option<u64>,
    /// Variables (short names) that diverged at least once.
    pub diverging_vars: Vec<String>,
}

impl PortAlignment {
    /// Matching cycles over total cycles, in `[0, 1]`.
    pub fn rate(&self) -> f64 {
        if self.total_cycles == 0 {
            1.0
        } else {
            self.matching_cycles as f64 / self.total_cycles as f64
        }
    }
}

/// The full analyzer report for one pair of dumps.
#[derive(Clone, Debug, PartialEq)]
pub struct AlignmentReport {
    /// Per-port alignment, in port order.
    pub ports: Vec<PortAlignment>,
    /// Cycles compared.
    pub cycles: u64,
}

impl AlignmentReport {
    /// The lowest per-port rate — the sign-off figure (target
    /// [`crate::SIGNOFF_RATE`]).
    pub fn min_rate(&self) -> f64 {
        self.ports
            .iter()
            .map(PortAlignment::rate)
            .fold(1.0, f64::min)
    }

    /// The mean per-port rate.
    pub fn mean_rate(&self) -> f64 {
        if self.ports.is_empty() {
            return 1.0;
        }
        self.ports.iter().map(PortAlignment::rate).sum::<f64>() / self.ports.len() as f64
    }

    /// The paper's sign-off criterion: every port at or above `threshold`
    /// ([`crate::SIGNOFF_RATE`] in the paper).
    pub fn signed_off(&self, threshold: f64) -> bool {
        self.min_rate() >= threshold
    }
}

impl std::fmt::Display for AlignmentReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "alignment over {} cycles:", self.cycles)?;
        for p in &self.ports {
            write!(f, "  {:<8} {:7.3}%", p.port, p.rate() * 100.0)?;
            match p.first_divergence {
                Some(c) => writeln!(
                    f,
                    "  first divergence at cycle {c} ({})",
                    p.diverging_vars.join(",")
                )?,
                None => writeln!(f, "  fully aligned")?,
            }
        }
        writeln!(
            f,
            "  min {:7.3}%  mean {:7.3}%",
            self.min_rate() * 100.0,
            self.mean_rate() * 100.0
        )
    }
}

/// Errors from [`compare_vcd`] and the other comparators.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompareVcdError {
    /// One of the dumps failed to parse.
    Parse {
        /// Which input (`"first"`/`"second"`).
        which: &'static str,
        /// The parse error.
        error: ParseVcdError,
    },
    /// The two dumps declare different variable trees.
    StructureMismatch {
        /// Explanation.
        detail: String,
    },
}

impl std::fmt::Display for CompareVcdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompareVcdError::Parse { which, error } => {
                write!(f, "cannot parse {which} dump: {error}")
            }
            CompareVcdError::StructureMismatch { detail } => {
                write!(f, "dumps are structurally different: {detail}")
            }
        }
    }
}

impl std::error::Error for CompareVcdError {}

/// Groups a document's `tb.<port>.<var>` variables by port, ports and
/// variables in declaration order.
pub(crate) fn ports_of(doc: &VcdDocument) -> Vec<(String, Vec<(String, VarId)>)> {
    let mut out: Vec<(String, Vec<(String, VarId)>)> = Vec::new();
    for (id, info) in doc.var_entries() {
        let parts: Vec<&str> = info.path.split('.').collect();
        if parts.len() == 3 && parts[0] == "tb" {
            let var = (parts[2].to_owned(), id);
            match out.iter_mut().find(|(port, _)| port == parts[1]) {
                Some((_, vars)) => vars.push(var),
                None => out.push((parts[1].to_owned(), vec![var])),
            }
        }
    }
    out
}

/// A trace's ports in lexicographic name order — the order every report
/// lists ports in.
fn sorted_ports(trace: &Trace) -> Vec<&PortTrace> {
    let mut ports: Vec<&PortTrace> = trace.ports().iter().collect();
    ports.sort_unstable_by(|x, y| x.name().cmp(y.name()));
    ports
}

fn port_sets_differ(a: &[String], b: &[String]) -> CompareVcdError {
    CompareVcdError::StructureMismatch {
        detail: format!("port sets differ: {a:?} vs {b:?}"),
    }
}

/// Both traces' ports in lexicographic order, paired by name.
///
/// # Errors
///
/// [`CompareVcdError::StructureMismatch`] when the port sets differ.
pub(crate) fn matched_ports<'a>(
    first: &'a Trace,
    second: &'a Trace,
) -> Result<(Vec<&'a PortTrace>, Vec<&'a PortTrace>), CompareVcdError> {
    let (a, b) = (sorted_ports(first), sorted_ports(second));
    if a.iter().map(|p| p.name()).ne(b.iter().map(|p| p.name())) {
        let names = |ports: &[&PortTrace]| -> Vec<String> {
            ports.iter().map(|p| p.name().to_owned()).collect()
        };
        return Err(port_sets_differ(&names(&a), &names(&b)));
    }
    Ok((a, b))
}

/// Describes how two same-named ports' layouts differ.
fn layout_mismatch(a: &PortTrace, b: &PortTrace) -> CompareVcdError {
    let names = |p: &PortTrace| -> Vec<String> {
        p.layout()
            .vars()
            .iter()
            .map(|v| v.name.to_string())
            .collect()
    };
    let detail = match a
        .layout()
        .vars()
        .iter()
        .zip(b.layout().vars())
        .find(|(va, vb)| va.width != vb.width)
    {
        Some((va, vb)) if names(a) == names(b) => format!(
            "port {}: var {} is {} bits vs {}",
            a.name(),
            va.name,
            va.width,
            vb.width
        ),
        _ => format!("port {}: vars {:?} vs {:?}", a.name(), names(a), names(b)),
    };
    CompareVcdError::StructureMismatch { detail }
}

/// Compares two traces cycle by cycle.
///
/// Both traces must declare the same ports (in any order), each with the
/// same variables — names, order and widths — as two runs of the common
/// environment's [`VcdDump`] on one configuration do. The comparison
/// covers `max(a.cycles(), b.cycles())` cycles, i.e. up to and including
/// the last cycle either run recorded: a run that finished earlier holds
/// its last values (VCD semantics), so its missing tail counts as
/// misaligned only where those values differ. A cycle of a port matches
/// when every variable holds the same four-state value in both traces.
/// Ports are reported in lexicographic name order (`init10` before
/// `init2`).
///
/// The walk visits each pair of change-list segments once: O(changes ×
/// variables), independent of how many cycles a segment spans.
///
/// # Errors
///
/// [`CompareVcdError::StructureMismatch`] when the port or variable
/// trees differ.
///
/// [`VcdDump`]: ../catg/struct.VcdDump.html
pub fn compare_traces(first: &Trace, second: &Trace) -> Result<AlignmentReport, CompareVcdError> {
    let (ports_a, ports_b) = matched_ports(first, second)?;
    for (a, b) in ports_a.iter().zip(&ports_b) {
        if a.layout() != b.layout() {
            return Err(layout_mismatch(a, b));
        }
    }
    let cycles = first.cycles().max(second.cycles());
    let ports = ports_a
        .into_iter()
        .zip(ports_b)
        .map(|(a, b)| align_port(a, b, cycles))
        .collect();
    Ok(AlignmentReport { ports, cycles })
}

fn align_port(a: &PortTrace, b: &PortTrace, cycles: u64) -> PortAlignment {
    // Equal change lists hold equal values on every cycle, before the
    // first snapshot and after the last included: nothing to walk. Every
    // view whose verdict was replayed from the first view hits this.
    if a.same_changes(b) {
        return PortAlignment {
            port: a.name().to_owned(),
            matching_cycles: cycles,
            total_cycles: cycles,
            first_divergence: None,
            diverging_vars: Vec::new(),
        };
    }
    walk_port(a, b, cycles)
}

/// [`align_port`] the long way: one visit per pair of change-list
/// segments.
fn walk_port(a: &PortTrace, b: &PortTrace, cycles: u64) -> PortAlignment {
    let vars = a.layout().vars();
    let zeros = vec![0; a.layout().stride()];
    let unknown = Snap::all_unknown(a.layout(), &zeros);
    let mut diverged = vec![false; vars.len()];
    let (mut mismatching, mut first_divergence) = (0u64, None);
    // `seen_*`: snapshots at or before cycle `t`.
    let (mut seen_a, mut seen_b, mut t) = (0usize, 0usize, 0u64);
    while t < cycles {
        while a.cycle(seen_a).is_some_and(|c| c <= t) {
            seen_a += 1;
        }
        while b.cycle(seen_b).is_some_and(|c| c <= t) {
            seen_b += 1;
        }
        let until = [a.cycle(seen_a), b.cycle(seen_b), Some(cycles)]
            .into_iter()
            .flatten()
            .min()
            .expect("cycles bounds the segment");
        let sa = if seen_a == 0 {
            unknown
        } else {
            a.snap(seen_a - 1)
        };
        let sb = if seen_b == 0 {
            unknown
        } else {
            b.snap(seen_b - 1)
        };
        let mut differs = false;
        for (var, diverged) in vars.iter().zip(&mut diverged) {
            if !sa.var_eq(&sb, var) {
                *diverged = true;
                differs = true;
            }
        }
        if differs {
            mismatching += until - t;
            first_divergence.get_or_insert(t);
        }
        t = until;
    }
    PortAlignment {
        port: a.name().to_owned(),
        matching_cycles: cycles - mismatching,
        total_cycles: cycles,
        first_divergence,
        diverging_vars: vars
            .iter()
            .zip(&diverged)
            .filter(|(_, d)| **d)
            .map(|(v, _)| v.name.to_string())
            .collect(),
    }
}

/// [`compare_traces`] with telemetry: wraps the comparison in an
/// `stba.compare` span whose end event carries the comparison duration,
/// and emits one `stba.divergence` warning per diverging port with the
/// first diverging cycle and the variables involved.
///
/// # Errors
///
/// Same as [`compare_traces`].
pub fn compare_traces_with(
    first: &Trace,
    second: &Trace,
    tel: &telemetry::Telemetry,
) -> Result<AlignmentReport, CompareVcdError> {
    CYCLE_ALIGNMENT.observe(tel, trace_sizes(first, second), |timings| {
        let (report, compare_us) = timed(|| compare_traces(first, second));
        timings.push(("compare_us", compare_us));
        report
    })
}

/// Compares two VCD dumps cycle by cycle on a `cycle_time` grid — the
/// paper's file-based flow.
///
/// A thin adapter over [`compare_traces`], whose rules apply: both dumps
/// are parsed and sampled into traces on the grid, over the cycles each
/// spans (its last timestamp over `cycle_time`). The dumps must declare
/// the same `tb.<port>.<var>` trees; a variable declared at different
/// widths is compared at the wider one. Values compare four-state: `x`
/// and `z` equal only themselves, and a literal narrower than the
/// comparison width extends by the VCD rule (its `x`/`z` MSB, else 0).
///
/// # Errors
///
/// [`CompareVcdError::Parse`] on malformed input and
/// [`CompareVcdError::StructureMismatch`] when the variable trees differ.
pub fn compare_vcd(
    first: &str,
    second: &str,
    cycle_time: u64,
) -> Result<AlignmentReport, CompareVcdError> {
    let (a, b) = parse_pair(first, second)?;
    let (a, b) = sample_pair(&a, &b, cycle_time)?;
    compare_traces(&a, &b)
}

/// [`compare_vcd`] with telemetry: wraps the comparison in an
/// `stba.compare` span whose end event carries the extraction (parse and
/// sampling) and comparison durations, and emits one `stba.divergence`
/// warning per diverging port with the first diverging cycle and the
/// variables involved.
///
/// # Errors
///
/// Same as [`compare_vcd`].
pub fn compare_vcd_with(
    first: &str,
    second: &str,
    cycle_time: u64,
    tel: &telemetry::Telemetry,
) -> Result<AlignmentReport, CompareVcdError> {
    CYCLE_ALIGNMENT.observe(tel, text_sizes(first, second), |timings| {
        let (traces, extract_us) = timed(|| {
            let (a, b) = parse_pair(first, second)?;
            sample_pair(&a, &b, cycle_time)
        });
        timings.push(("extract_us", extract_us));
        let (a, b) = traces?;
        let (report, compare_us) = timed(|| compare_traces(&a, &b));
        timings.push(("compare_us", compare_us));
        report
    })
}

pub(crate) fn parse_pair(
    first: &str,
    second: &str,
) -> Result<(VcdDocument, VcdDocument), CompareVcdError> {
    let parse = |text, which| {
        VcdDocument::parse(text).map_err(|error| CompareVcdError::Parse { which, error })
    };
    Ok((parse(first, "first")?, parse(second, "second")?))
}

/// Samples two dumps into traces with identical layouts: the same ports
/// and variables, each at the wider of its two declared widths.
fn sample_pair(
    doc_a: &VcdDocument,
    doc_b: &VcdDocument,
    cycle_time: u64,
) -> Result<(Trace, Trace), CompareVcdError> {
    let mut ports_a = ports_of(doc_a);
    let mut ports_b = ports_of(doc_b);
    ports_a.sort_unstable_by(|x, y| x.0.cmp(&y.0));
    ports_b.sort_unstable_by(|x, y| x.0.cmp(&y.0));
    let names = |ports: &[(String, Vec<(String, VarId)>)]| -> Vec<String> {
        ports.iter().map(|(p, _)| p.clone()).collect()
    };
    if names(&ports_a) != names(&ports_b) {
        return Err(port_sets_differ(&names(&ports_a), &names(&ports_b)));
    }
    let mut widths = Vec::with_capacity(ports_a.len());
    for ((port, vars_a), (_, vars_b)) in ports_a.iter().zip(&ports_b) {
        let var_names = |vars: &[(String, VarId)]| -> Vec<String> {
            vars.iter().map(|(n, _)| n.clone()).collect()
        };
        if var_names(vars_a) != var_names(vars_b) {
            return Err(CompareVcdError::StructureMismatch {
                detail: format!(
                    "port {port}: vars {:?} vs {:?}",
                    var_names(vars_a),
                    var_names(vars_b)
                ),
            });
        }
        widths.push(
            vars_a
                .iter()
                .zip(vars_b)
                .map(|((_, ia), (_, ib))| doc_a.var(*ia).width.max(doc_b.var(*ib).width))
                .collect::<Vec<_>>(),
        );
    }
    Ok((
        trace::sample(doc_a, cycle_time, &ports_a, &widths),
        trace::sample(doc_b, cycle_time, &ports_b, &widths),
    ))
}

/// Runs `f` and returns its result with its duration in microseconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let started = std::time::Instant::now();
    let out = f();
    (out, started.elapsed().as_micros() as u64)
}

pub(crate) fn text_sizes(first: &str, second: &str) -> [(&'static str, Json); 2] {
    [
        ("first_bytes", Json::from(first.len())),
        ("second_bytes", Json::from(second.len())),
    ]
}

pub(crate) fn trace_sizes(first: &Trace, second: &Trace) -> [(&'static str, Json); 2] {
    let changes = |t: &Trace| t.ports().iter().map(PortTrace::len).sum::<usize>();
    [
        ("first_changes", Json::from(changes(first))),
        ("second_changes", Json::from(changes(second))),
    ]
}

/// The telemetry names of one comparison discipline.
pub(crate) struct Discipline {
    /// The span wrapping each comparison.
    pub span: &'static str,
    /// Counter: comparisons made.
    pub compares: &'static str,
    /// Counter: ports compared.
    pub ports: &'static str,
    /// Counter: ports that diverged.
    pub diverging: &'static str,
    /// The per-diverging-port warning scope and message.
    pub warning: (&'static str, &'static str),
    /// Warning field names for the first divergence and the diverging
    /// names.
    pub fields: (&'static str, &'static str),
}

/// The cycle-by-cycle discipline.
pub(crate) const CYCLE_ALIGNMENT: Discipline = Discipline {
    span: "stba.compare",
    compares: "stba.compares",
    ports: "stba.ports_compared",
    diverging: "stba.diverging_ports",
    warning: ("stba.divergence", "port diverges"),
    fields: ("first_cycle", "vars"),
};

impl Discipline {
    /// Runs one comparison inside the discipline's span (opened with
    /// `sizes`; `run` appends its phase durations), then counts it and
    /// warns once per diverging port. A failed comparison only closes
    /// the span.
    pub(crate) fn observe(
        &self,
        tel: &telemetry::Telemetry,
        sizes: [(&'static str, Json); 2],
        run: impl FnOnce(&mut Vec<(&'static str, u64)>) -> Result<AlignmentReport, CompareVcdError>,
    ) -> Result<AlignmentReport, CompareVcdError> {
        let mut span = tel.span(self.span);
        for (key, value) in sizes {
            span.add_field(key, value);
        }
        let mut timings = Vec::new();
        let report = run(&mut timings)?;
        let metrics = tel.metrics();
        metrics.counter(self.compares).inc();
        metrics.counter(self.ports).add(report.ports.len() as u64);
        for p in &report.ports {
            if let Some(first) = p.first_divergence {
                metrics.counter(self.diverging).inc();
                tel.warn(
                    self.warning.0,
                    self.warning.1,
                    [
                        ("port", Json::from(p.port.as_str())),
                        (self.fields.0, Json::from(first)),
                        ("rate", Json::from(p.rate())),
                        (self.fields.1, Json::from(p.diverging_vars.clone())),
                    ],
                );
            }
        }
        span.end(
            timings
                .into_iter()
                .map(|(key, us)| (key, Json::from(us)))
                .chain([
                    ("cycles", Json::from(report.cycles)),
                    ("ports", Json::from(report.ports.len())),
                    ("min_rate", Json::from(report.min_rate())),
                    ("mean_rate", Json::from(report.mean_rate())),
                ]),
        );
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dump(values: &[(u64, &str, u64)]) -> String {
        // A tiny synthetic dump with two ports of one 8-bit var each.
        let mut s = String::from(
            "$timescale 1ns $end\n$scope module tb $end\n$scope module init0 $end\n$var wire 8 ! v $end\n$upscope $end\n$scope module tgt0 $end\n$var wire 8 \" v $end\n$upscope $end\n$upscope $end\n$enddefinitions $end\n",
        );
        let mut time = None;
        for (t, code, v) in values {
            if time != Some(*t) {
                s.push_str(&format!("#{t}\n"));
                time = Some(*t);
            }
            s.push_str(&format!("b{v:08b} {code}\n"));
        }
        s.push_str("#40\n");
        s
    }

    #[test]
    fn identical_dumps_align_fully() {
        let a = dump(&[(0, "!", 1), (0, "\"", 2), (10, "!", 3)]);
        let report = compare_vcd(&a, &a, 10).unwrap();
        assert_eq!(report.cycles, 4);
        assert_eq!(report.min_rate(), 1.0);
        assert!(report.signed_off(crate::SIGNOFF_RATE));
        assert!(report.ports.iter().all(|p| p.first_divergence.is_none()));
    }

    #[test]
    fn single_cycle_divergence_is_localized() {
        let a = dump(&[(0, "!", 1), (0, "\"", 2), (10, "!", 3), (20, "!", 1)]);
        let b = dump(&[(0, "!", 1), (0, "\"", 2), (10, "!", 9), (20, "!", 1)]);
        let report = compare_vcd(&a, &b, 10).unwrap();
        let init0 = &report.ports[0];
        assert_eq!(init0.port, "init0");
        assert_eq!(init0.first_divergence, Some(1));
        assert_eq!(init0.matching_cycles, 3);
        assert_eq!(init0.total_cycles, 4);
        assert_eq!(init0.diverging_vars, vec!["v".to_owned()]);
        // The other port is untouched.
        assert_eq!(report.ports[1].rate(), 1.0);
        assert!((report.min_rate() - 0.75).abs() < 1e-12);
        assert!(!report.signed_off(crate::SIGNOFF_RATE));
    }

    #[test]
    fn structure_mismatch_is_detected() {
        let a = dump(&[(0, "!", 1)]);
        let b = a.replace("init0", "init9");
        let err = compare_vcd(&a, &b, 10).unwrap_err();
        assert!(matches!(err, CompareVcdError::StructureMismatch { .. }));
    }

    #[test]
    fn parse_errors_name_the_side() {
        let a = dump(&[(0, "!", 1)]);
        let err = compare_vcd("garbage", &a, 10).unwrap_err();
        assert!(matches!(err, CompareVcdError::Parse { which: "first", .. }));
        let err = compare_vcd(&a, "garbage", 10).unwrap_err();
        assert!(matches!(
            err,
            CompareVcdError::Parse {
                which: "second",
                ..
            }
        ));
    }

    #[test]
    fn empty_report_means_full_alignment() {
        // A report with no ports (e.g. two dumps whose variable trees are
        // empty) must read as fully aligned, not NaN or 0/0 panics.
        let report = AlignmentReport {
            ports: Vec::new(),
            cycles: 0,
        };
        assert_eq!(report.mean_rate(), 1.0);
        assert_eq!(report.min_rate(), 1.0);
        assert!(report.signed_off(crate::SIGNOFF_RATE));
    }

    #[test]
    fn compare_with_telemetry_emits_span_and_divergence() {
        let (sink, handle) = telemetry::MemorySink::new();
        let tel = telemetry::Telemetry::builder()
            .with_sink(Box::new(sink))
            .build();
        let a = dump(&[(0, "!", 1), (0, "\"", 2), (10, "!", 3), (20, "!", 1)]);
        let b = dump(&[(0, "!", 1), (0, "\"", 2), (10, "!", 9), (20, "!", 1)]);
        let report = compare_vcd_with(&a, &b, 10, &tel).unwrap();
        assert!(report.min_rate() < 1.0);

        let events = handle.events();
        let end = events
            .iter()
            .find(|e| e.scope == "stba.compare.end")
            .expect("compare span end");
        assert!(end.field("extract_us").is_some());
        assert!(end.field("compare_us").is_some());
        let div = events
            .iter()
            .find(|e| e.scope == "stba.divergence")
            .expect("divergence event");
        assert_eq!(
            div.field("port").and_then(telemetry::Json::as_str),
            Some("init0")
        );
        assert_eq!(
            div.field("first_cycle").and_then(telemetry::Json::as_u64),
            Some(1)
        );
        let snap = tel.metrics().snapshot();
        assert_eq!(snap.counters["stba.compares"], 1);
        assert_eq!(snap.counters["stba.diverging_ports"], 1);
    }

    /// A one-port trace with a 1-bit `req` and an 8-bit `v`, recorded
    /// from `(cycle, req, v)` samples.
    fn port_trace(samples: &[(u64, u64, u64)]) -> Trace {
        let layout = std::sync::Arc::new(crate::PortLayout::new([("req", 1), ("v", 8)]));
        let mut trace = Trace::new();
        let port = trace.add_port("init0", layout);
        for &(cycle, req, v) in samples {
            trace.record(port, cycle, &[req, v]);
        }
        trace
    }

    #[test]
    fn equal_change_lists_take_the_fast_path_to_the_walks_report() {
        let base = [(0, 1, 3), (4, 0, 3), (9, 1, 7)];
        let mut one_var = base;
        one_var[1].2 = 4;
        let pairs = [
            ("identical", port_trace(&base), port_trace(&base)),
            ("one variable", port_trace(&base), port_trace(&one_var)),
            // Equal change lists, but the second run went on idle longer.
            (
                "different spans",
                port_trace(&base),
                port_trace(&[(0, 1, 3), (4, 0, 3), (9, 1, 7), (15, 1, 7)]),
            ),
        ];
        for (case, a, b) in &pairs {
            let cycles = a.cycles().max(b.cycles());
            let (pa, pb) = (&a.ports()[0], &b.ports()[0]);
            let walked = walk_port(pa, pb, cycles);
            assert_eq!(align_port(pa, pb, cycles), walked, "{case}");
            let report = compare_traces(a, b).unwrap();
            assert_eq!(report.ports, [walked], "{case}");
        }
        let (_, a, b) = &pairs[2];
        assert!(a.ports()[0].same_changes(&b.ports()[0]));
        assert_ne!(a.cycles(), b.cycles());
        assert_eq!(compare_traces(a, b).unwrap().min_rate(), 1.0);
        let (_, a, b) = &pairs[1];
        let report = compare_traces(a, b).unwrap();
        assert_eq!(report.ports[0].first_divergence, Some(4));
        assert_eq!(report.ports[0].diverging_vars, ["v"]);
    }

    #[test]
    fn report_display_is_readable() {
        let a = dump(&[(0, "!", 1), (0, "\"", 2)]);
        let report = compare_vcd(&a, &a, 10).unwrap();
        let text = report.to_string();
        assert!(text.contains("init0"));
        assert!(text.contains("fully aligned"));
        assert!(text.contains("min"));
    }
}
