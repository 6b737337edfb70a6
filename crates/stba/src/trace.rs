//! The typed per-port trace: the form both STBA comparators work on.
//!
//! The paper's analyzer reads VCD files. Formatting every cycle of every
//! run as VCD text only to parse it straight back used to be most of a
//! regression campaign's time, so the in-memory form is this trace, and
//! VCD text is an export rendered from it ([`Trace::to_vcd`]) or an import
//! sampled into it ([`Trace::from_vcd`], the file-based flow behind
//! [`crate::compare_vcd`]).
//!
//! Per port the trace holds the variable names and widths in declaration
//! order ([`PortLayout`]) and one change list of `(cycle, snapshot)`
//! pairs. A snapshot is the port's whole state as fixed-width `u64`
//! words: each variable sits at a fixed word offset, LSB first, masked to
//! its width. A port gets a snapshot only on a cycle where some variable
//! changed; between snapshots every value holds (VCD semantics).
//!
//! Values recorded from simulation are two-state. A trace sampled from a
//! VCD file may carry `x`/`z`: such a port keeps a second plane of the
//! same shape whose set bits mark unknown bits — `x` where the value bit
//! is 0, `z` where it is 1. Before a port's first snapshot every bit reads
//! `x`, as before a VCD variable's first change.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;
use vcd::{Scalar, VarId, VcdDocument, VcdValue, VcdWriter};

/// Words a variable of `width` bits occupies in a snapshot.
fn words_for(width: usize) -> usize {
    width.div_ceil(64)
}

/// The bits of word `word` that lie below `width`.
fn word_mask(width: usize, word: usize) -> u64 {
    match width.saturating_sub(word * 64) {
        0 => 0,
        n if n >= 64 => u64::MAX,
        n => (1u64 << n) - 1,
    }
}

/// One traced variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceVar {
    /// Short name, e.g. `req`.
    pub name: Cow<'static, str>,
    /// Width in bits (nonzero).
    pub width: usize,
    /// First word of the variable within a snapshot.
    pub offset: usize,
}

impl TraceVar {
    /// The variable's words within a snapshot.
    pub fn words(&self) -> Range<usize> {
        self.offset..self.offset + words_for(self.width)
    }
}

/// The variables of one port, in declaration order, and where each sits
/// in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortLayout {
    vars: Vec<TraceVar>,
    /// The all-`x` unknown plane: every bit below each width set.
    all_unknown: Vec<u64>,
}

impl PortLayout {
    /// Lays out `(name, width)` variables back to back.
    ///
    /// # Panics
    ///
    /// Panics on a zero width.
    pub fn new<N: Into<Cow<'static, str>>>(vars: impl IntoIterator<Item = (N, usize)>) -> Self {
        let mut offset = 0;
        let vars: Vec<TraceVar> = vars
            .into_iter()
            .map(|(name, width)| {
                assert!(width > 0, "variable width must be nonzero");
                let var = TraceVar {
                    name: name.into(),
                    width,
                    offset,
                };
                offset += words_for(width);
                var
            })
            .collect();
        let mut all_unknown = vec![0; offset];
        for var in &vars {
            for (j, w) in var.words().enumerate() {
                all_unknown[w] = word_mask(var.width, j);
            }
        }
        PortLayout { vars, all_unknown }
    }

    /// The variables, in declaration order.
    pub fn vars(&self) -> &[TraceVar] {
        &self.vars
    }

    /// Words per snapshot.
    pub fn stride(&self) -> usize {
        self.all_unknown.len()
    }

    /// The variable called `name`.
    pub fn var(&self, name: &str) -> Option<&TraceVar> {
        self.vars.iter().find(|v| v.name == name)
    }
}

/// One port's state on one cycle: the value plane and, for a four-state
/// port, the unknown plane.
#[derive(Clone, Copy)]
pub(crate) struct Snap<'a> {
    values: &'a [u64],
    unknown: Option<&'a [u64]>,
}

fn planes_eq(a: Option<&[u64]>, b: Option<&[u64]>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a == b,
        (Some(p), None) | (None, Some(p)) => p.iter().all(|w| *w == 0),
        (None, None) => true,
    }
}

impl<'a> Snap<'a> {
    /// The state before a port's first snapshot: every bit `x`.
    pub(crate) fn all_unknown(layout: &'a PortLayout, zeros: &'a [u64]) -> Self {
        Snap {
            values: zeros,
            unknown: Some(&layout.all_unknown),
        }
    }

    fn eq(&self, other: &Snap<'_>) -> bool {
        self.values == other.values && planes_eq(self.unknown, other.unknown)
    }

    /// True when `var` holds the same four-state value in both.
    pub(crate) fn var_eq(&self, other: &Snap<'_>, var: &TraceVar) -> bool {
        let r = var.words();
        self.values[r.clone()] == other.values[r.clone()]
            && planes_eq(
                self.unknown.map(|p| &p[r.clone()]),
                other.unknown.map(|p| &p[r]),
            )
    }

    /// The low 64 bits of `var`, or `None` when any of its bits is `x`
    /// or `z`.
    pub(crate) fn known_u64(&self, var: &TraceVar) -> Option<u64> {
        let r = var.words();
        if let Some(p) = self.unknown {
            if p[r.clone()].iter().any(|w| *w != 0) {
                return None;
            }
        }
        Some(self.values[r.start])
    }

    /// `var` as MSB-first VCD value characters.
    fn digits(&self, var: &TraceVar, out: &mut String) {
        out.clear();
        for i in (0..var.width).rev() {
            let (w, b) = (var.offset + i / 64, i % 64);
            let value = self.values[w] >> b & 1 == 1;
            let unknown = self.unknown.is_some_and(|p| p[w] >> b & 1 == 1);
            out.push(match (unknown, value) {
                (false, false) => '0',
                (false, true) => '1',
                (true, false) => 'x',
                (true, true) => 'z',
            });
        }
    }
}

/// One port's change list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortTrace {
    name: Arc<str>,
    layout: Arc<PortLayout>,
    /// Cycle of each snapshot, strictly increasing.
    cycles: Vec<u64>,
    /// Value planes, `stride` words per snapshot.
    values: Vec<u64>,
    /// Unknown planes, parallel to `values`; empty for a two-state port.
    unknown: Vec<u64>,
}

impl PortTrace {
    fn new(name: Arc<str>, layout: Arc<PortLayout>) -> Self {
        PortTrace {
            name,
            layout,
            cycles: Vec::new(),
            values: Vec::new(),
            unknown: Vec::new(),
        }
    }

    /// The port scope name, e.g. `init0`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The port's variables.
    pub fn layout(&self) -> &PortLayout {
        &self.layout
    }

    /// Snapshots recorded.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// True before the first snapshot.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// The cycle of snapshot `i`.
    pub(crate) fn cycle(&self, i: usize) -> Option<u64> {
        self.cycles.get(i).copied()
    }

    /// True when both change lists are equal: the same snapshot cycles,
    /// value planes and unknown planes.
    pub(crate) fn same_changes(&self, other: &PortTrace) -> bool {
        self.cycles == other.cycles && self.values == other.values && self.unknown == other.unknown
    }

    pub(crate) fn snap(&self, i: usize) -> Snap<'_> {
        let r = i * self.layout.stride()..(i + 1) * self.layout.stride();
        Snap {
            values: &self.values[r.clone()],
            unknown: (!self.unknown.is_empty()).then(|| &self.unknown[r]),
        }
    }

    /// Appends a snapshot unless it equals the last one.
    fn push(&mut self, cycle: u64, state: Snap<'_>) {
        debug_assert_eq!(state.values.len(), self.layout.stride());
        if let Some(last) = self.cycles.last() {
            debug_assert!(cycle > *last, "snapshot cycles must increase");
            if self.snap(self.cycles.len() - 1).eq(&state) {
                return;
            }
        }
        self.cycles.push(cycle);
        self.values.extend_from_slice(state.values);
        match state.unknown {
            Some(p) => self.unknown.extend_from_slice(p),
            None if !self.unknown.is_empty() => {
                let len = self.values.len();
                self.unknown.resize(len, 0);
            }
            None => {}
        }
    }
}

/// A run's typed per-port trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    ports: Vec<PortTrace>,
    cycles: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace with no ports, spanning one cycle.
    pub fn new() -> Self {
        Trace {
            ports: Vec::new(),
            cycles: 1,
        }
    }

    /// Declares a port and returns its index for [`record`](Self::record).
    /// A shared name (`Arc<str>`) is taken without copying.
    pub fn add_port(&mut self, name: impl Into<Arc<str>>, layout: Arc<PortLayout>) -> usize {
        self.ports.push(PortTrace::new(name.into(), layout));
        self.ports.len() - 1
    }

    /// Makes room for `snapshots` more snapshots on port `port`, so
    /// recording them does not regrow its change list.
    pub fn reserve(&mut self, port: usize, snapshots: usize) {
        let port = &mut self.ports[port];
        port.cycles.reserve(snapshots);
        port.values.reserve(snapshots * port.layout.stride());
    }

    /// Records port `port`'s two-state snapshot on `cycle`: one word
    /// plane in its layout, each variable masked to its width. The
    /// snapshot is stored only if it differs from the port's last one.
    /// Cycles must increase from one call to the next on a port.
    pub fn record(&mut self, port: usize, cycle: u64, values: &[u64]) {
        self.cycles = self.cycles.max(cycle + 1);
        self.ports[port].push(
            cycle,
            Snap {
                values,
                unknown: None,
            },
        );
    }

    /// The ports, in declaration order.
    pub fn ports(&self) -> &[PortTrace] {
        &self.ports
    }

    /// The port called `name`.
    pub fn port(&self, name: &str) -> Option<&PortTrace> {
        self.ports.iter().find(|p| &*p.name == name)
    }

    /// The cycles the trace spans: one past the last recorded cycle, and
    /// at least 1. A VCD rendering ends at `cycles × cycle_time`.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// FNV-1a 64 digest of the whole trace: layouts, change lists and
    /// span. Equal traces have equal digests on every host.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.cycles);
        h.u64(self.ports.len() as u64);
        for port in &self.ports {
            h.str(&port.name);
            h.u64(port.layout.vars.len() as u64);
            for var in &port.layout.vars {
                h.str(&var.name);
                h.u64(var.width as u64);
            }
            for words in [&port.cycles, &port.values, &port.unknown] {
                h.u64(words.len() as u64);
                words.iter().for_each(|w| h.u64(*w));
            }
        }
        h.0
    }

    /// Renders the trace as VCD text: a `tb` scope holding one scope per
    /// port, `1ns` time units, `cycle_time` units per cycle, the all-`x`
    /// `$dumpvars` block, then at each snapshot's time the variables that
    /// changed, ports in declaration order, variables in layout order.
    pub fn to_vcd(&self, cycle_time: u64) -> String {
        let mut writer = VcdWriter::new(Vec::new(), "1ns");
        writer.push_scope("tb");
        let ids: Vec<Vec<VarId>> = self
            .ports
            .iter()
            .map(|port| {
                writer.push_scope(&port.name);
                let ids = port
                    .layout
                    .vars
                    .iter()
                    .map(|v| writer.add_var(&v.name, v.width))
                    .collect();
                writer.pop_scope();
                ids
            })
            .collect();
        writer.pop_scope();
        writer.begin().expect("in-memory write cannot fail");

        let mut next = vec![0usize; self.ports.len()];
        let mut digits = String::new();
        while let Some(cycle) = self
            .ports
            .iter()
            .zip(&next)
            .filter_map(|(p, &i)| p.cycle(i))
            .min()
        {
            let time = cycle * cycle_time;
            for (p, port) in self.ports.iter().enumerate() {
                let i = next[p];
                if port.cycle(i) != Some(cycle) {
                    continue;
                }
                let now = port.snap(i);
                let before = i.checked_sub(1).map(|j| port.snap(j));
                for (var, id) in port.layout.vars.iter().zip(&ids[p]) {
                    if before.is_some_and(|b| b.var_eq(&now, var)) {
                        continue;
                    }
                    now.digits(var, &mut digits);
                    writer
                        .change_digits(time, *id, &digits)
                        .expect("in-memory write cannot fail");
                }
                next[p] += 1;
            }
        }
        let buf = writer
            .finish(self.cycles * cycle_time)
            .expect("in-memory write cannot fail");
        String::from_utf8(buf).expect("vcd is ascii")
    }

    /// Samples a parsed dump into a trace: every `tb.<port>.<var>`
    /// variable, ports and variables in declaration order, at their
    /// declared widths, on the `cycle_time` grid of the cycles the dump
    /// spans (`end_time / cycle_time`, at least 1). Values keep `x`/`z`;
    /// a literal shorter than its variable extends by the VCD rule (its
    /// `x`/`z` MSB, else 0), and one wider is cut to the width.
    pub fn from_vcd(doc: &VcdDocument, cycle_time: u64) -> Trace {
        let ports = crate::align::ports_of(doc);
        let widths: Vec<Vec<usize>> = ports
            .iter()
            .map(|(_, vars)| vars.iter().map(|(_, id)| doc.var(*id).width).collect())
            .collect();
        sample(doc, cycle_time, &ports, &widths)
    }
}

/// The cycles a parsed dump spans on a `cycle_time` grid.
pub(crate) fn doc_cycles(doc: &VcdDocument, cycle_time: u64) -> u64 {
    (doc.end_time() / cycle_time.max(1)).max(1)
}

/// Samples `ports` (as [`crate::align::ports_of`] groups them) of `doc`
/// into a trace, each variable at the given width.
pub(crate) fn sample(
    doc: &VcdDocument,
    cycle_time: u64,
    ports: &[(String, Vec<(String, VarId)>)],
    widths: &[Vec<usize>],
) -> Trace {
    let cycle_time = cycle_time.max(1);
    let mut trace = Trace {
        ports: Vec::with_capacity(ports.len()),
        cycles: doc_cycles(doc, cycle_time),
    };
    for ((name, vars), widths) in ports.iter().zip(widths) {
        let layout = Arc::new(PortLayout::new(
            vars.iter()
                .zip(widths)
                .map(|((var, _), width)| (var.clone(), *width)),
        ));
        let mut port = PortTrace::new(name.as_str().into(), Arc::clone(&layout));
        let mut values = vec![0; layout.stride()];
        let mut unknown = layout.all_unknown.clone();
        // Per variable, the number of its changes at or before the
        // current sample: a variable is re-encoded only when it moves.
        let mut seen = vec![0usize; vars.len()];
        for k in 0..trace.cycles {
            let t = k * cycle_time;
            for (((_, id), var), seen) in vars.iter().zip(&layout.vars).zip(&mut seen) {
                let list = doc.changes(*id);
                let before = *seen;
                while *seen < list.len() && list[*seen].0 <= t {
                    *seen += 1;
                }
                if *seen != before {
                    encode(&list[*seen - 1].1, var, &mut values, &mut unknown);
                }
            }
            port.push(
                k,
                Snap {
                    values: &values,
                    unknown: Some(&unknown),
                },
            );
        }
        if port.unknown.iter().all(|w| *w == 0) {
            port.unknown.clear();
        }
        trace.ports.push(port);
    }
    trace
}

/// Writes `value`, extended or cut to `var`'s width, into its words.
fn encode(value: &VcdValue, var: &TraceVar, values: &mut [u64], unknown: &mut [u64]) {
    let r = var.words();
    values[r.clone()].fill(0);
    unknown[r].fill(0);
    for i in 0..var.width {
        let (w, bit) = (var.offset + i / 64, 1u64 << (i % 64));
        match value.bit(i) {
            Scalar::V0 => {}
            Scalar::V1 => values[w] |= bit,
            Scalar::X => unknown[w] |= bit,
            Scalar::Z => {
                values[w] |= bit;
                unknown[w] |= bit;
            }
        }
    }
}

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> Arc<PortLayout> {
        Arc::new(PortLayout::new([("req", 1), ("data", 72), ("be", 9)]))
    }

    #[test]
    fn layout_packs_words_and_masks() {
        let l = layout();
        assert_eq!(l.stride(), 4);
        assert_eq!(l.var("data").unwrap().words(), 1..3);
        assert_eq!(l.var("be").unwrap().offset, 3);
        assert_eq!(l.all_unknown, vec![1, u64::MAX, 0xFF, 0x1FF]);
        assert!(l.var("gnt").is_none());
    }

    #[test]
    fn record_keeps_only_changes_and_extends_the_span() {
        let mut t = Trace::new();
        let p = t.add_port("init0", layout());
        t.record(p, 0, &[1, 5, 0, 3]);
        t.record(p, 1, &[1, 5, 0, 3]);
        t.record(p, 2, &[0, 5, 0, 3]);
        t.record(p, 3, &[0, 5, 0, 3]);
        assert_eq!(t.cycles(), 4);
        assert_eq!(t.ports()[0].cycles, vec![0, 2]);
        assert_eq!(t.ports()[0].values, vec![1, 5, 0, 3, 0, 5, 0, 3]);
        assert!(t.ports()[0].unknown.is_empty(), "two-state");
    }

    #[test]
    fn render_and_sample_round_trip() {
        let mut t = Trace::new();
        let p = t.add_port("init0", layout());
        let q = t.add_port("tgt0", layout());
        t.record(p, 0, &[1, u64::MAX, 0xAB, 0x100]);
        t.record(q, 0, &[0, 0, 0, 0]);
        t.record(p, 1, &[0, 7, 0, 0x1FF]);
        t.record(q, 1, &[0, 0, 0, 0]);
        let text = t.to_vcd(10);
        assert!(text.contains("$var wire 72 \" data $end"));
        assert!(text.contains("#10\n0!\n"));
        assert!(text.ends_with("#20\n"));
        let doc = VcdDocument::parse(&text).unwrap();
        assert_eq!(Trace::from_vcd(&doc, 10), t);
        assert_eq!(Trace::from_vcd(&doc, 10).digest(), t.digest());
    }

    #[test]
    fn sampling_keeps_four_states_and_extends_short_literals() {
        let text = "$scope module tb $end\n$scope module init0 $end\n\
            $var wire 4 ! v $end\n$upscope $end\n$upscope $end\n$enddefinitions $end\n\
            #10\nbx !\n#20\nb1 !\n#30\n";
        let doc = VcdDocument::parse(text).unwrap();
        let t = Trace::from_vcd(&doc, 10);
        assert_eq!(t.cycles(), 3);
        let port = &t.ports()[0];
        assert!(!port.unknown.is_empty(), "four-state");
        let var = &port.layout().vars()[0];
        // Cycle 0 is before the first change: all x, like cycle 1's
        // MSB-extended `x` literal, so only cycle 2's `b1` is a new
        // snapshot.
        assert_eq!(port.len(), 2);
        assert_eq!(port.snap(0).known_u64(var), None);
        assert_eq!(port.snap(1).known_u64(var), Some(1));
        let mut digits = String::new();
        port.snap(0).digits(var, &mut digits);
        assert_eq!(digits, "xxxx");
        port.snap(1).digits(var, &mut digits);
        assert_eq!(digits, "0001");
    }

    #[test]
    fn digest_sees_every_part() {
        let mut a = Trace::new();
        let p = a.add_port("init0", layout());
        a.record(p, 0, &[1, 0, 0, 0]);
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.record(p, 5, &[1, 0, 0, 0]);
        assert_ne!(a.digest(), b.digest(), "span");
        let mut c = a.clone();
        c.record(p, 1, &[1, 0, 0, 1]);
        c.cycles = a.cycles;
        assert_ne!(a.digest(), c.digest(), "values");
    }
}
