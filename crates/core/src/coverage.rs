//! The functional-coverage model.
//!
//! "The functional coverage is built in the common verification
//! environment and it can be obtained in both RTL and BCA models (of
//! course they must be equal running the same tests)" (paper §4). The
//! bins below are declared up front from the configuration, so coverage
//! percentages are comparable across runs and views, and 100% is the
//! sign-off goal the twelve-test suite must reach cumulatively.

use crate::monitor::MonitorEvent;
use crate::record::{CycleRecord, PortId};
use stbus_protocol::packet::request_cells;
use stbus_protocol::{NodeConfig, OpKind, Opcode, RspKind, TransferSize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A typed coverage-hole identifier: one never-hit bin of one group.
///
/// Promoted from the formatted `"group/bin"` strings so machine consumers
/// (reports, and the `cdg` bias pass that re-aims the generator at open
/// holes) can match on the parts; [`HoleId::to_string`] still renders the
/// historical `group/bin` form, so textual reports are unchanged.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HoleId {
    /// The coverage group the unhit bin belongs to.
    pub group: String,
    /// The unhit bin's name within the group.
    pub bin: String,
}

impl HoleId {
    /// A hole identifier from group and bin names.
    pub fn new(group: impl Into<String>, bin: impl Into<String>) -> Self {
        HoleId {
            group: group.into(),
            bin: bin.into(),
        }
    }
}

impl std::fmt::Display for HoleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.group, self.bin)
    }
}

/// One named group of coverage bins.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoverageGroup {
    /// Group name.
    pub name: String,
    /// Bin name → hit count. Bins are pre-declared; never-hit bins stay
    /// at zero and count against coverage.
    pub bins: BTreeMap<String, u64>,
}

impl CoverageGroup {
    fn new(name: &str, bins: impl IntoIterator<Item = String>) -> Self {
        CoverageGroup {
            name: name.to_owned(),
            bins: bins.into_iter().map(|b| (b, 0)).collect(),
        }
    }

    /// Fraction of bins hit, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.bins.is_empty() {
            return 1.0;
        }
        self.bins.values().filter(|h| **h > 0).count() as f64 / self.bins.len() as f64
    }

    /// Bins never hit.
    pub fn holes(&self) -> impl Iterator<Item = &str> {
        self.bins
            .iter()
            .filter(|(_, h)| **h == 0)
            .map(|(b, _)| b.as_str())
    }
}

/// A snapshot of all groups, mergeable across runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoverageReport {
    /// All groups, in group-name order (the order
    /// [`FunctionalCoverage::report`] renders them in).
    pub groups: Vec<CoverageGroup>,
}

impl CoverageReport {
    /// Overall coverage: hit bins over declared bins, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        let (hit, total) = self.groups.iter().fold((0usize, 0usize), |(h, t), g| {
            (
                h + g.bins.values().filter(|x| **x > 0).count(),
                t + g.bins.len(),
            )
        });
        if total == 0 {
            1.0
        } else {
            hit as f64 / total as f64
        }
    }

    /// True at the paper's sign-off goal.
    pub fn is_full(&self) -> bool {
        self.groups.iter().all(|g| g.coverage() == 1.0)
    }

    /// Merges `other` into a running total, which the first report
    /// starts.
    pub fn accumulate(total: &mut Option<CoverageReport>, other: &CoverageReport) {
        match total {
            Some(t) => t.merge(other),
            None => *total = Some(other.clone()),
        }
    }

    /// Merges hit counts of another report of the same shape.
    ///
    /// # Panics
    ///
    /// Panics when the reports were built for different configurations.
    pub fn merge(&mut self, other: &CoverageReport) {
        assert_eq!(
            self.groups.len(),
            other.groups.len(),
            "coverage shape mismatch"
        );
        for (a, b) in self.groups.iter_mut().zip(&other.groups) {
            assert_eq!(a.name, b.name, "coverage shape mismatch");
            for (bin, hits) in &b.bins {
                *a.bins.get_mut(bin).expect("coverage shape mismatch") += hits;
            }
        }
    }

    /// True when the two reports hit exactly the same set of bins
    /// (ignoring hit counts, which legitimately differ across views when
    /// unconstrained timing differs).
    pub fn same_hits(&self, other: &CoverageReport) -> bool {
        self.groups.len() == other.groups.len()
            && self.groups.iter().zip(&other.groups).all(|(a, b)| {
                a.name == b.name
                    && a.bins.len() == b.bins.len()
                    && a.bins
                        .iter()
                        .zip(&b.bins)
                        .all(|((ka, va), (kb, vb))| ka == kb && (*va > 0) == (*vb > 0))
            })
    }

    /// All unhit bins as typed [`HoleId`]s, in group order.
    pub fn holes(&self) -> Vec<HoleId> {
        let mut out = Vec::new();
        for g in &self.groups {
            for b in g.holes() {
                out.push(HoleId::new(g.name.as_str(), b));
            }
        }
        out
    }

    /// The number of declared bins across all groups.
    pub fn total_bins(&self) -> usize {
        self.groups.iter().map(|g| g.bins.len()).sum()
    }

    /// The number of bins hit at least once across all groups.
    pub fn hit_bins(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.bins.values().filter(|h| **h > 0).count())
            .sum()
    }
}

impl std::fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "functional coverage: {:6.2}%", self.coverage() * 100.0)?;
        for g in &self.groups {
            writeln!(
                f,
                "  {:<24} {:6.2}%  ({} bins)",
                g.name,
                g.coverage() * 100.0,
                g.bins.len()
            )?;
        }
        Ok(())
    }
}

/// The live functional-coverage collector.
///
/// The bins a configuration declares, numbered in report order, and the
/// table from each hit site to its bin's number are its
/// [`CoverageShape`], built once per configuration on each thread and
/// shared by every run of it ([`crate::cell`]). A hit is one
/// indexed increment into a dense counter vector, so
/// [`FunctionalCoverage::new`] allocates only the per-run counters. The
/// [`CoverageGroup`]s are rendered once, by
/// [`FunctionalCoverage::report`].
#[derive(Debug)]
pub struct FunctionalCoverage {
    shape: Arc<CoverageShape>,
    /// Hit count per bin, numbered in report order (group, then bin).
    hits: Vec<u64>,
    /// Per-initiator wait-cycle counter feeding the stall bins.
    wait: Vec<u64>,
    /// Per-target: was a grant seen last cycle (back-to-back detection)?
    last_grant: Vec<bool>,
    /// Per-target scratch: this cycle's requesting initiators.
    requesters: Vec<u32>,
}

/// What every run of one configuration declares: the groups and bins,
/// and the bin number behind every hit site.
#[derive(Debug)]
pub(crate) struct CoverageShape {
    config: NodeConfig,
    /// The declared groups in report order, every bin at zero.
    declared: Vec<CoverageGroup>,
    sites: BinSites,
    /// Declared bins across all groups.
    n_bins: usize,
}

/// A hit site whose bin is not declared for the configuration (a locked
/// packet on a protocol without locked chunks, say): its hits are
/// dropped, as they always were.
const UNDECLARED: usize = usize::MAX;

/// The bin number behind every hit site, or [`UNDECLARED`].
#[derive(Debug)]
struct BinSites {
    /// `initiator * OpKind::ALL.len() + kind`.
    op_kind: Vec<usize>,
    /// By [`TransferSize`] in [`TransferSize::ALL`] order.
    size: [usize; TransferSize::ALL.len()],
    /// By packet length in cells.
    packet_len: Vec<usize>,
    /// `initiator * n_targets + target`.
    routing: Vec<usize>,
    /// `[ok, error]`.
    response: [usize; 2],
    /// Per target.
    contention: Vec<usize>,
    /// Per target.
    back_to_back: Vec<usize>,
    /// By [`STALL_BINS`] index.
    stall: [usize; STALL_BINS.len()],
    /// By [`Feature`].
    features: [usize; 5],
}

/// Where a declared bin's hits come from.
#[derive(Clone, Copy, Debug)]
enum Site {
    OpKind(usize, OpKind),
    Size(TransferSize),
    PacketLen(usize),
    Routing(usize, usize),
    Response(bool),
    Contention(usize),
    BackToBack(usize),
    Stall(usize),
    Feature(Feature),
}

/// The stall bins, by wait cycles before the grant.
const STALL_BINS: [&str; 4] = ["zero", "short", "medium", "long"];

/// The [`STALL_BINS`] index of a grant after `cycles` of waiting.
fn stall_bin(cycles: u64) -> usize {
    match cycles {
        0 => 0,
        1..=3 => 1,
        4..=15 => 2,
        _ => 3,
    }
}

/// The bins of the `features` group.
#[derive(Clone, Copy, Debug)]
enum Feature {
    MultiCellPacket,
    LockedChunk,
    OutstandingGt1,
    OutOfOrderResponse,
    Reprogrammed,
}

impl Feature {
    fn name(self) -> &'static str {
        match self {
            Feature::MultiCellPacket => "multi_cell_packet",
            Feature::LockedChunk => "locked_chunk",
            Feature::OutstandingGt1 => "outstanding_gt1",
            Feature::OutOfOrderResponse => "out_of_order_response",
            Feature::Reprogrammed => "reprogrammed",
        }
    }
}

impl BinSites {
    fn undeclared(config: &NodeConfig, max_packet_len: usize) -> Self {
        let (ni, nt) = (config.n_initiators, config.n_targets);
        BinSites {
            op_kind: vec![UNDECLARED; ni * OpKind::ALL.len()],
            size: [UNDECLARED; TransferSize::ALL.len()],
            packet_len: vec![UNDECLARED; max_packet_len + 1],
            routing: vec![UNDECLARED; ni * nt],
            response: [UNDECLARED; 2],
            contention: vec![UNDECLARED; nt],
            back_to_back: vec![UNDECLARED; nt],
            stall: [UNDECLARED; STALL_BINS.len()],
            features: [UNDECLARED; 5],
        }
    }

    fn slot(&mut self, site: Site, n_targets: usize) -> &mut usize {
        match site {
            Site::OpKind(i, k) => &mut self.op_kind[i * OpKind::ALL.len() + k as usize],
            Site::Size(s) => &mut self.size[s as usize],
            Site::PacketLen(l) => &mut self.packet_len[l],
            Site::Routing(i, t) => &mut self.routing[i * n_targets + t],
            Site::Response(error) => &mut self.response[usize::from(error)],
            Site::Contention(t) => &mut self.contention[t],
            Site::BackToBack(t) => &mut self.back_to_back[t],
            Site::Stall(k) => &mut self.stall[k],
            Site::Feature(f) => &mut self.features[f as usize],
        }
    }
}

const G_OPKIND: &str = "op_kind";
const G_SIZE: &str = "transfer_size";
const G_ROUTING: &str = "routing";
const G_PKT_LEN: &str = "packet_len";
const G_RSP: &str = "response_kind";
const G_ARB: &str = "arbitration";
const G_STALL: &str = "stall";
const G_FEATURES: &str = "features";

impl CoverageShape {
    /// Declares the bins implied by a configuration.
    pub(crate) fn new(config: &NodeConfig) -> Self {
        let legal = Opcode::all_for(config.protocol);
        let kinds: std::collections::BTreeSet<OpKind> = legal.iter().map(|o| o.kind()).collect();
        let sizes: std::collections::BTreeSet<TransferSize> =
            legal.iter().map(|o| o.size()).collect();
        let lens: std::collections::BTreeSet<usize> = legal
            .iter()
            .map(|o| request_cells(*o, config.protocol, config.bus_bytes))
            .collect();
        let (ni, nt) = (config.n_initiators, config.n_targets);

        // Every group as (bin name, hit site) declarations.
        let mut groups: Vec<(&'static str, Vec<(String, Site)>)> = vec![
            (
                G_OPKIND,
                (0..ni)
                    .flat_map(|i| {
                        kinds
                            .iter()
                            .map(move |&k| (format!("i{i}/{k}"), Site::OpKind(i, k)))
                    })
                    .collect(),
            ),
            (
                G_SIZE,
                sizes
                    .iter()
                    .map(|&s| (format!("{s}B"), Site::Size(s)))
                    .collect(),
            ),
            (
                G_ROUTING,
                (0..ni)
                    .flat_map(|i| {
                        (0..nt).map(move |t| (format!("i{i}->t{t}"), Site::Routing(i, t)))
                    })
                    .collect(),
            ),
            (
                G_PKT_LEN,
                lens.iter()
                    .map(|&l| (format!("{l}cells"), Site::PacketLen(l)))
                    .collect(),
            ),
            (
                G_RSP,
                vec![
                    ("ok".to_owned(), Site::Response(false)),
                    ("error".to_owned(), Site::Response(true)),
                ],
            ),
            (
                G_ARB,
                (0..nt)
                    .flat_map(|t| {
                        [
                            (format!("t{t}/contention"), Site::Contention(t)),
                            (format!("t{t}/back_to_back"), Site::BackToBack(t)),
                        ]
                    })
                    .collect(),
            ),
            (
                G_STALL,
                STALL_BINS
                    .iter()
                    .enumerate()
                    .map(|(k, b)| (b.to_string(), Site::Stall(k)))
                    .collect(),
            ),
        ];
        let mut features = vec![Feature::MultiCellPacket];
        if config.protocol.split_transactions() {
            features.push(Feature::LockedChunk);
            features.push(Feature::OutstandingGt1);
        }
        if config.protocol.allows_out_of_order() {
            features.push(Feature::OutOfOrderResponse);
        }
        if config.prog_port {
            features.push(Feature::Reprogrammed);
        }
        groups.push((
            G_FEATURES,
            features
                .into_iter()
                .map(|f| (f.name().to_owned(), Site::Feature(f)))
                .collect(),
        ));

        // Number the bins in report order: groups by name, bins by name.
        groups.sort_by_key(|(name, _)| *name);
        let mut sites = BinSites::undeclared(config, lens.last().copied().unwrap_or(0));
        let mut declared = Vec::with_capacity(groups.len());
        let mut n_bins = 0;
        for (name, mut bins) in groups {
            bins.sort_by(|a, b| a.0.cmp(&b.0));
            for (_, site) in &bins {
                *sites.slot(*site, nt) = n_bins;
                n_bins += 1;
            }
            declared.push(CoverageGroup::new(
                name,
                bins.into_iter().map(|(bin, _)| bin),
            ));
        }

        CoverageShape {
            config: config.clone(),
            declared,
            sites,
            n_bins,
        }
    }
}

impl FunctionalCoverage {
    /// Declares the bins implied by a configuration: its thread's shared
    /// [`CoverageShape`], and zeroed per-run counters.
    pub fn new(config: &NodeConfig) -> Self {
        let shape = crate::cell::coverage_shape(config);
        let (ni, nt) = (config.n_initiators, config.n_targets);
        FunctionalCoverage {
            hits: vec![0; shape.n_bins],
            wait: vec![0; ni],
            last_grant: vec![false; nt],
            requesters: vec![0; nt],
            shape,
        }
    }

    fn hit(&mut self, bin: usize) {
        if let Some(h) = self.hits.get_mut(bin) {
            *h += 1;
        }
    }

    fn hit_feature(&mut self, feature: Feature) {
        self.hit(self.shape.sites.features[feature as usize]);
    }

    /// Digests one cycle record (arbitration, stall and prog events).
    pub fn observe_cycle(&mut self, rec: &CycleRecord) {
        // Contention & back-to-back per target; each requesting
        // initiator's address is decoded once.
        self.requesters.fill(0);
        let config = &self.shape.config;
        for i in 0..config.n_initiators {
            let (req, cell, _) = rec.init_request(i);
            if req {
                if let Some(t) = config.address_map.decode(cell.addr) {
                    if let Some(n) = self.requesters.get_mut(t.0 as usize) {
                        *n += 1;
                    }
                }
            }
        }
        for t in 0..self.shape.config.n_targets {
            if self.requesters[t] >= 2 {
                self.hit(self.shape.sites.contention[t]);
            }
            let fired = rec.request_fires(PortId::Target(t));
            if fired && self.last_grant[t] {
                self.hit(self.shape.sites.back_to_back[t]);
            }
            self.last_grant[t] = fired;
        }
        // Stall bins per initiator.
        for i in 0..self.shape.config.n_initiators {
            let (req, _, gnt) = rec.init_request(i);
            if req && gnt {
                self.hit(self.shape.sites.stall[stall_bin(self.wait[i])]);
                self.wait[i] = 0;
            } else if req {
                self.wait[i] += 1;
            } else {
                self.wait[i] = 0;
            }
        }
        // Programming-port usage.
        if rec.inputs.prog.is_some() {
            self.hit_feature(Feature::Reprogrammed);
        }
        // Out-of-order delivery: a response fires at an initiator from a
        // target that is not the oldest outstanding — approximated here as
        // two distinct targets responding in the same window; the precise
        // signal comes from packets below.
    }

    /// Digests one monitor event (packets and responses).
    pub fn observe_event(&mut self, event: &MonitorEvent) {
        match event {
            MonitorEvent::RequestPacket {
                port: PortId::Initiator(i),
                packet,
                ..
            } => {
                let op = packet.opcode();
                let len = packet.len();
                self.hit(self.shape.sites.op_kind[i * OpKind::ALL.len() + op.kind() as usize]);
                self.hit(self.shape.sites.size[op.size() as usize]);
                self.hit(
                    self.shape
                        .sites
                        .packet_len
                        .get(len)
                        .copied()
                        .unwrap_or(UNDECLARED),
                );
                let nt = self.shape.config.n_targets;
                if let Some(t) = self.shape.config.address_map.decode(packet.addr()) {
                    let t = t.0 as usize;
                    if t < nt {
                        self.hit(self.shape.sites.routing[i * nt + t]);
                    }
                }
                if len > 1 {
                    self.hit_feature(Feature::MultiCellPacket);
                }
                if packet.cells()[0].lock {
                    self.hit_feature(Feature::LockedChunk);
                }
            }
            MonitorEvent::ResponsePacket {
                port: PortId::Initiator(_),
                packet,
                ..
            } => {
                let error = packet.cells().iter().any(|c| c.kind == RspKind::Error);
                self.hit(self.shape.sites.response[usize::from(error)]);
            }
            _ => {}
        }
    }

    /// Marks the out-of-order bin (driven by the testbench, which tracks
    /// per-initiator request order globally).
    pub fn note_out_of_order(&mut self) {
        self.hit_feature(Feature::OutOfOrderResponse);
    }

    /// Marks the >1-outstanding bin.
    pub fn note_outstanding_gt1(&mut self) {
        self.hit_feature(Feature::OutstandingGt1);
    }

    /// Renders the report.
    pub fn report(&self) -> CoverageReport {
        let mut hits = self.hits.iter();
        let groups = self
            .shape
            .declared
            .iter()
            .map(|g| {
                let mut g = g.clone();
                for (bin, h) in g.bins.values_mut().zip(&mut hits) {
                    *bin = *h;
                }
                g
            })
            .collect();
        CoverageReport { groups }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbus_protocol::packet::PacketParams;
    use stbus_protocol::{DutInputs, DutOutputs, InitiatorId, RequestPacket, TransactionId};

    fn cfg() -> NodeConfig {
        NodeConfig::reference()
    }

    #[test]
    fn bins_are_declared_from_config() {
        let cov = FunctionalCoverage::new(&cfg());
        let report = cov.report();
        assert!(report.coverage() < 0.01);
        assert!(!report.is_full());
        let names: Vec<&str> = report.groups.iter().map(|g| g.name.as_str()).collect();
        assert!(names.contains(&"routing"));
        assert!(names.contains(&"features"));
        // T3 with prog port: ooo + prog bins exist.
        assert!(report
            .holes()
            .iter()
            .any(|h| h.bin.contains("out_of_order")));
        assert!(report.holes().iter().any(|h| h.bin == "reprogrammed"));
        // The typed holes render in the historical group/bin form.
        let ooo = report
            .holes()
            .into_iter()
            .find(|h| h.bin == "out_of_order_response")
            .unwrap();
        assert_eq!(ooo.to_string(), "features/out_of_order_response");
    }

    #[test]
    fn type2_has_no_ooo_bin() {
        let c = NodeConfig::builder("t2")
            .protocol(stbus_protocol::ProtocolType::Type2)
            .build()
            .unwrap();
        let cov = FunctionalCoverage::new(&c);
        assert!(!cov
            .report()
            .holes()
            .iter()
            .any(|h| h.bin.contains("out_of_order")));
    }

    #[test]
    fn groups_come_out_in_name_order() {
        let report = FunctionalCoverage::new(&cfg()).report();
        let names: Vec<&str> = report.groups.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "arbitration",
                "features",
                "op_kind",
                "packet_len",
                "response_kind",
                "routing",
                "stall",
                "transfer_size",
            ]
        );
    }

    #[test]
    fn hits_on_undeclared_bins_are_dropped() {
        // Type 1 has no split transactions, so `features/locked_chunk` is
        // not declared; a locked packet still hits the bins that are.
        let c = NodeConfig::builder("t1")
            .protocol(stbus_protocol::ProtocolType::Type1)
            .build()
            .unwrap();
        let mut cov = FunctionalCoverage::new(&c);
        let empty = cov.report();
        let pkt = RequestPacket::build(
            stbus_protocol::Opcode::load(TransferSize::B1),
            0x40,
            &[],
            PacketParams {
                bus_bytes: c.bus_bytes,
                protocol: c.protocol,
                endianness: c.endianness,
            },
            InitiatorId(0),
            TransactionId(0),
            0,
            true,
        )
        .unwrap();
        assert!(pkt.cells()[0].lock);
        cov.observe_event(&MonitorEvent::RequestPacket {
            port: PortId::Initiator(0),
            cycle: 1,
            start: 1,
            packet: pkt,
        });
        let report = cov.report();
        let features = report.groups.iter().find(|g| g.name == "features").unwrap();
        assert!(!features.bins.contains_key("locked_chunk"));
        assert!(features.bins.values().all(|h| *h == 0));
        assert_eq!(report.total_bins(), empty.total_bins());
        let routing = report.groups.iter().find(|g| g.name == "routing").unwrap();
        assert_eq!(routing.bins["i0->t0"], 1);
        assert_eq!(report.hit_bins(), 4, "op kind, size, length and route");
    }

    #[test]
    fn request_packet_hits_bins() {
        let c = cfg();
        let mut cov = FunctionalCoverage::new(&c);
        let pkt = RequestPacket::build(
            stbus_protocol::Opcode::load(TransferSize::B8),
            0x0100_0000,
            &[],
            PacketParams {
                bus_bytes: c.bus_bytes,
                protocol: c.protocol,
                endianness: c.endianness,
            },
            InitiatorId(1),
            TransactionId(0),
            0,
            false,
        )
        .unwrap();
        cov.observe_event(&MonitorEvent::RequestPacket {
            port: PortId::Initiator(1),
            cycle: 1,
            start: 1,
            packet: pkt,
        });
        let report = cov.report();
        let routing = report.groups.iter().find(|g| g.name == "routing").unwrap();
        assert_eq!(routing.bins["i1->t1"], 1);
        assert_eq!(routing.bins["i0->t0"], 0);
        let sizes = report
            .groups
            .iter()
            .find(|g| g.name == "transfer_size")
            .unwrap();
        assert_eq!(sizes.bins["8B"], 1);
    }

    #[test]
    fn stall_bins_follow_wait_time() {
        let c = cfg();
        let mut cov = FunctionalCoverage::new(&c);
        // 5 cycles of req without gnt, then a grant -> "medium".
        for cycle in 0..6u64 {
            let mut rec = CycleRecord {
                cycle,
                inputs: DutInputs::idle(&c),
                outputs: DutOutputs::idle(&c),
            };
            rec.inputs.initiator[0].req = true;
            if cycle == 5 {
                rec.outputs.initiator[0].gnt = true;
            }
            cov.observe_cycle(&rec);
        }
        let report = cov.report();
        let stall = report.groups.iter().find(|g| g.name == "stall").unwrap();
        assert_eq!(stall.bins["medium"], 1);
        assert_eq!(stall.bins["zero"], 0);
    }

    #[test]
    fn merge_accumulates_and_checks_shape() {
        let c = cfg();
        let mut cov = FunctionalCoverage::new(&c);
        cov.note_out_of_order();
        let mut a = cov.report();
        let b = cov.report();
        a.merge(&b);
        let features = a.groups.iter().find(|g| g.name == "features").unwrap();
        assert_eq!(features.bins["out_of_order_response"], 2);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn merge_rejects_different_configs() {
        let a = FunctionalCoverage::new(&cfg()).report();
        let c2 = NodeConfig::builder("other").initiators(5).build().unwrap();
        let b = FunctionalCoverage::new(&c2).report();
        let mut a = a;
        a.merge(&b);
    }
}
