//! Protocol checkers: the automatic interface checks of the common
//! environment, enforcing the [`stbus_protocol::rules`] catalogue at every
//! port of whichever design view is plugged in.

use crate::record::{CycleRecord, PortId};
use stbus_protocol::packet::{request_cells, response_cells};
use stbus_protocol::rules::RuleId;
use stbus_protocol::{NodeConfig, Opcode, ReqCell, RspCell};
use std::collections::{BTreeMap, VecDeque};

/// What kind of check a [`Violation`] comes from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ViolationKind {
    /// A protocol rule from the catalogue.
    Rule(RuleId),
    /// The starvation watchdog (an environment-level check).
    Starvation,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::Rule(r) => write!(f, "{r}"),
            ViolationKind::Starvation => f.write_str("WATCHDOG-STARVE"),
        }
    }
}

/// One recorded check failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// Which check failed.
    pub kind: ViolationKind,
    /// Where.
    pub port: PortId,
    /// When.
    pub cycle: u64,
    /// Human-readable details.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} @ {} cycle {}] {}",
            self.kind, self.port, self.cycle, self.message
        )
    }
}

/// Summary of a checker run.
#[derive(Clone, Debug, Default)]
pub struct CheckerReport {
    /// Recorded failures (capped; see `suppressed`).
    pub violations: Vec<Violation>,
    /// Failures beyond the recording cap.
    pub suppressed: u64,
    /// Number of successful evaluations per rule.
    pub checks_passed: BTreeMap<RuleId, u64>,
}

impl CheckerReport {
    /// True when no check failed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }

    /// Total failed checks.
    pub fn total_violations(&self) -> u64 {
        self.violations.len() as u64 + self.suppressed
    }

    /// Total passed checks over all rules.
    pub fn total_checks(&self) -> u64 {
        self.checks_passed.values().sum()
    }

    /// The distinct kinds that failed.
    pub fn failing_kinds(&self) -> Vec<ViolationKind> {
        let mut kinds: Vec<ViolationKind> = self.violations.iter().map(|v| v.kind).collect();
        kinds.sort_by_key(|k| format!("{k}"));
        kinds.dedup();
        kinds
    }
}

const VIOLATION_CAP: usize = 200;

#[derive(Clone, Debug)]
struct ReqProgress {
    opcode: Opcode,
    addr: u64,
    expected: usize,
    count: usize,
}

#[derive(Clone, Debug)]
struct RspProgress {
    expected: usize,
    count: usize,
}

#[derive(Debug, Clone)]
struct OutEntry {
    target: Option<usize>,
    tid: u8,
    opcode: Opcode,
}

/// The protocol checker bank: one logical checker per port plus the
/// cross-port ordering checks, all fed by [`CycleRecord`]s.
///
/// Per-port state lives in vectors indexed by a dense port slot
/// (initiators first, then targets), and passing checks count into a
/// fixed array over [`RuleId::ALL`], so a cycle's checks touch no hash
/// table and allocate nothing; the report's `checks_passed` map is built
/// once, when the report is taken.
#[derive(Debug)]
pub struct ProtocolChecker {
    config: NodeConfig,
    /// Per port slot: the request cell held while `req && !gnt`.
    held_req: Vec<Option<ReqCell>>,
    /// Per port slot: the response cell held while `r_req && !r_gnt`.
    held_rsp: Vec<Option<RspCell>>,
    /// Per port slot: the request packet in transfer.
    req_prog: Vec<Option<ReqProgress>>,
    /// Per initiator: the response packet in transfer.
    rsp_prog: Vec<Option<RspProgress>>,
    outstanding: Vec<VecDeque<OutEntry>>,
    chunk_owner: Vec<Option<u8>>,
    pkt_owner: Vec<Option<u8>>,
    wait: Vec<u64>,
    starvation_limit: u64,
    /// Passing checks per rule, indexed like [`RuleId::ALL`].
    passed: [u64; RuleId::ALL.len()],
    violations: Vec<Violation>,
    suppressed: u64,
}

impl ProtocolChecker {
    /// A checker bank for one node configuration.
    pub fn new(config: &NodeConfig) -> Self {
        let ports = config.n_initiators + config.n_targets;
        ProtocolChecker {
            held_req: vec![None; ports],
            held_rsp: vec![None; ports],
            req_prog: vec![None; ports],
            rsp_prog: vec![None; config.n_initiators],
            outstanding: vec![VecDeque::new(); config.n_initiators],
            chunk_owner: vec![None; config.n_targets],
            pkt_owner: vec![None; config.n_targets],
            wait: vec![0; config.n_initiators],
            starvation_limit: 500,
            passed: [0; RuleId::ALL.len()],
            violations: Vec::new(),
            suppressed: 0,
            config: config.clone(),
        }
    }

    /// Overrides the starvation watchdog threshold (default 500 cycles).
    pub fn set_starvation_limit(&mut self, cycles: u64) {
        self.starvation_limit = cycles;
    }

    /// A snapshot of the accumulated report.
    pub fn report(&self) -> CheckerReport {
        CheckerReport {
            violations: self.violations.clone(),
            suppressed: self.suppressed,
            checks_passed: self.checks_passed(),
        }
    }

    /// Consumes the checker, yielding the final report.
    pub fn into_report(self) -> CheckerReport {
        CheckerReport {
            checks_passed: self.checks_passed(),
            violations: self.violations,
            suppressed: self.suppressed,
        }
    }

    /// The rule counters as the report's map: rules that never passed
    /// are left out.
    fn checks_passed(&self) -> BTreeMap<RuleId, u64> {
        RuleId::ALL
            .into_iter()
            .zip(self.passed)
            .filter(|(_, n)| *n > 0)
            .collect()
    }

    /// The dense slot of a port: initiators first, then targets.
    fn slot(&self, port: PortId) -> usize {
        match port {
            PortId::Initiator(i) => i,
            PortId::Target(t) => self.config.n_initiators + t,
        }
    }

    fn pass(&mut self, rule: RuleId) {
        // `RuleId::ALL` lists the rules in declaration order.
        self.passed[rule as usize] += 1;
    }

    fn fail(&mut self, kind: ViolationKind, port: PortId, cycle: u64, message: String) {
        if self.violations.len() < VIOLATION_CAP {
            self.violations.push(Violation {
                kind,
                port,
                cycle,
                message,
            });
        } else {
            self.suppressed += 1;
        }
    }

    fn check(
        &mut self,
        ok: bool,
        rule: RuleId,
        port: PortId,
        cycle: u64,
        msg: impl FnOnce() -> String,
    ) {
        if ok {
            self.pass(rule);
        } else {
            self.fail(ViolationKind::Rule(rule), port, cycle, msg());
        }
    }

    /// The expected byte-enable mask of one request cell.
    fn expected_be(&self, opcode: Opcode, pkt_addr: u64) -> u32 {
        if !opcode.has_request_data() {
            return 0;
        }
        let bus = self.config.bus_bytes;
        let size = opcode.size().bytes();
        if size < bus {
            let offset = (pkt_addr as usize) % bus;
            (((1u64 << size) - 1) << offset) as u32
        } else {
            self.config.full_be()
        }
    }

    /// Digests one cycle.
    pub fn observe(&mut self, rec: &CycleRecord) {
        let ni = self.config.n_initiators;
        let nt = self.config.n_targets;
        for i in 0..ni {
            self.observe_request_side(rec, PortId::Initiator(i));
            self.observe_initiator_response(rec, i);
            self.watchdog(rec, i);
        }
        for t in 0..nt {
            self.observe_request_side(rec, PortId::Target(t));
            self.observe_target_chunks(rec, t);
            self.observe_response_stability(rec, PortId::Target(t));
        }
    }

    /// Stability + cell/packet rules on the request phase of any port.
    fn observe_request_side(&mut self, rec: &CycleRecord, port: PortId) {
        let (req, cell, gnt) = rec.request_at(port);
        let cell = *cell;
        let cycle = rec.cycle;
        let slot = self.slot(port);

        // R-REQ-STABLE: while req is held across cycles without a grant,
        // the presented cell must not change.
        if req {
            if let Some(prev) = self.held_req[slot] {
                self.check(prev == cell, RuleId::ReqStable, port, cycle, || {
                    format!("cell changed while waiting for gnt: {prev:?} -> {cell:?}")
                });
            }
        }
        self.held_req[slot] = (req && !gnt).then_some(cell);

        // R-GNT at initiator ports: the node must not grant thin air.
        if let PortId::Initiator(_) = port {
            self.check(req || !gnt, RuleId::GrantWithoutReq, port, cycle, || {
                "gnt asserted without req".to_owned()
            });
        }

        if !(req && gnt) {
            return;
        }

        // A cell transferred: per-cell and per-packet rules.
        if self.req_prog[slot].is_none() {
            let protocol = self.config.protocol;
            self.check(
                cell.opcode.legal_for(protocol),
                RuleId::OpcodeLegal,
                port,
                cycle,
                || format!("opcode {} illegal on {}", cell.opcode, protocol),
            );
            let align = cell.opcode.size().bytes() as u64;
            self.check(
                cell.addr % align == 0,
                RuleId::AddrAligned,
                port,
                cycle,
                || format!("address {:#x} unaligned to {align}", cell.addr),
            );
            self.req_prog[slot] = Some(ReqProgress {
                opcode: cell.opcode,
                addr: cell.addr,
                expected: request_cells(cell.opcode, self.config.protocol, self.config.bus_bytes),
                count: 0,
            });
        }
        let (opcode, addr, expected, count) = {
            let p = self.req_prog[slot].as_mut().expect("inserted above");
            p.count += 1;
            (p.opcode, p.addr, p.expected, p.count)
        };

        self.check(
            cell.opcode == opcode,
            RuleId::EopPosition,
            port,
            cycle,
            || format!("opcode changed mid-packet: {} -> {}", opcode, cell.opcode),
        );
        let be_expected = self.expected_be(opcode, addr);
        self.check(
            cell.be == be_expected,
            RuleId::ByteEnable,
            port,
            cycle,
            || {
                format!(
                    "byte enables {:#010b} != expected {:#010b} for {} at {:#x}",
                    cell.be, be_expected, opcode, addr
                )
            },
        );

        if cell.eop {
            self.check(count == expected, RuleId::EopPosition, port, cycle, || {
                format!("eop after {count} cells, expected {expected} for {opcode}")
            });
            self.req_prog[slot] = None;
            // Outstanding bookkeeping happens at the initiator boundary.
            if let PortId::Initiator(i) = port {
                self.outstanding[i].push_back(OutEntry {
                    target: self.config.address_map.decode(addr).map(|t| t.0 as usize),
                    tid: cell.tid.0,
                    opcode,
                });
            }
        } else if count >= expected {
            self.fail(
                ViolationKind::Rule(RuleId::EopPosition),
                port,
                cycle,
                format!("packet exceeds {expected} cells without eop"),
            );
            self.req_prog[slot] = None;
        }
    }

    /// Ordering, tid and length rules on responses at an initiator port.
    fn observe_initiator_response(&mut self, rec: &CycleRecord, i: usize) {
        let port = PortId::Initiator(i);
        let (r_req, cell, r_gnt) = rec.init_response(i);
        let cell = *cell;
        let cycle = rec.cycle;

        // R-RSP-STABLE.
        if r_req {
            if let Some(prev) = self.held_rsp[i] {
                self.check(prev == cell, RuleId::RspStable, port, cycle, || {
                    format!("response cell changed while waiting for r_gnt: {prev:?} -> {cell:?}")
                });
            }
        }
        self.held_rsp[i] = (r_req && !r_gnt).then_some(cell);

        if !(r_req && r_gnt) {
            return;
        }

        if self.rsp_prog[i].is_none() {
            // Identify the responder: a target port delivering to i this
            // cycle, or (`None`) the internal error responder.
            let responder = (0..self.config.n_targets).find(|t| {
                let (tr, tc, tg) = rec.target_response(*t);
                tr && tg && tc.src.0 as usize == i
            });
            let ordered = !self.config.protocol.allows_out_of_order();

            // Find the outstanding entry this response answers.
            let pos = if ordered {
                // Must be the oldest outstanding (R-ORDER).
                let front_target = self.outstanding[i].front().map(|e| e.target);
                let front_matches = front_target == Some(responder);
                self.check(front_matches, RuleId::OrderedResponse, port, cycle, || {
                    format!(
                        "response from {responder:?} but oldest outstanding is {front_target:?}"
                    )
                });
                if front_matches {
                    Some(0)
                } else {
                    // fall back to any matching responder to keep state sane
                    self.outstanding[i]
                        .iter()
                        .position(|e| e.target == responder)
                }
            } else {
                // R-TID: the (responder, tid) pair must be outstanding.
                let pos = self.outstanding[i]
                    .iter()
                    .position(|e| e.target == responder && e.tid == cell.tid.0);
                self.check(pos.is_some(), RuleId::TidMatch, port, cycle, || {
                    format!(
                        "response tid {} from {:?} matches no outstanding request",
                        cell.tid, responder
                    )
                });
                pos.or_else(|| {
                    self.outstanding[i]
                        .iter()
                        .position(|e| e.target == responder)
                })
            };

            self.check(pos.is_some(), RuleId::OrphanResponse, port, cycle, || {
                format!("response from {responder:?} with no outstanding request")
            });

            let expected = pos
                .and_then(|p| self.outstanding[i].get(p))
                .map(|e| response_cells(e.opcode, self.config.protocol, self.config.bus_bytes))
                .unwrap_or(1);
            if let Some(p) = pos {
                self.outstanding[i].remove(p);
            }
            self.rsp_prog[i] = Some(RspProgress { expected, count: 0 });
        }

        let (expected, count) = {
            let p = self.rsp_prog[i].as_mut().expect("inserted above");
            p.count += 1;
            (p.expected, p.count)
        };

        if cell.eop {
            self.check(count == expected, RuleId::RspLength, port, cycle, || {
                format!("response of {count} cells, expected {expected}")
            });
            self.rsp_prog[i] = None;
        } else if count >= expected {
            self.fail(
                ViolationKind::Rule(RuleId::RspLength),
                port,
                cycle,
                format!("response exceeds {expected} cells without eop"),
            );
            self.rsp_prog[i] = None;
        }
    }

    /// Chunk atomicity and packet atomicity at a target port.
    fn observe_target_chunks(&mut self, rec: &CycleRecord, t: usize) {
        let port = PortId::Target(t);
        if !rec.request_fires(port) {
            return;
        }
        let (_, cell, _) = rec.target_request(t);
        let cell = *cell;
        let cycle = rec.cycle;

        if self.config.protocol.split_transactions() {
            if let Some(owner) = self.chunk_owner[t] {
                self.check(
                    cell.src.0 == owner,
                    RuleId::ChunkAtomic,
                    port,
                    cycle,
                    || {
                        format!(
                            "source {} interleaved inside I{}'s locked chunk",
                            cell.src, owner
                        )
                    },
                );
            }
        }
        if let Some(owner) = self.pkt_owner[t] {
            self.check(
                cell.src.0 == owner,
                RuleId::ChunkAtomic,
                port,
                cycle,
                || format!("source {} interleaved inside I{}'s packet", cell.src, owner),
            );
        }
        self.pkt_owner[t] = if cell.eop { None } else { Some(cell.src.0) };
        if cell.lock {
            self.chunk_owner[t] = Some(cell.src.0);
        } else if cell.eop {
            self.chunk_owner[t] = None;
        }
    }

    /// R-RSP-STABLE on the target side (the target BFM's own outputs are
    /// also watched — "some bugs could be given by verification
    /// environment").
    fn observe_response_stability(&mut self, rec: &CycleRecord, port: PortId) {
        let (r_req, cell, r_gnt) = rec.response_at(port);
        let cell = *cell;
        let slot = self.slot(port);
        if r_req {
            if let Some(prev) = self.held_rsp[slot] {
                self.check(prev == cell, RuleId::RspStable, port, rec.cycle, || {
                    format!("target response cell changed while stalled: {prev:?} -> {cell:?}")
                });
            }
        }
        self.held_rsp[slot] = (r_req && !r_gnt).then_some(cell);
    }

    /// The starvation watchdog.
    fn watchdog(&mut self, rec: &CycleRecord, i: usize) {
        let (req, _, gnt) = rec.init_request(i);
        if req && !gnt {
            self.wait[i] += 1;
            if self.wait[i] == self.starvation_limit {
                self.fail(
                    ViolationKind::Starvation,
                    PortId::Initiator(i),
                    rec.cycle,
                    format!("request unserved for {} cycles", self.starvation_limit),
                );
                self.wait[i] = 0;
            }
        } else {
            self.wait[i] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbus_protocol::packet::PacketParams;
    use stbus_protocol::{
        DutInputs, DutOutputs, InitiatorId, RequestPacket, TransactionId, TransferSize,
    };

    fn cfg() -> NodeConfig {
        NodeConfig::reference()
    }

    fn params(c: &NodeConfig) -> PacketParams {
        PacketParams {
            bus_bytes: c.bus_bytes,
            protocol: c.protocol,
            endianness: c.endianness,
        }
    }

    fn rec(c: &NodeConfig, cycle: u64) -> CycleRecord {
        CycleRecord {
            cycle,
            inputs: DutInputs::idle(c),
            outputs: DutOutputs::idle(c),
        }
    }

    fn fire_request(
        c: &NodeConfig,
        cycle: u64,
        i: usize,
        cell: stbus_protocol::ReqCell,
    ) -> CycleRecord {
        let mut r = rec(c, cycle);
        r.inputs.initiator[i].req = true;
        r.inputs.initiator[i].cell = cell;
        r.outputs.initiator[i].gnt = true;
        r
    }

    #[test]
    fn clean_transaction_passes_all_rules() {
        let c = cfg();
        let mut chk = ProtocolChecker::new(&c);
        let pkt = RequestPacket::build(
            Opcode::load(TransferSize::B8),
            0x40,
            &[],
            params(&c),
            InitiatorId(0),
            TransactionId(1),
            0,
            false,
        )
        .unwrap();
        chk.observe(&fire_request(&c, 1, 0, pkt.cells()[0]));
        // Response from target 0.
        let mut r = rec(&c, 5);
        r.inputs.initiator[0].r_gnt = true;
        let rsp = stbus_protocol::RspCell::ok(InitiatorId(0), TransactionId(1), true);
        r.outputs.initiator[0].r_req = true;
        r.outputs.initiator[0].r_cell = rsp;
        r.inputs.target[0].r_req = true;
        r.inputs.target[0].r_cell = rsp;
        r.outputs.target[0].r_gnt = true;
        chk.observe(&r);
        let report = chk.into_report();
        assert!(report.passed(), "{:?}", report.violations);
        assert!(report.checks_passed[&RuleId::OpcodeLegal] >= 1);
        assert!(report.checks_passed[&RuleId::TidMatch] >= 1);
        assert!(report.checks_passed[&RuleId::RspLength] >= 1);
    }

    #[test]
    fn unstable_request_cell_is_flagged() {
        let c = cfg();
        let mut chk = ProtocolChecker::new(&c);
        let mk = |addr: u64| {
            RequestPacket::build(
                Opcode::load(TransferSize::B8),
                addr,
                &[],
                params(&c),
                InitiatorId(0),
                TransactionId(1),
                0,
                false,
            )
            .unwrap()
            .cells()[0]
        };
        // req held, no gnt.
        let mut r = rec(&c, 1);
        r.inputs.initiator[0].req = true;
        r.inputs.initiator[0].cell = mk(0x40);
        chk.observe(&r);
        // Next cycle the cell changes while still requesting — violation.
        let mut r = rec(&c, 2);
        r.inputs.initiator[0].req = true;
        r.inputs.initiator[0].cell = mk(0x80);
        chk.observe(&r);
        let report = chk.into_report();
        assert!(!report.passed());
        assert_eq!(
            report.violations[0].kind,
            ViolationKind::Rule(RuleId::ReqStable)
        );
    }

    #[test]
    fn tid_mismatch_is_flagged_on_type3() {
        let c = cfg();
        let mut chk = ProtocolChecker::new(&c);
        let pkt = RequestPacket::build(
            Opcode::load(TransferSize::B8),
            0x40,
            &[],
            params(&c),
            InitiatorId(0),
            TransactionId(2),
            0,
            false,
        )
        .unwrap();
        chk.observe(&fire_request(&c, 1, 0, pkt.cells()[0]));
        // Response arrives with a corrupted tid.
        let mut r = rec(&c, 6);
        r.inputs.initiator[0].r_gnt = true;
        let rsp = stbus_protocol::RspCell::ok(InitiatorId(0), TransactionId(3), true);
        r.outputs.initiator[0].r_req = true;
        r.outputs.initiator[0].r_cell = rsp;
        r.inputs.target[0].r_req = true;
        r.inputs.target[0].r_cell = rsp;
        r.outputs.target[0].r_gnt = true;
        chk.observe(&r);
        let report = chk.into_report();
        let kinds = report.failing_kinds();
        assert!(
            kinds.contains(&ViolationKind::Rule(RuleId::TidMatch)),
            "{kinds:?}"
        );
    }

    #[test]
    fn out_of_order_flagged_on_type2() {
        let c = NodeConfig::builder("t2")
            .initiators(1)
            .targets(2)
            .bus_bytes(8)
            .protocol(stbus_protocol::ProtocolType::Type2)
            .build()
            .unwrap();
        let mut chk = ProtocolChecker::new(&c);
        let mk = |addr: u64| {
            RequestPacket::build(
                Opcode::load(TransferSize::B8),
                addr,
                &[],
                params(&c),
                InitiatorId(0),
                TransactionId(0),
                0,
                false,
            )
            .unwrap()
            .cells()[0]
        };
        chk.observe(&fire_request(&c, 1, 0, mk(0x0000_0000))); // → T0
        chk.observe(&fire_request(&c, 2, 0, mk(0x0100_0000))); // → T1
                                                               // T1 responds first — out of order.
        let mut r = rec(&c, 6);
        r.inputs.initiator[0].r_gnt = true;
        let rsp = stbus_protocol::RspCell::ok(InitiatorId(0), TransactionId(0), true);
        r.outputs.initiator[0].r_req = true;
        r.outputs.initiator[0].r_cell = rsp;
        r.inputs.target[1].r_req = true;
        r.inputs.target[1].r_cell = rsp;
        r.outputs.target[1].r_gnt = true;
        chk.observe(&r);
        let report = chk.into_report();
        assert!(report
            .failing_kinds()
            .contains(&ViolationKind::Rule(RuleId::OrderedResponse)));
    }

    #[test]
    fn chunk_interleave_flagged_at_target() {
        let c = cfg();
        let mut chk = ProtocolChecker::new(&c);
        let mk = |src: u8, lock: bool, tid: u8| {
            let mut cell = RequestPacket::build(
                Opcode::load(TransferSize::B8),
                0x40,
                &[],
                params(&c),
                InitiatorId(src),
                TransactionId(tid),
                0,
                lock,
            )
            .unwrap()
            .cells()[0];
            cell.lock = lock;
            cell
        };
        // I0 opens a locked chunk at target 0.
        let mut r = rec(&c, 1);
        r.outputs.target[0].req = true;
        r.outputs.target[0].cell = mk(0, true, 1);
        r.inputs.target[0].gnt = true;
        chk.observe(&r);
        // I1's cell appears at the same target — interleave.
        let mut r = rec(&c, 2);
        r.outputs.target[0].req = true;
        r.outputs.target[0].cell = mk(1, false, 2);
        r.inputs.target[0].gnt = true;
        chk.observe(&r);
        let report = chk.into_report();
        assert!(report
            .failing_kinds()
            .contains(&ViolationKind::Rule(RuleId::ChunkAtomic)));
    }

    #[test]
    fn bad_byte_enables_flagged() {
        let c = cfg();
        let mut chk = ProtocolChecker::new(&c);
        let mut cell = RequestPacket::build(
            Opcode::store(TransferSize::B2),
            0x42,
            &[1, 2],
            params(&c),
            InitiatorId(0),
            TransactionId(0),
            0,
            false,
        )
        .unwrap()
        .cells()[0];
        cell.be = c.full_be(); // the B1 symptom
        chk.observe(&fire_request(&c, 1, 0, cell));
        let report = chk.into_report();
        assert!(report
            .failing_kinds()
            .contains(&ViolationKind::Rule(RuleId::ByteEnable)));
    }

    #[test]
    fn starvation_watchdog_fires() {
        let c = cfg();
        let mut chk = ProtocolChecker::new(&c);
        chk.set_starvation_limit(10);
        let cell = RequestPacket::build(
            Opcode::load(TransferSize::B8),
            0x40,
            &[],
            params(&c),
            InitiatorId(1),
            TransactionId(0),
            0,
            false,
        )
        .unwrap()
        .cells()[0];
        for cycle in 0..12 {
            let mut r = rec(&c, cycle);
            r.inputs.initiator[1].req = true;
            r.inputs.initiator[1].cell = cell;
            chk.observe(&r);
        }
        let report = chk.into_report();
        assert!(report.failing_kinds().contains(&ViolationKind::Starvation));
    }

    #[test]
    fn orphan_response_flagged() {
        let c = cfg();
        let mut chk = ProtocolChecker::new(&c);
        // A target responds to initiator 0 although nothing is outstanding.
        let mut r = rec(&c, 3);
        r.inputs.initiator[0].r_gnt = true;
        let rsp = stbus_protocol::RspCell::ok(InitiatorId(0), TransactionId(0), true);
        r.outputs.initiator[0].r_req = true;
        r.outputs.initiator[0].r_cell = rsp;
        r.inputs.target[0].r_req = true;
        r.inputs.target[0].r_cell = rsp;
        r.outputs.target[0].r_gnt = true;
        chk.observe(&r);
        let report = chk.into_report();
        assert!(report
            .failing_kinds()
            .contains(&ViolationKind::Rule(RuleId::OrphanResponse)));
    }

    #[test]
    fn wrong_response_length_flagged() {
        let c = cfg();
        let mut chk = ProtocolChecker::new(&c);
        // LD32 on a 64-bit bus expects a 4-cell response; deliver a 1-cell
        // one (eop on the first cell).
        let pkt = RequestPacket::build(
            Opcode::load(TransferSize::B32),
            0x40,
            &[],
            params(&c),
            InitiatorId(0),
            TransactionId(1),
            0,
            false,
        )
        .unwrap();
        chk.observe(&fire_request(&c, 1, 0, pkt.cells()[0]));
        let mut r = rec(&c, 5);
        r.inputs.initiator[0].r_gnt = true;
        let rsp = stbus_protocol::RspCell::ok(InitiatorId(0), TransactionId(1), true);
        r.outputs.initiator[0].r_req = true;
        r.outputs.initiator[0].r_cell = rsp;
        r.inputs.target[0].r_req = true;
        r.inputs.target[0].r_cell = rsp;
        r.outputs.target[0].r_gnt = true;
        chk.observe(&r);
        let report = chk.into_report();
        assert!(report
            .failing_kinds()
            .contains(&ViolationKind::Rule(RuleId::RspLength)));
    }

    #[test]
    fn packet_overrun_without_eop_flagged() {
        let c = cfg();
        let mut chk = ProtocolChecker::new(&c);
        // A 2-cell ST16 whose cells never assert eop.
        let pkt = RequestPacket::build(
            Opcode::store(TransferSize::B16),
            0x40,
            &(0..16).collect::<Vec<u8>>(),
            params(&c),
            InitiatorId(0),
            TransactionId(0),
            0,
            false,
        )
        .unwrap();
        for (k, cell) in pkt.cells().iter().enumerate() {
            let mut cell = *cell;
            cell.eop = false;
            chk.observe(&fire_request(&c, k as u64, 0, cell));
        }
        let report = chk.into_report();
        assert!(report
            .failing_kinds()
            .contains(&ViolationKind::Rule(RuleId::EopPosition)));
    }

    #[test]
    fn unstable_response_cell_flagged() {
        let c = cfg();
        let mut chk = ProtocolChecker::new(&c);
        let mk = |tid: u8| stbus_protocol::RspCell::ok(InitiatorId(0), TransactionId(tid), true);
        // Response presented, initiator not ready...
        let mut r = rec(&c, 1);
        r.outputs.initiator[0].r_req = true;
        r.outputs.initiator[0].r_cell = mk(1);
        chk.observe(&r);
        // ...and the presented cell changes while still waiting.
        let mut r = rec(&c, 2);
        r.outputs.initiator[0].r_req = true;
        r.outputs.initiator[0].r_cell = mk(2);
        chk.observe(&r);
        let report = chk.into_report();
        assert!(report
            .failing_kinds()
            .contains(&ViolationKind::Rule(RuleId::RspStable)));
    }

    #[test]
    fn misaligned_address_flagged() {
        let c = cfg();
        let mut chk = ProtocolChecker::new(&c);
        let mut cell = RequestPacket::build(
            Opcode::load(TransferSize::B8),
            0x40,
            &[],
            params(&c),
            InitiatorId(0),
            TransactionId(0),
            0,
            false,
        )
        .unwrap()
        .cells()[0];
        cell.addr = 0x43; // torn alignment on the wire
        chk.observe(&fire_request(&c, 1, 0, cell));
        let report = chk.into_report();
        assert!(report
            .failing_kinds()
            .contains(&ViolationKind::Rule(RuleId::AddrAligned)));
    }

    #[test]
    fn report_accounting_is_consistent() {
        let c = cfg();
        let mut chk = ProtocolChecker::new(&c);
        let pkt = RequestPacket::build(
            Opcode::load(TransferSize::B8),
            0x40,
            &[],
            params(&c),
            InitiatorId(0),
            TransactionId(1),
            0,
            false,
        )
        .unwrap();
        chk.observe(&fire_request(&c, 1, 0, pkt.cells()[0]));
        let report = chk.into_report();
        assert!(report.passed());
        assert_eq!(report.total_violations(), 0);
        assert!(report.total_checks() >= 4);
        assert!(report.failing_kinds().is_empty());
    }

    #[test]
    fn rule_counters_follow_the_catalogue_order() {
        for (k, rule) in RuleId::ALL.into_iter().enumerate() {
            assert_eq!(rule as usize, k, "{rule}");
        }
    }

    #[test]
    fn checks_passed_omits_rules_that_never_passed() {
        let c = cfg();
        let mut chk = ProtocolChecker::new(&c);
        // One idle cycle: only the per-cycle grant check runs.
        chk.observe(&rec(&c, 0));
        let snapshot = chk.report();
        let report = chk.into_report();
        assert_eq!(
            report.checks_passed.keys().copied().collect::<Vec<_>>(),
            [RuleId::GrantWithoutReq]
        );
        assert_eq!(
            report.checks_passed[&RuleId::GrantWithoutReq],
            c.n_initiators as u64
        );
        assert_eq!(snapshot.checks_passed, report.checks_passed);
        assert!(ProtocolChecker::new(&c)
            .into_report()
            .checks_passed
            .is_empty());
    }

    #[test]
    fn grant_without_request_flagged() {
        let c = cfg();
        let mut chk = ProtocolChecker::new(&c);
        let mut r = rec(&c, 1);
        r.outputs.initiator[2].gnt = true;
        chk.observe(&r);
        let report = chk.into_report();
        assert!(report
            .failing_kinds()
            .contains(&ViolationKind::Rule(RuleId::GrantWithoutReq)));
    }
}
