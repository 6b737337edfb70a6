//! The transactional BCA node engine.

use crate::bugs::BcaBug;
use stbus_protocol::arbitration::{make_arbiter, Arbiter, ArbiterParams};
use stbus_protocol::packet::{response_cells, ResponsePacket};
use stbus_protocol::{
    ArbitrationKind, DutInputs, DutOutputs, DutView, InitiatorId, NodeConfig, Opcode, ReqCell,
    RspCell, TargetId, TransactionId, ViewKind,
};
use std::collections::{BTreeSet, VecDeque};

/// How many cycles the internal error responder takes — matches the RTL
/// view's `ERROR_RESPONSE_LATENCY`.
const ERROR_RESPONSE_LATENCY: u64 = 2;

/// How faithfully the BCA model mirrors the RTL micro-architecture in the
/// corners the functional specification leaves open.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Fidelity {
    /// Mirror every RTL tie-break; waveforms align 100%.
    Exact,
    /// Simplify the Type 3 response arbitration to round-robin — the
    /// realistic model-owner shortcut. Functionally correct (checkers
    /// pass) but occasionally diverges from the RTL waveform, capping
    /// alignment below 100%.
    #[default]
    Relaxed,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Dest {
    Target(usize),
    Internal,
}

#[derive(Clone, Debug)]
struct Pending {
    responder: usize,
    tid: TransactionId,
    #[allow(dead_code)]
    opcode: Opcode,
}

impl Pending {
    fn matches(&self, responder: usize, tid: TransactionId) -> bool {
        self.responder == responder && self.tid == tid
    }
}

/// An internal error response in flight: the [`ResponsePacket::error`]
/// of `cells` cells for `(src, tid)`, delivered one cell at a time.
#[derive(Clone, Debug)]
struct ErrRsp {
    ready_at: u64,
    src: InitiatorId,
    tid: TransactionId,
    cells: usize,
    sent: usize,
}

impl ErrRsp {
    /// The next cell to deliver.
    fn cell(&self) -> RspCell {
        ResponsePacket::error_cell(self.src, self.tid, self.sent, self.cells)
    }
}

/// The bus-cycle-accurate view of the STBus node.
///
/// # Example
///
/// ```
/// use stbus_protocol::{DutInputs, DutView, NodeConfig};
/// use stbus_bca::{BcaNode, Fidelity};
///
/// let cfg = NodeConfig::reference();
/// let mut node = BcaNode::new(cfg.clone(), Fidelity::Exact);
/// let outputs = node.step(&DutInputs::idle(&cfg));
/// assert!(!outputs.initiator[0].gnt);
/// ```
pub struct BcaNode {
    config: NodeConfig,
    fidelity: Fidelity,
    bugs: BTreeSet<BcaBug>,
    cycle: u64,
    req_arb: Vec<Box<dyn Arbiter>>,
    rsp_arb: Vec<Box<dyn Arbiter>>,
    route: Vec<Option<Dest>>,
    chunk_owner: Vec<Option<usize>>,
    tgt_pkt_owner: Vec<Option<usize>>,
    open_tx: Vec<usize>,
    in_pkt: Vec<bool>,
    fifo: Vec<VecDeque<ReqCell>>,
    pending: Vec<VecDeque<Pending>>,
    rsp_route: Vec<Option<usize>>,
    err_queue: Vec<VecDeque<ErrRsp>>,
    tgt_presented: Vec<Option<usize>>,
    rsp_presented: Vec<Option<usize>>,
    tgt_cell_hold: Vec<ReqCell>,
    init_rsp_hold: Vec<RspCell>,
    scratch: StepScratch,
}

/// The per-cycle working buffers of [`BcaNode::step`], kept in the node
/// so a steady-state step allocates nothing but the outputs it returns.
/// Every buffer is refilled before it is read, so none carries state
/// from one step to the next.
#[derive(Default)]
struct StepScratch {
    heads: Vec<Option<ReqCell>>,
    dests: Vec<Option<Dest>>,
    req_vecs: Vec<Vec<bool>>,
    forwards: Vec<Option<(usize, ReqCell)>>,
    req_commits: Vec<Option<usize>>,
    internal: Vec<(usize, ReqCell)>,
    accepts: Vec<Option<ReqCell>>,
    eligible: Vec<bool>,
    /// Per initiator: the eligibility the response arbiter saw and the
    /// responder it is told committed.
    rsp_arb_io: Vec<(Vec<bool>, Option<usize>)>,
    rsp_transfers: Vec<Option<(usize, RspCell)>>,
    /// Next cycle's presented locks, swapped into the node at commit.
    tgt_present_next: Vec<Option<usize>>,
    rsp_present_next: Vec<Option<usize>>,
    prios: Vec<u8>,
}

impl BcaNode {
    /// Builds the model for a configuration at the given fidelity.
    pub fn new(config: NodeConfig, fidelity: Fidelity) -> Self {
        let mut node = BcaNode {
            fidelity,
            bugs: BTreeSet::new(),
            cycle: 0,
            req_arb: Vec::new(),
            rsp_arb: Vec::new(),
            route: Vec::new(),
            chunk_owner: Vec::new(),
            tgt_pkt_owner: Vec::new(),
            open_tx: Vec::new(),
            in_pkt: Vec::new(),
            fifo: Vec::new(),
            pending: Vec::new(),
            rsp_route: Vec::new(),
            err_queue: Vec::new(),
            tgt_presented: Vec::new(),
            rsp_presented: Vec::new(),
            tgt_cell_hold: Vec::new(),
            init_rsp_hold: Vec::new(),
            scratch: StepScratch::default(),
            config,
        };
        node.rebuild();
        node
    }

    /// Injects a defect from the catalogue (experiment E2). Takes effect
    /// immediately; combine freely.
    pub fn inject_bug(&mut self, bug: BcaBug) {
        self.bugs.insert(bug);
    }

    /// The fidelity mode.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// Cycles stepped since construction or reset.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    fn rebuild(&mut self) {
        let cfg = &self.config;
        let rsp_params = ArbiterParams::default();
        self.cycle = 0;
        self.req_arb = (0..cfg.n_targets)
            .map(|_| make_arbiter(cfg.arbitration, cfg.n_initiators, &cfg.arb_params))
            .collect();
        self.rsp_arb = (0..cfg.n_initiators)
            .map(|_| make_arbiter(cfg.arbitration, cfg.n_targets + 1, &rsp_params))
            .collect();
        self.route = vec![None; cfg.n_initiators];
        self.chunk_owner = vec![None; cfg.n_targets];
        self.tgt_pkt_owner = vec![None; cfg.n_targets];
        self.open_tx = vec![0; cfg.n_initiators];
        self.in_pkt = vec![false; cfg.n_initiators];
        self.fifo = (0..cfg.n_initiators).map(|_| VecDeque::new()).collect();
        self.pending = (0..cfg.n_initiators).map(|_| VecDeque::new()).collect();
        self.rsp_route = vec![None; cfg.n_initiators];
        self.err_queue = (0..cfg.n_initiators).map(|_| VecDeque::new()).collect();
        self.tgt_presented = vec![None; cfg.n_targets];
        self.rsp_presented = vec![None; cfg.n_initiators];
        self.tgt_cell_hold = vec![ReqCell::default(); cfg.n_targets];
        self.init_rsp_hold = vec![RspCell::default(); cfg.n_initiators];
    }

    fn max_open(&self) -> usize {
        if self.config.protocol.split_transactions() {
            self.config.max_outstanding
        } else {
            1
        }
    }

    fn ordered(&self) -> bool {
        !self.config.protocol.allows_out_of_order()
            && !self.bugs.contains(&BcaBug::ReorderedT2Responses)
    }
}

impl DutView for BcaNode {
    fn config(&self) -> &NodeConfig {
        &self.config
    }

    fn view_kind(&self) -> ViewKind {
        ViewKind::Bca
    }

    fn reset(&mut self) {
        self.rebuild();
    }

    fn step(&mut self, inputs: &DutInputs) -> DutOutputs {
        let ni = self.config.n_initiators;
        let nt = self.config.n_targets;
        assert_eq!(inputs.initiator.len(), ni, "initiator port count mismatch");
        assert_eq!(inputs.target.len(), nt, "target port count mismatch");
        let pipe_depth = self.config.pipe_depth;
        let pipelined = pipe_depth > 0;
        let lanes = self.config.arch.concurrency(nt);
        let max_open = self.max_open();
        let mut out = DutOutputs::idle(&self.config);
        // Taken out for the step so its buffers and `self` borrow apart.
        let mut s = std::mem::take(&mut self.scratch);

        // ----- request path ------------------------------------------------
        s.heads.clear();
        s.heads.extend((0..ni).map(|i| {
            if pipelined {
                self.fifo[i].front().copied()
            } else if inputs.initiator[i].req {
                Some(inputs.initiator[i].cell)
            } else {
                None
            }
        }));

        s.dests.clear();
        s.dests.extend((0..ni).map(|i| {
            let cell = s.heads[i]?;
            Some(match self.route[i] {
                Some(d) => d,
                None => match self.config.address_map.decode(cell.addr) {
                    Some(TargetId(t)) => Dest::Target(t as usize),
                    None => Dest::Internal,
                },
            })
        }));

        let ignore_chunk = self.bugs.contains(&BcaBug::IgnoredChunkLock);
        let gate_blocks = |node: &Self, i: usize| -> bool {
            !pipelined && node.route[i].is_none() && node.open_tx[i] >= max_open
        };

        s.req_vecs.resize_with(nt, Vec::new);
        for reqs in &mut s.req_vecs {
            reqs.clear();
            reqs.resize(ni, false);
        }
        for i in 0..ni {
            if let (Some(_), Some(Dest::Target(t))) = (s.heads[i], s.dests[i]) {
                if gate_blocks(self, i) {
                    continue;
                }
                let chunk_ok = ignore_chunk || self.chunk_owner[t].is_none_or(|owner| owner == i);
                let pkt_ok = self.tgt_pkt_owner[t].is_none_or(|owner| owner == i);
                if chunk_ok && pkt_ok {
                    s.req_vecs[t][i] = true;
                }
            }
        }

        // Arbitrate, then allocate lanes in ascending target order.
        refill(&mut s.forwards, nt, None);
        refill(&mut s.req_commits, nt, None);
        refill(&mut s.tgt_present_next, nt, None);
        let mut used = 0usize;
        for t in 0..nt {
            // A cell already presented to the target holds the mux.
            let winner = match self.tgt_presented[t] {
                Some(i) if s.req_vecs[t][i] => Some(i),
                _ => self.req_arb[t].choose(&s.req_vecs[t]),
            };
            if let Some(w) = winner {
                if used < lanes {
                    used += 1;
                    let mut cell = s.heads[w].expect("winner has a cell");
                    if self.bugs.contains(&BcaBug::DroppedByteEnables)
                        && cell.opcode.has_request_data()
                    {
                        cell.be = self.config.full_be(); // B1: full-word write
                    }
                    out.target[t].req = true;
                    out.target[t].cell = cell;
                    if inputs.target[t].gnt {
                        s.forwards[t] = Some((w, cell));
                        s.req_commits[t] = Some(w);
                    } else {
                        s.tgt_present_next[t] = Some(w);
                    }
                    continue;
                }
            }
            out.target[t].req = false;
            out.target[t].cell = self.tgt_cell_hold[t];
        }

        s.internal.clear();
        for i in 0..ni {
            if let (Some(cell), Some(Dest::Internal)) = (s.heads[i], s.dests[i]) {
                if !gate_blocks(self, i) {
                    s.internal.push((i, cell));
                }
            }
        }

        refill(&mut s.accepts, ni, None);
        #[allow(clippy::needless_range_loop)]
        for i in 0..ni {
            let forwarded = s.forwards.iter().flatten().any(|(w, _)| *w == i)
                || s.internal.iter().any(|(w, _)| *w == i);
            out.initiator[i].gnt = if pipelined {
                let space = self.fifo[i].len() < pipe_depth
                    || (self.fifo[i].len() == pipe_depth && forwarded);
                let first = !self.in_pkt[i];
                let gate_ok = !first || self.open_tx[i] < max_open;
                let accept = inputs.initiator[i].req && space && gate_ok;
                if accept {
                    s.accepts[i] = Some(inputs.initiator[i].cell);
                }
                accept
            } else {
                forwarded
            };
        }

        // ----- response path -------------------------------------------------
        let n_resp = nt + 1;
        let present = |node: &Self, j: usize, r: usize| -> Option<RspCell> {
            if r < nt {
                let tp = &inputs.target[r];
                (tp.r_req && tp.r_cell.src.0 as usize == j).then_some(tp.r_cell)
            } else {
                let er = node.err_queue[j].front()?;
                (er.ready_at <= node.cycle).then(|| er.cell())
            }
        };

        s.rsp_arb_io.resize_with(ni, || (Vec::new(), None));
        refill(&mut s.rsp_transfers, ni, None);
        refill(&mut s.rsp_present_next, ni, None);
        let mut rsp_used = 0usize;
        for j in 0..ni {
            let eligible = &mut s.eligible;
            eligible.clear();
            eligible.extend((0..n_resp).map(|r| present(self, j, r).is_some()));
            if let Some(locked) = self.rsp_route[j] {
                for (r, e) in eligible.iter_mut().enumerate() {
                    if r != locked {
                        *e = false;
                    }
                }
            } else if self.ordered() {
                let front = self.pending[j].front().map(|p| p.responder);
                for (r, e) in eligible.iter_mut().enumerate() {
                    if Some(r) != front {
                        *e = false;
                    }
                }
            }
            // Relaxed fidelity (Type 3 only — ordered types leave no
            // freedom): the model owner handles internal error responses
            // in a side path with absolute priority, bypassing the
            // response arbiter entirely. The functional specification
            // does not constrain which of two simultaneously-ready
            // responses goes first, so every checker passes either way —
            // but the waveforms diverge on those (rare) cycles, which is
            // why the paper's alignment sign-off target is 99% rather
            // than 100%. Crucially the arbiter never sees (or updates on)
            // internal responses in this mode, so the divergence stays
            // local instead of skewing the arbiter state forever.
            let side_path =
                self.fidelity == Fidelity::Relaxed && self.config.protocol.allows_out_of_order();
            let (arb_eligible, arb_committed) = &mut s.rsp_arb_io[j];
            arb_eligible.clone_from(eligible);
            if side_path {
                arb_eligible[nt] = false;
            }
            let winner = match self.rsp_presented[j] {
                Some(r) if eligible[r] => Some(r),
                _ if side_path && eligible[nt] => Some(nt),
                _ => self.rsp_arb[j].choose(arb_eligible),
            };
            let mut committed = None;
            if let Some(r) = winner {
                if rsp_used < lanes {
                    rsp_used += 1;
                    let mut cell = present(self, j, r).expect("winner presents");
                    // B3: corrupt the tid of genuinely out-of-order
                    // deliveries (Type 3 only — ordered types never get
                    // here out of order).
                    if self.bugs.contains(&BcaBug::CorruptedOooTid)
                        && self.pending[j].front().map(|p| p.responder) != Some(r)
                    {
                        cell.tid = TransactionId(cell.tid.0 ^ 1);
                    }
                    out.initiator[j].r_req = true;
                    out.initiator[j].r_cell = cell;
                    if inputs.initiator[j].r_gnt {
                        s.rsp_transfers[j] = Some((r, cell));
                        committed = Some(r);
                        if r < nt {
                            out.target[r].r_gnt = true;
                        }
                    } else {
                        s.rsp_present_next[j] = Some(r);
                    }
                }
            }
            if !out.initiator[j].r_req {
                out.initiator[j].r_cell = self.init_rsp_hold[j];
            }
            // The side path hides internal deliveries from the arbiter.
            *arb_committed = if side_path && committed == Some(nt) {
                None
            } else {
                committed
            };
        }

        // ----- commit ---------------------------------------------------------
        let skip_lru = self.bugs.contains(&BcaBug::StuckLruState)
            && self.config.arbitration == ArbitrationKind::Lru;
        for t in 0..nt {
            if skip_lru {
                // B2: the refactor lost the update call entirely.
                continue;
            }
            self.req_arb[t].update(&s.req_vecs[t], s.req_commits[t], self.cycle);
        }
        for (j, (eligible, committed)) in s.rsp_arb_io.iter().enumerate() {
            self.rsp_arb[j].update(eligible, *committed, self.cycle);
        }

        for (t, fwd) in s.forwards.iter().enumerate() {
            if let Some((i, cell)) = fwd {
                self.commit_forward(*i, Dest::Target(t), *cell, pipelined);
                self.tgt_cell_hold[t] = *cell;
            }
        }
        for (i, cell) in &s.internal {
            self.commit_forward(*i, Dest::Internal, *cell, pipelined);
        }
        for (i, acc) in s.accepts.iter().enumerate() {
            if let Some(cell) = acc {
                if !self.in_pkt[i] {
                    self.open_tx[i] += 1;
                }
                self.in_pkt[i] = !cell.eop;
                self.fifo[i].push_back(*cell);
            }
        }
        for (j, tr) in s.rsp_transfers.iter().enumerate() {
            if let Some((r, cell)) = tr {
                self.init_rsp_hold[j] = *cell;
                if *r == nt {
                    let er = self.err_queue[j]
                        .front_mut()
                        .expect("error response in flight");
                    er.sent += 1;
                    if er.sent == er.cells {
                        self.err_queue[j].pop_front();
                    }
                }
                if cell.eop {
                    self.rsp_route[j] = None;
                    // Retire by (responder, tid) with a responder-only
                    // fallback, so bookkeeping survives B3's corrupted
                    // visible tid (the internal identity is uncorrupted).
                    let q = &mut self.pending[j];
                    if let Some(pos) = q
                        .iter()
                        .position(|p| p.matches(*r, cell.tid))
                        .or_else(|| q.iter().position(|p| p.responder == *r))
                    {
                        q.remove(pos);
                    } else if !q.is_empty() {
                        q.pop_front();
                    }
                    self.open_tx[j] = self.open_tx[j].saturating_sub(1);
                } else {
                    self.rsp_route[j] = Some(*r);
                }
            }
        }

        std::mem::swap(&mut self.tgt_presented, &mut s.tgt_present_next);
        std::mem::swap(&mut self.rsp_presented, &mut s.rsp_present_next);

        if let (Some(cmd), true) = (&inputs.prog, self.config.prog_port) {
            // The programming port has exactly one priority register per
            // initiator: longer writes are truncated, shorter ones
            // zero-extended (mirroring the RTL's wire count — an earlier
            // model revision passed the raw vector through, which the
            // alignment flow caught as a cross-view divergence).
            s.prios.clear();
            s.prios
                .extend((0..ni).map(|i| cmd.priorities.get(i).copied().unwrap_or(0)));
            for arb in &mut self.req_arb {
                arb.set_priorities(&s.prios);
            }
        }

        self.scratch = s;
        self.cycle += 1;
        out
    }
}

/// Empties `buf` and refills it with `n` copies of `value`, keeping its
/// allocation.
fn refill<T: Clone>(buf: &mut Vec<T>, n: usize, value: T) {
    buf.clear();
    buf.resize(n, value);
}

impl BcaNode {
    fn commit_forward(&mut self, i: usize, dest: Dest, cell: ReqCell, pipelined: bool) {
        if pipelined {
            self.fifo[i].pop_front();
        } else if self.route[i].is_none() {
            self.open_tx[i] += 1;
        }
        self.route[i] = if cell.eop { None } else { Some(dest) };
        if let Dest::Target(t) = dest {
            self.tgt_pkt_owner[t] = if cell.eop { None } else { Some(i) };
            if cell.lock {
                self.chunk_owner[t] = Some(i);
            } else if cell.eop {
                self.chunk_owner[t] = None;
            }
        }
        if cell.eop {
            let responder = match dest {
                Dest::Target(t) => t,
                Dest::Internal => self.config.n_targets,
            };
            self.pending[i].push_back(Pending {
                responder,
                tid: cell.tid,
                opcode: cell.opcode,
            });
            if matches!(dest, Dest::Internal) {
                self.err_queue[i].push_back(ErrRsp {
                    ready_at: self.cycle + ERROR_RESPONSE_LATENCY,
                    src: cell.src,
                    tid: cell.tid,
                    cells: response_cells(cell.opcode, self.config.protocol, self.config.bus_bytes),
                    sent: 0,
                });
            }
        }
    }
}

impl std::fmt::Debug for BcaNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BcaNode")
            .field("config", &self.config.name)
            .field("fidelity", &self.fidelity)
            .field("bugs", &self.bugs)
            .field("cycle", &self.cycle)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbus_protocol::packet::{PacketParams, RequestPacket};
    use stbus_protocol::{Architecture, InitiatorId, ProtocolType, RspKind, TransferSize};

    fn params(cfg: &NodeConfig) -> PacketParams {
        PacketParams {
            bus_bytes: cfg.bus_bytes,
            protocol: cfg.protocol,
            endianness: cfg.endianness,
        }
    }

    fn load_cell(cfg: &NodeConfig, i: u8, addr: u64, tid: u8) -> ReqCell {
        RequestPacket::build(
            Opcode::load(TransferSize::B8),
            addr,
            &[],
            params(cfg),
            InitiatorId(i),
            TransactionId(tid),
            0,
            false,
        )
        .unwrap()
        .cells()[0]
    }

    #[test]
    fn forwards_and_grants_like_the_spec() {
        let cfg = NodeConfig::reference();
        let mut node = BcaNode::new(cfg.clone(), Fidelity::Exact);
        let mut inputs = DutInputs::idle(&cfg);
        inputs.initiator[0].req = true;
        inputs.initiator[0].cell = load_cell(&cfg, 0, 0x20, 1);
        inputs.target[0].gnt = true;
        let out = node.step(&inputs);
        assert!(out.initiator[0].gnt);
        assert!(out.target[0].req);
        assert_eq!(out.target[0].cell.addr, 0x20);
    }

    #[test]
    fn error_response_for_unmapped_address() {
        let cfg = NodeConfig::reference();
        let mut node = BcaNode::new(cfg.clone(), Fidelity::Exact);
        let unmapped = cfg.address_map.unmapped_address().unwrap();
        let mut inputs = DutInputs::idle(&cfg);
        inputs.initiator[1].req = true;
        inputs.initiator[1].cell = {
            let mut c = load_cell(&cfg, 1, 0, 4);
            c.addr = unmapped;
            c
        };
        inputs.initiator[1].r_gnt = true;
        let out = node.step(&inputs);
        assert!(out.initiator[1].gnt);

        let mut idle = DutInputs::idle(&cfg);
        idle.initiator[1].r_gnt = true;
        let mut got = None;
        for _ in 0..5 {
            let out = node.step(&idle);
            if out.initiator[1].r_req {
                got = Some(out.initiator[1].r_cell);
                break;
            }
        }
        let cell = got.expect("error response");
        assert_eq!(cell.kind, RspKind::Error);
        assert_eq!(cell.tid, TransactionId(4));
    }

    #[test]
    fn bug_b1_widens_byte_enables() {
        let cfg = NodeConfig::reference();
        let mut clean = BcaNode::new(cfg.clone(), Fidelity::Exact);
        let mut buggy = BcaNode::new(cfg.clone(), Fidelity::Exact);
        buggy.inject_bug(BcaBug::DroppedByteEnables);

        let store = RequestPacket::build(
            Opcode::store(TransferSize::B2),
            0x6,
            &[0xAA, 0xBB],
            params(&cfg),
            InitiatorId(0),
            TransactionId(0),
            0,
            false,
        )
        .unwrap()
        .cells()[0];
        let mut inputs = DutInputs::idle(&cfg);
        inputs.initiator[0].req = true;
        inputs.initiator[0].cell = store;
        inputs.target[0].gnt = true;

        let co = clean.step(&inputs);
        let bo = buggy.step(&inputs);
        assert_eq!(co.target[0].cell.be, 0b1100_0000);
        assert_eq!(bo.target[0].cell.be, cfg.full_be());
    }

    #[test]
    fn bug_b4_breaks_type2_ordering() {
        let cfg = NodeConfig::builder("t2")
            .initiators(1)
            .targets(2)
            .bus_bytes(8)
            .protocol(ProtocolType::Type2)
            .architecture(Architecture::FullCrossbar)
            .arbitration(ArbitrationKind::FixedPriority)
            .build()
            .unwrap();
        let mk = |node: &mut BcaNode| {
            // req 1 → target 0, req 2 → target 1
            for (addr, tid) in [(0x0000_0000u64, 1u8), (0x0100_0000, 2)] {
                let mut inputs = DutInputs::idle(&cfg);
                inputs.initiator[0].req = true;
                inputs.initiator[0].cell = load_cell(&cfg, 0, addr, tid);
                inputs.target[0].gnt = true;
                inputs.target[1].gnt = true;
                node.step(&inputs);
            }
            // Target 1 responds first.
            let mut inputs = DutInputs::idle(&cfg);
            inputs.initiator[0].r_gnt = true;
            inputs.target[1].r_req = true;
            inputs.target[1].r_cell = RspCell::ok(InitiatorId(0), TransactionId(2), true);
            node.step(&inputs)
        };

        let mut clean = BcaNode::new(cfg.clone(), Fidelity::Exact);
        let out = mk(&mut clean);
        assert!(!out.initiator[0].r_req, "ordered node holds the response");

        let mut buggy = BcaNode::new(cfg.clone(), Fidelity::Exact);
        buggy.inject_bug(BcaBug::ReorderedT2Responses);
        let out = mk(&mut buggy);
        assert!(out.initiator[0].r_req, "buggy node delivers out of order");
        assert_eq!(out.initiator[0].r_cell.tid, TransactionId(2));
    }

    #[test]
    fn bug_b3_corrupts_ooo_tid_only() {
        let cfg = NodeConfig::reference(); // Type 3
        let mut node = BcaNode::new(cfg.clone(), Fidelity::Exact);
        node.inject_bug(BcaBug::CorruptedOooTid);

        // Two loads from initiator 0: first to target 0, then target 1.
        for (addr, tid) in [(0x0000_0000u64, 4u8), (0x0100_0000, 8)] {
            let mut inputs = DutInputs::idle(&cfg);
            inputs.initiator[0].req = true;
            inputs.initiator[0].cell = load_cell(&cfg, 0, addr, tid);
            inputs.target[0].gnt = true;
            inputs.target[1].gnt = true;
            node.step(&inputs);
        }
        // Target 1 responds first (out of order) — tid gets corrupted.
        let mut inputs = DutInputs::idle(&cfg);
        inputs.initiator[0].r_gnt = true;
        inputs.target[1].r_req = true;
        inputs.target[1].r_cell = RspCell::ok(InitiatorId(0), TransactionId(8), true);
        let out = node.step(&inputs);
        assert!(out.initiator[0].r_req);
        assert_eq!(
            out.initiator[0].r_cell.tid,
            TransactionId(9),
            "low bit flipped"
        );

        // Target 0's (in-order) response stays intact.
        let mut inputs = DutInputs::idle(&cfg);
        inputs.initiator[0].r_gnt = true;
        inputs.target[0].r_req = true;
        inputs.target[0].r_cell = RspCell::ok(InitiatorId(0), TransactionId(4), true);
        let out = node.step(&inputs);
        assert!(out.initiator[0].r_req);
        assert_eq!(out.initiator[0].r_cell.tid, TransactionId(4));
    }

    #[test]
    fn bug_b5_lets_chunks_interleave() {
        let cfg = NodeConfig::reference();
        let run = |inject: bool| -> bool {
            let mut node = BcaNode::new(cfg.clone(), Fidelity::Exact);
            if inject {
                node.inject_bug(BcaBug::IgnoredChunkLock);
            }
            // Initiator 0 opens a locked chunk on target 0.
            let mut locked = load_cell(&cfg, 0, 0x0, 1);
            locked.lock = true;
            let mut inputs = DutInputs::idle(&cfg);
            inputs.initiator[0].req = true;
            inputs.initiator[0].cell = locked;
            inputs.target[0].gnt = true;
            node.step(&inputs);
            // Initiator 1 tries target 0 inside the chunk.
            let mut inputs = DutInputs::idle(&cfg);
            inputs.initiator[1].req = true;
            inputs.initiator[1].cell = load_cell(&cfg, 1, 0x40, 2);
            inputs.target[0].gnt = true;
            let out = node.step(&inputs);
            out.initiator[1].gnt
        };
        assert!(!run(false), "clean node honors the chunk lock");
        assert!(run(true), "buggy node interleaves");
    }

    #[test]
    fn bug_b2_starves_under_lru() {
        let cfg = NodeConfig::reference(); // LRU
        let run = |inject: bool| -> Vec<usize> {
            let mut node = BcaNode::new(cfg.clone(), Fidelity::Exact);
            if inject {
                node.inject_bug(BcaBug::StuckLruState);
            }
            let mut grants = vec![0usize; 2];
            for k in 0..10u64 {
                let mut inputs = DutInputs::idle(&cfg);
                for i in 0..2u8 {
                    inputs.initiator[i as usize].req = true;
                    inputs.initiator[i as usize].cell = load_cell(&cfg, i, 8 * k, k as u8);
                    inputs.initiator[i as usize].r_gnt = true;
                }
                inputs.target[0].gnt = true;
                let out = node.step(&inputs);
                for (i, g) in grants.iter_mut().enumerate() {
                    if out.initiator[i].gnt {
                        *g += 1;
                    }
                }
                // Let targets respond so max_outstanding never gates.
                let mut idle = DutInputs::idle(&cfg);
                for i in 0..2 {
                    idle.initiator[i].r_gnt = true;
                }
                idle.target[0].r_req = true;
                idle.target[0].r_cell = RspCell::ok(
                    InitiatorId(if out.initiator[0].gnt { 0 } else { 1 }),
                    TransactionId(k as u8),
                    true,
                );
                node.step(&idle);
            }
            grants
        };
        let fair = run(false);
        assert!(fair[1] >= 3, "healthy LRU shares the bus: {fair:?}");
        let starved = run(true);
        assert_eq!(starved[1], 0, "stuck LRU starves initiator 1: {starved:?}");
    }

    #[test]
    fn reset_clears_everything() {
        let cfg = NodeConfig::reference();
        let mut node = BcaNode::new(cfg.clone(), Fidelity::Relaxed);
        let mut inputs = DutInputs::idle(&cfg);
        inputs.initiator[0].req = true;
        inputs.initiator[0].cell = load_cell(&cfg, 0, 0x0, 1);
        inputs.target[0].gnt = true;
        node.step(&inputs);
        assert_eq!(node.cycles(), 1);
        node.reset();
        assert_eq!(node.cycles(), 0);
        let out = node.step(&DutInputs::idle(&cfg));
        assert!(out.initiator.iter().all(|p| !p.gnt && !p.r_req));
    }
}
