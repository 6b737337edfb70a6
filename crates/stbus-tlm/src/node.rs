//! The untimed functional model behind the common `DutView` seam.

use crate::bugs::TlmBug;
use stbus_protocol::packet::{response_cells, ResponsePacket};
use stbus_protocol::{
    DutInputs, DutOutputs, DutView, InitiatorId, NodeConfig, ReqCell, RspCell, TargetId,
    TransactionId, ViewKind,
};
use std::collections::VecDeque;

#[derive(Clone, Debug)]
struct PendingRsp {
    responder: usize,
    /// Transaction id of the request packet, used to pair a delivered
    /// (or swallowed) response with exactly this entry.
    tid: u8,
    /// Copy of the committed request cells, kept only while the
    /// dropped-response defect is injected (its retry path re-commits
    /// them); empty otherwise.
    packet: Vec<ReqCell>,
    retried: bool,
    /// True once the packet has been released toward its target (or is
    /// answered internally). On ordered protocols packets wait in the
    /// per-initiator staging queue until every in-flight transaction of
    /// the initiator heads to the same target.
    forwarded: bool,
}

/// One committed request packet queued toward a target port.
#[derive(Clone, Debug)]
struct TgtPacket {
    cells: Vec<ReqCell>,
    sent: usize,
}

impl TgtPacket {
    fn src(&self) -> u8 {
        self.cells[0].src.0
    }

    fn chunked(&self) -> bool {
        self.cells.iter().any(|c| c.lock)
    }
}

/// An internal error response in flight: the [`ResponsePacket::error`]
/// of `cells` cells for `(src, tid)`, delivered one cell at a time.
struct ErrRsp {
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

struct TlmMetrics {
    steps: telemetry::Counter,
    packets_routed: telemetry::Counter,
    error_responses: telemetry::Counter,
    bug_triggers: telemetry::Counter,
}

/// The untimed transaction-level view of the STBus node.
///
/// It accepts every request immediately, buffers whole packets, forwards
/// them in arrival order (no arbitration policy, no architecture lane
/// limits) and routes responses back with no micro-architectural timing
/// at all.
///
/// # Example
///
/// ```
/// use stbus_tlm::TlmNode;
/// use stbus_protocol::{DutInputs, DutView, NodeConfig, ViewKind};
///
/// let cfg = NodeConfig::reference();
/// let mut node = TlmNode::new(cfg.clone());
/// assert_eq!(node.view_kind(), ViewKind::Tlm);
/// let out = node.step(&DutInputs::idle(&cfg));
/// assert!(!out.target[0].req);
/// ```
pub struct TlmNode {
    config: NodeConfig,
    cycle: u64,
    /// Per-initiator request-packet assembly.
    rx: Vec<Vec<ReqCell>>,
    /// Emptied cell vectors of delivered packets, reused for assembly so
    /// a steady-state step allocates nothing but its outputs.
    spare: Vec<Vec<ReqCell>>,
    /// Per-target queue of committed packets.
    tgt_queue: Vec<VecDeque<TgtPacket>>,
    /// Per-initiator staging queue: `(target, packet)` pairs waiting for
    /// the commit gates. On ordered protocols, forwarding a packet to a
    /// second target while responses from a first are still in flight
    /// would let per-target FIFOs invert the initiator's request order —
    /// an R-ORDER violation at best, a cross-target head-of-line deadlock
    /// at worst. On every protocol, a packet must wait while another
    /// initiator's locked chunk is open at its target.
    staged: Vec<VecDeque<(usize, TgtPacket)>>,
    /// Per-target open locked chunk: the owning initiator, set when a
    /// packet with lock cells is committed, cleared when the same
    /// initiator commits its lock-free closer. Other initiators' packets
    /// stay staged meanwhile so the chunk is contiguous in queue order.
    lock_owner: Vec<Option<usize>>,
    /// Per-target packets re-committed by the dropped-response defect,
    /// waiting for the target's chunk lock to clear.
    replay: Vec<VecDeque<TgtPacket>>,
    /// Per-initiator arrival order of responders (ordering on Type 1/2).
    order: Vec<VecDeque<PendingRsp>>,
    /// Per-initiator internal error responses.
    err_queue: Vec<VecDeque<ErrRsp>>,
    /// Per-initiator locked responder during a multi-cell response.
    rsp_route: Vec<Option<usize>>,
    /// Per-initiator responder presented but not yet accepted.
    rsp_presented: Vec<Option<usize>>,
    /// Per-initiator response being swallowed by the dropped-response
    /// defect: the losing responder and the request cells to re-commit.
    drop_route: Vec<Option<(usize, Vec<ReqCell>)>>,
    /// Wire-hold state.
    tgt_cell_hold: Vec<ReqCell>,
    init_rsp_hold: Vec<RspCell>,
    bug: Option<TlmBug>,
    metrics: Option<TlmMetrics>,
}

impl TlmNode {
    /// Builds the functional view for a configuration.
    pub fn new(config: NodeConfig) -> Self {
        let ni = config.n_initiators;
        let nt = config.n_targets;
        TlmNode {
            cycle: 0,
            rx: vec![Vec::new(); ni],
            spare: Vec::new(),
            tgt_queue: (0..nt).map(|_| VecDeque::new()).collect(),
            staged: (0..ni).map(|_| VecDeque::new()).collect(),
            lock_owner: vec![None; nt],
            replay: (0..nt).map(|_| VecDeque::new()).collect(),
            order: (0..ni).map(|_| VecDeque::new()).collect(),
            err_queue: (0..ni).map(|_| VecDeque::new()).collect(),
            rsp_route: vec![None; ni],
            rsp_presented: vec![None; ni],
            drop_route: vec![None; ni],
            tgt_cell_hold: vec![ReqCell::default(); nt],
            init_rsp_hold: vec![RspCell::default(); ni],
            bug: None,
            metrics: None,
            config,
        }
    }

    /// Injects one catalogue defect; active from the next reset-free
    /// cycle on and preserved across [`DutView::reset`].
    pub fn inject_bug(&mut self, bug: TlmBug) {
        self.bug = Some(bug);
    }

    /// Cycles stepped since construction or reset.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    fn enqueue_packet(&mut self, i: usize, mut cells: Vec<ReqCell>) {
        let first = cells[0];
        match self.config.address_map.decode(first.addr) {
            Some(TargetId(t)) => {
                let t = t as usize;
                // T2 keeps a replay copy per packet, except for locked
                // packets: replaying one lock-holding packet out of a
                // chunk would break chunk contiguity at the target and
                // muddy the defect's signature with R-CHUNK noise.
                let keep_copy =
                    self.bug == Some(TlmBug::DroppedResponse) && !cells.iter().any(|c| c.lock);
                self.order[i].push_back(PendingRsp {
                    responder: t,
                    tid: cells[0].tid.0,
                    packet: if keep_copy { cells.clone() } else { Vec::new() },
                    retried: false,
                    forwarded: false,
                });
                if let Some(m) = &self.metrics {
                    m.packets_routed.inc();
                }
                // Every packet goes through the staging queue; the commit
                // gates in `step` release it toward the target.
                self.staged[i].push_back((t, TgtPacket { cells, sent: 0 }));
            }
            None => {
                // Same per-packet split on the internal error path: each
                // request packet in the (possibly chunked) burst earns its
                // own error response.
                let nt = self.config.n_targets;
                let mut start = 0;
                for (idx, cell) in cells.iter().enumerate() {
                    if cell.eop {
                        let head = cells[start];
                        self.order[i].push_back(PendingRsp {
                            responder: nt,
                            tid: head.tid.0,
                            packet: Vec::new(),
                            retried: true,
                            forwarded: true,
                        });
                        self.err_queue[i].push_back(ErrRsp {
                            src: head.src,
                            tid: head.tid,
                            cells: response_cells(
                                head.opcode,
                                self.config.protocol,
                                self.config.bus_bytes,
                            ),
                            sent: 0,
                        });
                        if let Some(m) = &self.metrics {
                            m.error_responses.inc();
                        }
                        start = idx + 1;
                    }
                }
                cells.clear();
                self.spare.push(cells);
            }
        }
    }
}

impl DutView for TlmNode {
    fn config(&self) -> &NodeConfig {
        &self.config
    }

    fn view_kind(&self) -> ViewKind {
        ViewKind::Tlm
    }

    fn reset(&mut self) {
        let bug = self.bug;
        let metrics = self.metrics.take();
        *self = TlmNode::new(self.config.clone());
        self.bug = bug;
        self.metrics = metrics;
    }

    fn attach_metrics(&mut self, registry: &telemetry::MetricsRegistry) {
        self.metrics = Some(TlmMetrics {
            steps: registry.counter("tlm.steps"),
            packets_routed: registry.counter("tlm.packets_routed"),
            error_responses: registry.counter("tlm.error_responses"),
            bug_triggers: registry.counter("tlm.bug_triggers"),
        });
    }

    fn step(&mut self, inputs: &DutInputs) -> DutOutputs {
        let ni = self.config.n_initiators;
        let nt = self.config.n_targets;
        let ordered = !self.config.protocol.allows_out_of_order();
        assert_eq!(inputs.initiator.len(), ni, "initiator port count mismatch");
        assert_eq!(inputs.target.len(), nt, "target port count mismatch");
        let mut out = DutOutputs::idle(&self.config);
        if let Some(m) = &self.metrics {
            m.steps.inc();
        }

        // Request side: accept everything immediately; each packet is
        // committed on its eop cell so response-paced drivers keep moving
        // even mid-chunk.
        for i in 0..ni {
            let p = &inputs.initiator[i];
            if p.req {
                out.initiator[i].gnt = true;
                self.rx[i].push(p.cell);
                if p.cell.eop {
                    let fresh = self.spare.pop().unwrap_or_default();
                    let cells = std::mem::replace(&mut self.rx[i], fresh);
                    self.enqueue_packet(i, cells);
                }
            }
        }

        // Commit gates: release an initiator's staged packets, oldest
        // first. A packet waits while another initiator's locked chunk is
        // open at its target (chunk contiguity is queue order). On ordered
        // protocols it additionally waits until every in-flight
        // transaction of its initiator heads to the same target: a
        // target's FIFO head is then always the oldest response its
        // initiator is waiting for, so request order is preserved and no
        // cross-target head-of-line cycle can form. Internal error
        // responses (responder == n_targets) never occupy a target FIFO
        // and are exempt. T2's replayed packets rejoin when no chunk is
        // open at their target.
        for i in 0..ni {
            while let Some((t, _)) = self.staged[i].front() {
                let t = *t;
                if self.lock_owner[t].is_some_and(|o| o != i) {
                    break;
                }
                if ordered {
                    let clear = self.order[i]
                        .iter()
                        .filter(|p| p.forwarded && p.responder < nt)
                        .all(|p| p.responder == t);
                    if !clear {
                        break;
                    }
                }
                let (_, pkt) = self.staged[i].pop_front().expect("front just seen");
                for p in self.order[i].iter_mut() {
                    if !p.forwarded {
                        p.forwarded = true;
                        break;
                    }
                }
                if pkt.chunked() {
                    self.lock_owner[t] = Some(i);
                } else if self.lock_owner[t] == Some(i) {
                    self.lock_owner[t] = None;
                }
                // T1: the OOO fast path lets a fresh packet jump ahead of
                // its queued same-initiator predecessor. Locked chunks and
                // the in-flight front packet take the safe path.
                let jump = self.bug == Some(TlmBug::ReorderedCommit)
                    && !ordered
                    && !pkt.chunked()
                    && self.tgt_queue[t].len() >= 2
                    && self.tgt_queue[t]
                        .back()
                        .is_some_and(|b| b.sent == 0 && b.src() == pkt.src() && !b.chunked());
                if jump {
                    let at = self.tgt_queue[t].len() - 1;
                    self.tgt_queue[t].insert(at, pkt);
                    if let Some(m) = &self.metrics {
                        m.bug_triggers.inc();
                    }
                } else {
                    self.tgt_queue[t].push_back(pkt);
                }
            }
        }
        for t in 0..nt {
            if self.lock_owner[t].is_none() {
                while let Some(pkt) = self.replay[t].pop_front() {
                    self.tgt_queue[t].push_back(pkt);
                }
            }
        }

        // Forward to targets: head cell per target, all targets in
        // parallel (no architecture limits in the functional view).
        for t in 0..nt {
            if let Some(pkt) = self.tgt_queue[t].front() {
                let cell = pkt.cells[pkt.sent];
                out.target[t].req = true;
                out.target[t].cell = cell;
                if inputs.target[t].gnt {
                    self.tgt_cell_hold[t] = cell;
                    let pkt = self.tgt_queue[t].front_mut().expect("just seen");
                    pkt.sent += 1;
                    if pkt.sent == pkt.cells.len() {
                        let mut cells = self.tgt_queue[t].pop_front().expect("just seen").cells;
                        cells.clear();
                        self.spare.push(cells);
                    }
                }
            } else {
                out.target[t].cell = self.tgt_cell_hold[t];
            }
        }

        // Response side: fixed smallest-index selection with packet-route
        // and presentation holds; ordering enforced for Type 1/2.
        for j in 0..ni {
            let present = |node: &Self, r: usize| -> Option<RspCell> {
                if r < nt {
                    let tp = &inputs.target[r];
                    (tp.r_req && tp.r_cell.src.0 as usize == j).then_some(tp.r_cell)
                } else {
                    node.err_queue[j].front().map(ErrRsp::cell)
                }
            };

            // T2: arm the response-collision drop. When two targets
            // present responses for this initiator at once, the losing
            // one is marked to be swallowed — consumed from the target
            // without ever reaching the initiator — and its transaction
            // re-committed once the swallow completes.
            if self.bug == Some(TlmBug::DroppedResponse) && !ordered && self.drop_route[j].is_none()
            {
                let presenting: Vec<usize> =
                    (0..nt).filter(|r| present(self, *r).is_some()).collect();
                if presenting.len() >= 2 {
                    // The victim entry is paired by the tid of the response
                    // actually being swallowed, so the replay re-commits
                    // exactly that transaction and no other.
                    let victim = presenting.iter().rev().copied().find(|r| {
                        let tid = inputs.target[*r].r_cell.tid.0;
                        *r != presenting[0]
                            && Some(*r) != self.rsp_route[j]
                            && Some(*r) != self.rsp_presented[j]
                            && self.order[j].iter().any(|p| {
                                p.responder == *r
                                    && p.tid == tid
                                    && !p.retried
                                    && !p.packet.is_empty()
                            })
                    });
                    if let Some(v) = victim {
                        let tid = inputs.target[v].r_cell.tid.0;
                        let entry = self.order[j]
                            .iter_mut()
                            .find(|p| {
                                p.responder == v
                                    && p.tid == tid
                                    && !p.retried
                                    && !p.packet.is_empty()
                            })
                            .expect("victim has an entry");
                        entry.retried = true;
                        let packet = std::mem::take(&mut entry.packet);
                        self.drop_route[j] = Some((v, packet));
                        if let Some(m) = &self.metrics {
                            m.bug_triggers.inc();
                        }
                    }
                }
            }

            let swallowing = self.drop_route[j].as_ref().map(|(r, _)| *r);
            let front = self.order[j].front().map(|p| p.responder);
            let eligible = |r: usize| {
                let routed = match self.rsp_route[j] {
                    Some(locked) => r == locked,
                    None => !ordered || Some(r) == front,
                };
                routed && Some(r) != swallowing && present(self, r).is_some()
            };
            let winner = match self.rsp_presented[j] {
                Some(r) if eligible(r) => Some(r),
                _ => (0..=nt).find(|r| eligible(*r)),
            };
            let mut delivered = false;
            if let Some(r) = winner {
                let cell = present(self, r).expect("winner presents");
                out.initiator[j].r_req = true;
                out.initiator[j].r_cell = cell;
                if inputs.initiator[j].r_gnt {
                    self.rsp_presented[j] = None;
                    self.init_rsp_hold[j] = cell;
                    delivered = true;
                    if r < nt {
                        out.target[r].r_gnt = true;
                    } else {
                        let err = self.err_queue[j].front_mut().expect("presented");
                        err.sent += 1;
                        if err.sent == err.cells {
                            self.err_queue[j].pop_front();
                        }
                    }
                    if cell.eop {
                        self.rsp_route[j] = None;
                        // Pair the delivered response with its own entry by
                        // (responder, tid); responder-only as a fallback so
                        // bookkeeping stays sane on off-protocol stimulus.
                        if let Some(pos) = self.order[j]
                            .iter()
                            .position(|p| p.responder == r && p.tid == cell.tid.0)
                            .or_else(|| self.order[j].iter().position(|p| p.responder == r))
                        {
                            self.order[j].remove(pos);
                        }
                    } else {
                        self.rsp_route[j] = Some(r);
                    }
                } else {
                    self.rsp_presented[j] = Some(r);
                }
            } else {
                out.initiator[j].r_cell = self.init_rsp_hold[j];
            }

            // T2: swallow one cell per cycle, but never in a cycle that
            // also delivers a response to this initiator — a delivered
            // response's responder is identified by the simultaneous
            // target-port transfer, so a swallow grant alongside any
            // delivery (real target or internal error) would misattribute
            // the delivered response to the swallowed target.
            if !delivered {
                if let Some((v, _)) = self.drop_route[j] {
                    let tp = &inputs.target[v];
                    if tp.r_req && tp.r_cell.src.0 as usize == j {
                        out.target[v].r_gnt = true;
                        if tp.r_cell.eop {
                            let (_, packet) = self.drop_route[j].take().expect("swallowing");
                            if !packet.is_empty() {
                                self.replay[v].push_back(TgtPacket {
                                    cells: packet,
                                    sent: 0,
                                });
                            }
                        }
                    }
                }
            }
        }

        self.cycle += 1;
        out
    }
}

impl std::fmt::Debug for TlmNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlmNode")
            .field("config", &self.config.name)
            .field("cycle", &self.cycle)
            .field("bug", &self.bug)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbus_protocol::packet::{PacketParams, RequestPacket};
    use stbus_protocol::{InitiatorId, Opcode, TransactionId, TransferSize};

    fn cfg() -> NodeConfig {
        NodeConfig::reference()
    }

    fn load_cell(c: &NodeConfig, i: u8, addr: u64, tid: u8) -> ReqCell {
        RequestPacket::build(
            Opcode::load(TransferSize::B8),
            addr,
            &[],
            PacketParams {
                bus_bytes: c.bus_bytes,
                protocol: c.protocol,
                endianness: c.endianness,
            },
            InitiatorId(i),
            TransactionId(tid),
            0,
            false,
        )
        .unwrap()
        .cells()[0]
    }

    #[test]
    fn accepts_all_initiators_simultaneously() {
        // The functional view has no arbitration: everyone is granted at
        // once — impossible on the cycle-accurate views with one target.
        let c = cfg();
        let mut node = TlmNode::new(c.clone());
        let mut inputs = DutInputs::idle(&c);
        for i in 0..3u8 {
            inputs.initiator[i as usize].req = true;
            inputs.initiator[i as usize].cell = load_cell(&c, i, 0x40 * (i as u64 + 1), i);
        }
        let out = node.step(&inputs);
        assert!(out.initiator.iter().all(|p| p.gnt), "TLM grants everyone");
    }

    #[test]
    fn forwards_and_responds_functionally() {
        let c = cfg();
        let mut node = TlmNode::new(c.clone());
        let mut inputs = DutInputs::idle(&c);
        inputs.initiator[0].req = true;
        inputs.initiator[0].cell = load_cell(&c, 0, 0x0100_0040, 5);
        inputs.initiator[0].r_gnt = true;
        inputs.target[1].gnt = true;
        // The TLM view is combinational end to end: the forwarded cell
        // appears at target 1 within the same step.
        let out = node.step(&inputs);
        assert!(out.initiator[0].gnt);
        assert!(out.target[1].req);
        assert_eq!(out.target[1].cell.tid, TransactionId(5));

        // Target responds; the response routes straight back.
        let mut inputs = DutInputs::idle(&c);
        inputs.initiator[0].r_gnt = true;
        inputs.target[1].r_req = true;
        inputs.target[1].r_cell = RspCell::ok(InitiatorId(0), TransactionId(5), true);
        let out = node.step(&inputs);
        assert!(out.initiator[0].r_req);
        assert_eq!(out.initiator[0].r_cell.tid, TransactionId(5));
        assert!(out.target[1].r_gnt);
    }

    #[test]
    fn unmapped_gets_error_response() {
        let c = cfg();
        let unmapped = c.address_map.unmapped_address().unwrap();
        let mut node = TlmNode::new(c.clone());
        let mut inputs = DutInputs::idle(&c);
        inputs.initiator[2].req = true;
        inputs.initiator[2].cell = {
            let mut cell = load_cell(&c, 2, 0, 9);
            cell.addr = unmapped;
            cell
        };
        inputs.initiator[2].r_gnt = true;
        // Combinational: the internal error response is delivered in the
        // same step the request was absorbed.
        let out = node.step(&inputs);
        assert!(out.initiator[2].r_req);
        assert_eq!(out.initiator[2].r_cell.kind, stbus_protocol::RspKind::Error);
        assert_eq!(out.initiator[2].r_cell.tid, TransactionId(9));
    }

    #[test]
    fn chunk_packets_stay_contiguous_at_the_target() {
        let c = cfg();
        let mut node = TlmNode::new(c.clone());
        // I0 opens a chunk (lock=1) at target 0; I1 interleaves a packet
        // at the same target before I0 closes the chunk.
        let mut inputs = DutInputs::idle(&c);
        let mut locked = load_cell(&c, 0, 0x0, 1);
        locked.lock = true;
        inputs.initiator[0].req = true;
        inputs.initiator[0].cell = locked;
        inputs.initiator[1].req = true;
        inputs.initiator[1].cell = load_cell(&c, 1, 0x40, 2);
        node.step(&inputs);
        // I0 closes the chunk.
        let mut inputs = DutInputs::idle(&c);
        inputs.initiator[0].req = true;
        inputs.initiator[0].cell = load_cell(&c, 0, 0x8, 3);
        node.step(&inputs);

        // Drain target 0's queue; the two chunk cells must be adjacent.
        let mut sources = Vec::new();
        for _ in 0..6 {
            let mut inputs = DutInputs::idle(&c);
            inputs.target[0].gnt = true;
            let out = node.step(&inputs);
            if out.target[0].req {
                sources.push(out.target[0].cell.src.0);
            }
        }
        // The chunk's two packets go back to back; I1's packet committed
        // while the chunk was open, so it waits until the chunk closes.
        assert_eq!(
            sources,
            vec![0, 0, 1],
            "chunk cells contiguous: {sources:?}"
        );
    }

    #[test]
    fn reordered_commit_bug_swaps_same_initiator_packets() {
        // Commit three single-cell packets to target 0 while it refuses
        // grants: I1 first, then I0 twice. The defect inserts I0's second
        // packet ahead of its first; the clean model keeps arrival order.
        let c = cfg();
        let drain = |node: &mut TlmNode| {
            let mut tids = Vec::new();
            for _ in 0..6 {
                let mut inputs = DutInputs::idle(&c);
                inputs.target[0].gnt = true;
                let out = node.step(&inputs);
                if out.target[0].req {
                    tids.push(out.target[0].cell.tid.0);
                }
            }
            tids
        };
        let send = |node: &mut TlmNode, i: u8, tid: u8| {
            let mut inputs = DutInputs::idle(&c);
            inputs.initiator[i as usize].req = true;
            inputs.initiator[i as usize].cell = load_cell(&c, i, 0x8 * tid as u64, tid);
            node.step(&inputs);
        };

        let mut clean = TlmNode::new(c.clone());
        let mut buggy = TlmNode::new(c.clone());
        buggy.inject_bug(TlmBug::ReorderedCommit);
        for node in [&mut clean, &mut buggy] {
            send(node, 1, 1);
            send(node, 0, 2);
            send(node, 0, 3);
        }
        assert_eq!(drain(&mut clean), vec![1, 2, 3]);
        assert_eq!(drain(&mut buggy), vec![1, 3, 2], "T1 jumps the queue");
    }

    #[test]
    fn dropped_response_bug_swallows_and_replays() {
        // Two outstanding loads from I0, one per target; both targets
        // answer in the same cycle. The defect consumes the losing
        // response at the target port without delivering it, then
        // re-commits the transaction.
        let c = cfg();
        let mut node = TlmNode::new(c.clone());
        node.inject_bug(TlmBug::DroppedResponse);
        for (addr, tid) in [(0x40u64, 1u8), (0x0100_0040, 2)] {
            let mut inputs = DutInputs::idle(&c);
            inputs.initiator[0].req = true;
            inputs.initiator[0].cell = load_cell(&c, 0, addr, tid);
            inputs.target[0].gnt = true;
            inputs.target[1].gnt = true;
            node.step(&inputs);
        }

        // Collision: target 0 wins, target 1 is marked for the swallow.
        let mut inputs = DutInputs::idle(&c);
        inputs.initiator[0].r_gnt = true;
        inputs.target[0].r_req = true;
        inputs.target[0].r_cell = RspCell::ok(InitiatorId(0), TransactionId(1), true);
        inputs.target[1].r_req = true;
        inputs.target[1].r_cell = RspCell::ok(InitiatorId(0), TransactionId(2), true);
        let out = node.step(&inputs);
        assert!(out.initiator[0].r_req);
        assert_eq!(out.initiator[0].r_cell.tid, TransactionId(1));
        assert!(out.target[0].r_gnt, "winner delivered normally");
        assert!(!out.target[1].r_gnt, "loser waits for a quiet cycle");

        // Quiet cycle: the loser is consumed without any delivery.
        let mut inputs = DutInputs::idle(&c);
        inputs.initiator[0].r_gnt = true;
        inputs.target[1].r_req = true;
        inputs.target[1].r_cell = RspCell::ok(InitiatorId(0), TransactionId(2), true);
        let out = node.step(&inputs);
        assert!(out.target[1].r_gnt, "swallowed at the target port");
        assert!(!out.initiator[0].r_req, "never reaches the initiator");

        // The transaction was re-committed: the request replays.
        let out = node.step(&DutInputs::idle(&c));
        assert!(out.target[1].req, "replayed commit");
        assert_eq!(out.target[1].cell.tid, TransactionId(2));
    }

    #[test]
    fn metrics_and_bug_survive_reset() {
        let c = cfg();
        let registry = telemetry::MetricsRegistry::new();
        let mut node = TlmNode::new(c.clone());
        node.attach_metrics(&registry);
        node.inject_bug(TlmBug::ReorderedCommit);
        node.step(&DutInputs::idle(&c));
        node.reset();
        node.step(&DutInputs::idle(&c));
        assert_eq!(registry.snapshot().counters["tlm.steps"], 2);
        assert_eq!(node.bug, Some(TlmBug::ReorderedCommit));
    }
}
