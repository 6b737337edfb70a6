//! The initiator harness (BFM): drives constrained-random request traffic
//! and consumes responses, exactly like the paper's CATG harnesses.

use crate::record::CycleRecord;
use crate::traffic::{throttled, TransactionPlan};
use stbus_protocol::packet::PacketParams;
use stbus_protocol::{
    InitiatorId, InitiatorPortIn, NodeConfig, Opcode, ProtocolType, RequestPacket, RspKind,
    TransactionId,
};
use std::collections::VecDeque;

#[derive(Clone, Debug)]
struct PendingTx {
    tid: TransactionId,
    opcode: Opcode,
    addr: u64,
    expect_error: bool,
}

/// Per-initiator completion statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InitiatorStats {
    /// Request packets fully granted.
    pub issued: u64,
    /// Response packets fully received.
    pub completed: u64,
    /// Responses that carried an error flag.
    pub errors: u64,
    /// Sum over completed transactions of (completion − issue) cycles.
    pub total_latency: u64,
}

/// A bus-functional model of one initiator.
///
/// The BFM is a Moore machine: its cycle-*N* outputs depend only on what
/// it observed up to cycle *N−1*, which is what makes the closed loop
/// around either DUT view deterministic.
#[derive(Debug)]
pub struct InitiatorBfm {
    index: usize,
    params: PacketParams,
    protocol: ProtocolType,
    plans: VecDeque<TransactionPlan>,
    current: Option<(RequestPacket, usize, bool, u64)>, // packet, cell idx, expect_error, start cycle
    /// Type 3: tid slots; `Some` while outstanding.
    tid_slots: Vec<Option<PendingTx>>,
    /// Ordered protocols: outstanding in issue order.
    pending_fifo: VecDeque<PendingTx>,
    /// Type 3: rotating allocation cursor, so tid values are a pure
    /// function of issue order (not of response timing) and a one-cycle
    /// completion shift cannot cascade into a different stimulus.
    next_tid: usize,
    /// Per tid: the issue cycle of the transaction last issued with it.
    issue_cycles: Vec<Option<u64>>,
    rsp_cells: usize,
    seed: u64,
    throttle_percent: u32,
    stats: InitiatorStats,
    unexpected: Vec<String>,
}

impl InitiatorBfm {
    /// Builds the harness for initiator `index` with a pre-generated
    /// schedule.
    pub fn new(
        config: &NodeConfig,
        index: usize,
        plans: Vec<TransactionPlan>,
        seed: u64,
        throttle_percent: u32,
    ) -> Self {
        let tid_space = match config.protocol {
            ProtocolType::Type3 => config.max_outstanding.clamp(1, 256),
            _ => 1,
        };
        InitiatorBfm {
            index,
            params: PacketParams {
                bus_bytes: config.bus_bytes,
                protocol: config.protocol,
                endianness: config.endianness,
            },
            protocol: config.protocol,
            plans: plans.into(),
            current: None,
            tid_slots: vec![None; tid_space],
            pending_fifo: VecDeque::new(),
            next_tid: 0,
            issue_cycles: vec![None; tid_space],
            rsp_cells: 0,
            seed,
            throttle_percent,
            stats: InitiatorStats::default(),
            unexpected: Vec::new(),
        }
    }

    /// The port index this BFM drives.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The statistics so far.
    pub fn stats(&self) -> InitiatorStats {
        self.stats
    }

    /// Unexpected observations (responses that contradict expectations).
    pub fn anomalies(&self) -> &[String] {
        &self.unexpected
    }

    /// True when the schedule is exhausted and no transaction is
    /// outstanding.
    pub fn done(&self) -> bool {
        self.plans.is_empty()
            && self.current.is_none()
            && self.tid_slots.iter().all(Option::is_none)
            && self.pending_fifo.is_empty()
    }

    fn allocate_tid(&mut self) -> Option<TransactionId> {
        match self.protocol {
            ProtocolType::Type3 => {
                let k = self.next_tid;
                if self.tid_slots[k].is_none() {
                    self.next_tid = (k + 1) % self.tid_slots.len();
                    Some(TransactionId(k as u8))
                } else {
                    None // wait for the rotating slot to free
                }
            }
            ProtocolType::Type1 => {
                // No split transactions: one at a time.
                self.pending_fifo.is_empty().then_some(TransactionId(0))
            }
            ProtocolType::Type2 => Some(TransactionId(0)),
        }
    }

    /// Produces the cycle-`cycle` port inputs (Moore).
    pub fn drive(&mut self, cycle: u64) -> InitiatorPortIn {
        let mut out = InitiatorPortIn {
            r_gnt: !throttled(
                self.seed,
                31 * self.index as u64 + 1,
                cycle,
                self.throttle_percent,
            ),
            ..InitiatorPortIn::default()
        };
        if self.current.is_none() {
            let ready = self.plans.front().is_some_and(|p| p.issue_cycle <= cycle);
            if ready {
                if let Some(tid) = self.allocate_tid() {
                    let plan = self.plans.pop_front().expect("front checked");
                    let packet = RequestPacket::build(
                        plan.opcode,
                        plan.addr,
                        &plan.payload,
                        self.params,
                        InitiatorId(self.index as u8),
                        tid,
                        plan.pri,
                        plan.lock,
                    )
                    .expect("generated plans are protocol-legal");
                    self.current = Some((packet, 0, plan.expect_error, cycle));
                }
            }
        }
        if let Some((packet, idx, _, _)) = &self.current {
            out.req = true;
            out.cell = packet.cells()[*idx];
        }
        out
    }

    /// Digests the cycle's record (call after the DUT stepped).
    pub fn observe(&mut self, rec: &CycleRecord) {
        // Request handshake.
        if rec.request_fires(crate::record::PortId::Initiator(self.index)) {
            let (packet, idx, expect_error, start) =
                self.current.as_mut().expect("granted while driving");
            *idx += 1;
            if *idx == packet.len() {
                let pending = PendingTx {
                    tid: packet.tid(),
                    opcode: packet.opcode(),
                    addr: packet.addr(),
                    expect_error: *expect_error,
                };
                let slot = pending.tid.0 as usize;
                self.issue_cycles[slot] = Some(*start);
                match self.protocol {
                    ProtocolType::Type3 => {
                        self.tid_slots[slot] = Some(pending);
                    }
                    _ => self.pending_fifo.push_back(pending),
                }
                self.stats.issued += 1;
                self.current = None;
            }
        }
        // Response handshake.
        let (r_req, r_cell, r_gnt) = rec.init_response(self.index);
        if r_req && r_gnt {
            self.rsp_cells += 1;
            if r_cell.eop {
                self.rsp_cells = 0;
                let pending = match self.protocol {
                    ProtocolType::Type3 => {
                        let slot = self.tid_slots.get_mut(r_cell.tid.0 as usize);
                        match slot {
                            Some(s) if s.is_some() => s.take(),
                            _ => {
                                self.unexpected.push(format!(
                                    "cycle {}: response with unknown tid {}",
                                    rec.cycle, r_cell.tid
                                ));
                                None
                            }
                        }
                    }
                    _ => self.pending_fifo.pop_front(),
                };
                if let Some(p) = pending {
                    self.stats.completed += 1;
                    let is_err = r_cell.kind == RspKind::Error;
                    if is_err {
                        self.stats.errors += 1;
                    }
                    if is_err != p.expect_error {
                        self.unexpected.push(format!(
                            "cycle {}: {} at {:#x} expected_error={} got_error={}",
                            rec.cycle, p.opcode, p.addr, p.expect_error, is_err
                        ));
                    }
                    if let Some(start) = self.issue_cycles[p.tid.0 as usize].take() {
                        self.stats.total_latency += rec.cycle.saturating_sub(start);
                    }
                } else if self.protocol != ProtocolType::Type3 {
                    self.unexpected
                        .push(format!("cycle {}: orphan response", rec.cycle));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CycleRecord;
    use crate::traffic::{generate_plans, TrafficProfile};
    use stbus_protocol::{DutInputs, DutOutputs, NodeConfig, RspCell};

    fn bfm(cfg: &NodeConfig, n: usize) -> InitiatorBfm {
        let profile = TrafficProfile {
            n_transactions: n,
            mean_gap: 0,
            ..TrafficProfile::default()
        };
        InitiatorBfm::new(cfg, 0, generate_plans(&profile, cfg, 0, 1), 1, 0)
    }

    fn record_with(
        cfg: &NodeConfig,
        inputs: DutInputs,
        f: impl FnOnce(&mut DutOutputs),
    ) -> CycleRecord {
        let mut outputs = DutOutputs::idle(cfg);
        f(&mut outputs);
        CycleRecord {
            cycle: 1,
            inputs,
            outputs,
        }
    }

    #[test]
    fn drives_first_plan_when_due() {
        let cfg = NodeConfig::reference();
        let mut b = bfm(&cfg, 3);
        let p = b.drive(1);
        assert!(p.req);
        assert!(p.r_gnt);
        assert!(!b.done());
    }

    #[test]
    fn grant_advances_and_completion_frees_tid() {
        let cfg = NodeConfig::reference();
        let mut b = bfm(&cfg, 1);
        let pin = b.drive(1);
        assert!(pin.req);
        let tid = pin.cell.tid;

        // Grant every cell of the request.
        let mut guard = 0;
        loop {
            let pin = b.drive(1 + guard);
            if !pin.req {
                break;
            }
            let mut inputs = DutInputs::idle(&cfg);
            inputs.initiator[0] = pin;
            let rec = record_with(&cfg, inputs, |o| o.initiator[0].gnt = true);
            b.observe(&rec);
            guard += 1;
            assert!(guard < 20, "request should complete");
        }
        assert_eq!(b.stats().issued, 1);
        assert!(!b.done(), "response still outstanding");

        // Deliver the response.
        let mut inputs = DutInputs::idle(&cfg);
        inputs.initiator[0] = b.drive(10);
        let rec = record_with(&cfg, inputs, |o| {
            o.initiator[0].r_req = true;
            o.initiator[0].r_cell = RspCell::ok(InitiatorId(0), tid, true);
        });
        b.observe(&rec);
        assert_eq!(b.stats().completed, 1);
        assert!(b.done());
        assert!(b.anomalies().is_empty(), "{:?}", b.anomalies());
    }

    #[test]
    fn unknown_tid_is_flagged() {
        let cfg = NodeConfig::reference();
        let mut b = bfm(&cfg, 1);
        let mut inputs = DutInputs::idle(&cfg);
        inputs.initiator[0] = b.drive(1);
        let rec = record_with(&cfg, inputs, |o| {
            o.initiator[0].r_req = true;
            o.initiator[0].r_cell = RspCell::ok(InitiatorId(0), TransactionId(3), true);
        });
        b.observe(&rec);
        assert!(!b.anomalies().is_empty());
    }

    #[test]
    fn respects_issue_schedule() {
        let cfg = NodeConfig::reference();
        let profile = TrafficProfile {
            n_transactions: 1,
            mean_gap: 0,
            ..TrafficProfile::default()
        };
        let mut plans = generate_plans(&profile, &cfg, 0, 1);
        plans[0].issue_cycle = 50;
        let mut b = InitiatorBfm::new(&cfg, 0, plans, 1, 0);
        assert!(!b.drive(10).req, "too early");
        assert!(b.drive(50).req);
    }

    #[test]
    fn latency_statistics_accumulate() {
        let cfg = NodeConfig::reference();
        let mut b = bfm(&cfg, 1);
        let pin = b.drive(1);
        let tid = pin.cell.tid;
        // Granted at cycle 1, response at cycle 9 -> latency 8.
        let mut inputs = DutInputs::idle(&cfg);
        inputs.initiator[0] = pin;
        let rec = record_with(&cfg, inputs, |o| o.initiator[0].gnt = true);
        b.observe(&CycleRecord { cycle: 1, ..rec });
        let mut inputs = DutInputs::idle(&cfg);
        inputs.initiator[0] = b.drive(9);
        let rec = record_with(&cfg, inputs, |o| {
            o.initiator[0].r_req = true;
            o.initiator[0].r_cell = RspCell::ok(InitiatorId(0), tid, true);
        });
        b.observe(&CycleRecord { cycle: 9, ..rec });
        assert_eq!(b.stats().total_latency, 8);
        assert_eq!(b.stats().completed, 1);
    }

    #[test]
    fn tid_rotation_is_timing_independent() {
        // Two harnesses with identical plans allocate identical tids even
        // if their responses complete in different orders.
        let cfg = NodeConfig::reference();
        let profile = TrafficProfile {
            n_transactions: 4,
            mean_gap: 0,
            // Loads only: request packets are single-cell, so each grant
            // completes one issue regardless of the RNG stream's sizes.
            op_mix: crate::traffic::OpMix::loads_only(),
            ..TrafficProfile::default()
        };
        let plans = generate_plans(&profile, &cfg, 0, 3);
        let mut a = InitiatorBfm::new(&cfg, 0, plans.clone(), 1, 0);
        let mut b = InitiatorBfm::new(&cfg, 0, plans, 1, 0);
        let grant_next = |h: &mut InitiatorBfm, cycle: u64| -> Option<u8> {
            let pin = h.drive(cycle);
            if !pin.req {
                return None;
            }
            let tid = pin.cell.tid.0;
            let mut inputs = DutInputs::idle(&cfg);
            inputs.initiator[0] = pin;
            let rec = record_with(&cfg, inputs, |o| o.initiator[0].gnt = true);
            h.observe(&CycleRecord { cycle, ..rec });
            Some(tid)
        };
        let t_a: Vec<_> = (1..=4).filter_map(|c| grant_next(&mut a, c)).collect();
        let t_b: Vec<_> = (1..=4).filter_map(|c| grant_next(&mut b, c)).collect();
        assert_eq!(t_a, t_b);
        assert_eq!(t_a, vec![0, 1, 2, 3], "rotating allocation");
    }

    #[test]
    fn throttle_lowers_r_gnt_sometimes() {
        let cfg = NodeConfig::reference();
        let profile = TrafficProfile::default();
        let mut b = InitiatorBfm::new(&cfg, 0, generate_plans(&profile, &cfg, 0, 1), 9, 50);
        let low = (0..200).filter(|c| !b.drive(*c).r_gnt).count();
        assert!((50..150).contains(&low), "≈50%: {low}");
    }
}
