//! The target harness (BFM): a reactive memory-model slave with a
//! configurable latency and acceptance profile.

use crate::harness::throttled;
use crate::memory::SparseMemory;
use crate::record::{CycleRecord, PortId};
use stbus_protocol::packet::{response_cells, PacketParams, RequestPacket, ResponsePacket};
use stbus_protocol::{NodeConfig, ReqCell, TargetPortIn};
use std::collections::VecDeque;

/// The speed personality of one target — the paper's out-of-order test
/// forces short transactions toward "different targets, having different
/// speed".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TargetProfile {
    /// Minimum response latency in cycles (≥ 1).
    pub min_latency: u64,
    /// Maximum response latency in cycles (≥ min).
    pub max_latency: u64,
    /// Percent (0–100) of cycles the target refuses new request cells.
    pub gnt_throttle_percent: u32,
}

impl Default for TargetProfile {
    fn default() -> Self {
        TargetProfile {
            min_latency: 2,
            max_latency: 6,
            gnt_throttle_percent: 0,
        }
    }
}

impl TargetProfile {
    /// A fast target (1–2 cycles, never throttles).
    pub fn fast() -> Self {
        TargetProfile {
            min_latency: 1,
            max_latency: 2,
            gnt_throttle_percent: 0,
        }
    }

    /// A slow target (10–20 cycles) that also throttles acceptance.
    pub fn slow() -> Self {
        TargetProfile {
            min_latency: 10,
            max_latency: 20,
            gnt_throttle_percent: 30,
        }
    }
}

#[derive(Debug)]
struct QueuedResponse {
    ready_at: u64,
    packet: ResponsePacket,
    sent: usize,
}

/// A bus-functional model of one target: accepts request packets,
/// executes them against a private [`SparseMemory`], and answers after a
/// deterministic per-transaction latency.
///
/// Like the initiator BFM it is a Moore machine, and all its "randomness"
/// (acceptance throttle, latency jitter) is a pure function of
/// `(seed, cycle)` or of the transaction identity — so a small timing
/// perturbation in one DUT view does not cascade.
#[derive(Debug)]
pub struct TargetBfm {
    index: usize,
    profile: TargetProfile,
    params: PacketParams,
    memory: SparseMemory,
    rx_cells: Vec<ReqCell>,
    queue: VecDeque<QueuedResponse>,
    seed: u64,
    accepted_packets: u64,
}

impl TargetBfm {
    /// Builds the BFM for target port `index`.
    pub fn new(config: &NodeConfig, index: usize, profile: TargetProfile, seed: u64) -> Self {
        TargetBfm {
            index,
            profile,
            params: PacketParams {
                bus_bytes: config.bus_bytes,
                protocol: config.protocol,
                endianness: config.endianness,
            },
            memory: SparseMemory::new(),
            rx_cells: Vec::new(),
            queue: VecDeque::new(),
            seed,
            accepted_packets: 0,
        }
    }

    /// The port index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Request packets fully accepted so far.
    pub fn accepted_packets(&self) -> u64 {
        self.accepted_packets
    }

    /// The memory content (for directed tests and debugging).
    pub fn memory(&self) -> &SparseMemory {
        &self.memory
    }

    /// True when no response is queued or in flight.
    pub fn drained(&self) -> bool {
        self.queue.is_empty() && self.rx_cells.is_empty()
    }

    /// Deterministic per-transaction latency jitter.
    fn latency_for(&self, addr: u64, tid: u8) -> u64 {
        let span = self
            .profile
            .max_latency
            .saturating_sub(self.profile.min_latency)
            + 1;
        let x = addr
            .wrapping_mul(0xFF51_AFD7_ED55_8CCD)
            .wrapping_add((tid as u64).wrapping_mul(0xC4CE_B9FE_1A85_EC53))
            .wrapping_add(self.seed);
        self.profile.min_latency + ((x ^ (x >> 33)) % span)
    }

    /// Produces the cycle-`cycle` port inputs (Moore).
    pub fn drive(&mut self, cycle: u64) -> TargetPortIn {
        let mut out = TargetPortIn {
            gnt: !throttled(
                self.seed,
                977 * self.index as u64 + 13,
                cycle,
                self.profile.gnt_throttle_percent,
            ),
            ..TargetPortIn::default()
        };
        if let Some(front) = self.queue.front() {
            if front.ready_at <= cycle {
                out.r_req = true;
                out.r_cell = front.packet.cells()[front.sent];
            }
        }
        out
    }

    /// Digests the cycle's record (call after the DUT stepped).
    pub fn observe(&mut self, rec: &CycleRecord) {
        // Request side: collect forwarded cells.
        if rec.request_fires(PortId::Target(self.index)) {
            let (_, cell, _) = rec.target_request(self.index);
            self.rx_cells.push(*cell);
            if cell.eop {
                let cells = std::mem::take(&mut self.rx_cells);
                let packet = RequestPacket::from_cells(cells);
                let response = self.execute(&packet);
                let ready_at = rec.cycle + self.latency_for(packet.addr(), packet.tid().0);
                self.queue.push_back(QueuedResponse {
                    ready_at,
                    packet: response,
                    sent: 0,
                });
                self.accepted_packets += 1;
            }
        }
        // Response side: advance delivery.
        if rec.response_fires(PortId::Target(self.index)) {
            let front = self.queue.front_mut().expect("presented a response");
            front.sent += 1;
            if front.sent == front.packet.len() {
                self.queue.pop_front();
            }
        }
    }

    /// Executes a packet against the memory and builds the response.
    fn execute(&mut self, packet: &RequestPacket) -> ResponsePacket {
        let opcode = packet.opcode();
        let size = opcode.size().bytes();
        let bus = self.params.bus_bytes as u64;
        let n_cells = response_cells(opcode, self.params.protocol, self.params.bus_bytes);

        // Loads/atomics return the pre-write content at the transfer
        // address.
        let old = opcode
            .has_response_data()
            .then(|| self.memory.read(packet.addr(), size));
        if opcode.writes_memory() {
            // Apply each cell's lanes under its byte enables; lane k of a
            // cell maps to (bus-aligned cell base) + k.
            for cell in packet.cells() {
                if cell.be == 0 {
                    continue;
                }
                let base = cell.addr & !(bus - 1);
                self.memory
                    .write_masked(base, cell.data.lanes(self.params.bus_bytes), cell.be);
            }
        }
        match old {
            Some(old) => ResponsePacket::ok_with_data(
                packet.src(),
                packet.tid(),
                &old,
                self.params.bus_bytes,
                n_cells,
            ),
            None => ResponsePacket::ok_ack(packet.src(), packet.tid(), n_cells),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbus_protocol::{
        DutInputs, DutOutputs, InitiatorId, NodeConfig, Opcode, TransactionId, TransferSize,
    };

    fn cfg() -> NodeConfig {
        NodeConfig::reference()
    }

    fn feed_packet(
        bfm: &mut TargetBfm,
        config: &NodeConfig,
        packet: &RequestPacket,
        start: u64,
    ) -> u64 {
        let mut cycle = start;
        for cell in packet.cells() {
            let mut outputs = DutOutputs::idle(config);
            outputs.target[bfm.index()].req = true;
            outputs.target[bfm.index()].cell = *cell;
            let mut inputs = DutInputs::idle(config);
            inputs.target[bfm.index()].gnt = true;
            bfm.observe(&CycleRecord {
                cycle,
                inputs,
                outputs,
            });
            cycle += 1;
        }
        cycle
    }

    fn params(config: &NodeConfig) -> PacketParams {
        PacketParams {
            bus_bytes: config.bus_bytes,
            protocol: config.protocol,
            endianness: config.endianness,
        }
    }

    #[test]
    fn store_then_load_round_trips_through_memory() {
        let c = cfg();
        let mut bfm = TargetBfm::new(&c, 0, TargetProfile::fast(), 7);
        let payload: Vec<u8> = (0..16).collect();
        let store = RequestPacket::build(
            Opcode::store(TransferSize::B16),
            0x40,
            &payload,
            params(&c),
            InitiatorId(0),
            TransactionId(0),
            0,
            false,
        )
        .unwrap();
        let t = feed_packet(&mut bfm, &c, &store, 1);
        assert_eq!(bfm.accepted_packets(), 1);
        assert_eq!(bfm.memory().read(0x40, 16), payload);

        let load = RequestPacket::build(
            Opcode::load(TransferSize::B16),
            0x40,
            &[],
            params(&c),
            InitiatorId(0),
            TransactionId(1),
            0,
            false,
        )
        .unwrap();
        let t = feed_packet(&mut bfm, &c, &load, t);

        // Wait for the response to become ready, then drain it.
        let mut got = Vec::new();
        for cycle in t..t + 40 {
            let pin = bfm.drive(cycle);
            if pin.r_req && pin.r_cell.tid == TransactionId(1) {
                got.extend_from_slice(pin.r_cell.data.lanes(c.bus_bytes));
                let mut inputs = DutInputs::idle(&c);
                inputs.target[0] = pin;
                let mut outputs = DutOutputs::idle(&c);
                outputs.target[0].r_gnt = true;
                bfm.observe(&CycleRecord {
                    cycle,
                    inputs,
                    outputs,
                });
                if pin.r_cell.eop {
                    break;
                }
            } else if pin.r_req {
                // Drain the store ack first.
                let mut inputs = DutInputs::idle(&c);
                inputs.target[0] = pin;
                let mut outputs = DutOutputs::idle(&c);
                outputs.target[0].r_gnt = true;
                bfm.observe(&CycleRecord {
                    cycle,
                    inputs,
                    outputs,
                });
            }
        }
        got.truncate(16);
        assert_eq!(got, payload);
        assert!(bfm.drained());
    }

    #[test]
    fn latency_respects_profile_bounds() {
        let c = cfg();
        let profile = TargetProfile {
            min_latency: 5,
            max_latency: 9,
            gnt_throttle_percent: 0,
        };
        let bfm = TargetBfm::new(&c, 1, profile, 3);
        for addr in (0..50u64).map(|k| k * 64) {
            let l = bfm.latency_for(addr, 0);
            assert!((5..=9).contains(&l), "latency {l}");
        }
    }

    #[test]
    fn sub_bus_store_respects_byte_enables() {
        let c = cfg();
        let mut bfm = TargetBfm::new(&c, 0, TargetProfile::fast(), 1);
        // Pre-fill the word so clobbering is visible.
        bfm.memory.write(0x100, &[0xEE; 8]);
        let store = RequestPacket::build(
            Opcode::store(TransferSize::B2),
            0x102,
            &[0xAB, 0xCD],
            params(&c),
            InitiatorId(0),
            TransactionId(0),
            0,
            false,
        )
        .unwrap();
        feed_packet(&mut bfm, &c, &store, 1);
        assert_eq!(
            bfm.memory().read(0x100, 8),
            vec![0xEE, 0xEE, 0xAB, 0xCD, 0xEE, 0xEE, 0xEE, 0xEE]
        );
    }

    #[test]
    fn throttle_profile_lowers_gnt() {
        let c = cfg();
        let mut bfm = TargetBfm::new(&c, 0, TargetProfile::slow(), 5);
        let low = (0..300).filter(|cy| !bfm.drive(*cy).gnt).count();
        assert!((40..160).contains(&low), "≈30%: {low}");
    }

    #[test]
    fn flush_gets_bare_ack_and_no_memory_effect() {
        let c = cfg();
        let mut bfm = TargetBfm::new(&c, 0, TargetProfile::fast(), 1);
        bfm.memory.write(0x80, &[7; 8]);
        let flush = RequestPacket::build(
            Opcode::new(stbus_protocol::OpKind::Flush, TransferSize::B8),
            0x80,
            &[],
            params(&c),
            InitiatorId(0),
            TransactionId(0),
            0,
            false,
        )
        .unwrap();
        feed_packet(&mut bfm, &c, &flush, 1);
        assert_eq!(bfm.memory().read(0x80, 8), vec![7; 8], "memory untouched");
        // Its response is a single dataless OK cell.
        for cycle in 2..20 {
            let pin = bfm.drive(cycle);
            if pin.r_req {
                assert!(pin.r_cell.eop);
                assert_eq!(pin.r_cell.kind, stbus_protocol::RspKind::Ok);
                assert_eq!(pin.r_cell.data.lanes(8), &[0; 8]);
                return;
            }
        }
        panic!("no ack presented");
    }

    #[test]
    fn swap_returns_old_value_and_writes_new() {
        let c = cfg();
        let mut bfm = TargetBfm::new(&c, 0, TargetProfile::fast(), 1);
        bfm.memory.write(0x40, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let swap = RequestPacket::build(
            Opcode::new(stbus_protocol::OpKind::Swap, TransferSize::B8),
            0x40,
            &[9; 8],
            params(&c),
            InitiatorId(0),
            TransactionId(0),
            0,
            false,
        )
        .unwrap();
        feed_packet(&mut bfm, &c, &swap, 1);
        assert_eq!(bfm.memory().read(0x40, 8), vec![9; 8], "swapped in");
        for cycle in 2..20 {
            let pin = bfm.drive(cycle);
            if pin.r_req {
                assert_eq!(pin.r_cell.data.lanes(8), &[1, 2, 3, 4, 5, 6, 7, 8]);
                return;
            }
        }
        panic!("no response presented");
    }

    #[test]
    fn latency_is_deterministic_across_instances() {
        // The timing the alignment comparison relies on: two BFMs with the
        // same seed present responses at identical cycles.
        let c = cfg();
        let mut a = TargetBfm::new(&c, 0, TargetProfile::default(), 11);
        let mut b = TargetBfm::new(&c, 0, TargetProfile::default(), 11);
        let load = RequestPacket::build(
            Opcode::load(TransferSize::B8),
            0x100,
            &[],
            params(&c),
            InitiatorId(0),
            TransactionId(0),
            0,
            false,
        )
        .unwrap();
        feed_packet(&mut a, &c, &load, 1);
        feed_packet(&mut b, &c, &load, 1);
        for cycle in 0..40 {
            assert_eq!(a.drive(cycle).r_req, b.drive(cycle).r_req, "cycle {cycle}");
        }
    }

    #[test]
    fn responses_delivered_in_fifo_order() {
        let c = cfg();
        let mut bfm = TargetBfm::new(&c, 0, TargetProfile::fast(), 1);
        // Two loads back to back.
        for (addr, tid) in [(0x0u64, 0u8), (0x40, 1)] {
            let load = RequestPacket::build(
                Opcode::load(TransferSize::B8),
                addr,
                &[],
                params(&c),
                InitiatorId(0),
                TransactionId(tid),
                0,
                false,
            )
            .unwrap();
            feed_packet(&mut bfm, &c, &load, 1);
        }
        // The first presented response must be tid 0 even if tid 1's
        // jittered latency happens to be shorter (per-target FIFO).
        for cycle in 2..40 {
            let pin = bfm.drive(cycle);
            if pin.r_req {
                assert_eq!(pin.r_cell.tid, TransactionId(0));
                break;
            }
        }
    }
}
