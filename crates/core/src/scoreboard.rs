//! The scoreboard: end-to-end data-integrity checking.
//!
//! "Automatic Check on data integrity: the DUT outputs' data correspond to
//! the inputs' one, with respect to the specifications" (paper §4). The
//! scoreboard correlates request packets observed at initiator ports with
//! their appearance at target ports (routing and payload integrity),
//! maintains a reference memory in target-commit order, and checks every
//! data-bearing response against it.

use crate::memory::SparseMemory;
use crate::monitor::MonitorEvent;
use crate::record::PortId;
use stbus_protocol::packet::{PacketParams, RequestPacket};
use stbus_protocol::NodeConfig;
use std::collections::VecDeque;

/// One data-integrity failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScoreboardError {
    /// When it was detected.
    pub cycle: u64,
    /// Where.
    pub port: PortId,
    /// Details.
    pub message: String,
}

impl std::fmt::Display for ScoreboardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[scoreboard @ {} cycle {}] {}",
            self.port, self.cycle, self.message
        )
    }
}

#[derive(Debug, Clone)]
struct SentPacket {
    packet: RequestPacket,
    target: Option<usize>,
}

#[derive(Debug, Clone)]
struct ExpectedResponse {
    tid: u8,
    /// `Some(data)` for data-bearing responses, `None` for pure acks.
    data: Option<Vec<u8>>,
}

/// The reference-model scoreboard.
#[derive(Debug)]
pub struct Scoreboard {
    params: PacketParams,
    config: NodeConfig,
    reference: SparseMemory,
    /// Per initiator: packets seen at the initiator port, awaiting their
    /// appearance at a target port.
    sent: Vec<VecDeque<SentPacket>>,
    /// Per (initiator, target): expected responses in per-target order.
    expected: Vec<Vec<VecDeque<ExpectedResponse>>>,
    /// Per initiator: outstanding error expectations (unmapped requests).
    expected_errors: Vec<VecDeque<u8>>,
    errors: Vec<ScoreboardError>,
    checks: u64,
}

impl Scoreboard {
    /// A scoreboard for one configuration.
    pub fn new(config: &NodeConfig) -> Self {
        Scoreboard {
            params: PacketParams {
                bus_bytes: config.bus_bytes,
                protocol: config.protocol,
                endianness: config.endianness,
            },
            reference: SparseMemory::new(),
            sent: vec![VecDeque::new(); config.n_initiators],
            expected: vec![vec![VecDeque::new(); config.n_targets]; config.n_initiators],
            expected_errors: vec![VecDeque::new(); config.n_initiators],
            errors: Vec::new(),
            checks: 0,
            config: config.clone(),
        }
    }

    /// Failures so far.
    pub fn errors(&self) -> &[ScoreboardError] {
        &self.errors
    }

    /// Successful comparisons so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// True when no mismatch was found.
    pub fn passed(&self) -> bool {
        self.errors.is_empty()
    }

    /// The reference memory (useful for directed tests).
    pub fn reference(&self) -> &SparseMemory {
        &self.reference
    }

    fn err(&mut self, cycle: u64, port: PortId, message: String) {
        if self.errors.len() < 200 {
            self.errors.push(ScoreboardError {
                cycle,
                port,
                message,
            });
        }
    }

    /// Digests one monitor event.
    pub fn observe(&mut self, event: &MonitorEvent) {
        match event {
            MonitorEvent::RequestPacket {
                port: PortId::Initiator(i),
                packet,
                ..
            } => {
                let target = self
                    .config
                    .address_map
                    .decode(packet.addr())
                    .map(|t| t.0 as usize);
                if target.is_none() {
                    // Unmapped: the node itself must answer with an error.
                    self.expected_errors[*i].push_back(packet.tid().0);
                } else {
                    self.sent[*i].push_back(SentPacket {
                        packet: packet.clone(),
                        target,
                    });
                }
            }
            MonitorEvent::RequestPacket {
                port: PortId::Target(t),
                packet,
                cycle,
                ..
            } => self.target_request(*t, packet, *cycle),
            MonitorEvent::ResponsePacket {
                port: PortId::Initiator(i),
                packet,
                cycle,
                responder,
                ..
            } => self.initiator_response(*i, packet, *responder, *cycle),
            _ => {}
        }
    }

    /// A request packet arrived at a target port: routing + payload
    /// integrity, then commit to the reference model.
    fn target_request(&mut self, t: usize, observed: &RequestPacket, cycle: u64) {
        let src = observed.src().0 as usize;
        let port = PortId::Target(t);
        if src >= self.sent.len() {
            self.err(
                cycle,
                port,
                format!("packet from unknown source {}", observed.src()),
            );
            return;
        }
        let pos = self.sent[src].iter().position(|s| {
            s.packet.tid() == observed.tid()
                && s.packet.addr() == observed.addr()
                && s.packet.opcode() == observed.opcode()
        });
        let Some(pos) = pos else {
            self.err(
                cycle,
                port,
                format!(
                    "no pending request matches {} {:#x} tid {} from {}",
                    observed.opcode(),
                    observed.addr(),
                    observed.tid(),
                    observed.src()
                ),
            );
            return;
        };
        let sent = self.sent[src].remove(pos).expect("position valid");

        // Routing check.
        if sent.target != Some(t) {
            self.err(
                cycle,
                port,
                format!(
                    "packet for target {:?} delivered to target {t}",
                    sent.target
                ),
            );
        } else {
            self.checks += 1;
        }
        // Cell-level integrity: payload and byte enables must survive the
        // node unchanged.
        let intent = &sent.packet;
        if intent.payload(self.params) != observed.payload(self.params) {
            self.err(cycle, port, "payload corrupted between ports".to_owned());
        } else {
            self.checks += 1;
        }
        let enables = |p: &RequestPacket| p.cells().iter().map(|c| c.be).collect::<Vec<u32>>();
        if intent
            .cells()
            .iter()
            .map(|c| c.be)
            .ne(observed.cells().iter().map(|c| c.be))
        {
            self.err(
                cycle,
                port,
                format!(
                    "byte enables altered: {:?} -> {:?}",
                    enables(intent),
                    enables(observed)
                ),
            );
        } else {
            self.checks += 1;
        }

        // Commit to the reference model in target order, using the
        // *intended* packet (so a node that corrupts data/enables diverges
        // from the reference and is caught on readback). Data-bearing
        // responses carry the content from before the write.
        let opcode = intent.opcode();
        let data = opcode
            .has_response_data()
            .then(|| self.reference.read(intent.addr(), opcode.size().bytes()));
        if opcode.writes_memory() {
            let bus = self.params.bus_bytes;
            for cell in intent.cells() {
                if cell.be == 0 {
                    continue;
                }
                let base = cell.addr & !(bus as u64 - 1);
                self.reference
                    .write_masked(base, cell.data.lanes(bus), cell.be);
            }
        }
        self.expected[src][t].push_back(ExpectedResponse {
            tid: intent.tid().0,
            data,
        });
    }

    /// A response packet completed at an initiator port.
    fn initiator_response(
        &mut self,
        i: usize,
        packet: &stbus_protocol::ResponsePacket,
        responder: Option<usize>,
        cycle: u64,
    ) {
        let port = PortId::Initiator(i);
        match responder {
            None => {
                // Internal error response: must match an unmapped request.
                if packet.is_error() {
                    if let Some(pos) = self.expected_errors[i]
                        .iter()
                        .position(|tid| *tid == packet.tid().0)
                    {
                        self.expected_errors[i].remove(pos);
                        self.checks += 1;
                    } else if self.expected_errors[i].pop_front().is_some() {
                        self.checks += 1; // ordered protocols carry tid 0
                    } else {
                        self.err(
                            cycle,
                            port,
                            "error response with no unmapped request".into(),
                        );
                    }
                } else {
                    self.err(cycle, port, "internal response without error flag".into());
                }
            }
            Some(t) => {
                let Some(exp) = self.expected[i][t].pop_front() else {
                    self.err(
                        cycle,
                        port,
                        format!("response from target {t} with nothing expected"),
                    );
                    return;
                };
                if packet.is_error() {
                    self.err(
                        cycle,
                        port,
                        format!("unexpected error response from target {t}"),
                    );
                    return;
                }
                if self.config.protocol.allows_out_of_order() && exp.tid != packet.tid().0 {
                    self.err(
                        cycle,
                        port,
                        format!("response tid {} expected {}", packet.tid(), exp.tid),
                    );
                }
                if let Some(expected_data) = exp.data {
                    let bus = self.params.bus_bytes;
                    let got = packet
                        .cells()
                        .iter()
                        .flat_map(|c| c.data.lanes(bus))
                        .take(expected_data.len());
                    if got.ne(expected_data.iter()) {
                        let got = packet.payload(bus, expected_data.len());
                        self.err(
                            cycle,
                            port,
                            format!("data mismatch: expected {expected_data:02x?}, got {got:02x?}"),
                        );
                    } else {
                        self.checks += 1;
                    }
                } else {
                    self.checks += 1;
                }
            }
        }
    }

    /// Pending work (unmatched requests/responses) — nonzero at the end of
    /// a run means the drain phase was too short.
    pub fn outstanding(&self) -> usize {
        self.sent.iter().map(VecDeque::len).sum::<usize>()
            + self
                .expected
                .iter()
                .flat_map(|v| v.iter())
                .map(VecDeque::len)
                .sum::<usize>()
            + self
                .expected_errors
                .iter()
                .map(VecDeque::len)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbus_protocol::{InitiatorId, Opcode, ResponsePacket, TransactionId, TransferSize};

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

    fn store(c: &NodeConfig, addr: u64, payload: &[u8], tid: u8) -> RequestPacket {
        RequestPacket::build(
            Opcode::store(TransferSize::from_bytes(payload.len()).unwrap()),
            addr,
            payload,
            params(c),
            InitiatorId(0),
            TransactionId(tid),
            0,
            false,
        )
        .unwrap()
    }

    fn load(c: &NodeConfig, addr: u64, size: TransferSize, tid: u8) -> RequestPacket {
        RequestPacket::build(
            Opcode::load(size),
            addr,
            &[],
            params(c),
            InitiatorId(0),
            TransactionId(tid),
            0,
            false,
        )
        .unwrap()
    }

    fn send_through(sb: &mut Scoreboard, pkt: &RequestPacket, t: usize, cycle: u64) {
        sb.observe(&MonitorEvent::RequestPacket {
            port: PortId::Initiator(pkt.src().0 as usize),
            cycle,
            start: cycle,
            packet: pkt.clone(),
        });
        sb.observe(&MonitorEvent::RequestPacket {
            port: PortId::Target(t),
            cycle: cycle + 1,
            start: cycle + 1,
            packet: pkt.clone(),
        });
    }

    #[test]
    fn write_read_round_trip_passes() {
        let c = cfg();
        let mut sb = Scoreboard::new(&c);
        let w = store(&c, 0x100, &[9, 8, 7, 6, 5, 4, 3, 2], 1);
        send_through(&mut sb, &w, 0, 1);
        let r = load(&c, 0x100, TransferSize::B8, 2);
        send_through(&mut sb, &r, 0, 5);
        // The store ack.
        sb.observe(&MonitorEvent::ResponsePacket {
            port: PortId::Initiator(0),
            cycle: 7,
            start: 7,
            packet: ResponsePacket::ok_ack(InitiatorId(0), TransactionId(1), 1),
            responder: Some(0),
        });
        // The load response with the written data.
        sb.observe(&MonitorEvent::ResponsePacket {
            port: PortId::Initiator(0),
            cycle: 9,
            start: 9,
            packet: ResponsePacket::ok_with_data(
                InitiatorId(0),
                TransactionId(2),
                &[9, 8, 7, 6, 5, 4, 3, 2],
                c.bus_bytes,
                1,
            ),
            responder: Some(0),
        });
        assert!(sb.passed(), "{:?}", sb.errors());
        assert_eq!(sb.outstanding(), 0);
        assert!(sb.checks() >= 6);
    }

    #[test]
    fn corrupted_load_data_is_caught() {
        let c = cfg();
        let mut sb = Scoreboard::new(&c);
        let w = store(&c, 0x100, &[1; 8], 1);
        send_through(&mut sb, &w, 0, 1);
        sb.observe(&MonitorEvent::ResponsePacket {
            port: PortId::Initiator(0),
            cycle: 3,
            start: 3,
            packet: ResponsePacket::ok_ack(InitiatorId(0), TransactionId(1), 1),
            responder: Some(0),
        });
        let r = load(&c, 0x100, TransferSize::B8, 2);
        send_through(&mut sb, &r, 0, 5);
        sb.observe(&MonitorEvent::ResponsePacket {
            port: PortId::Initiator(0),
            cycle: 9,
            start: 9,
            packet: ResponsePacket::ok_with_data(
                InitiatorId(0),
                TransactionId(2),
                &[0xFF; 8], // wrong
                c.bus_bytes,
                1,
            ),
            responder: Some(0),
        });
        assert!(!sb.passed());
        assert!(sb.errors()[0].message.contains("data mismatch"));
    }

    #[test]
    fn altered_byte_enables_are_caught() {
        let c = cfg();
        let mut sb = Scoreboard::new(&c);
        let w = store(&c, 0x102, &[0xAB, 0xCD], 1);
        sb.observe(&MonitorEvent::RequestPacket {
            port: PortId::Initiator(0),
            cycle: 1,
            start: 1,
            packet: w.clone(),
        });
        // The node widened the byte enables (bug B1).
        let mut cells = w.cells().to_vec();
        cells[0].be = c.full_be();
        let widened = RequestPacket::from_cells(cells);
        sb.observe(&MonitorEvent::RequestPacket {
            port: PortId::Target(0),
            cycle: 2,
            start: 2,
            packet: widened,
        });
        assert!(!sb.passed());
        assert!(sb.errors()[0].message.contains("byte enables"));
    }

    #[test]
    fn misrouted_packet_is_caught() {
        let c = cfg();
        let mut sb = Scoreboard::new(&c);
        let w = store(&c, 0x100, &[1; 8], 1); // decodes to target 0
        sb.observe(&MonitorEvent::RequestPacket {
            port: PortId::Initiator(0),
            cycle: 1,
            start: 1,
            packet: w.clone(),
        });
        sb.observe(&MonitorEvent::RequestPacket {
            port: PortId::Target(1), // wrong target!
            cycle: 2,
            start: 2,
            packet: w,
        });
        assert!(!sb.passed());
        assert!(sb.errors()[0].message.contains("delivered to target 1"));
    }

    #[test]
    fn unmapped_requests_expect_error_responses() {
        let c = cfg();
        let mut sb = Scoreboard::new(&c);
        let unmapped = c.address_map.unmapped_address().unwrap();
        let r = load(&c, unmapped, TransferSize::B8, 5);
        sb.observe(&MonitorEvent::RequestPacket {
            port: PortId::Initiator(0),
            cycle: 1,
            start: 1,
            packet: r,
        });
        assert_eq!(sb.outstanding(), 1);
        sb.observe(&MonitorEvent::ResponsePacket {
            port: PortId::Initiator(0),
            cycle: 4,
            start: 4,
            packet: ResponsePacket::error(InitiatorId(0), TransactionId(5), 1),
            responder: None,
        });
        assert!(sb.passed(), "{:?}", sb.errors());
        assert_eq!(sb.outstanding(), 0);
    }

    #[test]
    fn spurious_internal_ok_response_is_error() {
        let c = cfg();
        let mut sb = Scoreboard::new(&c);
        sb.observe(&MonitorEvent::ResponsePacket {
            port: PortId::Initiator(0),
            cycle: 4,
            start: 4,
            packet: ResponsePacket::ok_ack(InitiatorId(0), TransactionId(0), 1),
            responder: None,
        });
        assert!(!sb.passed());
    }
}
