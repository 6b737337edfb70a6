//! Packets: sequences of cells forming one request or one response.

use crate::cell::{CellData, InitiatorId, ReqCell, RspCell, RspKind, TransactionId};
use crate::config::{Endianness, ProtocolType};
use crate::error::BuildPacketError;
use crate::opcode::Opcode;
use serde::{Deserialize, Serialize};

/// Number of cells a `size`-byte data payload occupies on a `bus_bytes` bus.
pub fn data_cells(opcode: Opcode, bus_bytes: usize) -> usize {
    opcode.size().bytes().div_ceil(bus_bytes)
}

/// Number of cells in the *request* packet of `opcode`.
///
/// On Type 1 and Type 2 packets are symmetric: both phases carry
/// `ceil(size / bus)` cells for data operations. Type 3 allows asymmetric
/// packets, so the dataless phase shrinks to a single cell.
pub fn request_cells(opcode: Opcode, protocol: ProtocolType, bus_bytes: usize) -> usize {
    let carries_data =
        opcode.has_request_data() || (!protocol.asymmetric_packets() && opcode.has_response_data());
    if carries_data {
        data_cells(opcode, bus_bytes)
    } else {
        1
    }
}

/// Number of cells in the *response* packet of `opcode` (see
/// [`request_cells`] for the symmetry rule).
pub fn response_cells(opcode: Opcode, protocol: ProtocolType, bus_bytes: usize) -> usize {
    let carries_data =
        opcode.has_response_data() || (!protocol.asymmetric_packets() && opcode.has_request_data());
    if carries_data {
        data_cells(opcode, bus_bytes)
    } else {
        1
    }
}

/// Per-packet build parameters shared by [`RequestPacket::build`].
#[derive(Clone, Copy, Debug)]
pub struct PacketParams {
    /// Bus width in bytes.
    pub bus_bytes: usize,
    /// Protocol type of the issuing interface.
    pub protocol: ProtocolType,
    /// Byte ordering on the lanes.
    pub endianness: Endianness,
}

/// A request packet: one or more [`ReqCell`]s ending with `eop`.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RequestPacket {
    cells: Vec<ReqCell>,
}

impl RequestPacket {
    /// Builds a request packet.
    ///
    /// `payload` must be exactly `opcode.size().bytes()` long for opcodes
    /// that carry request data, and empty otherwise.
    ///
    /// # Errors
    ///
    /// * [`BuildPacketError::IllegalOpcode`] if the opcode is not allowed
    ///   on `params.protocol`,
    /// * [`BuildPacketError::Misaligned`] if `addr` is not size-aligned,
    /// * [`BuildPacketError::PayloadSize`] on a payload length mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        opcode: Opcode,
        addr: u64,
        payload: &[u8],
        params: PacketParams,
        src: InitiatorId,
        tid: TransactionId,
        pri: u8,
        lock: bool,
    ) -> Result<RequestPacket, BuildPacketError> {
        if !opcode.legal_for(params.protocol) {
            return Err(BuildPacketError::IllegalOpcode {
                opcode: opcode.to_string(),
            });
        }
        let size = opcode.size().bytes();
        if !addr.is_multiple_of(size as u64) {
            return Err(BuildPacketError::Misaligned { addr, align: size });
        }
        let expected_payload = if opcode.has_request_data() { size } else { 0 };
        if payload.len() != expected_payload {
            return Err(BuildPacketError::PayloadSize {
                expected: expected_payload,
                got: payload.len(),
            });
        }

        let bus = params.bus_bytes;
        let n_cells = request_cells(opcode, params.protocol, bus);
        let mut cells = Vec::with_capacity(n_cells);
        for k in 0..n_cells {
            let cell_addr = addr + (k * bus) as u64;
            let mut data = CellData::zero();
            let mut be = 0u32;
            if opcode.has_request_data() {
                if size < bus {
                    // Sub-bus transfer: data sits on the lanes selected by
                    // the address offset; alignment guarantees it fits.
                    let offset = (addr as usize) % bus;
                    for (j, byte) in payload.iter().enumerate() {
                        let lane = lane_index(offset + j, bus, size, params.endianness, offset);
                        data.set_byte(lane, *byte);
                        be |= 1 << lane;
                    }
                } else {
                    let chunk = &payload[k * bus..(k + 1) * bus];
                    for (j, byte) in chunk.iter().enumerate() {
                        let lane = lane_index(j, bus, bus, params.endianness, 0);
                        data.set_byte(lane, *byte);
                        be |= 1 << lane;
                    }
                }
            }
            cells.push(ReqCell {
                addr: cell_addr,
                opcode,
                data,
                be,
                eop: k == n_cells - 1,
                lock,
                tid,
                src,
                pri,
            });
        }
        Ok(RequestPacket { cells })
    }

    /// Reassembles a packet from monitored cells.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty or `eop` is not exactly on the last cell
    /// (monitors validate this before constructing packets).
    pub fn from_cells(cells: Vec<ReqCell>) -> RequestPacket {
        assert!(!cells.is_empty(), "packet needs at least one cell");
        assert!(
            cells.last().expect("nonempty").eop,
            "last cell must carry eop"
        );
        assert!(
            cells[..cells.len() - 1].iter().all(|c| !c.eop),
            "eop only on the last cell"
        );
        RequestPacket { cells }
    }

    /// The cells in transfer order.
    pub fn cells(&self) -> &[ReqCell] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Always false — packets have at least one cell.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The packet opcode (constant across cells).
    pub fn opcode(&self) -> Opcode {
        self.cells[0].opcode
    }

    /// The start address.
    pub fn addr(&self) -> u64 {
        self.cells[0].addr
    }

    /// The issuing initiator.
    pub fn src(&self) -> InitiatorId {
        self.cells[0].src
    }

    /// The transaction id.
    pub fn tid(&self) -> TransactionId {
        self.cells[0].tid
    }

    /// Extracts the store payload back out of the data lanes.
    ///
    /// Returns an empty vector for dataless requests.
    pub fn payload(&self, params: PacketParams) -> Vec<u8> {
        let opcode = self.opcode();
        if !opcode.has_request_data() {
            return Vec::new();
        }
        let size = opcode.size().bytes();
        let bus = params.bus_bytes;
        let mut out = Vec::with_capacity(size);
        if size < bus {
            let offset = (self.addr() as usize) % bus;
            for j in 0..size {
                let lane = lane_index(offset + j, bus, size, params.endianness, offset);
                out.push(self.cells[0].data.byte(lane));
            }
        } else {
            for (k, cell) in self.cells.iter().enumerate() {
                // Only the data-bearing cells contribute (all of them for
                // stores; symmetric-padding cells of loads carry none).
                if k * bus >= size {
                    break;
                }
                for j in 0..bus.min(size - k * bus) {
                    let lane = lane_index(j, bus, bus, params.endianness, 0);
                    out.push(cell.data.byte(lane));
                }
            }
        }
        out
    }
}

/// Maps payload byte position to a lane index under the configured
/// endianness. `offset` is the lane offset of the transfer inside the bus.
fn lane_index(pos: usize, bus: usize, span: usize, endianness: Endianness, offset: usize) -> usize {
    match endianness {
        Endianness::Little => pos,
        Endianness::Big => offset + (span - 1) - (pos - offset).min(span - 1),
    }
    .min(bus - 1)
}

/// A response packet: one or more [`RspCell`]s ending with `eop`.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ResponsePacket {
    cells: Vec<RspCell>,
}

impl ResponsePacket {
    /// An OK response carrying `payload` spread over `n_cells` cells.
    ///
    /// # Panics
    ///
    /// Panics if `n_cells == 0`.
    pub fn ok_with_data(
        src: InitiatorId,
        tid: TransactionId,
        payload: &[u8],
        bus_bytes: usize,
        n_cells: usize,
    ) -> ResponsePacket {
        assert!(n_cells > 0, "response needs at least one cell");
        let mut cells = Vec::with_capacity(n_cells);
        for k in 0..n_cells {
            let mut data = CellData::zero();
            let lo = k * bus_bytes;
            if lo < payload.len() {
                let hi = (lo + bus_bytes).min(payload.len());
                data.lanes_mut(hi - lo).copy_from_slice(&payload[lo..hi]);
            }
            cells.push(RspCell {
                data,
                kind: RspKind::Ok,
                eop: k == n_cells - 1,
                tid,
                src,
            });
        }
        ResponsePacket { cells }
    }

    /// An OK response with no data (store acknowledgements).
    pub fn ok_ack(src: InitiatorId, tid: TransactionId, n_cells: usize) -> ResponsePacket {
        ResponsePacket::ok_with_data(src, tid, &[], 1, n_cells)
    }

    /// An all-error response of `n_cells` cells.
    ///
    /// # Panics
    ///
    /// Panics if `n_cells == 0`.
    pub fn error(src: InitiatorId, tid: TransactionId, n_cells: usize) -> ResponsePacket {
        assert!(n_cells > 0, "response needs at least one cell");
        let cells = (0..n_cells)
            .map(|k| ResponsePacket::error_cell(src, tid, k, n_cells))
            .collect();
        ResponsePacket { cells }
    }

    /// Cell `k` of the all-error response [`ResponsePacket::error`]
    /// builds, without building the packet: `eop` on the last cell.
    ///
    /// # Panics
    ///
    /// Panics unless `k < n_cells`.
    pub fn error_cell(src: InitiatorId, tid: TransactionId, k: usize, n_cells: usize) -> RspCell {
        assert!(k < n_cells, "cell {k} of a {n_cells}-cell response");
        RspCell::error(src, tid, k == n_cells - 1)
    }

    /// Reassembles a response packet from monitored cells.
    ///
    /// # Panics
    ///
    /// Panics on an empty list or misplaced `eop` (as
    /// [`RequestPacket::from_cells`]).
    pub fn from_cells(cells: Vec<RspCell>) -> ResponsePacket {
        assert!(!cells.is_empty(), "packet needs at least one cell");
        assert!(
            cells.last().expect("nonempty").eop,
            "last cell must carry eop"
        );
        assert!(
            cells[..cells.len() - 1].iter().all(|c| !c.eop),
            "eop only on the last cell"
        );
        ResponsePacket { cells }
    }

    /// The cells in transfer order.
    pub fn cells(&self) -> &[RspCell] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Always false — packets have at least one cell.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The transaction id.
    pub fn tid(&self) -> TransactionId {
        self.cells[0].tid
    }

    /// The destination initiator.
    pub fn src(&self) -> InitiatorId {
        self.cells[0].src
    }

    /// True when any cell flags an error.
    pub fn is_error(&self) -> bool {
        self.cells.iter().any(|c| c.kind == RspKind::Error)
    }

    /// Concatenated data lanes, truncated to `size` bytes.
    pub fn payload(&self, bus_bytes: usize, size: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(size);
        for cell in &self.cells {
            for j in 0..bus_bytes {
                if out.len() == size {
                    return out;
                }
                out.push(cell.data.byte(j));
            }
        }
        out.truncate(size);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::{OpKind, TransferSize};
    use proptest::prelude::*;

    fn params(bus: usize, protocol: ProtocolType) -> PacketParams {
        PacketParams {
            bus_bytes: bus,
            protocol,
            endianness: Endianness::Little,
        }
    }

    #[test]
    fn cell_counts_symmetric_vs_asymmetric() {
        let ld32 = Opcode::load(TransferSize::B32);
        // Type 2, 8-byte bus: symmetric — 4 cells each way.
        assert_eq!(request_cells(ld32, ProtocolType::Type2, 8), 4);
        assert_eq!(response_cells(ld32, ProtocolType::Type2, 8), 4);
        // Type 3: the dataless request shrinks to one cell.
        assert_eq!(request_cells(ld32, ProtocolType::Type3, 8), 1);
        assert_eq!(response_cells(ld32, ProtocolType::Type3, 8), 4);

        let st32 = Opcode::store(TransferSize::B32);
        assert_eq!(request_cells(st32, ProtocolType::Type3, 8), 4);
        assert_eq!(response_cells(st32, ProtocolType::Type3, 8), 1);
        assert_eq!(response_cells(st32, ProtocolType::Type2, 8), 4);

        let flush = Opcode::new(OpKind::Flush, TransferSize::B16);
        assert_eq!(request_cells(flush, ProtocolType::Type2, 4), 1);
        assert_eq!(response_cells(flush, ProtocolType::Type2, 4), 1);
    }

    #[test]
    fn store_packet_lanes_and_be() {
        let payload: Vec<u8> = (0..16).collect();
        let p = RequestPacket::build(
            Opcode::store(TransferSize::B16),
            0x100,
            &payload,
            params(8, ProtocolType::Type2),
            InitiatorId(0),
            TransactionId(1),
            0,
            false,
        )
        .unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.cells()[0].addr, 0x100);
        assert_eq!(p.cells()[1].addr, 0x108);
        assert!(!p.cells()[0].eop && p.cells()[1].eop);
        assert_eq!(p.cells()[0].be, 0xFF);
        assert_eq!(p.cells()[0].data.lanes(8), &payload[..8]);
        assert_eq!(p.payload(params(8, ProtocolType::Type2)), payload);
    }

    #[test]
    fn sub_bus_store_uses_address_offset_lanes() {
        let p = RequestPacket::build(
            Opcode::store(TransferSize::B2),
            0x106, // offset 6 on an 8-byte bus
            &[0xAA, 0xBB],
            params(8, ProtocolType::Type2),
            InitiatorId(0),
            TransactionId(0),
            0,
            false,
        )
        .unwrap();
        assert_eq!(p.len(), 1);
        let c = &p.cells()[0];
        assert_eq!(c.be, 0b1100_0000);
        assert_eq!(c.data.byte(6), 0xAA);
        assert_eq!(c.data.byte(7), 0xBB);
        assert_eq!(p.payload(params(8, ProtocolType::Type2)), vec![0xAA, 0xBB]);
    }

    #[test]
    fn load_request_type2_pads_symmetric() {
        let p = RequestPacket::build(
            Opcode::load(TransferSize::B32),
            0x200,
            &[],
            params(8, ProtocolType::Type2),
            InitiatorId(1),
            TransactionId(0),
            0,
            false,
        )
        .unwrap();
        assert_eq!(p.len(), 4);
        assert!(p.cells().iter().all(|c| c.be == 0));
        assert_eq!(p.cells()[3].addr, 0x218);
    }

    #[test]
    fn build_rejects_misalignment_and_payload() {
        let e = RequestPacket::build(
            Opcode::load(TransferSize::B8),
            0x101,
            &[],
            params(8, ProtocolType::Type2),
            InitiatorId(0),
            TransactionId(0),
            0,
            false,
        )
        .unwrap_err();
        assert!(matches!(e, BuildPacketError::Misaligned { align: 8, .. }));

        let e = RequestPacket::build(
            Opcode::store(TransferSize::B4),
            0x100,
            &[1, 2],
            params(8, ProtocolType::Type2),
            InitiatorId(0),
            TransactionId(0),
            0,
            false,
        )
        .unwrap_err();
        assert!(matches!(
            e,
            BuildPacketError::PayloadSize {
                expected: 4,
                got: 2
            }
        ));

        let e = RequestPacket::build(
            Opcode::load(TransferSize::B64),
            0,
            &[],
            params(8, ProtocolType::Type1),
            InitiatorId(0),
            TransactionId(0),
            0,
            false,
        )
        .unwrap_err();
        assert!(matches!(e, BuildPacketError::IllegalOpcode { .. }));
    }

    #[test]
    fn big_endian_reverses_lanes() {
        let p = RequestPacket::build(
            Opcode::store(TransferSize::B4),
            0x0,
            &[1, 2, 3, 4],
            PacketParams {
                bus_bytes: 4,
                protocol: ProtocolType::Type2,
                endianness: Endianness::Big,
            },
            InitiatorId(0),
            TransactionId(0),
            0,
            false,
        )
        .unwrap();
        assert_eq!(p.cells()[0].data.lanes(4), &[4, 3, 2, 1]);
        // payload() undoes the mapping.
        let got = p.payload(PacketParams {
            bus_bytes: 4,
            protocol: ProtocolType::Type2,
            endianness: Endianness::Big,
        });
        assert_eq!(got, vec![1, 2, 3, 4]);
    }

    #[test]
    fn response_round_trip() {
        let payload: Vec<u8> = (10..26).collect();
        let r = ResponsePacket::ok_with_data(InitiatorId(2), TransactionId(7), &payload, 8, 2);
        assert_eq!(r.len(), 2);
        assert!(!r.is_error());
        assert_eq!(r.payload(8, 16), payload);
        assert_eq!(r.tid(), TransactionId(7));
        assert!(r.cells()[1].eop);

        let e = ResponsePacket::error(InitiatorId(0), TransactionId(1), 3);
        assert!(e.is_error());
        assert_eq!(e.len(), 3);
        for (k, cell) in e.cells().iter().enumerate() {
            let alone = ResponsePacket::error_cell(InitiatorId(0), TransactionId(1), k, 3);
            assert_eq!(*cell, alone);
        }
    }

    #[test]
    #[should_panic(expected = "cell 0 of a 0-cell response")]
    fn error_cell_rejects_an_empty_response() {
        let _ = ResponsePacket::error_cell(InitiatorId(0), TransactionId(1), 0, 0);
    }

    #[test]
    fn ack_response_has_no_data() {
        let r = ResponsePacket::ok_ack(InitiatorId(0), TransactionId(0), 2);
        assert_eq!(r.len(), 2);
        assert_eq!(r.payload(8, 0), Vec::<u8>::new());
    }

    #[test]
    #[should_panic(expected = "eop")]
    fn from_cells_rejects_missing_eop() {
        let mut c = ReqCell::new(0, Opcode::load(TransferSize::B4), InitiatorId(0));
        c.eop = false;
        let _ = RequestPacket::from_cells(vec![c]);
    }

    proptest! {
        #[test]
        fn prop_store_payload_round_trips(
            size_idx in 0usize..7,
            bus_idx in 0usize..6,
            addr_block in 0u64..256,
            seed: u64,
        ) {
            let size = TransferSize::ALL[size_idx];
            let bus = 1usize << bus_idx; // 1..32 bytes
            let p = params(bus, ProtocolType::Type2);
            let addr = addr_block * 64; // always 64-byte aligned
            let payload: Vec<u8> = (0..size.bytes())
                .map(|i| (seed.wrapping_mul(31).wrapping_add(i as u64)) as u8)
                .collect();
            let pkt = RequestPacket::build(
                Opcode::store(size), addr, &payload, p,
                InitiatorId(0), TransactionId(0), 0, false,
            ).unwrap();
            prop_assert_eq!(pkt.payload(p), payload);
            prop_assert_eq!(pkt.len(), request_cells(Opcode::store(size), ProtocolType::Type2, bus));
            // eop exactly once, at the end.
            prop_assert!(pkt.cells().last().unwrap().eop);
            prop_assert!(pkt.cells()[..pkt.len()-1].iter().all(|c| !c.eop));
        }

        #[test]
        fn prop_response_payload_round_trips(
            size_idx in 0usize..7,
            bus_idx in 0usize..6,
            seed: u64,
        ) {
            let size = TransferSize::ALL[size_idx].bytes();
            let bus = 1usize << bus_idx;
            let payload: Vec<u8> = (0..size).map(|i| (seed ^ i as u64) as u8).collect();
            let n = size.div_ceil(bus);
            let r = ResponsePacket::ok_with_data(InitiatorId(0), TransactionId(0), &payload, bus, n);
            prop_assert_eq!(r.payload(bus, size), payload);
        }
    }
}
