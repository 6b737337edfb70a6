//! Directed sequences: a blocking transactor for hand-written tests.
//!
//! The random twelve-test suite covers regression duty; sometimes an
//! engineer wants the paper's "specific test files … to test particular
//! features of the design" — a directed read/write sequence against one
//! view. [`SequenceRunner`] wraps any [`DutView`] together with
//! memory-model targets and exposes blocking `write`/`read`/`swap`
//! operations, each running the node for as many cycles as the operation
//! needs.
//!
//! # Example
//!
//! ```
//! use catg::SequenceRunner;
//! use stbus_protocol::{NodeConfig, ViewKind};
//!
//! # fn main() -> Result<(), catg::SequenceError> {
//! let config = NodeConfig::reference();
//! let dut = catg::build_view(&config, ViewKind::Bca);
//! let mut seq = SequenceRunner::new(config, dut);
//! seq.write(0x0000_0100, &[1, 2, 3, 4])?;
//! assert_eq!(seq.read(0x0000_0100, 4)?, vec![1, 2, 3, 4]);
//! # Ok(())
//! # }
//! ```

use crate::record::CycleRecord;
use crate::target::{TargetBfm, TargetProfile};
use stbus_protocol::packet::{PacketParams, RequestPacket};
use stbus_protocol::{
    BuildPacketError, DutInputs, DutView, InitiatorId, NodeConfig, OpKind, Opcode, RspCell,
    RspKind, TransactionId, TransferSize,
};
use std::fmt;

/// Cycles one directed operation may take before it fails with
/// [`SequenceError::Timeout`].
const OP_TIMEOUT: u64 = 1000;

/// Why a directed operation failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SequenceError {
    /// The data length is not a legal STBus transfer size.
    IllegalSize {
        /// The offending length.
        len: usize,
    },
    /// Packet construction failed (alignment, protocol legality…).
    Build(BuildPacketError),
    /// The node answered with an error response.
    ErrorResponse {
        /// The address of the failing operation.
        addr: u64,
    },
    /// The operation did not complete within the cycle budget.
    Timeout {
        /// Cycles waited.
        cycles: u64,
    },
}

impl fmt::Display for SequenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SequenceError::IllegalSize { len } => {
                write!(f, "{len} bytes is not a legal transfer size")
            }
            SequenceError::Build(e) => write!(f, "cannot build packet: {e}"),
            SequenceError::ErrorResponse { addr } => {
                write!(f, "error response for access at {addr:#x}")
            }
            SequenceError::Timeout { cycles } => {
                write!(f, "operation timed out after {cycles} cycles")
            }
        }
    }
}

impl std::error::Error for SequenceError {}

impl From<BuildPacketError> for SequenceError {
    fn from(e: BuildPacketError) -> Self {
        SequenceError::Build(e)
    }
}

/// A blocking directed-test transactor around one DUT view.
pub struct SequenceRunner {
    config: NodeConfig,
    dut: Box<dyn DutView>,
    targets: Vec<TargetBfm>,
    params: PacketParams,
    initiator: usize,
    tid: u8,
    cycle: u64,
}

impl SequenceRunner {
    /// Wraps a view with fast memory-model targets; operations issue from
    /// initiator port 0.
    pub fn new(config: NodeConfig, dut: Box<dyn DutView>) -> Self {
        let targets = (0..config.n_targets)
            .map(|t| TargetBfm::new(&config, t, TargetProfile::fast(), 0x5E9))
            .collect();
        SequenceRunner {
            params: PacketParams {
                bus_bytes: config.bus_bytes,
                protocol: config.protocol,
                endianness: config.endianness,
            },
            dut,
            targets,
            initiator: 0,
            tid: 0,
            cycle: 0,
            config,
        }
    }

    /// Issues operations from a different initiator port.
    pub fn set_initiator(&mut self, port: usize) {
        assert!(port < self.config.n_initiators, "port out of range");
        self.initiator = port;
    }

    /// Cycles simulated so far.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Writes `data` at `addr` (length must be a legal transfer size).
    ///
    /// # Errors
    ///
    /// See [`SequenceError`].
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), SequenceError> {
        let size = TransferSize::from_bytes(data.len())
            .ok_or(SequenceError::IllegalSize { len: data.len() })?;
        self.execute(Opcode::store(size), addr, data).map(|_| ())
    }

    /// Reads `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// See [`SequenceError`].
    pub fn read(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, SequenceError> {
        let size = TransferSize::from_bytes(len).ok_or(SequenceError::IllegalSize { len })?;
        self.execute(Opcode::load(size), addr, &[])
    }

    /// Atomically swaps `data` into `addr`, returning the old content.
    ///
    /// # Errors
    ///
    /// See [`SequenceError`].
    pub fn swap(&mut self, addr: u64, data: &[u8]) -> Result<Vec<u8>, SequenceError> {
        let size = TransferSize::from_bytes(data.len())
            .ok_or(SequenceError::IllegalSize { len: data.len() })?;
        self.execute(Opcode::new(OpKind::Swap, size), addr, data)
    }

    /// Runs one whole transaction to completion, returning response data.
    fn execute(
        &mut self,
        opcode: Opcode,
        addr: u64,
        payload: &[u8],
    ) -> Result<Vec<u8>, SequenceError> {
        let tid = TransactionId(self.tid);
        self.tid = self.tid.wrapping_add(1) % 4;
        let packet = RequestPacket::build(
            opcode,
            addr,
            payload,
            self.params,
            InitiatorId(self.initiator as u8),
            tid,
            0,
            false,
        )?;
        let mut cell_idx = 0usize;
        let mut rsp: Vec<RspCell> = Vec::new();
        let deadline = self.cycle + OP_TIMEOUT;
        while self.cycle < deadline {
            let mut inputs = DutInputs::idle(&self.config);
            inputs.initiator[self.initiator].r_gnt = true;
            if cell_idx < packet.len() {
                inputs.initiator[self.initiator].req = true;
                inputs.initiator[self.initiator].cell = packet.cells()[cell_idx];
            }
            for (t, tg) in self.targets.iter_mut().enumerate() {
                inputs.target[t] = tg.drive(self.cycle);
            }
            let outputs = self.dut.step(&inputs);
            let rec = CycleRecord {
                cycle: self.cycle,
                inputs,
                outputs,
            };
            for tg in &mut self.targets {
                tg.observe(&rec);
            }
            self.cycle += 1;

            if rec.request_fires(crate::record::PortId::Initiator(self.initiator)) {
                cell_idx += 1;
            }
            let (r_req, r_cell, r_gnt) = rec.init_response(self.initiator);
            if r_req && r_gnt && r_cell.tid == tid {
                rsp.push(*r_cell);
                if r_cell.eop {
                    if rsp.iter().any(|c| c.kind == RspKind::Error) {
                        return Err(SequenceError::ErrorResponse { addr });
                    }
                    let mut data = Vec::new();
                    for c in &rsp {
                        data.extend_from_slice(c.data.lanes(self.config.bus_bytes));
                    }
                    data.truncate(opcode.size().bytes());
                    return Ok(if opcode.has_response_data() {
                        data
                    } else {
                        Vec::new()
                    });
                }
            }
        }
        Err(SequenceError::Timeout { cycles: OP_TIMEOUT })
    }
}

impl fmt::Debug for SequenceRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SequenceRunner")
            .field("config", &self.config.name)
            .field("initiator", &self.initiator)
            .field("cycle", &self.cycle)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_view;
    use stbus_protocol::ViewKind;

    fn runner(kind: ViewKind) -> SequenceRunner {
        let config = NodeConfig::reference();
        let dut = build_view(&config, kind);
        SequenceRunner::new(config, dut)
    }

    #[test]
    fn write_read_round_trip_on_both_views() {
        for kind in [ViewKind::Rtl, ViewKind::Bca] {
            let mut seq = runner(kind);
            seq.write(0x0000_0200, &[9, 8, 7, 6, 5, 4, 3, 2]).unwrap();
            assert_eq!(
                seq.read(0x0000_0200, 8).unwrap(),
                vec![9, 8, 7, 6, 5, 4, 3, 2],
                "{kind}"
            );
        }
    }

    #[test]
    fn swap_returns_old_value() {
        let mut seq = runner(ViewKind::Bca);
        seq.write(0x0100_0040, &[1, 1, 1, 1]).unwrap();
        let old = seq.swap(0x0100_0040, &[2, 2, 2, 2]).unwrap();
        assert_eq!(old, vec![1, 1, 1, 1]);
        assert_eq!(seq.read(0x0100_0040, 4).unwrap(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn unmapped_address_reports_error_response() {
        let mut seq = runner(ViewKind::Bca);
        let unmapped = NodeConfig::reference()
            .address_map
            .unmapped_address()
            .unwrap();
        let err = seq.read(unmapped, 8).unwrap_err();
        assert!(matches!(err, SequenceError::ErrorResponse { .. }));
        // The runner survives and keeps working.
        seq.write(0x0000_0300, &[5; 8]).unwrap();
        assert_eq!(seq.read(0x0000_0300, 8).unwrap(), vec![5; 8]);
    }

    #[test]
    fn illegal_size_and_misalignment_are_reported() {
        let mut seq = runner(ViewKind::Bca);
        assert!(matches!(
            seq.write(0, &[1, 2, 3]),
            Err(SequenceError::IllegalSize { len: 3 })
        ));
        assert!(matches!(
            seq.read(0x3, 8),
            Err(SequenceError::Build(BuildPacketError::Misaligned { .. }))
        ));
    }

    #[test]
    fn second_initiator_port_works() {
        let mut seq = runner(ViewKind::Rtl);
        seq.set_initiator(2);
        seq.write(0x0100_0000, &[0xAA; 8]).unwrap();
        assert_eq!(seq.read(0x0100_0000, 8).unwrap(), vec![0xAA; 8]);
        assert!(seq.cycles() > 0);
    }
}
