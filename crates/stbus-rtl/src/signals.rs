//! Wire bundles: the per-field kernel signals of one STBus port.
//!
//! Every interface field of the node is a real [`sim_kernel`] signal, so
//! kernel-level tracing, sensitivity and delta-cycle semantics apply to the
//! RTL view exactly as they would in an HDL simulator.

use sim_kernel::{
    BranchId, CompiledCtx, CompiledSim, ProcCtx, Signal, SignalId, Simulator, WordValue,
};
use stbus_protocol::{CellData, InitiatorId, Opcode, ReqCell, RspCell, RspKind, TransactionId};

/// Uniform signal/branch registration across both kernels, so one
/// elaboration routine produces the identical netlist (same names, same
/// registration order, same `SignalId`s) on either backend.
///
/// Both kernels store a signal as one [`WordValue`] word; every STBus
/// wire is a scalar, so every wire fits one.
pub(crate) trait SigAlloc {
    fn signal<T: WordValue>(&mut self, name: &str, init: T) -> Signal<T>;
    fn branch(&mut self, name: &str) -> BranchId;
}

impl SigAlloc for Simulator {
    fn signal<T: WordValue>(&mut self, name: &str, init: T) -> Signal<T> {
        self.add_signal(name, init)
    }
    fn branch(&mut self, name: &str) -> BranchId {
        self.add_branch(name)
    }
}

impl SigAlloc for CompiledSim {
    fn signal<T: WordValue>(&mut self, name: &str, init: T) -> Signal<T> {
        self.add_signal(name, init)
    }
    fn branch(&mut self, name: &str) -> BranchId {
        self.add_branch(name)
    }
}

/// Uniform read access to signals from inside a process (`ProcCtx` /
/// `CompiledCtx`) or outside (`Simulator` / `CompiledSim`).
pub(crate) trait SigRead {
    fn read<T: WordValue>(&self, sig: Signal<T>) -> T;
}

impl SigRead for Simulator {
    fn read<T: WordValue>(&self, sig: Signal<T>) -> T {
        self.value(sig)
    }
}

impl SigRead for ProcCtx<'_> {
    fn read<T: WordValue>(&self, sig: Signal<T>) -> T {
        self.get(sig)
    }
}

impl SigRead for CompiledSim {
    fn read<T: WordValue>(&self, sig: Signal<T>) -> T {
        self.value(sig)
    }
}

impl SigRead for CompiledCtx<'_> {
    fn read<T: WordValue>(&self, sig: Signal<T>) -> T {
        self.get(sig)
    }
}

/// Uniform write access from inside or outside a process.
pub(crate) trait SigWrite {
    fn write<T: WordValue>(&mut self, sig: Signal<T>, value: T);
}

impl SigWrite for Simulator {
    fn write<T: WordValue>(&mut self, sig: Signal<T>, value: T) {
        self.drive(sig, value);
    }
}

impl SigWrite for ProcCtx<'_> {
    fn write<T: WordValue>(&mut self, sig: Signal<T>, value: T) {
        self.set(sig, value);
    }
}

impl SigWrite for CompiledSim {
    fn write<T: WordValue>(&mut self, sig: Signal<T>, value: T) {
        self.drive(sig, value);
    }
}

impl SigWrite for CompiledCtx<'_> {
    fn write<T: WordValue>(&mut self, sig: Signal<T>, value: T) {
        self.set(sig, value);
    }
}

fn data_to_words(data: &CellData) -> [u64; 4] {
    let b = data.as_bytes();
    let mut w = [0u64; 4];
    for (k, word) in w.iter_mut().enumerate() {
        *word = u64::from_le_bytes(b[k * 8..(k + 1) * 8].try_into().expect("8 bytes"));
    }
    w
}

fn words_to_data(words: [u64; 4]) -> CellData {
    let mut bytes = [0u8; 32];
    for (k, word) in words.iter().enumerate() {
        bytes[k * 8..(k + 1) * 8].copy_from_slice(&word.to_le_bytes());
    }
    CellData::from_bytes(&bytes)
}

/// The request-phase wires of one port (initiator input side or target
/// output side).
pub(crate) struct ReqWires {
    pub req: Signal<bool>,
    pub addr: Signal<u64>,
    pub opc: Signal<u8>,
    pub data: [Signal<u64>; 4],
    pub be: Signal<u32>,
    pub eop: Signal<bool>,
    pub lock: Signal<bool>,
    pub tid: Signal<u8>,
    pub src: Signal<u8>,
    pub pri: Signal<u8>,
}

impl ReqWires {
    pub fn add<S: SigAlloc>(sim: &mut S, prefix: &str) -> Self {
        ReqWires {
            req: sim.signal(&format!("{prefix}_req"), false),
            addr: sim.signal(&format!("{prefix}_addr"), 0u64),
            opc: sim.signal(&format!("{prefix}_opc"), Opcode::default().encode()),
            data: [
                sim.signal(&format!("{prefix}_data0"), 0u64),
                sim.signal(&format!("{prefix}_data1"), 0u64),
                sim.signal(&format!("{prefix}_data2"), 0u64),
                sim.signal(&format!("{prefix}_data3"), 0u64),
            ],
            be: sim.signal(&format!("{prefix}_be"), 0u32),
            eop: sim.signal(&format!("{prefix}_eop"), false),
            lock: sim.signal(&format!("{prefix}_lck"), false),
            tid: sim.signal(&format!("{prefix}_tid"), 0u8),
            src: sim.signal(&format!("{prefix}_src"), 0u8),
            pri: sim.signal(&format!("{prefix}_pri"), 0u8),
        }
    }

    pub fn drive<W: SigWrite>(&self, w: &mut W, req: bool, cell: &ReqCell) {
        w.write(self.req, req);
        w.write(self.addr, cell.addr);
        w.write(self.opc, cell.opcode.encode());
        let words = data_to_words(&cell.data);
        for (sig, word) in self.data.iter().zip(words) {
            w.write(*sig, word);
        }
        w.write(self.be, cell.be);
        w.write(self.eop, cell.eop);
        w.write(self.lock, cell.lock);
        w.write(self.tid, cell.tid.0);
        w.write(self.src, cell.src.0);
        w.write(self.pri, cell.pri);
    }

    pub fn sample<R: SigRead>(&self, r: &R) -> (bool, ReqCell) {
        let words = [
            r.read(self.data[0]),
            r.read(self.data[1]),
            r.read(self.data[2]),
            r.read(self.data[3]),
        ];
        let cell = ReqCell {
            addr: r.read(self.addr),
            opcode: Opcode::decode(r.read(self.opc)).unwrap_or_default(),
            data: words_to_data(words),
            be: r.read(self.be),
            eop: r.read(self.eop),
            lock: r.read(self.lock),
            tid: TransactionId(r.read(self.tid)),
            src: InitiatorId(r.read(self.src)),
            pri: r.read(self.pri),
        };
        (r.read(self.req), cell)
    }

    pub fn signal_ids(&self) -> Vec<SignalId> {
        let mut ids = vec![
            self.req.id(),
            self.addr.id(),
            self.opc.id(),
            self.be.id(),
            self.eop.id(),
            self.lock.id(),
            self.tid.id(),
            self.src.id(),
            self.pri.id(),
        ];
        ids.extend(self.data.iter().map(|s| s.id()));
        ids
    }
}

/// The response-phase wires of one port.
pub(crate) struct RspWires {
    pub r_req: Signal<bool>,
    pub data: [Signal<u64>; 4],
    pub err: Signal<bool>,
    pub eop: Signal<bool>,
    pub tid: Signal<u8>,
    pub src: Signal<u8>,
}

impl RspWires {
    pub fn add<S: SigAlloc>(sim: &mut S, prefix: &str) -> Self {
        RspWires {
            r_req: sim.signal(&format!("{prefix}_r_req"), false),
            data: [
                sim.signal(&format!("{prefix}_r_data0"), 0u64),
                sim.signal(&format!("{prefix}_r_data1"), 0u64),
                sim.signal(&format!("{prefix}_r_data2"), 0u64),
                sim.signal(&format!("{prefix}_r_data3"), 0u64),
            ],
            err: sim.signal(&format!("{prefix}_r_err"), false),
            eop: sim.signal(&format!("{prefix}_r_eop"), false),
            tid: sim.signal(&format!("{prefix}_r_tid"), 0u8),
            src: sim.signal(&format!("{prefix}_r_src"), 0u8),
        }
    }

    pub fn drive<W: SigWrite>(&self, w: &mut W, r_req: bool, cell: &RspCell) {
        w.write(self.r_req, r_req);
        let words = data_to_words(&cell.data);
        for (sig, word) in self.data.iter().zip(words) {
            w.write(*sig, word);
        }
        w.write(self.err, cell.kind == RspKind::Error);
        w.write(self.eop, cell.eop);
        w.write(self.tid, cell.tid.0);
        w.write(self.src, cell.src.0);
    }

    pub fn sample<R: SigRead>(&self, r: &R) -> (bool, RspCell) {
        let words = [
            r.read(self.data[0]),
            r.read(self.data[1]),
            r.read(self.data[2]),
            r.read(self.data[3]),
        ];
        let cell = RspCell {
            data: words_to_data(words),
            kind: if r.read(self.err) {
                RspKind::Error
            } else {
                RspKind::Ok
            },
            eop: r.read(self.eop),
            tid: TransactionId(r.read(self.tid)),
            src: InitiatorId(r.read(self.src)),
        };
        (r.read(self.r_req), cell)
    }

    pub fn signal_ids(&self) -> Vec<SignalId> {
        let mut ids = vec![
            self.r_req.id(),
            self.err.id(),
            self.eop.id(),
            self.tid.id(),
            self.src.id(),
        ];
        ids.extend(self.data.iter().map(|s| s.id()));
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbus_protocol::{OpKind, TransferSize};

    #[test]
    fn req_wires_round_trip() {
        let mut sim = Simulator::new();
        let wires = ReqWires::add(&mut sim, "i0");
        let mut cell = ReqCell::new(
            0xDEAD_BEE0,
            Opcode::new(OpKind::Swap, TransferSize::B16),
            InitiatorId(5),
        );
        cell.data = CellData::from_bytes(&(0..32).collect::<Vec<u8>>());
        cell.be = 0xFFFF;
        cell.eop = false;
        cell.lock = true;
        cell.tid = TransactionId(9);
        cell.pri = 3;
        wires.drive(&mut sim, true, &cell);
        sim.settle().unwrap();
        let (req, sampled) = wires.sample(&sim);
        assert!(req);
        assert_eq!(sampled, cell);
    }

    #[test]
    fn rsp_wires_round_trip() {
        let mut sim = Simulator::new();
        let wires = RspWires::add(&mut sim, "t0");
        let mut cell = RspCell::error(InitiatorId(2), TransactionId(4), true);
        cell.data = CellData::from_bytes(&[9, 8, 7]);
        wires.drive(&mut sim, true, &cell);
        sim.settle().unwrap();
        let (r_req, sampled) = wires.sample(&sim);
        assert!(r_req);
        assert_eq!(sampled, cell);
    }

    #[test]
    fn req_wires_round_trip_on_compiled_backend() {
        let mut sim = CompiledSim::new();
        let wires = ReqWires::add(&mut sim, "i0");
        let mut cell = ReqCell::new(
            0xDEAD_BEE0,
            Opcode::new(OpKind::Swap, TransferSize::B16),
            InitiatorId(5),
        );
        cell.data = CellData::from_bytes(&(0..32).collect::<Vec<u8>>());
        cell.be = 0xFFFF;
        cell.lock = true;
        cell.tid = TransactionId(9);
        cell.pri = 3;
        wires.drive(&mut sim, true, &cell);
        sim.settle().unwrap();
        let (req, sampled) = wires.sample(&sim);
        assert!(req);
        assert_eq!(sampled, cell);
    }

    #[test]
    fn words_conversion_round_trip() {
        let bytes: Vec<u8> = (0..32).map(|i| i * 7 + 1).collect();
        let d = CellData::from_bytes(&bytes);
        assert_eq!(words_to_data(data_to_words(&d)), d);
    }

    #[test]
    fn signal_id_lists_cover_all_fields() {
        let mut sim = Simulator::new();
        let rq = ReqWires::add(&mut sim, "a");
        let rs = RspWires::add(&mut sim, "a");
        assert_eq!(rq.signal_ids().len(), 13);
        assert_eq!(rs.signal_ids().len(), 9);
    }
}
