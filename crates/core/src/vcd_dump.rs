//! Per-run waveform capture: the typed port trace, and its VCD export.
//!
//! "Moreover, an associated VCD file, a standard format for waveform
//! recording, is generated so that it can be used later for bus accurate
//! comparison" (paper §4). Both design views are captured through this
//! same code path from the same [`CycleRecord`]s, so the two traces
//! declare an identical variable tree — exactly what the `stba` analyzer
//! needs. Each cycle is packed straight into the run's [`stba::Trace`]
//! (one word snapshot per port, kept only when the port changed); VCD
//! text is rendered from the trace only when asked for
//! ([`VcdDump::finish`]).

use crate::record::CycleRecord;
use stba::{PortLayout, Trace};
use stbus_protocol::{NodeConfig, ReqCell, RspCell, RspKind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Nanoseconds of simulated time per clock cycle in the dump.
pub const CYCLE_TIME: u64 = 10;

/// The variable names dumped per port, with their widths for a given bus
/// width (shared knowledge between the dump and the analyzer).
pub fn port_var_names(bus_bytes: usize) -> Vec<(&'static str, usize)> {
    vec![
        ("req", 1),
        ("addr", 64),
        ("opc", 8),
        ("data", bus_bytes * 8),
        ("be", bus_bytes),
        ("eop", 1),
        ("lck", 1),
        ("tid", 8),
        ("src", 8),
        ("pri", 8),
        ("gnt", 1),
        ("r_req", 1),
        ("r_data", bus_bytes * 8),
        ("r_err", 1),
        ("r_eop", 1),
        ("r_tid", 8),
        ("r_src", 8),
        ("r_gnt", 1),
    ]
}

/// Fills one port snapshot, variable by variable in [`port_var_names`]
/// order.
struct Packer<'a> {
    words: &'a mut [u64],
    at: usize,
}

impl Packer<'_> {
    fn word(&mut self, value: u64) {
        self.words[self.at] = value;
        self.at += 1;
    }

    fn flag(&mut self, value: bool) {
        self.word(u64::from(value));
    }

    /// Byte lanes, little-endian, eight to a word.
    fn lanes(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }

    fn request(&mut self, req: bool, cell: &ReqCell, gnt: bool, bus_bytes: usize) {
        let be_mask = (1u64 << bus_bytes) - 1;
        self.flag(req);
        self.word(cell.addr);
        self.word(u64::from(cell.opcode.encode()));
        self.lanes(cell.data.lanes(bus_bytes));
        self.word(u64::from(cell.be) & be_mask);
        self.flag(cell.eop);
        self.flag(cell.lock);
        self.word(u64::from(cell.tid.0));
        self.word(u64::from(cell.src.0));
        self.word(u64::from(cell.pri));
        self.flag(gnt);
    }

    fn response(&mut self, r_req: bool, cell: &RspCell, r_gnt: bool, bus_bytes: usize) {
        self.flag(r_req);
        self.lanes(cell.data.lanes(bus_bytes));
        self.flag(cell.kind == RspKind::Error);
        self.flag(cell.eop);
        self.word(u64::from(cell.tid.0));
        self.word(u64::from(cell.src.0));
        self.flag(r_gnt);
    }
}

/// The trace ports every run of one configuration declares, and how
/// long their change lists have grown (see [`crate::per_config`]).
pub(crate) struct TraceShape {
    layout: Arc<PortLayout>,
    /// `init0..` then `tgt0..`.
    names: Vec<Arc<str>>,
    /// Per port, the most snapshots a finished run recorded.
    high_water: Vec<AtomicUsize>,
}

impl TraceShape {
    pub(crate) fn new(config: &NodeConfig) -> Self {
        let names: Vec<Arc<str>> = (0..config.n_initiators)
            .map(|i| format!("init{i}").into())
            .chain((0..config.n_targets).map(|t| format!("tgt{t}").into()))
            .collect();
        TraceShape {
            layout: Arc::new(PortLayout::new(port_var_names(config.bus_bytes))),
            high_water: names.iter().map(|_| AtomicUsize::new(0)).collect(),
            names,
        }
    }
}

/// Records the cycle records of one run into its typed port trace.
pub struct VcdDump {
    shape: Arc<TraceShape>,
    trace: Trace,
    n_initiators: usize,
    bus_bytes: usize,
    /// One port snapshot, refilled for every port of every cycle.
    words: Vec<u64>,
}

impl VcdDump {
    /// Declares the full variable tree for a configuration: ports
    /// `init0..` then `tgt0..`, each with [`port_var_names`]. Each port's
    /// change list starts with room for as many snapshots as the longest
    /// earlier run of the configuration on this thread recorded.
    pub fn new(config: &NodeConfig) -> Self {
        let shape = crate::per_config::trace_shape(config);
        let mut trace = Trace::new();
        for (name, high_water) in shape.names.iter().zip(&shape.high_water) {
            let port = trace.add_port(Arc::clone(name), Arc::clone(&shape.layout));
            trace.reserve(port, high_water.load(Ordering::Relaxed));
        }
        VcdDump {
            trace,
            n_initiators: config.n_initiators,
            bus_bytes: config.bus_bytes,
            words: vec![0; shape.layout.stride()],
            shape,
        }
    }

    /// Appends one cycle. Cycles must increase from call to call.
    pub fn record(&mut self, rec: &CycleRecord) {
        let n_ports = self.trace.ports().len();
        for p in 0..n_ports {
            let ((req, cell, gnt), (r_req, r_cell, r_gnt)) = if p < self.n_initiators {
                (rec.init_request(p), rec.init_response(p))
            } else {
                let t = p - self.n_initiators;
                (rec.target_request(t), rec.target_response(t))
            };
            let mut packer = Packer {
                words: &mut self.words,
                at: 0,
            };
            packer.request(req, cell, gnt, self.bus_bytes);
            packer.response(r_req, r_cell, r_gnt, self.bus_bytes);
            debug_assert_eq!(packer.at, self.words.len());
            self.trace.record(p, rec.cycle, &self.words);
        }
    }

    /// Finishes the capture and returns the trace, raising the
    /// configuration's high-water marks to its change-list lengths.
    pub fn finish_trace(self) -> Trace {
        // Relaxed: a mark is a size hint and publishes no other data.
        for (port, high_water) in self.trace.ports().iter().zip(&self.shape.high_water) {
            high_water.fetch_max(port.len(), Ordering::Relaxed);
        }
        self.trace
    }

    /// Finishes the capture and returns it rendered as VCD text
    /// ([`Trace::to_vcd`] at [`CYCLE_TIME`]).
    pub fn finish(self) -> String {
        self.finish_trace().to_vcd(CYCLE_TIME)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbus_protocol::{DutInputs, DutOutputs};
    use vcd::VcdDocument;

    #[test]
    fn dump_declares_identical_tree_for_both_views() {
        let cfg = stbus_protocol::NodeConfig::reference();
        let dump = VcdDump::new(&cfg);
        let text = dump.finish();
        let doc = VcdDocument::parse(&text).unwrap();
        // 5 ports x 18 vars.
        assert_eq!(doc.vars().len(), 5 * 18);
        assert!(doc.var_by_name("tb.init0.req").is_some());
        assert!(doc.var_by_name("tb.tgt1.r_gnt").is_some());
        let data = doc.var_by_name("tb.init2.data").unwrap();
        assert_eq!(doc.var(data).width, 64);
    }

    #[test]
    fn changes_are_deduplicated() {
        let cfg = stbus_protocol::NodeConfig::reference();
        let mut dump = VcdDump::new(&cfg);
        let rec = |cycle| CycleRecord {
            cycle,
            inputs: DutInputs::idle(&cfg),
            outputs: DutOutputs::idle(&cfg),
        };
        dump.record(&rec(0));
        dump.record(&rec(1));
        dump.record(&rec(2));
        let text = dump.finish();
        // After the initial values at #0, idle cycles add no change lines.
        let after_t0 = text.split("#10").nth(1);
        assert!(after_t0.is_none() || !after_t0.unwrap_or("").contains("\n0"));
        let doc = VcdDocument::parse(&text).unwrap();
        let req = doc.var_by_name("tb.init0.req").unwrap();
        // One 'x' from $dumpvars plus one real value at #0 — and nothing
        // from the two idle cycles after.
        assert!(doc.changes(req).len() <= 2);
        assert!(doc.changes(req).iter().all(|(t, _)| *t == 0));
    }

    #[test]
    fn recorded_values_round_trip() {
        let cfg = stbus_protocol::NodeConfig::reference();
        let mut dump = VcdDump::new(&cfg);
        let mut rec = CycleRecord {
            cycle: 0,
            inputs: DutInputs::idle(&cfg),
            outputs: DutOutputs::idle(&cfg),
        };
        rec.inputs.initiator[0].req = true;
        rec.inputs.initiator[0].cell.addr = 0xABCD;
        rec.inputs.initiator[0].cell.data =
            stbus_protocol::CellData::from_bytes(&[1, 2, 3, 4, 5, 6, 7, 8]);
        rec.outputs.initiator[0].gnt = true;
        dump.record(&rec);
        let text = dump.finish();
        let doc = VcdDocument::parse(&text).unwrap();
        let addr = doc.var_by_name("tb.init0.addr").unwrap();
        assert_eq!(doc.value_at(addr, 0).as_u64(), Some(0xABCD));
        let data = doc.var_by_name("tb.init0.data").unwrap();
        assert_eq!(doc.value_at(data, 0).as_u64(), Some(0x0807060504030201));
        let gnt = doc.var_by_name("tb.init0.gnt").unwrap();
        assert_eq!(doc.value_at(gnt, 0).as_u64(), Some(1));
    }
}
