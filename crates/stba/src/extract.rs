//! Transaction extraction from traces and VCD dumps.
//!
//! STBA "extracts from VCD files … STBus transaction information": here,
//! the stream of cell transfers at one port, reconstructed purely from the
//! recorded handshake signals.

use crate::align::ports_of;
use crate::trace::{self, PortTrace, Trace};
use vcd::{VarId, VcdDocument};

/// Which handshake a transfer used.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TransferPhase {
    /// `req && gnt`.
    Request,
    /// `r_req && r_gnt`.
    Response,
}

/// One cell transfer recovered from a dump.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExtractedTransfer {
    /// The clock cycle of the transfer.
    pub cycle: u64,
    /// Request or response phase.
    pub phase: TransferPhase,
    /// The address lines (request phase only; 0 otherwise).
    pub addr: u64,
    /// The encoded opcode lines (request phase only; 0 otherwise).
    pub opc: u8,
    /// End-of-packet flag.
    pub eop: bool,
    /// Transaction id lines.
    pub tid: u8,
    /// Source id lines.
    pub src: u8,
}

/// Extracts the transfer stream of port scope `port` (e.g. `"init0"`)
/// from a parsed dump, sampled on the `cycle_time` grid over the cycles
/// the dump spans — the file-based form of [`extract_trace_transfers`].
/// A variable holding any `x`/`z` bit reads as 0.
///
/// Returns `None` when the dump does not declare that port's handshake
/// variables.
pub fn extract_transfers(
    doc: &VcdDocument,
    port: &str,
    cycle_time: u64,
) -> Option<Vec<ExtractedTransfer>> {
    let ports: Vec<_> = ports_of(doc)
        .into_iter()
        .filter(|(p, _)| p == port)
        .collect();
    let widths: Vec<Vec<usize>> = ports
        .iter()
        .map(|(_, vars)| lossless_widths(doc, vars))
        .collect();
    let trace = trace::sample(doc, cycle_time, &ports, &widths);
    extract_trace_transfers(&trace, port)
}

/// Per variable, a width that holds every literal of its change list
/// unabridged: the declared width, or the longest literal if wider.
pub(crate) fn lossless_widths(doc: &VcdDocument, vars: &[(String, VarId)]) -> Vec<usize> {
    vars.iter()
        .map(|(_, id)| {
            let longest = doc.changes(*id).iter().map(|(_, v)| v.width()).max();
            longest.unwrap_or(0).max(doc.var(*id).width)
        })
        .collect()
}

/// Extracts the transfer stream of port `port` from a trace: every cycle
/// (up to [`Trace::cycles`]) on which `req && gnt` or `r_req && r_gnt`
/// held, with the cell fields sampled on it — request before response
/// within a cycle.
///
/// Returns `None` when the trace has no such port or the port lacks any
/// of the handshake variables (`req`, `gnt`, `addr`, `opc`, `eop`, `tid`,
/// `src`, `r_req`, `r_gnt`, `r_eop`, `r_tid`, `r_src`).
pub fn extract_trace_transfers(trace: &Trace, port: &str) -> Option<Vec<ExtractedTransfer>> {
    port_transfers(trace.port(port)?, trace.cycles())
}

/// [`extract_trace_transfers`] on one port of a trace spanning `cycles`.
pub(crate) fn port_transfers(port: &PortTrace, cycles: u64) -> Option<Vec<ExtractedTransfer>> {
    let layout = port.layout();
    let var = |name: &str| layout.var(name);
    let (req, gnt, addr, opc, eop, tid, src) = (
        var("req")?,
        var("gnt")?,
        var("addr")?,
        var("opc")?,
        var("eop")?,
        var("tid")?,
        var("src")?,
    );
    let (r_req, r_gnt, r_eop, r_tid, r_src) = (
        var("r_req")?,
        var("r_gnt")?,
        var("r_eop")?,
        var("r_tid")?,
        var("r_src")?,
    );

    let mut out = Vec::new();
    // Before the first snapshot every bit is `x`: nothing fires. Each
    // snapshot holds until the next one (or the end of the trace).
    for i in 0..port.len() {
        let snap = port.snap(i);
        let field = |v| snap.known_u64(v).unwrap_or(0);
        let request = (field(req) == 1 && field(gnt) == 1).then(|| ExtractedTransfer {
            cycle: 0,
            phase: TransferPhase::Request,
            addr: field(addr),
            opc: field(opc) as u8,
            eop: field(eop) == 1,
            tid: field(tid) as u8,
            src: field(src) as u8,
        });
        let response = (field(r_req) == 1 && field(r_gnt) == 1).then(|| ExtractedTransfer {
            cycle: 0,
            phase: TransferPhase::Response,
            addr: 0,
            opc: 0,
            eop: field(r_eop) == 1,
            tid: field(r_tid) as u8,
            src: field(r_src) as u8,
        });
        if request.is_none() && response.is_none() {
            continue;
        }
        let from = port.cycle(i).expect("snapshot index in range");
        let until = port.cycle(i + 1).unwrap_or(cycles).min(cycles);
        for cycle in from..until {
            for t in request.iter().chain(&response) {
                out.push(ExtractedTransfer { cycle, ..t.clone() });
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dump of one port with a request transfer at cycle 1 and a
    /// response transfer at cycle 3.
    fn sample_dump() -> String {
        let vars: &[(&str, usize, char)] = &[
            ("req", 1, '!'),
            ("gnt", 1, '"'),
            ("addr", 64, '#'),
            ("opc", 8, '$'),
            ("eop", 1, '%'),
            ("tid", 8, '&'),
            ("src", 8, '\''),
            ("r_req", 1, '('),
            ("r_gnt", 1, ')'),
            ("r_eop", 1, '*'),
            ("r_tid", 8, '+'),
            ("r_src", 8, ','),
        ];
        let mut s =
            String::from("$timescale 1ns $end\n$scope module tb $end\n$scope module init0 $end\n");
        for (name, width, code) in vars {
            s.push_str(&format!("$var wire {width} {code} {name} $end\n"));
        }
        s.push_str("$upscope $end\n$upscope $end\n$enddefinitions $end\n");
        s.push_str("#0\n0!\n0\"\n0(\n0)\n");
        // cycle 1 (t=10): request fires.
        s.push_str("#10\n1!\n1\"\nb101000 #\nb1000 $\n1%\nb10 &\nb0 '\n");
        // cycle 2 (t=20): idle.
        s.push_str("#20\n0!\n0\"\n");
        // cycle 3 (t=30): response fires.
        s.push_str("#30\n1(\n1)\n1*\nb10 +\nb0 ,\n");
        s.push_str("#40\n0(\n0)\n");
        s
    }

    #[test]
    fn extracts_request_and_response() {
        let doc = VcdDocument::parse(&sample_dump()).unwrap();
        let transfers = extract_transfers(&doc, "init0", 10).unwrap();
        assert_eq!(transfers.len(), 2);
        assert_eq!(transfers[0].phase, TransferPhase::Request);
        assert_eq!(transfers[0].cycle, 1);
        assert_eq!(transfers[0].addr, 0b101000);
        assert_eq!(transfers[0].opc, 0b1000);
        assert!(transfers[0].eop);
        assert_eq!(transfers[0].tid, 2);
        assert_eq!(transfers[1].phase, TransferPhase::Response);
        assert_eq!(transfers[1].cycle, 3);
        assert_eq!(transfers[1].tid, 2);
    }

    #[test]
    fn missing_port_yields_none() {
        let doc = VcdDocument::parse(&sample_dump()).unwrap();
        assert!(extract_transfers(&doc, "tgt5", 10).is_none());
    }
}
