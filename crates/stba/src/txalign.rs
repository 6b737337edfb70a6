//! Transaction-order alignment between two traces (or, through the
//! file-based adapter, two VCD dumps).
//!
//! The cycle-by-cycle comparison of [`crate::compare_vcd`] holds two
//! views to the same *timing*; an untimed TLM view can never pass it.
//! This module supplies the discipline such a view *can* and must pass:
//! the committed transaction sequences — order, payload and routing of
//! every transfer a port actually carried — must match, while the cycles
//! they landed on may not.
//!
//! Two freedoms an untimed model legitimately has are tolerated by
//! construction:
//!
//! * *arbitration freedom* — request streams are compared per initiator
//!   (`src`), so cross-initiator interleaving at a target port may
//!   differ;
//! * *completion freedom* — response streams are compared per
//!   `(src, tid)`, so out-of-order completion across transactions may
//!   differ.
//!
//! What remains pinned is exactly what a functional model has no right
//! to change: each initiator's own commit order at every port, and the
//! cell content of every transfer.

use crate::align::{
    matched_ports, parse_pair, ports_of, text_sizes, timed, trace_sizes, AlignmentReport,
    CompareVcdError, Discipline, PortAlignment,
};
use crate::extract::{lossless_widths, port_transfers, ExtractedTransfer, TransferPhase};
use crate::trace::{self, Trace};
use std::collections::BTreeMap;
use vcd::VcdDocument;

/// The per-port outcome of aligning two transfer streams.
struct StreamAlignment {
    matching: u64,
    total: u64,
    first_divergence: Option<u64>,
    diverging_groups: Vec<String>,
}

/// Group key: request streams per `src`, response streams per
/// `(src, tid)`. `tid` is `-1` for requests so the two phases never mix.
type GroupKey = (u8, u8, i16);

fn group_label(key: &GroupKey) -> String {
    match key {
        (0, src, _) => format!("req:src{src}"),
        (_, src, tid) => format!("rsp:src{src}.tid{tid}"),
    }
}

fn groups_of(stream: &[ExtractedTransfer]) -> BTreeMap<GroupKey, Vec<&ExtractedTransfer>> {
    let mut out: BTreeMap<GroupKey, Vec<&ExtractedTransfer>> = BTreeMap::new();
    for t in stream {
        let key = match t.phase {
            TransferPhase::Request => (0u8, t.src, -1i16),
            TransferPhase::Response => (1u8, t.src, t.tid as i16),
        };
        out.entry(key).or_default().push(t);
    }
    out
}

fn same_content(a: &ExtractedTransfer, b: &ExtractedTransfer) -> bool {
    a.phase == b.phase
        && a.addr == b.addr
        && a.opc == b.opc
        && a.eop == b.eop
        && a.tid == b.tid
        && a.src == b.src
}

/// Aligns two transfer streams group by group: positional comparison
/// within each group, one-sided groups counted entirely as mismatches.
fn align_streams(first: &[ExtractedTransfer], second: &[ExtractedTransfer]) -> StreamAlignment {
    let groups_a = groups_of(first);
    let groups_b = groups_of(second);
    let empty: Vec<&ExtractedTransfer> = Vec::new();
    let mut keys: Vec<&GroupKey> = groups_a.keys().chain(groups_b.keys()).collect();
    keys.sort();
    keys.dedup();

    let mut matching = 0u64;
    let mut total = 0u64;
    let mut first_divergence: Option<u64> = None;
    let mut diverging_groups = Vec::new();
    for key in keys {
        let a = groups_a.get(key).unwrap_or(&empty);
        let b = groups_b.get(key).unwrap_or(&empty);
        let len = a.len().max(b.len()) as u64;
        let mut group_matching = 0u64;
        let mut group_first: Option<u64> = None;
        for (k, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            if same_content(x, y) {
                group_matching += 1;
            } else if group_first.is_none() {
                group_first = Some(k as u64);
            }
        }
        if group_first.is_none() && a.len() != b.len() {
            group_first = Some(a.len().min(b.len()) as u64);
        }
        matching += group_matching;
        total += len;
        if let Some(k) = group_first {
            diverging_groups.push(group_label(key));
            first_divergence = Some(first_divergence.map_or(k, |f| f.min(k)));
        }
    }
    StreamAlignment {
        matching,
        total,
        first_divergence,
        diverging_groups,
    }
}

/// The transaction-order discipline.
const TX_ALIGNMENT: Discipline = Discipline {
    span: "stba.tx_compare",
    compares: "stba.tx_compares",
    ports: "stba.tx_ports_compared",
    diverging: "stba.tx_diverging_ports",
    warning: ("stba.tx_divergence", "port transaction streams diverge"),
    fields: ("first_index", "streams"),
};

/// Compares the committed transaction streams of two traces.
///
/// The result reuses the [`AlignmentReport`] shape of the cycle
/// comparison so thresholds, sign-off and rendering work unchanged —
/// with transfers in place of cycles: `matching_cycles`/`total_cycles`
/// count *transfers*, `first_divergence` is the index of the first
/// diverging transfer within its stream, and `diverging_vars` names the
/// diverging streams (`req:src<i>` / `rsp:src<i>.tid<t>`). A port that
/// carried no transfers in either trace rates 1.0, mirroring the
/// empty-ports guard of the cycle comparison. Each trace's streams are
/// extracted over the cycles it spans ([`crate::extract_trace_transfers`]);
/// the report's `cycles` is the longer span. A port whose variables lack
/// the handshake set in both traces (e.g. a programming port) is skipped.
///
/// # Errors
///
/// [`CompareVcdError::StructureMismatch`] when the port sets differ, or a
/// port has the handshake variables in only one trace.
pub fn compare_trace_transactions(
    first: &Trace,
    second: &Trace,
) -> Result<AlignmentReport, CompareVcdError> {
    let (ports_a, ports_b) = matched_ports(first, second)?;
    let mut ports = Vec::with_capacity(ports_a.len());
    for (a, b) in ports_a.into_iter().zip(ports_b) {
        let stream_a = port_transfers(a, first.cycles());
        let stream_b = port_transfers(b, second.cycles());
        let (stream_a, stream_b) = match (stream_a, stream_b) {
            (Some(a), Some(b)) => (a, b),
            (None, None) => continue,
            _ => {
                return Err(CompareVcdError::StructureMismatch {
                    detail: format!(
                        "port {}: handshake variables present in only one dump",
                        a.name()
                    ),
                })
            }
        };
        let aligned = align_streams(&stream_a, &stream_b);
        ports.push(PortAlignment {
            port: a.name().to_owned(),
            matching_cycles: aligned.matching,
            total_cycles: aligned.total,
            first_divergence: aligned.first_divergence,
            diverging_vars: aligned.diverging_groups,
        });
    }
    Ok(AlignmentReport {
        ports,
        cycles: first.cycles().max(second.cycles()),
    })
}

/// [`compare_trace_transactions`] with telemetry: wraps the comparison
/// in an `stba.tx_compare` span and emits one `stba.tx_divergence`
/// warning per diverging port naming the diverging streams.
///
/// # Errors
///
/// Same as [`compare_trace_transactions`].
pub fn compare_trace_transactions_with(
    first: &Trace,
    second: &Trace,
    tel: &telemetry::Telemetry,
) -> Result<AlignmentReport, CompareVcdError> {
    TX_ALIGNMENT.observe(tel, trace_sizes(first, second), |timings| {
        let (report, compare_us) = timed(|| compare_trace_transactions(first, second));
        timings.push(("compare_us", compare_us));
        report
    })
}

/// Compares the committed transaction streams of two VCD dumps — the
/// paper's file-based flow.
///
/// A thin adapter over [`compare_trace_transactions`], whose rules
/// apply: each dump is parsed and sampled into a trace on the
/// `cycle_time` grid over the cycles it spans, every variable wide
/// enough for its longest literal. A handshake or field variable holding
/// any `x`/`z` bit reads as 0.
///
/// # Errors
///
/// [`CompareVcdError::Parse`] on malformed input and
/// [`CompareVcdError::StructureMismatch`] when the port trees differ.
pub fn compare_transactions(
    first: &str,
    second: &str,
    cycle_time: u64,
) -> Result<AlignmentReport, CompareVcdError> {
    let (a, b) = sample_pair(first, second, cycle_time)?;
    compare_trace_transactions(&a, &b)
}

/// [`compare_transactions`] with telemetry: wraps the comparison in an
/// `stba.tx_compare` span whose end event carries the extraction (parse
/// and sampling) and comparison durations, and emits one
/// `stba.tx_divergence` warning per diverging port naming the diverging
/// streams.
///
/// # Errors
///
/// Same as [`compare_transactions`].
pub fn compare_transactions_with(
    first: &str,
    second: &str,
    cycle_time: u64,
    tel: &telemetry::Telemetry,
) -> Result<AlignmentReport, CompareVcdError> {
    TX_ALIGNMENT.observe(tel, text_sizes(first, second), |timings| {
        let (traces, extract_us) = timed(|| sample_pair(first, second, cycle_time));
        timings.push(("extract_us", extract_us));
        let (a, b) = traces?;
        let (report, compare_us) = timed(|| compare_trace_transactions(&a, &b));
        timings.push(("compare_us", compare_us));
        report
    })
}

/// Parses two dumps and samples each into a trace wide enough for every
/// literal it holds.
fn sample_pair(
    first: &str,
    second: &str,
    cycle_time: u64,
) -> Result<(Trace, Trace), CompareVcdError> {
    let (doc_a, doc_b) = parse_pair(first, second)?;
    let sample = |doc: &VcdDocument| {
        let ports = ports_of(doc);
        let widths: Vec<Vec<usize>> = ports
            .iter()
            .map(|(_, vars)| lossless_widths(doc, vars))
            .collect();
        trace::sample(doc, cycle_time, &ports, &widths)
    };
    Ok((sample(&doc_a), sample(&doc_b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn req(cycle: u64, addr: u64, tid: u8, src: u8) -> ExtractedTransfer {
        ExtractedTransfer {
            cycle,
            phase: TransferPhase::Request,
            addr,
            opc: 8,
            eop: true,
            tid,
            src,
        }
    }

    fn rsp(cycle: u64, tid: u8, src: u8) -> ExtractedTransfer {
        ExtractedTransfer {
            cycle,
            phase: TransferPhase::Response,
            addr: 0,
            opc: 0,
            eop: true,
            tid,
            src,
        }
    }

    fn rate(a: &[ExtractedTransfer], b: &[ExtractedTransfer]) -> f64 {
        let s = align_streams(a, b);
        if s.total == 0 {
            1.0
        } else {
            s.matching as f64 / s.total as f64
        }
    }

    #[test]
    fn in_order_streams_match() {
        let a = vec![req(1, 0x40, 1, 0), req(5, 0x80, 2, 0), rsp(9, 1, 0)];
        assert_eq!(rate(&a, &a), 1.0);
    }

    #[test]
    fn latency_skew_is_tolerated() {
        let a = vec![req(1, 0x40, 1, 0), req(2, 0x80, 2, 0), rsp(6, 1, 0)];
        let b: Vec<ExtractedTransfer> = a
            .iter()
            .map(|t| ExtractedTransfer {
                cycle: t.cycle * 3 + 17,
                ..t.clone()
            })
            .collect();
        assert_eq!(rate(&a, &b), 1.0);
    }

    #[test]
    fn cross_initiator_interleave_is_tolerated() {
        // Arbitration freedom: the same per-src sequences, interleaved
        // differently at the port.
        let a = vec![req(1, 0x40, 1, 0), req(2, 0x10, 7, 1), req(3, 0x80, 2, 0)];
        let b = vec![req(1, 0x40, 1, 0), req(2, 0x80, 2, 0), req(9, 0x10, 7, 1)];
        assert_eq!(rate(&a, &b), 1.0);
    }

    #[test]
    fn out_of_order_completion_is_tolerated() {
        // Completion freedom: responses to different transactions may
        // cross.
        let a = vec![rsp(4, 1, 0), rsp(5, 2, 0)];
        let b = vec![rsp(4, 2, 0), rsp(5, 1, 0)];
        assert_eq!(rate(&a, &b), 1.0);
    }

    #[test]
    fn same_initiator_reorder_is_detected() {
        let a = vec![req(1, 0x40, 1, 0), req(2, 0x80, 2, 0)];
        let b = vec![req(1, 0x80, 2, 0), req(2, 0x40, 1, 0)];
        let s = align_streams(&a, &b);
        assert_eq!((s.matching, s.total), (0, 2));
        assert_eq!(s.first_divergence, Some(0));
        assert_eq!(s.diverging_groups, vec!["req:src0".to_owned()]);
    }

    #[test]
    fn drop_and_duplicate_are_detected() {
        let a = vec![req(1, 0x40, 1, 0), req(2, 0x80, 2, 0)];
        // Drop: the shared prefix matches, the tail counts against.
        let dropped = &a[..1];
        let s = align_streams(&a, dropped);
        assert_eq!((s.matching, s.total), (1, 2));
        assert_eq!(s.first_divergence, Some(1));
        // Duplicate: everything after the insertion shifts.
        let mut dup = a.clone();
        dup.insert(1, a[0].clone());
        let s = align_streams(&a, &dup);
        assert_eq!(s.total, 3);
        assert!(s.matching < 3);
    }

    #[test]
    fn content_corruption_is_detected() {
        let a = vec![req(1, 0x40, 1, 0)];
        let mut b = a.clone();
        b[0].addr ^= 0x8;
        assert!(rate(&a, &b) < 1.0);
    }

    #[test]
    fn empty_streams_rate_full() {
        // Mirrors the cycle comparison's empty-ports guard: nothing
        // carried means nothing misaligned.
        let s = align_streams(&[], &[]);
        assert_eq!((s.matching, s.total), (0, 0));
        assert_eq!(s.first_divergence, None);
        let a = vec![req(1, 0x40, 1, 0)];
        assert!(rate(&a, &[]) < 1.0, "one-sided streams count against");
    }

    /// One-port dump with the given request transfers, one per cycle.
    fn dump_of(transfers: &[(u64, u64, u8, u8)]) -> String {
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
            String::from("$timescale 1ns $end\n$scope module tb $end\n$scope module tgt0 $end\n");
        for (name, width, code) in vars {
            s.push_str(&format!("$var wire {width} {code} {name} $end\n"));
        }
        s.push_str("$upscope $end\n$upscope $end\n$enddefinitions $end\n");
        s.push_str("#0\n0!\n0\"\n0(\n0)\n");
        let mut end = 10;
        for (cycle, addr, tid, src) in transfers {
            s.push_str(&format!(
                "#{}\n1!\n1\"\nb{:b} #\nb1000 $\n1%\nb{:b} &\nb{:b} '\n",
                cycle * 10,
                addr,
                tid,
                src
            ));
            s.push_str(&format!("#{}\n0!\n0\"\n", cycle * 10 + 10));
            end = cycle * 10 + 10;
        }
        s.push_str(&format!("#{end}\n"));
        s
    }

    #[test]
    fn vcd_streams_compare_transactionally() {
        // Same traffic, different timing and different cross-src
        // interleave: transaction-aligned at 100%.
        let a = dump_of(&[(1, 0x40, 1, 0), (2, 0x10, 3, 1), (3, 0x80, 2, 0)]);
        let b = dump_of(&[(2, 0x40, 1, 0), (5, 0x80, 2, 0), (9, 0x10, 3, 1)]);
        let report = compare_transactions(&a, &b, 10).expect("same tree");
        assert_eq!(report.ports.len(), 1);
        assert_eq!(report.min_rate(), 1.0);
        assert!(report.signed_off(crate::SIGNOFF_RATE));

        // Same-src commit reorder: rejected.
        let c = dump_of(&[(1, 0x80, 2, 0), (2, 0x10, 3, 1), (3, 0x40, 1, 0)]);
        let report = compare_transactions(&a, &c, 10).expect("same tree");
        assert!(report.min_rate() < crate::SIGNOFF_RATE);
        assert_eq!(report.ports[0].diverging_vars, vec!["req:src0".to_owned()]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn retiming_never_misaligns_and_same_src_swaps_always_do(
            addrs in proptest::collection::vec(1u64..1000, 2..20),
            shift in 1u64..50,
        ) {
            let a: Vec<ExtractedTransfer> = addrs
                .iter()
                .enumerate()
                .map(|(k, addr)| req(k as u64, addr * 8, (k % 13) as u8, (k % 3) as u8))
                .collect();
            let retimed: Vec<ExtractedTransfer> = a
                .iter()
                .map(|t| ExtractedTransfer { cycle: t.cycle * 2 + shift, ..t.clone() })
                .collect();
            prop_assert_eq!(align_streams(&a, &retimed).total, a.len() as u64);
            prop_assert_eq!(rate(&a, &retimed), 1.0);

            // Swap the first two same-src transfers with distinct content:
            // detected whenever such a pair exists.
            let mut swapped = a.clone();
            let pair = (0..a.len()).flat_map(|i| ((i + 1)..a.len()).map(move |j| (i, j))).find(
                |(i, j)| a[*i].src == a[*j].src && !same_content(&a[*i], &a[*j]),
            );
            if let Some((i, j)) = pair {
                swapped.swap(i, j);
                prop_assert!(rate(&a, &swapped) < 1.0);
            }
        }
    }
}
