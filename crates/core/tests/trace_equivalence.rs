//! Comparator equivalence: the trace-native STBA comparators must give
//! exactly the reports the file-based flow gives on the rendered VCD
//! text — whole `AlignmentReport`s, for both disciplines — and both must
//! agree with a direct per-cycle reading of the parsed dumps.
//!
//! The cycle-record streams are random and deliberately awkward: runs of
//! unequal length (so the hold-last-value tail counts), byte enables and
//! data lanes above the bus width (so width masking counts), and nodes
//! with ten or more initiators (so the lexicographic port order of the
//! reports, `init10` before `init2`, is pinned).

use catg::{CycleRecord, VcdDump, CYCLE_TIME};
use proptest::prelude::*;
use proptest::{Strategy, TestRng};
use rand::Rng;
use stba::{
    compare_trace_transactions, compare_traces, compare_transactions, compare_vcd,
    extract_trace_transfers, AlignmentReport, ExtractedTransfer, PortAlignment, Trace,
    TransferPhase,
};
use stbus_protocol::{
    CellData, DutInputs, DutOutputs, InitiatorId, NodeConfig, OpKind, Opcode, ReqCell, RspCell,
    RspKind, TransactionId, TransferSize,
};
use std::collections::BTreeMap;
use vcd::{VarId, VcdDocument};

/// Two record streams of one configuration.
struct Case {
    config: NodeConfig,
    first: Vec<CycleRecord>,
    second: Vec<CycleRecord>,
}

/// Draws values from a small pool half the time, so the two streams
/// often agree and request content repeats.
fn pick(rng: &mut TestRng, pool: u64) -> u64 {
    if rng.gen_bool(0.5) {
        rng.gen_range(0..pool)
    } else {
        rng.gen::<u64>()
    }
}

fn req_cell(rng: &mut TestRng) -> ReqCell {
    let mut bytes = [0u8; 32];
    bytes.iter_mut().for_each(|b| *b = pick(rng, 3) as u8);
    ReqCell {
        addr: pick(rng, 4).wrapping_mul(8),
        opcode: Opcode::new(
            OpKind::ALL[rng.gen_range(0..OpKind::ALL.len())],
            TransferSize::ALL[rng.gen_range(0..TransferSize::ALL.len())],
        ),
        // All 32 lanes and all 32 enable bits, whatever the bus width.
        data: CellData::from_bytes(&bytes),
        be: pick(rng, 4) as u32,
        eop: rng.gen_bool(0.5),
        lock: rng.gen_bool(0.2),
        tid: TransactionId(pick(rng, 3) as u8),
        src: InitiatorId(pick(rng, 3) as u8),
        pri: pick(rng, 2) as u8,
    }
}

fn rsp_cell(rng: &mut TestRng) -> RspCell {
    let mut bytes = [0u8; 32];
    bytes.iter_mut().for_each(|b| *b = pick(rng, 3) as u8);
    RspCell {
        data: CellData::from_bytes(&bytes),
        kind: if rng.gen_bool(0.2) {
            RspKind::Error
        } else {
            RspKind::Ok
        },
        eop: rng.gen_bool(0.5),
        tid: TransactionId(pick(rng, 3) as u8),
        src: InitiatorId(pick(rng, 3) as u8),
    }
}

/// Changes each signal group of each port with probability `p`.
fn evolve(rec: &mut CycleRecord, rng: &mut TestRng, p: f64) {
    let hit = |rng: &mut TestRng| rng.gen_bool(p);
    for port in &mut rec.inputs.initiator {
        if hit(rng) {
            port.req = rng.gen_bool(0.6);
        }
        if hit(rng) {
            port.cell = req_cell(rng);
        }
        if hit(rng) {
            port.r_gnt = rng.gen_bool(0.6);
        }
    }
    for port in &mut rec.outputs.initiator {
        if hit(rng) {
            port.gnt = rng.gen_bool(0.6);
        }
        if hit(rng) {
            port.r_req = rng.gen_bool(0.6);
        }
        if hit(rng) {
            port.r_cell = rsp_cell(rng);
        }
    }
    for port in &mut rec.inputs.target {
        if hit(rng) {
            port.gnt = rng.gen_bool(0.6);
        }
        if hit(rng) {
            port.r_req = rng.gen_bool(0.6);
        }
        if hit(rng) {
            port.r_cell = rsp_cell(rng);
        }
    }
    for port in &mut rec.outputs.target {
        if hit(rng) {
            port.req = rng.gen_bool(0.6);
        }
        if hit(rng) {
            port.cell = req_cell(rng);
        }
        if hit(rng) {
            port.r_gnt = rng.gen_bool(0.6);
        }
    }
}

fn stream(start: CycleRecord, len: usize, rng: &mut TestRng, p: f64) -> Vec<CycleRecord> {
    let mut out = Vec::with_capacity(len);
    let mut rec = start;
    for cycle in 0..len as u64 {
        rec.cycle = cycle;
        out.push(rec.clone());
        evolve(&mut rec, rng, p);
    }
    out
}

struct Cases;

impl Strategy for Cases {
    type Value = Case;

    fn sample(&self, rng: &mut TestRng) -> Case {
        let initiators = if rng.gen_bool(0.4) {
            rng.gen_range(10..=13)
        } else {
            rng.gen_range(1..=4)
        };
        let config = NodeConfig::builder("equivalence")
            .initiators(initiators)
            .targets(rng.gen_range(1..=3))
            .bus_bytes(1 << rng.gen_range(0..6))
            .build()
            .expect("legal configuration");
        let p = if rng.gen_bool(0.5) { 0.05 } else { 0.3 };
        let idle = CycleRecord {
            cycle: 0,
            inputs: DutInputs::idle(&config),
            outputs: DutOutputs::idle(&config),
        };
        let len = rng.gen_range(1..40);
        let first = stream(idle.clone(), len, rng, p);
        // The second run: the first one, possibly delayed by a few idle
        // cycles, with sparse disturbances, ending earlier or later.
        let mut second: Vec<CycleRecord> = Vec::new();
        if rng.gen_bool(0.3) {
            second.extend((0..rng.gen_range(1..4)).map(|_| idle.clone()));
        }
        second.extend(first.iter().cloned());
        let target = (len as i64 + rng.gen_range(-6i64..=6)).max(1) as usize;
        second.truncate(target);
        if second.len() < target {
            let tail = stream(
                second.last().expect("nonempty").clone(),
                target - second.len(),
                rng,
                p,
            );
            second.extend(tail);
        }
        for (cycle, rec) in second.iter_mut().enumerate() {
            rec.cycle = cycle as u64;
            if rng.gen_bool(0.05) {
                evolve(rec, rng, 0.2);
            }
        }
        Case {
            config,
            first,
            second,
        }
    }
}

fn capture(config: &NodeConfig, records: &[CycleRecord]) -> Trace {
    let mut dump = VcdDump::new(config);
    records.iter().for_each(|r| dump.record(r));
    dump.finish_trace()
}

/// A dump's `tb.<port>.<var>` variables, by port name.
fn ports(doc: &VcdDocument) -> BTreeMap<String, Vec<(String, VarId)>> {
    let mut out: BTreeMap<String, Vec<(String, VarId)>> = BTreeMap::new();
    for (id, info) in doc.var_entries() {
        let parts: Vec<&str> = info.path.split('.').collect();
        if let ["tb", port, var] = parts[..] {
            out.entry(port.to_owned())
                .or_default()
                .push((var.to_owned(), id));
        }
    }
    out
}

/// The cycle alignment of two parsed dumps, read value by value on every
/// cycle of the grid.
fn direct_alignment(a: &VcdDocument, b: &VcdDocument) -> AlignmentReport {
    let (ports_a, ports_b) = (ports(a), ports(b));
    let cycles = (a.end_time().max(b.end_time()) / CYCLE_TIME).max(1);
    let ports = ports_a
        .into_iter()
        .map(|(port, vars_a)| {
            let vars_b = &ports_b[&port];
            let mut mismatch = vec![false; cycles as usize];
            let mut diverging_vars = Vec::new();
            for ((name, ia), (_, ib)) in vars_a.iter().zip(vars_b) {
                let width = a.var(*ia).width.max(b.var(*ib).width);
                let mut diverged = false;
                for (k, slot) in mismatch.iter_mut().enumerate() {
                    let t = k as u64 * CYCLE_TIME;
                    if !a
                        .value_at(*ia, t)
                        .equals_at_width(&b.value_at(*ib, t), width)
                    {
                        *slot = true;
                        diverged = true;
                    }
                }
                if diverged {
                    diverging_vars.push(name.clone());
                }
            }
            PortAlignment {
                port,
                matching_cycles: mismatch.iter().filter(|m| !**m).count() as u64,
                total_cycles: cycles,
                first_divergence: mismatch.iter().position(|m| *m).map(|c| c as u64),
                diverging_vars,
            }
        })
        .collect();
    AlignmentReport { ports, cycles }
}

/// A port's transfers read value by value on every cycle of the grid.
fn direct_transfers(doc: &VcdDocument, port: &str) -> Vec<ExtractedTransfer> {
    let value = |name: &str, t: u64| {
        let id = doc
            .var_by_name(&format!("tb.{port}.{name}"))
            .expect("declared");
        doc.value_at(id, t).as_u64().unwrap_or(0)
    };
    let mut out = Vec::new();
    for cycle in 0..(doc.end_time() / CYCLE_TIME).max(1) {
        let t = cycle * CYCLE_TIME;
        if value("req", t) == 1 && value("gnt", t) == 1 {
            out.push(ExtractedTransfer {
                cycle,
                phase: TransferPhase::Request,
                addr: value("addr", t),
                opc: value("opc", t) as u8,
                eop: value("eop", t) == 1,
                tid: value("tid", t) as u8,
                src: value("src", t) as u8,
            });
        }
        if value("r_req", t) == 1 && value("r_gnt", t) == 1 {
            out.push(ExtractedTransfer {
                cycle,
                phase: TransferPhase::Response,
                addr: 0,
                opc: 0,
                eop: value("r_eop", t) == 1,
                tid: value("r_tid", t) as u8,
                src: value("r_src", t) as u8,
            });
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn trace_comparators_equal_the_file_based_flow(case in Cases) {
        let ta = capture(&case.config, &case.first);
        let tb = capture(&case.config, &case.second);
        let (va, vb) = (ta.to_vcd(CYCLE_TIME), tb.to_vcd(CYCLE_TIME));
        let (doc_a, doc_b) = (VcdDocument::parse(&va).unwrap(), VcdDocument::parse(&vb).unwrap());

        let cycles = compare_traces(&ta, &tb).unwrap();
        prop_assert_eq!(&cycles, &compare_vcd(&va, &vb, CYCLE_TIME).unwrap());
        prop_assert_eq!(&cycles, &direct_alignment(&doc_a, &doc_b));
        prop_assert_eq!(cycles.cycles, case.first.len().max(case.second.len()) as u64);

        let transfers = compare_trace_transactions(&ta, &tb).unwrap();
        prop_assert_eq!(&transfers, &compare_transactions(&va, &vb, CYCLE_TIME).unwrap());
        for port in ta.ports() {
            let name = port.name();
            prop_assert_eq!(
                extract_trace_transfers(&ta, name).unwrap(),
                direct_transfers(&doc_a, name)
            );
        }

        // Ports are reported in lexicographic order.
        let names: Vec<&str> = cycles.ports.iter().map(|p| p.port.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&names, &sorted);
        let tx_names: Vec<&str> = transfers.ports.iter().map(|p| p.port.as_str()).collect();
        prop_assert_eq!(&tx_names, &sorted);
        if case.config.n_initiators > 10 {
            let at = |port: &str| names.iter().position(|n| *n == port).unwrap();
            prop_assert!(at("init10") < at("init2"));
        }

        // The export samples back into the very trace it was rendered
        // from, and `VcdDump::finish` is that export.
        prop_assert_eq!(&Trace::from_vcd(&doc_a, CYCLE_TIME), &ta);
        let mut dump = VcdDump::new(&case.config);
        case.first.iter().for_each(|r| dump.record(r));
        prop_assert_eq!(dump.finish(), va);
    }
}
