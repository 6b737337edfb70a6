//! Allocation budget of the BCA and TLM steps: once a node's queues have
//! grown to their working size, a step allocates only the two port
//! vectors of the [`DutOutputs`] it returns. A std-only counting
//! allocator counts the allocations made on the stepping thread while
//! `step` runs.

use stbus_bca::{BcaBug, BcaNode, Fidelity};
use stbus_protocol::packet::{PacketParams, RequestPacket};
use stbus_protocol::{
    ArbitrationKind, Architecture, DutInputs, DutView, InitiatorId, NodeConfig, Opcode,
    ProgCommand, ProtocolType, ReqCell, RspCell, TransactionId, TransferSize,
};
use stbus_tlm::{TlmBug, TlmNode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

struct Counting;

thread_local! {
    // Per thread, so tests running side by side do not count each
    // other's allocations. Both are const-initialized and need no
    // destructor, so the allocator may touch them.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (r, ALLOCATIONS.with(Cell::get) - before)
}

/// A deterministic pseudo-random source.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.next().is_multiple_of(n)
    }
}

/// Closed-loop traffic: initiators issue loads and multi-cell stores
/// (some to an unmapped address, answered by the node's error
/// responder), targets answer every packet they accept, and grants are
/// withheld at random so presented cells must hold.
struct Traffic {
    cfg: NodeConfig,
    rng: Lcg,
    /// Whether initiators stop issuing at the configuration's outstanding
    /// limit. Free issue drives a BCA node into its gate-denial path; the
    /// TLM view, which grants every request at once, needs the limit to
    /// reach a steady state.
    bounded: bool,
    /// Per initiator: the cells of the packet being sent.
    sending: Vec<VecDeque<ReqCell>>,
    /// Per initiator: packets sent whose response has not ended.
    outstanding: Vec<usize>,
    /// A target that every new packet goes to and that neither accepts
    /// cells nor responds, so every outstanding transaction ends up
    /// waiting on it.
    stalled: Option<usize>,
    /// Per target: `(src, tid)` of accepted packets awaiting a response.
    answering: Vec<VecDeque<(InitiatorId, TransactionId)>>,
    tid: u8,
}

impl Traffic {
    fn new(cfg: &NodeConfig, bounded: bool) -> Traffic {
        Traffic {
            cfg: cfg.clone(),
            rng: Lcg(0x2545_f491_4f6c_dd1d),
            bounded,
            sending: vec![VecDeque::new(); cfg.n_initiators],
            outstanding: vec![0; cfg.n_initiators],
            stalled: None,
            answering: vec![VecDeque::new(); cfg.n_targets],
            tid: 0,
        }
    }

    fn packet(&mut self, i: usize) -> Vec<ReqCell> {
        let params = PacketParams {
            bus_bytes: self.cfg.bus_bytes,
            protocol: self.cfg.protocol,
            endianness: self.cfg.endianness,
        };
        let map = &self.cfg.address_map;
        // While a target is stalled, every packet goes to it.
        let target = match self.stalled {
            Some(t) => Some(t),
            None => match self.rng.next() % 8 {
                0 => None,
                k => Some(k as usize % self.cfg.n_targets),
            },
        };
        let addr = match target {
            None => map.unmapped_address().expect("the map leaves a hole"),
            Some(t) => {
                let base = map
                    .base_of(stbus_protocol::TargetId(t as u8))
                    .expect("mapped");
                base + (self.rng.next() % 0x100) * 16
            }
        };
        let (opcode, data) = if self.rng.one_in(2) {
            (Opcode::load(TransferSize::B8), Vec::new())
        } else {
            (Opcode::store(TransferSize::B16), (0..16).collect())
        };
        self.tid = (self.tid + 1) % 16;
        RequestPacket::build(
            opcode,
            addr,
            &data,
            params,
            InitiatorId(i as u8),
            TransactionId(self.tid),
            0,
            false,
        )
        .expect("valid packet")
        .cells()
        .to_vec()
    }

    /// This cycle's inputs.
    fn drive(&mut self, cycle: u64, inputs: &mut DutInputs) {
        for i in 0..self.cfg.n_initiators {
            let room = !self.bounded || self.outstanding[i] < self.cfg.max_outstanding;
            if self.sending[i].is_empty() && room && self.rng.one_in(2) {
                let cells = self.packet(i);
                self.sending[i].extend(cells);
            }
            let port = &mut inputs.initiator[i];
            port.req = !self.sending[i].is_empty();
            port.cell = self.sending[i].front().copied().unwrap_or_default();
            port.r_gnt = !self.rng.one_in(4);
        }
        for t in 0..self.cfg.n_targets {
            let port = &mut inputs.target[t];
            let stalled = self.stalled == Some(t);
            port.gnt = !self.rng.one_in(4) && !stalled;
            match self.answering[t].front() {
                Some(&(src, tid)) if !self.rng.one_in(3) && !stalled => {
                    port.r_req = true;
                    port.r_cell = RspCell::ok(src, tid, true);
                }
                _ => {
                    port.r_req = false;
                    port.r_cell = RspCell::default();
                }
            }
        }
        inputs.prog = (cycle % 97 == 41).then(|| ProgCommand {
            priorities: (0..self.cfg.n_initiators as u8).rev().collect(),
        });
    }

    /// Advances the traffic by what the node accepted.
    fn observe(&mut self, inputs: &DutInputs, out: &stbus_protocol::DutOutputs) {
        for i in 0..self.cfg.n_initiators {
            if inputs.initiator[i].req && out.initiator[i].gnt {
                self.sending[i].pop_front();
                if inputs.initiator[i].cell.eop {
                    self.outstanding[i] += 1;
                }
            }
            let rsp = &out.initiator[i];
            if rsp.r_req && inputs.initiator[i].r_gnt && rsp.r_cell.eop {
                self.outstanding[i] = self.outstanding[i].saturating_sub(1);
            }
        }
        for t in 0..self.cfg.n_targets {
            let req = &out.target[t];
            if req.req && inputs.target[t].gnt && req.cell.eop {
                self.answering[t].push_back((req.cell.src, req.cell.tid));
            }
            if inputs.target[t].r_req && out.target[t].r_gnt {
                self.answering[t].pop_front();
            }
        }
    }
}

/// Cycles each target is stalled for at the start of the warm-up.
const STALL: u64 = 300;

/// The most any one steady-state step allocated, over `steps` steps that
/// follow `warmup` unmeasured ones, under free-issue or `bounded`
/// traffic. Bounded traffic's warm-up first stalls each target in turn,
/// so every outstanding transaction queues at one target and the node's
/// buffers reach the largest size the traffic can ask of them; the TLM
/// view, which buffers without backpressure, would otherwise still be
/// growing them long after.
fn worst_step(mut node: impl DutView, bounded: bool, warmup: u64, steps: u64) -> u64 {
    let cfg = node.config().clone();
    let mut traffic = Traffic::new(&cfg, bounded);
    let mut inputs = DutInputs::idle(&cfg);
    let mut worst = 0;
    let mut transfers = 0;
    let stalls = if bounded {
        cfg.n_targets as u64 * STALL
    } else {
        0
    };
    for cycle in 0..stalls + warmup + steps {
        traffic.stalled = (cycle < stalls).then_some((cycle / STALL) as usize);
        traffic.drive(cycle, &mut inputs);
        let (out, n) = allocations(|| node.step(&inputs));
        if cycle >= stalls + warmup {
            worst = worst.max(n);
        }
        transfers += out.target.iter().filter(|p| p.req).count();
        traffic.observe(&inputs, &out);
    }
    assert!(
        transfers > steps as usize / 2,
        "the traffic kept the node busy"
    );
    worst
}

fn configs() -> Vec<NodeConfig> {
    let pipelined = NodeConfig::builder("pipelined")
        .initiators(4)
        .targets(3)
        .bus_bytes(8)
        .protocol(ProtocolType::Type2)
        .architecture(Architecture::SharedBus)
        .arbitration(ArbitrationKind::LatencyBased)
        .pipe_depth(2)
        .build()
        .expect("valid config");
    vec![NodeConfig::reference(), pipelined]
}

#[test]
fn a_steady_state_step_allocates_only_its_outputs() {
    for cfg in configs() {
        for fidelity in [Fidelity::Exact, Fidelity::Relaxed] {
            let node = BcaNode::new(cfg.clone(), fidelity);
            let worst = worst_step(node, false, 500, 2_000);
            assert!(
                worst <= 2,
                "{} at {fidelity:?}: a step made {worst} allocations, budget 2",
                cfg.name
            );
        }
    }
}

#[test]
fn injected_bugs_keep_the_budget() {
    let mut node = BcaNode::new(NodeConfig::reference(), Fidelity::Relaxed);
    for bug in [
        BcaBug::DroppedByteEnables,
        BcaBug::CorruptedOooTid,
        BcaBug::IgnoredChunkLock,
    ] {
        node.inject_bug(bug);
    }
    let worst = worst_step(node, false, 500, 2_000);
    assert!(worst <= 2, "a step made {worst} allocations, budget 2");
}

#[test]
fn a_steady_state_tlm_step_allocates_only_its_outputs() {
    for cfg in configs() {
        for bug in [None, Some(TlmBug::ReorderedCommit)] {
            let mut node = TlmNode::new(cfg.clone());
            if let Some(bug) = bug {
                node.inject_bug(bug);
            }
            let worst = worst_step(node, true, 500, 2_000);
            assert!(
                worst <= 2,
                "{} with {bug:?}: a step made {worst} allocations, budget 2",
                cfg.name
            );
        }
    }
}
