//! The node's cycle-level decision logic ("architecture package").
//!
//! [`NodeSpec::evaluate_into`] is the pure combinational function of the node:
//! given the registered [`NodeState`] and this cycle's sampled inputs it
//! produces the outputs and a [`Plan`] — the D-inputs of every state
//! register. [`NodeSpec::commit`] is the clocked process that applies the
//! plan. `node.rs` wires this pair onto real kernel signals and processes.

use crate::bugs::RtlBug;
use stbus_protocol::arbitration::{make_arbiter, Arbiter, ArbiterParams};
use stbus_protocol::packet::{response_cells, ResponsePacket};
use stbus_protocol::{
    Architecture, DutInputs, DutOutputs, NodeConfig, Opcode, ProtocolType, ReqCell, RspCell,
    RspKind, TargetId, TransactionId,
};
use std::collections::{BTreeSet, VecDeque};

/// How many cycles after absorbing an unmapped request the node's internal
/// error responder takes to present the error response.
pub const ERROR_RESPONSE_LATENCY: u64 = 2;

/// Where a request packet is routed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Route {
    /// A real target port.
    Target(usize),
    /// The node's internal error responder (unmapped address).
    Internal,
}

/// One outstanding split transaction of an initiator.
#[derive(Clone, Debug)]
pub struct OutstandingTx {
    /// Responder index: `0..n_targets` = target port, `n_targets` = the
    /// internal error responder.
    pub responder: usize,
    /// The transaction id of the request.
    pub tid: TransactionId,
    /// The request opcode.
    pub opcode: Opcode,
}

/// A pending internal error response.
#[derive(Clone, Debug)]
pub struct ErrResponse {
    /// First cycle on which the response may be presented.
    pub ready_at: u64,
    /// The response cells.
    pub cells: Vec<RspCell>,
    /// Cells already delivered.
    pub sent: usize,
}

/// All registered state of the node.
pub struct NodeState {
    /// The current cycle number (increments on commit).
    pub cycle: u64,
    /// Per-target request arbiters.
    pub req_arb: Vec<Box<dyn Arbiter>>,
    /// Per-initiator response arbiters over `n_targets + 1` responders.
    pub rsp_arb: Vec<Box<dyn Arbiter>>,
    /// Per-initiator forward-side packet route lock.
    pub route: Vec<Option<Route>>,
    /// Per-target chunk (lock) ownership.
    pub chunk_owner: Vec<Option<usize>>,
    /// Per-target mid-packet ownership: packets are atomic at a target
    /// port, so while a multi-cell packet is in flight only its initiator
    /// may win that target.
    pub tgt_pkt_owner: Vec<Option<usize>>,
    /// Per-initiator open transactions (started, not yet fully responded).
    pub open_tx: Vec<usize>,
    /// Per-initiator input-side mid-packet flag (pipelined mode).
    pub in_pkt: Vec<bool>,
    /// Per-initiator request skid FIFO (pipelined mode; capacity =
    /// `pipe_depth`).
    pub fifo: Vec<VecDeque<ReqCell>>,
    /// Per-initiator outstanding transactions, in request order.
    pub outstanding: Vec<VecDeque<OutstandingTx>>,
    /// Per-initiator response-packet route lock (responder index).
    pub rsp_route: Vec<Option<usize>>,
    /// Per-initiator internal error-response queue.
    pub err_queue: Vec<VecDeque<ErrResponse>>,
    /// Per-target: the initiator whose cell is presented but not yet
    /// accepted (holds the request mux until `gnt`).
    pub tgt_presented: Vec<Option<usize>>,
    /// Per-initiator: the responder whose response cell is presented but
    /// not yet accepted.
    pub rsp_presented: Vec<Option<usize>>,
    /// Wire-hold state: last driven cell per target request port.
    pub tgt_cell_hold: Vec<ReqCell>,
    /// Wire-hold state: last driven cell per initiator response port.
    pub init_rsp_hold: Vec<RspCell>,
}

impl std::fmt::Debug for NodeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeState")
            .field("cycle", &self.cycle)
            .field("route", &self.route)
            .field("open_tx", &self.open_tx)
            .field(
                "outstanding",
                &self
                    .outstanding
                    .iter()
                    .map(VecDeque::len)
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// Coverage probe points emitted by [`NodeSpec::evaluate_into`]; the RTL view
/// maps them to kernel branch-coverage counters.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProbePoint {
    /// A request cell was forwarded and accepted at a target port.
    RequestForwarded,
    /// A request lost arbitration this cycle.
    ArbitrationLoss,
    /// The lane limit cut off a winning target.
    LaneSaturated,
    /// A chunk lock restricted arbitration.
    ChunkFiltered,
    /// A request was routed to the internal error responder.
    ErrorRouted,
    /// A new packet was gated by the outstanding limit.
    OutstandingGated,
    /// A pipelined input FIFO was full.
    FifoFull,
    /// A response cell was delivered to an initiator.
    ResponseDelivered,
    /// An ordered (Type 1/2) response was held back to preserve order.
    OrderHold,
    /// An out-of-order-capable response arbitration had a real choice.
    OooContention,
    /// The programming port rewrote priorities.
    ProgApplied,
}

impl ProbePoint {
    /// All probe points, in a stable order (used to allocate kernel
    /// branch-coverage counters).
    pub const ALL: [ProbePoint; 11] = [
        ProbePoint::RequestForwarded,
        ProbePoint::ArbitrationLoss,
        ProbePoint::LaneSaturated,
        ProbePoint::ChunkFiltered,
        ProbePoint::ErrorRouted,
        ProbePoint::OutstandingGated,
        ProbePoint::FifoFull,
        ProbePoint::ResponseDelivered,
        ProbePoint::OrderHold,
        ProbePoint::OooContention,
        ProbePoint::ProgApplied,
    ];

    /// A stable index into [`ProbePoint::ALL`].
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|p| *p == self).expect("listed")
    }

    /// Whether this branch is structurally reachable in a configuration —
    /// the basis of the paper's "100% of justified code" line-coverage
    /// goal: unreachable arms are *justified* rather than counted as
    /// holes.
    pub fn reachable_in(self, config: &NodeConfig) -> bool {
        match self {
            ProbePoint::LaneSaturated => {
                config.arch.concurrency(config.n_targets) < config.n_targets
            }
            ProbePoint::FifoFull => config.pipe_depth > 0,
            ProbePoint::OrderHold => !config.protocol.allows_out_of_order(),
            ProbePoint::OooContention => config.protocol.allows_out_of_order(),
            ProbePoint::ChunkFiltered => config.protocol.split_transactions(),
            ProbePoint::ProgApplied => config.prog_port,
            ProbePoint::ArbitrationLoss => config.n_initiators > 1,
            _ => true,
        }
    }

    /// The full branch label the kernel registers for this probe point
    /// (`"node/<name>"`); this is the string that appears in
    /// [`sim_kernel::ActivityCoverage`] reports and that waiver files
    /// must cite.
    pub fn branch_name(self) -> String {
        format!("node/{}", self.name())
    }

    /// The probe point whose [`ProbePoint::branch_name`] is `branch`, if
    /// any — the reverse lookup waiver validation runs on every entry.
    pub fn from_branch_name(branch: &str) -> Option<ProbePoint> {
        let name = branch.strip_prefix("node/")?;
        ProbePoint::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The stable identifier of the structural-reachability predicate
    /// guarding this branch — the reference a waiver must cite to justify
    /// the branch in configurations where [`ProbePoint::reachable_in`]
    /// evaluates false. Always-reachable branches carry the `"always"`
    /// predicate, which can never justify a waiver.
    pub fn predicate_id(self) -> &'static str {
        match self {
            ProbePoint::LaneSaturated => "lane-limited",
            ProbePoint::FifoFull => "pipelined",
            ProbePoint::OrderHold => "in-order-protocol",
            ProbePoint::OooContention => "out-of-order-protocol",
            ProbePoint::ChunkFiltered => "split-transactions",
            ProbePoint::ProgApplied => "prog-port",
            ProbePoint::ArbitrationLoss => "multi-initiator",
            _ => "always",
        }
    }

    /// Human-readable statement of [`ProbePoint::predicate_id`] — the
    /// structural condition under which the branch can execute at all.
    pub fn predicate_description(self) -> &'static str {
        match self {
            ProbePoint::LaneSaturated => {
                "the architecture routes fewer concurrent lanes than targets"
            }
            ProbePoint::FifoFull => "the node has a pipelined input FIFO (pipe_depth > 0)",
            ProbePoint::OrderHold => "the protocol forbids out-of-order responses",
            ProbePoint::OooContention => "the protocol allows out-of-order responses",
            ProbePoint::ChunkFiltered => "the protocol splits transactions (chunk locking)",
            ProbePoint::ProgApplied => "the node exposes a programming port",
            ProbePoint::ArbitrationLoss => "more than one initiator contends",
            _ => "reachable in every configuration",
        }
    }

    /// A short name for coverage reports.
    pub fn name(self) -> &'static str {
        match self {
            ProbePoint::RequestForwarded => "request_forwarded",
            ProbePoint::ArbitrationLoss => "arbitration_loss",
            ProbePoint::LaneSaturated => "lane_saturated",
            ProbePoint::ChunkFiltered => "chunk_filtered",
            ProbePoint::ErrorRouted => "error_routed",
            ProbePoint::OutstandingGated => "outstanding_gated",
            ProbePoint::FifoFull => "fifo_full",
            ProbePoint::ResponseDelivered => "response_delivered",
            ProbePoint::OrderHold => "order_hold",
            ProbePoint::OooContention => "ooo_contention",
            ProbePoint::ProgApplied => "prog_applied",
        }
    }
}

/// The combinational result of one cycle: outputs plus register D-inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// This cycle's port outputs.
    pub outputs: DutOutputs,
    /// Per-target: the request vector the arbiter saw and the committed
    /// winner (if the transfer happened).
    pub req_arb_io: Vec<(Vec<bool>, Option<usize>)>,
    /// Per-initiator: same for the response arbiters.
    pub rsp_arb_io: Vec<(Vec<bool>, Option<usize>)>,
    /// Per-initiator: cell accepted into the input FIFO this cycle.
    pub input_accepts: Vec<Option<ReqCell>>,
    /// Per-target: `(initiator, cell)` forwarded and accepted this cycle.
    pub forwards: Vec<Option<(usize, ReqCell)>>,
    /// `(initiator, cell)` absorbed by the internal error responder.
    pub internal_forwards: Vec<(usize, ReqCell)>,
    /// Per-initiator: `(responder, cell)` delivered this cycle.
    pub rsp_transfers: Vec<Option<(usize, RspCell)>>,
    /// Programming-port write observed this cycle.
    pub prog: Option<Vec<u8>>,
    /// Next-cycle presented-lock per target request port.
    pub tgt_present_next: Vec<Option<usize>>,
    /// Next-cycle presented-lock per initiator response port.
    pub rsp_present_next: Vec<Option<usize>>,
}

impl Plan {
    /// An unsized plan; [`NodeSpec::evaluate_into`] sizes and fills it.
    pub fn empty() -> Self {
        Plan {
            outputs: DutOutputs {
                initiator: Vec::new(),
                target: Vec::new(),
            },
            req_arb_io: Vec::new(),
            rsp_arb_io: Vec::new(),
            input_accepts: Vec::new(),
            forwards: Vec::new(),
            internal_forwards: Vec::new(),
            rsp_transfers: Vec::new(),
            prog: None,
            tgt_present_next: Vec::new(),
            rsp_present_next: Vec::new(),
        }
    }

    /// Resizes every field to the configuration and resets it to the
    /// idle value, reusing the existing allocations.
    fn reset(&mut self, cfg: &NodeConfig) {
        let ni = cfg.n_initiators;
        let nt = cfg.n_targets;
        self.outputs.initiator.clear();
        self.outputs.initiator.resize(ni, Default::default());
        self.outputs.target.clear();
        self.outputs.target.resize(nt, Default::default());
        self.req_arb_io.resize_with(nt, || (Vec::new(), None));
        for (reqs, winner) in &mut self.req_arb_io {
            reqs.clear();
            *winner = None;
        }
        self.rsp_arb_io.resize_with(ni, || (Vec::new(), None));
        for (reqs, winner) in &mut self.rsp_arb_io {
            reqs.clear();
            *winner = None;
        }
        self.input_accepts.clear();
        self.input_accepts.resize(ni, None);
        self.forwards.clear();
        self.forwards.resize(nt, None);
        self.internal_forwards.clear();
        self.rsp_transfers.clear();
        self.rsp_transfers.resize(ni, None);
        self.prog = None;
        self.tgt_present_next.clear();
        self.tgt_present_next.resize(nt, None);
        self.rsp_present_next.clear();
        self.rsp_present_next.resize(ni, None);
    }
}

/// Reusable intermediate buffers for [`NodeSpec::evaluate_into`].
///
/// Holding one of these (plus a reused [`Plan`]) across cycles keeps the
/// combinational evaluation allocation-free in steady state — the
/// property the compiled simulation backend's throughput rests on.
#[derive(Debug, Default)]
pub struct EvalScratch {
    presentable: Vec<Option<ReqCell>>,
    dest: Vec<Option<Route>>,
    req_vec: Vec<Vec<bool>>,
    winners: Vec<Option<usize>>,
    proceeding: Vec<bool>,
    presenting: Vec<bool>,
    eligible: Vec<bool>,
}

/// The pure cycle-level specification of the node, parameterized by its
/// configuration.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    config: NodeConfig,
    /// Injected defects (mutation qualification); empty on a clean node.
    bugs: BTreeSet<RtlBug>,
}

impl NodeSpec {
    /// Creates the spec for a configuration.
    pub fn new(config: NodeConfig) -> Self {
        Self::with_bugs(config, &[])
    }

    /// Creates the spec with defects from the [`RtlBug`] catalogue
    /// injected. Defects are baked into the combinational/clocked logic,
    /// so they must be chosen before the node is elaborated.
    pub fn with_bugs(config: NodeConfig, bugs: &[RtlBug]) -> Self {
        NodeSpec {
            config,
            bugs: bugs.iter().copied().collect(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// The injected defects, in catalogue order.
    pub fn bugs(&self) -> impl Iterator<Item = RtlBug> + '_ {
        self.bugs.iter().copied()
    }

    fn has_bug(&self, bug: RtlBug) -> bool {
        self.bugs.contains(&bug)
    }

    /// The routing decode, including the R2 off-by-one on the top target.
    fn route_target(&self, t: usize) -> usize {
        let nt = self.config.n_targets;
        if self.has_bug(RtlBug::MisroutedHighTarget) && nt >= 2 && t == nt - 1 {
            t - 1
        } else {
            t
        }
    }

    /// The concurrent-route limit, including the R4 partial-crossbar
    /// off-by-one.
    fn lane_limit(&self) -> usize {
        let lanes = self.config.arch.concurrency(self.config.n_targets);
        if self.has_bug(RtlBug::PartialLaneOffByOne)
            && matches!(self.config.arch, Architecture::PartialCrossbar { .. })
        {
            lanes.saturating_sub(1).max(1)
        } else {
            lanes
        }
    }

    /// Builds the post-reset state (fresh arbiters, empty queues).
    pub fn initial_state(&self) -> NodeState {
        let cfg = &self.config;
        let rsp_params = ArbiterParams::default();
        NodeState {
            cycle: 0,
            req_arb: (0..cfg.n_targets)
                .map(|_| make_arbiter(cfg.arbitration, cfg.n_initiators, &cfg.arb_params))
                .collect(),
            rsp_arb: (0..cfg.n_initiators)
                .map(|_| make_arbiter(cfg.arbitration, cfg.n_targets + 1, &rsp_params))
                .collect(),
            route: vec![None; cfg.n_initiators],
            chunk_owner: vec![None; cfg.n_targets],
            tgt_pkt_owner: vec![None; cfg.n_targets],
            open_tx: vec![0; cfg.n_initiators],
            in_pkt: vec![false; cfg.n_initiators],
            fifo: (0..cfg.n_initiators).map(|_| VecDeque::new()).collect(),
            outstanding: (0..cfg.n_initiators).map(|_| VecDeque::new()).collect(),
            rsp_route: vec![None; cfg.n_initiators],
            err_queue: (0..cfg.n_initiators).map(|_| VecDeque::new()).collect(),
            tgt_presented: vec![None; cfg.n_targets],
            rsp_presented: vec![None; cfg.n_initiators],
            tgt_cell_hold: vec![ReqCell::default(); cfg.n_targets],
            init_rsp_hold: vec![RspCell::default(); cfg.n_initiators],
        }
    }

    /// The maximum number of open transactions per initiator.
    pub fn effective_max_outstanding(&self) -> usize {
        match self.config.protocol {
            ProtocolType::Type1 => 1,
            _ => self.config.max_outstanding,
        }
    }

    /// True when responses must stay in per-initiator request order.
    pub fn ordered_responses(&self) -> bool {
        !self.config.protocol.allows_out_of_order()
    }

    /// The combinational function: state × inputs → outputs + plan.
    ///
    /// `probe` receives coverage events; pass a no-op closure when not
    /// collecting coverage. Every intermediate vector lives in `scratch`
    /// and the result overwrites `plan` in place (an unsized
    /// [`Plan::empty`] is fine), so a caller that keeps both across cycles
    /// evaluates without allocating. The result does not depend on what
    /// the buffers held before.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` port counts disagree with the configuration.
    pub fn evaluate_into(
        &self,
        st: &NodeState,
        inputs: &DutInputs,
        probe: &mut dyn FnMut(ProbePoint),
        scratch: &mut EvalScratch,
        plan: &mut Plan,
    ) {
        let cfg = &self.config;
        let ni = cfg.n_initiators;
        let nt = cfg.n_targets;
        assert_eq!(inputs.initiator.len(), ni, "initiator port count mismatch");
        assert_eq!(inputs.target.len(), nt, "target port count mismatch");
        let pipelined = cfg.pipe_depth > 0;
        let max_open = self.effective_max_outstanding();
        plan.reset(cfg);

        // --- request path -------------------------------------------------
        // The cell each initiator presents to the arbitration stage.
        let presentable = &mut scratch.presentable;
        presentable.clear();
        presentable.extend((0..ni).map(|i| {
            if pipelined {
                st.fifo[i].front().copied()
            } else if inputs.initiator[i].req {
                Some(inputs.initiator[i].cell)
            } else {
                None
            }
        }));

        // Destination of each presentable cell: the locked route, or a
        // fresh decode on the first cell of a packet.
        let dest = &mut scratch.dest;
        dest.clear();
        dest.extend((0..ni).map(|i| {
            let cell = presentable[i]?;
            Some(match st.route[i] {
                Some(r) => r,
                None => match cfg.address_map.decode(cell.addr) {
                    Some(TargetId(t)) => Route::Target(self.route_target(t as usize)),
                    None => Route::Internal,
                },
            })
        }));

        // First-cell gating by the outstanding limit. In pipelined mode the
        // gate applies at the input stage instead (open_tx counted there),
        // so forward-side cells are never gated.
        let gated =
            |i: usize| -> bool { !pipelined && st.route[i].is_none() && st.open_tx[i] >= max_open };

        // Per-target request vectors after chunk filtering and gating.
        let req_vec = &mut scratch.req_vec;
        req_vec.resize_with(nt, Vec::new);
        for row in req_vec.iter_mut() {
            row.clear();
            row.resize(ni, false);
        }
        for i in 0..ni {
            if let (Some(_), Some(Route::Target(t))) = (presentable[i], dest[i]) {
                if gated(i) {
                    probe(ProbePoint::OutstandingGated);
                    continue;
                }
                if let Some(owner) = st.chunk_owner[t] {
                    if owner != i {
                        probe(ProbePoint::ChunkFiltered);
                        continue;
                    }
                }
                if let Some(owner) = st.tgt_pkt_owner[t] {
                    if owner != i {
                        continue; // packet atomicity at the target port
                    }
                }
                req_vec[t][i] = true;
            }
        }

        // Arbiter selection per target (a cell already presented to the
        // target holds the mux until accepted), then lane allocation.
        let winners = &mut scratch.winners;
        winners.clear();
        winners.extend((0..nt).map(|t| match st.tgt_presented[t] {
            Some(i) if req_vec[t][i] => Some(i),
            _ => st.req_arb[t].choose(&req_vec[t]),
        }));
        let lanes = self.lane_limit();
        let proceeding = &mut scratch.proceeding;
        proceeding.clear();
        proceeding.resize(nt, false);
        let mut used_lanes = 0usize;
        for t in 0..nt {
            if winners[t].is_some() {
                if used_lanes < lanes {
                    proceeding[t] = true;
                    used_lanes += 1;
                } else {
                    probe(ProbePoint::LaneSaturated);
                }
            }
        }

        for t in 0..nt {
            let mut committed = None;
            if proceeding[t] {
                let w = winners[t].expect("proceeding implies winner");
                let cell = presentable[w].expect("winner presented a cell");
                plan.outputs.target[t].req = true;
                plan.outputs.target[t].cell = cell;
                if inputs.target[t].gnt {
                    plan.forwards[t] = Some((w, cell));
                    committed = Some(w);
                    probe(ProbePoint::RequestForwarded);
                } else if !self.has_bug(RtlBug::DroppedGrantHold) {
                    // R1 skips the presented-lock: the mux may re-arbitrate
                    // while the cell waits for `gnt`.
                    plan.tgt_present_next[t] = Some(w);
                }
            } else {
                plan.outputs.target[t].req = false;
                plan.outputs.target[t].cell = st.tgt_cell_hold[t]; // wires hold
            }
            // Losers this cycle (for coverage only).
            if req_vec[t].iter().filter(|r| **r).count() > 1 {
                probe(ProbePoint::ArbitrationLoss);
            }
            plan.req_arb_io[t].0.extend_from_slice(&req_vec[t]);
            plan.req_arb_io[t].1 = committed;
        }

        // Internal error responder absorbs unmapped requests, one cell per
        // initiator per cycle, never stalling.
        for i in 0..ni {
            if let (Some(cell), Some(Route::Internal)) = (presentable[i], dest[i]) {
                if !gated(i) {
                    plan.internal_forwards.push((i, cell));
                    probe(ProbePoint::ErrorRouted);
                }
            }
        }

        // Initiator-side grants.
        #[allow(clippy::needless_range_loop)]
        for i in 0..ni {
            let gnt = if pipelined {
                // Accept into the FIFO whenever there is (or will be) space
                // and the outstanding gate passes on a first cell.
                let popping = plan.forwards.iter().flatten().any(|(w, _)| *w == i)
                    || plan.internal_forwards.iter().any(|(w, _)| *w == i);
                let space = st.fifo[i].len() < cfg.pipe_depth
                    || (st.fifo[i].len() == cfg.pipe_depth && popping);
                if !space {
                    probe(ProbePoint::FifoFull);
                }
                let first = !st.in_pkt[i];
                let gate_ok = !first || st.open_tx[i] < max_open;
                if first && !gate_ok {
                    probe(ProbePoint::OutstandingGated);
                }
                let accept = inputs.initiator[i].req && space && gate_ok;
                if accept {
                    plan.input_accepts[i] = Some(inputs.initiator[i].cell);
                }
                accept
            } else {
                plan.forwards.iter().flatten().any(|(w, _)| *w == i)
                    || plan.internal_forwards.iter().any(|(w, _)| *w == i)
            };
            plan.outputs.initiator[i].gnt = gnt;
        }

        // --- response path --------------------------------------------------
        // Responder index space: 0..nt = target ports, nt = internal.
        let n_resp = nt + 1;

        // Which responder presents a cell for initiator j, and that cell.
        let present_cell = |j: usize, r: usize| -> Option<RspCell> {
            if r < nt {
                let tp = &inputs.target[r];
                (tp.r_req && tp.r_cell.src.0 as usize == j).then_some(tp.r_cell)
            } else {
                let er = st.err_queue[j].front()?;
                (er.ready_at <= st.cycle).then(|| er.cells[er.sent])
            }
        };

        let mut rsp_lanes_used = 0usize;
        for j in 0..ni {
            let presenting = &mut scratch.presenting;
            presenting.clear();
            presenting.resize(n_resp, false);
            for (r, p) in presenting.iter_mut().enumerate() {
                *p = present_cell(j, r).is_some();
            }
            // Eligibility filter: locked packet route, then ordering.
            let eligible = &mut scratch.eligible;
            eligible.clear();
            eligible.extend_from_slice(presenting);
            if let Some(locked) = st.rsp_route[j] {
                for (r, e) in eligible.iter_mut().enumerate() {
                    if r != locked {
                        *e = false;
                    }
                }
            } else if self.ordered_responses() {
                let front = st.outstanding[j].front().map(|o| o.responder);
                for (r, e) in eligible.iter_mut().enumerate() {
                    if Some(r) != front {
                        if *e {
                            probe(ProbePoint::OrderHold);
                        }
                        *e = false;
                    }
                }
            } else if eligible.iter().filter(|e| **e).count() > 1 {
                probe(ProbePoint::OooContention);
            }

            let winner = match st.rsp_presented[j] {
                Some(r) if eligible[r] => Some(r),
                _ => st.rsp_arb[j].choose(eligible),
            };
            let mut committed = None;
            if let Some(r) = winner {
                if rsp_lanes_used < lanes {
                    rsp_lanes_used += 1;
                    let cell = present_cell(j, r).expect("winner presents");
                    plan.outputs.initiator[j].r_req = true;
                    plan.outputs.initiator[j].r_cell = cell;
                    if inputs.initiator[j].r_gnt {
                        plan.rsp_transfers[j] = Some((r, cell));
                        committed = Some(r);
                        probe(ProbePoint::ResponseDelivered);
                        if r < nt {
                            plan.outputs.target[r].r_gnt = true;
                        }
                    } else {
                        plan.rsp_present_next[j] = Some(r);
                    }
                }
            }
            if !plan.outputs.initiator[j].r_req {
                plan.outputs.initiator[j].r_cell = st.init_rsp_hold[j]; // wires hold
            }
            plan.rsp_arb_io[j].0.extend_from_slice(eligible);
            plan.rsp_arb_io[j].1 = committed;
        }

        // Programming port.
        plan.prog = match (&inputs.prog, cfg.prog_port) {
            (Some(cmd), true) => {
                probe(ProbePoint::ProgApplied);
                Some(cmd.priorities.clone())
            }
            _ => None,
        };
    }

    /// The clocked process: applies one cycle's plan to the state.
    pub fn commit(&self, st: &mut NodeState, plan: &Plan) {
        let cfg = &self.config;
        let nt = cfg.n_targets;
        let pipelined = cfg.pipe_depth > 0;
        let cycle = st.cycle;

        for (t, (reqs, winner)) in plan.req_arb_io.iter().enumerate() {
            st.req_arb[t].update(reqs, *winner, cycle);
        }
        for (j, (reqs, winner)) in plan.rsp_arb_io.iter().enumerate() {
            st.rsp_arb[j].update(reqs, *winner, cycle);
        }

        // Request forwards to targets.
        for (t, fwd) in plan.forwards.iter().enumerate() {
            if let Some((i, cell)) = fwd {
                self.commit_forward(st, *i, Route::Target(t), *cell, pipelined);
                st.tgt_cell_hold[t] = *cell;
            }
        }
        // Internal absorptions.
        for (i, cell) in &plan.internal_forwards {
            self.commit_forward(st, *i, Route::Internal, *cell, pipelined);
        }

        // Input-stage accepts (pipelined mode).
        #[allow(clippy::needless_range_loop)]
        for (i, acc) in plan.input_accepts.iter().enumerate() {
            if let Some(cell) = acc {
                if !st.in_pkt[i] {
                    st.open_tx[i] += 1;
                }
                st.in_pkt[i] = !cell.eop;
                st.fifo[i].push_back(*cell);
            }
        }

        // Response deliveries.
        for (j, tr) in plan.rsp_transfers.iter().enumerate() {
            if let Some((r, cell)) = tr {
                st.init_rsp_hold[j] = *cell;
                if *r == nt {
                    let er = st.err_queue[j].front_mut().expect("err response in flight");
                    er.sent += 1;
                    if er.sent == er.cells.len() {
                        st.err_queue[j].pop_front();
                    }
                }
                if cell.eop {
                    st.rsp_route[j] = None;
                    Self::retire_outstanding(st, j, *r, cell.tid);
                    st.open_tx[j] = st.open_tx[j].saturating_sub(1);
                } else {
                    st.rsp_route[j] = Some(*r);
                }
            }
        }

        st.tgt_presented.clone_from(&plan.tgt_present_next);
        st.rsp_presented.clone_from(&plan.rsp_present_next);

        if let Some(prios) = &plan.prog {
            // R3: the priority register misses its clock enable — the
            // write is observed but never reaches the arbiters.
            if !self.has_bug(RtlBug::UnsampledPriorityPort) {
                for arb in &mut st.req_arb {
                    arb.set_priorities(prios);
                }
            }
        }

        st.cycle += 1;
    }

    fn commit_forward(
        &self,
        st: &mut NodeState,
        i: usize,
        route: Route,
        cell: ReqCell,
        pipelined: bool,
    ) {
        if pipelined {
            st.fifo[i].pop_front();
        } else if st.route[i].is_none() {
            // First cell of a packet starts an open transaction.
            st.open_tx[i] += 1;
        }
        st.route[i] = if cell.eop { None } else { Some(route) };
        if let Route::Target(t) = route {
            st.tgt_pkt_owner[t] = if cell.eop { None } else { Some(i) };
            if cell.lock {
                // R6: ownership cleared at the locked packet's eop instead
                // of surviving until the closing packet.
                st.chunk_owner[t] = if self.has_bug(RtlBug::EarlyChunkRelease) && cell.eop {
                    None
                } else {
                    Some(i)
                };
            } else if cell.eop {
                st.chunk_owner[t] = None;
            }
        }
        if cell.eop {
            let responder = match route {
                Route::Target(t) => t,
                Route::Internal => self.config.n_targets,
            };
            st.outstanding[i].push_back(OutstandingTx {
                responder,
                tid: cell.tid,
                opcode: cell.opcode,
            });
            if matches!(route, Route::Internal) {
                let n_cells =
                    response_cells(cell.opcode, self.config.protocol, self.config.bus_bytes);
                let rsp = ResponsePacket::error(cell.src, cell.tid, n_cells);
                let mut cells = rsp.cells().to_vec();
                if self.has_bug(RtlBug::ErrorKindDropped) {
                    // R5: the kind field is lost — the error comes back OK.
                    for c in &mut cells {
                        c.kind = RspKind::Ok;
                    }
                }
                st.err_queue[i].push_back(ErrResponse {
                    ready_at: st.cycle + ERROR_RESPONSE_LATENCY,
                    cells,
                    sent: 0,
                });
            }
        }
    }

    /// Removes the outstanding entry retired by a completed response.
    fn retire_outstanding(st: &mut NodeState, j: usize, responder: usize, tid: TransactionId) {
        let q = &mut st.outstanding[j];
        if let Some(pos) = q
            .iter()
            .position(|o| o.responder == responder && o.tid == tid)
            .or_else(|| q.iter().position(|o| o.responder == responder))
        {
            q.remove(pos);
        } else if !q.is_empty() {
            // Defensive: a buggy view may deliver mismatched responses; the
            // checkers will flag it, the node just keeps its queue bounded.
            q.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbus_protocol::packet::{request_cells, PacketParams, RequestPacket};
    use stbus_protocol::{ArbitrationKind, Architecture, InitiatorId, ProgCommand, TransferSize};

    fn no_probe() -> impl FnMut(ProbePoint) {
        |_| {}
    }

    impl NodeSpec {
        /// One-shot evaluation into fresh buffers.
        fn evaluate(
            &self,
            st: &NodeState,
            inputs: &DutInputs,
            probe: &mut dyn FnMut(ProbePoint),
        ) -> Plan {
            let mut plan = Plan::empty();
            self.evaluate_into(st, inputs, probe, &mut EvalScratch::default(), &mut plan);
            plan
        }
    }

    fn cfg() -> NodeConfig {
        NodeConfig::reference()
    }

    fn packet_params(c: &NodeConfig) -> PacketParams {
        PacketParams {
            bus_bytes: c.bus_bytes,
            protocol: c.protocol,
            endianness: c.endianness,
        }
    }

    fn simple_load(c: &NodeConfig, i: u8, addr: u64, tid: u8) -> RequestPacket {
        RequestPacket::build(
            Opcode::load(TransferSize::B8),
            addr,
            &[],
            packet_params(c),
            InitiatorId(i),
            TransactionId(tid),
            0,
            false,
        )
        .expect("valid")
    }

    /// Drives one cycle with the given initiator request cells and
    /// all-accepting targets, returning the plan.
    fn one_cycle(spec: &NodeSpec, st: &mut NodeState, cells: &[Option<ReqCell>]) -> Plan {
        let cfg = spec.config().clone();
        let mut inputs = DutInputs::idle(&cfg);
        for (i, c) in cells.iter().enumerate() {
            if let Some(cell) = c {
                inputs.initiator[i].req = true;
                inputs.initiator[i].cell = *cell;
            }
            inputs.initiator[i].r_gnt = true;
        }
        for t in 0..cfg.n_targets {
            inputs.target[t].gnt = true;
        }
        let plan = spec.evaluate(st, &inputs, &mut no_probe());
        spec.commit(st, &plan);
        plan
    }

    #[test]
    fn single_request_forwards_same_cycle() {
        let c = cfg();
        let spec = NodeSpec::new(c.clone());
        let mut st = spec.initial_state();
        let pkt = simple_load(&c, 0, 0x0000_0100, 1); // decodes to target 0
        let plan = one_cycle(&spec, &mut st, &[Some(pkt.cells()[0]), None, None]);
        assert!(plan.outputs.initiator[0].gnt);
        assert!(plan.outputs.target[0].req);
        assert_eq!(plan.forwards[0].map(|(i, _)| i), Some(0));
        assert!(!plan.outputs.target[1].req);
        assert_eq!(st.outstanding[0].len(), 1);
        assert_eq!(st.open_tx[0], 1);
    }

    #[test]
    fn contention_grants_one_and_updates_arbiter() {
        let c = cfg();
        let spec = NodeSpec::new(c.clone());
        let mut st = spec.initial_state();
        // Both initiators 0 and 1 aim at target 0.
        let p0 = simple_load(&c, 0, 0x0000_0000, 1);
        let p1 = simple_load(&c, 1, 0x0000_0008, 2);
        let plan = one_cycle(
            &spec,
            &mut st,
            &[Some(p0.cells()[0]), Some(p1.cells()[0]), None],
        );
        let granted: Vec<bool> = plan.outputs.initiator.iter().map(|p| p.gnt).collect();
        assert_eq!(granted.iter().filter(|g| **g).count(), 1);
        // LRU with fresh state picks the lower index.
        assert!(granted[0]);
        // Next cycle, LRU prefers initiator 1.
        let plan = one_cycle(
            &spec,
            &mut st,
            &[Some(p0.cells()[0]), Some(p1.cells()[0]), None],
        );
        assert!(plan.outputs.initiator[1].gnt);
        assert!(!plan.outputs.initiator[0].gnt);
    }

    #[test]
    fn shared_bus_limits_to_one_concurrent_route() {
        let c = NodeConfig::builder("shared")
            .initiators(2)
            .targets(2)
            .bus_bytes(8)
            .protocol(ProtocolType::Type3)
            .architecture(Architecture::SharedBus)
            .arbitration(ArbitrationKind::FixedPriority)
            .build()
            .unwrap();
        let spec = NodeSpec::new(c.clone());
        let mut st = spec.initial_state();
        // Initiator 0 → target 0, initiator 1 → target 1: distinct targets,
        // but the shared bus allows only one transfer.
        let p0 = simple_load(&c, 0, 0x0000_0000, 1);
        let p1 = simple_load(&c, 1, 0x0100_0000, 2);
        let plan = one_cycle(&spec, &mut st, &[Some(p0.cells()[0]), Some(p1.cells()[0])]);
        let n_fwd = plan.forwards.iter().flatten().count();
        assert_eq!(n_fwd, 1);
        // Full crossbar forwards both.
        let c2 = NodeConfig::builder("full")
            .initiators(2)
            .targets(2)
            .bus_bytes(8)
            .protocol(ProtocolType::Type3)
            .architecture(Architecture::FullCrossbar)
            .arbitration(ArbitrationKind::FixedPriority)
            .build()
            .unwrap();
        let spec2 = NodeSpec::new(c2.clone());
        let mut st2 = spec2.initial_state();
        let plan = one_cycle(
            &spec2,
            &mut st2,
            &[Some(p0.cells()[0]), Some(p1.cells()[0])],
        );
        assert_eq!(plan.forwards.iter().flatten().count(), 2);
    }

    #[test]
    fn multicell_packet_locks_route_until_eop() {
        let c = cfg();
        let spec = NodeSpec::new(c.clone());
        let mut st = spec.initial_state();
        let payload: Vec<u8> = (0..16).collect();
        let pkt = RequestPacket::build(
            Opcode::store(TransferSize::B16),
            0x0000_0040,
            &payload,
            packet_params(&c),
            InitiatorId(0),
            TransactionId(3),
            0,
            false,
        )
        .unwrap();
        assert_eq!(pkt.len(), 2);
        let plan = one_cycle(&spec, &mut st, &[Some(pkt.cells()[0]), None, None]);
        assert!(plan.outputs.initiator[0].gnt);
        assert_eq!(st.route[0], Some(Route::Target(0)));
        assert_eq!(st.outstanding[0].len(), 0); // packet not complete yet
        let plan = one_cycle(&spec, &mut st, &[Some(pkt.cells()[1]), None, None]);
        assert!(plan.outputs.initiator[0].gnt);
        assert_eq!(st.route[0], None);
        assert_eq!(st.outstanding[0].len(), 1);
        assert_eq!(st.open_tx[0], 1);
    }

    #[test]
    fn unmapped_address_gets_error_response() {
        let c = cfg();
        let spec = NodeSpec::new(c.clone());
        let mut st = spec.initial_state();
        let unmapped = c.address_map.unmapped_address().unwrap();
        // Build a T3 load aimed nowhere.
        let pkt = RequestPacket::build(
            Opcode::load(TransferSize::B8),
            unmapped,
            &[],
            packet_params(&c),
            InitiatorId(2),
            TransactionId(9),
            0,
            false,
        )
        .unwrap();
        let plan = one_cycle(&spec, &mut st, &[None, None, Some(pkt.cells()[0])]);
        assert!(plan.outputs.initiator[2].gnt);
        assert_eq!(plan.internal_forwards.len(), 1);
        assert_eq!(st.err_queue[2].len(), 1);

        // The error response appears after the fixed latency and carries
        // the tid; LD8 on a 64-bit bus is a single response cell.
        let mut delivered = None;
        for _ in 0..(ERROR_RESPONSE_LATENCY + 2) {
            let plan = one_cycle(&spec, &mut st, &[None, None, None]);
            if let Some((r, cell)) = plan.rsp_transfers[2] {
                delivered = Some((r, cell));
                break;
            }
        }
        let (r, cell) = delivered.expect("error response delivered");
        assert_eq!(r, c.n_targets);
        assert_eq!(cell.tid, TransactionId(9));
        assert_eq!(cell.kind, stbus_protocol::RspKind::Error);
        assert!(cell.eop);
        assert_eq!(st.open_tx[2], 0);
        assert!(st.outstanding[2].is_empty());
    }

    #[test]
    fn outstanding_limit_gates_new_packets() {
        let c = NodeConfig::builder("lim")
            .initiators(1)
            .targets(1)
            .bus_bytes(8)
            .protocol(ProtocolType::Type3)
            .architecture(Architecture::FullCrossbar)
            .arbitration(ArbitrationKind::FixedPriority)
            .max_outstanding(2)
            .build()
            .unwrap();
        let spec = NodeSpec::new(c.clone());
        let mut st = spec.initial_state();
        for k in 0..3 {
            let pkt = simple_load(&c, 0, 0x40 * k, k as u8);
            let plan = one_cycle(&spec, &mut st, &[Some(pkt.cells()[0])]);
            let granted = plan.outputs.initiator[0].gnt;
            // Third packet is gated: two already outstanding, no responses.
            assert_eq!(granted, k < 2, "packet {k}");
        }
        assert_eq!(st.open_tx[0], 2);
    }

    #[test]
    fn type2_responses_stay_ordered() {
        let c = NodeConfig::builder("t2")
            .initiators(1)
            .targets(2)
            .bus_bytes(8)
            .protocol(ProtocolType::Type2)
            .architecture(Architecture::FullCrossbar)
            .arbitration(ArbitrationKind::FixedPriority)
            .build()
            .unwrap();
        let spec = NodeSpec::new(c.clone());
        let mut st = spec.initial_state();
        // Two loads: first to target 0, then to target 1.
        let p0 = simple_load(&c, 0, 0x0000_0000, 0);
        let p1 = simple_load(&c, 0, 0x0100_0000, 0);
        one_cycle(&spec, &mut st, &[Some(p0.cells()[0])]);
        one_cycle(&spec, &mut st, &[Some(p1.cells()[0])]);
        assert_eq!(st.outstanding[0].len(), 2);

        // Target 1 responds first — the node must hold it (order!).
        let mut inputs = DutInputs::idle(&c);
        inputs.initiator[0].r_gnt = true;
        inputs.target[1].r_req = true;
        inputs.target[1].r_cell = RspCell::ok(InitiatorId(0), TransactionId(0), true);
        let plan = spec.evaluate(&st, &inputs, &mut no_probe());
        assert!(
            !plan.outputs.initiator[0].r_req,
            "out-of-order response must wait"
        );
        assert!(!plan.outputs.target[1].r_gnt);
        spec.commit(&mut st, &plan);

        // Now target 0 also responds; it is the front of the order queue.
        inputs.target[0].r_req = true;
        inputs.target[0].r_cell = RspCell::ok(InitiatorId(0), TransactionId(0), true);
        let plan = spec.evaluate(&st, &inputs, &mut no_probe());
        assert!(plan.outputs.initiator[0].r_req);
        assert!(plan.outputs.target[0].r_gnt);
        assert!(!plan.outputs.target[1].r_gnt);
        spec.commit(&mut st, &plan);
        assert_eq!(st.outstanding[0].len(), 1);
        assert_eq!(st.outstanding[0][0].responder, 1);
    }

    #[test]
    fn type3_delivers_out_of_order() {
        let c = cfg(); // Type 3
        let spec = NodeSpec::new(c.clone());
        let mut st = spec.initial_state();
        let p0 = simple_load(&c, 0, 0x0000_0000, 1);
        let p1 = simple_load(&c, 0, 0x0100_0000, 2);
        one_cycle(&spec, &mut st, &[Some(p0.cells()[0]), None, None]);
        one_cycle(&spec, &mut st, &[Some(p1.cells()[0]), None, None]);

        // Target 1 (the *second* request) responds first — T3 allows it.
        let mut inputs = DutInputs::idle(&c);
        inputs.initiator[0].r_gnt = true;
        inputs.target[1].r_req = true;
        inputs.target[1].r_cell = RspCell::ok(InitiatorId(0), TransactionId(2), true);
        let plan = spec.evaluate(&st, &inputs, &mut no_probe());
        assert!(plan.outputs.initiator[0].r_req);
        assert_eq!(plan.outputs.initiator[0].r_cell.tid, TransactionId(2));
        spec.commit(&mut st, &plan);
        assert_eq!(st.outstanding[0].len(), 1);
        assert_eq!(st.outstanding[0][0].tid, TransactionId(1));
    }

    #[test]
    fn chunk_lock_excludes_other_initiators() {
        let c = cfg();
        let spec = NodeSpec::new(c.clone());
        let mut st = spec.initial_state();
        // Initiator 0 sends a locked packet to target 0.
        let mut locked = simple_load(&c, 0, 0x0000_0000, 1).cells()[0];
        locked.lock = true;
        one_cycle(&spec, &mut st, &[Some(locked), None, None]);
        assert_eq!(st.chunk_owner[0], Some(0));

        // Initiator 1 now asks for target 0 — filtered out by the chunk.
        let p1 = simple_load(&c, 1, 0x0000_0040, 2);
        let plan = one_cycle(&spec, &mut st, &[None, Some(p1.cells()[0]), None]);
        assert!(!plan.outputs.initiator[1].gnt);

        // Initiator 0 closes the chunk (lock low, eop) — then 1 proceeds.
        let open = simple_load(&c, 0, 0x0000_0008, 3).cells()[0];
        one_cycle(&spec, &mut st, &[Some(open), None, None]);
        assert_eq!(st.chunk_owner[0], None);
        let plan = one_cycle(&spec, &mut st, &[None, Some(p1.cells()[0]), None]);
        assert!(plan.outputs.initiator[1].gnt);
    }

    #[test]
    fn pipelined_node_adds_latency_and_backpressure() {
        let c = NodeConfig::builder("pipe")
            .initiators(1)
            .targets(1)
            .bus_bytes(8)
            .protocol(ProtocolType::Type3)
            .architecture(Architecture::FullCrossbar)
            .arbitration(ArbitrationKind::FixedPriority)
            .pipe_depth(1)
            .build()
            .unwrap();
        let spec = NodeSpec::new(c.clone());
        let mut st = spec.initial_state();
        let pkt = simple_load(&c, 0, 0x10 * 8, 1);

        // Cycle 0: input accepted into the FIFO, nothing at the target yet.
        let mut inputs = DutInputs::idle(&c);
        inputs.initiator[0].req = true;
        inputs.initiator[0].cell = pkt.cells()[0];
        inputs.initiator[0].r_gnt = true;
        inputs.target[0].gnt = true;
        let plan = spec.evaluate(&st, &inputs, &mut no_probe());
        assert!(plan.outputs.initiator[0].gnt);
        assert!(!plan.outputs.target[0].req, "pipe register delays forward");
        spec.commit(&mut st, &plan);

        // Cycle 1: the cell appears at the target.
        let mut inputs = DutInputs::idle(&c);
        inputs.target[0].gnt = true;
        let plan = spec.evaluate(&st, &inputs, &mut no_probe());
        assert!(plan.outputs.target[0].req);
        spec.commit(&mut st, &plan);
        assert!(st.fifo[0].is_empty());
    }

    #[test]
    fn pipelined_fifo_full_backpressures() {
        let c = NodeConfig::builder("pipe")
            .initiators(1)
            .targets(1)
            .bus_bytes(8)
            .protocol(ProtocolType::Type3)
            .architecture(Architecture::FullCrossbar)
            .arbitration(ArbitrationKind::FixedPriority)
            .pipe_depth(1)
            .max_outstanding(8)
            .build()
            .unwrap();
        let spec = NodeSpec::new(c.clone());
        let mut st = spec.initial_state();
        let mk = |k: u64| simple_load(&c, 0, 0x40 * k, k as u8).cells()[0];

        // Target never grants: first cell accepted, second stalls.
        let mut inputs = DutInputs::idle(&c);
        inputs.initiator[0].req = true;
        inputs.initiator[0].cell = mk(0);
        let plan = spec.evaluate(&st, &inputs, &mut no_probe());
        assert!(plan.outputs.initiator[0].gnt);
        spec.commit(&mut st, &plan);

        inputs.initiator[0].cell = mk(1);
        let plan = spec.evaluate(&st, &inputs, &mut no_probe());
        assert!(!plan.outputs.initiator[0].gnt, "FIFO full, target stalled");
        spec.commit(&mut st, &plan);

        // Target grants: pop-through lets the next cell in simultaneously.
        inputs.target[0].gnt = true;
        let plan = spec.evaluate(&st, &inputs, &mut no_probe());
        assert!(plan.outputs.target[0].req);
        assert!(plan.outputs.initiator[0].gnt, "pop-through accept");
        spec.commit(&mut st, &plan);
    }

    #[test]
    fn prog_port_rewrites_priorities() {
        let c = NodeConfig::builder("prog")
            .initiators(2)
            .targets(1)
            .bus_bytes(8)
            .protocol(ProtocolType::Type3)
            .architecture(Architecture::FullCrossbar)
            .arbitration(ArbitrationKind::VariablePriority)
            .prog_port(true)
            .build()
            .unwrap();
        let spec = NodeSpec::new(c.clone());
        let mut st = spec.initial_state();
        let p0 = simple_load(&c, 0, 0x00, 1).cells()[0];
        let p1 = simple_load(&c, 1, 0x08, 2).cells()[0];

        // Default: initiator 0 wins.
        let plan = one_cycle(&spec, &mut st, &[Some(p0), Some(p1)]);
        assert!(plan.outputs.initiator[0].gnt);

        // Reprogram: initiator 1 becomes the most important.
        let mut inputs = DutInputs::idle(&c);
        inputs.prog = Some(stbus_protocol::ProgCommand {
            priorities: vec![0, 9],
        });
        let plan = spec.evaluate(&st, &inputs, &mut no_probe());
        spec.commit(&mut st, &plan);

        let plan = one_cycle(&spec, &mut st, &[Some(p0), Some(p1)]);
        assert!(plan.outputs.initiator[1].gnt);
        assert!(!plan.outputs.initiator[0].gnt);
    }

    #[test]
    fn clean_spec_reports_no_bugs() {
        let spec = NodeSpec::new(cfg());
        assert_eq!(spec.bugs().count(), 0);
        let spec = NodeSpec::with_bugs(cfg(), &[RtlBug::ErrorKindDropped]);
        assert_eq!(
            spec.bugs().collect::<Vec<_>>(),
            vec![RtlBug::ErrorKindDropped]
        );
    }

    #[test]
    fn r1_drops_the_presented_lock_under_backpressure() {
        let c = cfg();
        let p0 = simple_load(&c, 0, 0x0000_0000, 1).cells()[0];
        for (bug, expect_hold) in [(None, true), (Some(RtlBug::DroppedGrantHold), false)] {
            let spec = match bug {
                Some(b) => NodeSpec::with_bugs(c.clone(), &[b]),
                None => NodeSpec::new(c.clone()),
            };
            let st = spec.initial_state();
            let mut inputs = DutInputs::idle(&c);
            inputs.initiator[0].req = true;
            inputs.initiator[0].cell = p0;
            // Target 0 back-pressures: no gnt.
            let plan = spec.evaluate(&st, &inputs, &mut no_probe());
            assert!(plan.outputs.target[0].req);
            assert_eq!(plan.tgt_present_next[0].is_some(), expect_hold);
        }
    }

    #[test]
    fn r2_misroutes_the_top_target() {
        let c = cfg();
        let spec = NodeSpec::with_bugs(c.clone(), &[RtlBug::MisroutedHighTarget]);
        let mut st = spec.initial_state();
        // 0x0100_0000 decodes to target 1 (the top target of the
        // reference map) — the bug lands it on target 0.
        let pkt = simple_load(&c, 0, 0x0100_0000, 1);
        let plan = one_cycle(&spec, &mut st, &[Some(pkt.cells()[0]), None, None]);
        assert!(plan.forwards[0].is_some(), "misrouted to target 0");
        assert!(plan.forwards[1].is_none());

        let clean = NodeSpec::new(c.clone());
        let mut st = clean.initial_state();
        let plan = one_cycle(&clean, &mut st, &[Some(pkt.cells()[0]), None, None]);
        assert!(plan.forwards[1].is_some(), "clean decode reaches target 1");
    }

    #[test]
    fn r3_ignores_priority_port_writes() {
        let c = NodeConfig::builder("prog")
            .initiators(2)
            .targets(1)
            .bus_bytes(8)
            .protocol(ProtocolType::Type3)
            .architecture(Architecture::FullCrossbar)
            .arbitration(ArbitrationKind::VariablePriority)
            .prog_port(true)
            .build()
            .unwrap();
        let spec = NodeSpec::with_bugs(c.clone(), &[RtlBug::UnsampledPriorityPort]);
        let mut st = spec.initial_state();
        let mut inputs = DutInputs::idle(&c);
        inputs.prog = Some(stbus_protocol::ProgCommand {
            priorities: vec![0, 9],
        });
        let plan = spec.evaluate(&st, &inputs, &mut no_probe());
        spec.commit(&mut st, &plan);

        // The write was observed but never sampled: initiator 0 still wins.
        let p0 = simple_load(&c, 0, 0x00, 1).cells()[0];
        let p1 = simple_load(&c, 1, 0x08, 2).cells()[0];
        let plan = one_cycle(&spec, &mut st, &[Some(p0), Some(p1)]);
        assert!(plan.outputs.initiator[0].gnt);
        assert!(!plan.outputs.initiator[1].gnt);
    }

    #[test]
    fn r4_reduces_partial_crossbar_lanes() {
        let c = NodeConfig::builder("partial")
            .initiators(3)
            .targets(3)
            .bus_bytes(8)
            .protocol(ProtocolType::Type3)
            .architecture(Architecture::PartialCrossbar { lanes: 2 })
            .build()
            .unwrap();
        // Three initiators hit three distinct targets in one cycle.
        let cells: Vec<Option<ReqCell>> = (0..3)
            .map(|i| Some(simple_load(&c, i as u8, (i as u64) << 24, i as u8).cells()[0]))
            .collect();
        let clean = NodeSpec::new(c.clone());
        let mut st = clean.initial_state();
        let plan = one_cycle(&clean, &mut st, &cells);
        assert_eq!(plan.forwards.iter().flatten().count(), 2);

        let buggy = NodeSpec::with_bugs(c.clone(), &[RtlBug::PartialLaneOffByOne]);
        let mut st = buggy.initial_state();
        let plan = one_cycle(&buggy, &mut st, &cells);
        assert_eq!(plan.forwards.iter().flatten().count(), 1);

        // The bug is a partial-crossbar defect: full crossbars unaffected.
        let full = NodeSpec::with_bugs(cfg(), &[RtlBug::PartialLaneOffByOne]);
        assert_eq!(full.lane_limit(), full.config().n_targets);
    }

    #[test]
    fn r5_sends_errors_back_as_ok() {
        let c = cfg();
        let spec = NodeSpec::with_bugs(c.clone(), &[RtlBug::ErrorKindDropped]);
        let mut st = spec.initial_state();
        let unmapped = c.address_map.unmapped_address().unwrap();
        let pkt = RequestPacket::build(
            Opcode::load(TransferSize::B8),
            unmapped,
            &[],
            packet_params(&c),
            InitiatorId(0),
            TransactionId(3),
            0,
            false,
        )
        .unwrap();
        one_cycle(&spec, &mut st, &[Some(pkt.cells()[0]), None, None]);
        let queued = st.err_queue[0].front().expect("absorbed");
        assert!(queued.cells.iter().all(|c| c.kind == RspKind::Ok));
    }

    #[test]
    fn r6_releases_chunk_ownership_at_the_locked_eop() {
        let c = cfg();
        let spec = NodeSpec::with_bugs(c.clone(), &[RtlBug::EarlyChunkRelease]);
        let mut st = spec.initial_state();
        let mut locked = simple_load(&c, 0, 0x0000_0000, 1).cells()[0];
        locked.lock = true;
        one_cycle(&spec, &mut st, &[Some(locked), None, None]);
        // The clean node holds ownership until the closing packet; the
        // buggy one already let go.
        assert_eq!(st.chunk_owner[0], None);
        let p1 = simple_load(&c, 1, 0x0000_0040, 2);
        let plan = one_cycle(&spec, &mut st, &[None, Some(p1.cells()[0]), None]);
        assert!(
            plan.outputs.initiator[1].gnt,
            "interloper granted mid-chunk"
        );
    }

    #[test]
    fn branch_names_round_trip_and_predicates_agree_with_reachability() {
        for p in ProbePoint::ALL {
            assert_eq!(ProbePoint::from_branch_name(&p.branch_name()), Some(p));
            assert!(!p.predicate_id().is_empty());
            assert!(!p.predicate_description().is_empty());
            // An "always" predicate means the branch is reachable in every
            // configuration — spot-check against the reference node.
            if p.predicate_id() == "always" {
                assert!(p.reachable_in(&NodeConfig::reference()));
            }
        }
        assert_eq!(ProbePoint::from_branch_name("node/nonexistent"), None);
        assert_eq!(ProbePoint::from_branch_name("fifo_full"), None);
    }

    #[test]
    fn request_cells_helper_consistency() {
        // Sanity: the spec's outstanding bookkeeping assumes packets are
        // well-formed per the protocol cell counts.
        let c = cfg();
        let op = Opcode::store(TransferSize::B32);
        assert_eq!(request_cells(op, c.protocol, c.bus_bytes), 4);
    }

    /// `evaluate_into` with reused scratch/plan buffers is the same
    /// function as with fresh ones (`evaluate`): identical plans and an
    /// identical probe-event sequence, cycle after cycle, across mapped,
    /// unmapped and programming traffic with backpressure.
    #[test]
    fn evaluate_into_matches_evaluate() {
        let pipelined = NodeConfig::builder("pipe")
            .initiators(3)
            .targets(2)
            .bus_bytes(8)
            .protocol(ProtocolType::Type3)
            .architecture(Architecture::FullCrossbar)
            .arbitration(ArbitrationKind::Lru)
            .pipe_depth(2)
            .prog_port(true)
            .build()
            .unwrap();
        for c in [cfg(), pipelined] {
            let spec = NodeSpec::new(c.clone());
            let mut st_a = spec.initial_state();
            let mut st_b = spec.initial_state();
            let mut scratch = EvalScratch::default();
            let mut plan_b = Plan::empty();
            let mut lcg = 0x2545_f491_4f6c_dd1du64;
            let mut next = move || {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                lcg >> 33
            };
            for cycle in 0u64..200 {
                let mut inputs = DutInputs::idle(&c);
                for i in 0..c.n_initiators {
                    if next() % 3 == 0 {
                        // Addresses beyond the map exercise the internal
                        // error responder (and with it the response path).
                        let addr = (next() % 0x8000) * 8;
                        let pkt = simple_load(&c, i as u8, addr, (cycle % 16) as u8);
                        inputs.initiator[i].req = true;
                        inputs.initiator[i].cell = pkt.cells()[0];
                    }
                    inputs.initiator[i].r_gnt = next() % 4 != 0;
                }
                for t in 0..c.n_targets {
                    inputs.target[t].gnt = next() % 4 != 0;
                }
                if c.prog_port && cycle % 37 == 0 {
                    inputs.prog = Some(ProgCommand {
                        priorities: (0..c.n_initiators).map(|i| (i as u8) ^ 1).collect(),
                    });
                }
                let mut ev_a = Vec::new();
                let plan_a = spec.evaluate(&st_a, &inputs, &mut |p| ev_a.push(p));
                let mut ev_b = Vec::new();
                spec.evaluate_into(
                    &st_b,
                    &inputs,
                    &mut |p| ev_b.push(p),
                    &mut scratch,
                    &mut plan_b,
                );
                assert_eq!(plan_a, plan_b, "plans diverged at cycle {cycle}");
                assert_eq!(ev_a, ev_b, "probe order diverged at cycle {cycle}");
                spec.commit(&mut st_a, &plan_a);
                spec.commit(&mut st_b, &plan_b);
            }
        }
    }
}
