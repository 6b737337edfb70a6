//! Property: every catalogue RTL defect is detected by the common
//! environment on *randomly drawn* node configurations, not just on the
//! four hand-picked qualification shapes. For each bug we draw legal
//! configurations from the shared strategy, minimally specialize them so
//! the defect's trigger hardware exists (a partial-crossbar lane bug
//! needs a partial crossbar), and require at least one `{test, seed}`
//! cell — or the alignment comparison against the clean opposite view —
//! to fire.

use catg::tests_lib::strategy::config_strategy;
use catg::tests_lib::{self, qualification as qual};
use catg::{SimBackend, ViewSpec};
use proptest::prelude::*;
use stbus_bca::{BcaNode, Fidelity};
use stbus_protocol::{ArbitrationKind, Architecture, NodeConfig, ProtocolType};
use stbus_rtl::{RtlBug, RtlNode};

/// Rebuilds `base` so that `bug` is *applicable*: the structures the
/// defect lives in (top-target decode, priority register, partial lanes,
/// chunk arbitration under contention) must exist, otherwise the mutation
/// is dead code and "not detected" is the correct verdict.
fn specialize(bug: RtlBug, base: &NodeConfig) -> NodeConfig {
    let mut ni = base.n_initiators.max(2);
    let mut nt = base.n_targets;
    let mut bus_bytes = base.bus_bytes;
    let mut protocol = base.protocol;
    let mut arch = base.arch;
    let mut arbitration = base.arbitration;
    let mut prog_port = base.prog_port;
    let mut max_outstanding = base.max_outstanding;
    match bug {
        // Needs a third-party thief with a live request and outstanding
        // credit at the moment the winner stalls. Under latency-based
        // arbitration the dropped hold is an *equivalent mutant*:
        // re-arbitrating mid-wait re-picks the longest-waiting port,
        // i.e. the same winner.
        RtlBug::DroppedGrantHold => {
            ni = ni.max(3);
            if arbitration == ArbitrationKind::LatencyBased {
                arbitration = ArbitrationKind::Lru;
            }
            max_outstanding = max_outstanding.max(3);
        }
        // Needs a top target distinct from its neighbour.
        RtlBug::MisroutedHighTarget => nt = nt.max(2),
        // Only the variable-priority policy reads the priority register,
        // and the wrong grant winner is only *visible* when requests
        // actually collide at arbitration instants: blocking Type1
        // traffic, narrow buses (long serialized bursts), and tight
        // outstanding limits each keep the requesters in lockstep where
        // both priority orders pick the same initiator.
        RtlBug::UnsampledPriorityPort => {
            arbitration = ArbitrationKind::VariablePriority;
            prog_port = true;
            if protocol == ProtocolType::Type1 {
                protocol = ProtocolType::Type3;
            }
            bus_bytes = bus_bytes.max(4);
            max_outstanding = max_outstanding.max(3);
        }
        // Lane mask only binds when lanes are both limiting and > 1.
        RtlBug::PartialLaneOffByOne => {
            ni = ni.max(3);
            nt = nt.max(3);
            arch = Architecture::PartialCrossbar { lanes: 2 };
        }
        // Any configuration can address unmapped memory.
        RtlBug::ErrorKindDropped => {}
        // Chunk filtering only exists for split-transaction protocols
        // (the `ChunkFiltered` probe point is gated on them), and an
        // interloper must be able to slip inside the opened chunk.
        RtlBug::EarlyChunkRelease => {
            if protocol == ProtocolType::Type1 {
                protocol = ProtocolType::Type3;
            }
        }
    }
    NodeConfig::builder(&format!("rand_{}", bug.label()))
        .initiators(ni)
        .targets(nt)
        .bus_bytes(bus_bytes)
        .protocol(protocol)
        .architecture(arch)
        .arbitration(arbitration)
        .pipe_depth(base.pipe_depth)
        .prog_port(prog_port)
        .max_outstanding(max_outstanding)
        .build()
        .expect("specialized config is legal")
}

/// The functional tests most sensitive to each defect (from the
/// qualification campaign's detection matrix); empty for the two bugs
/// that are functionally invisible and only show as alignment drops.
fn hunting_tests(bug: RtlBug, intensity: usize) -> Vec<catg::TestSpec> {
    match bug {
        RtlBug::DroppedGrantHold => vec![
            tests_lib::out_of_order(intensity),
            tests_lib::target_stall_storm(intensity),
        ],
        RtlBug::MisroutedHighTarget => vec![
            tests_lib::basic_read_write(intensity),
            tests_lib::random_mixed(intensity),
            tests_lib::out_of_order(intensity),
        ],
        RtlBug::UnsampledPriorityPort | RtlBug::PartialLaneOffByOne => vec![],
        RtlBug::ErrorKindDropped => vec![tests_lib::error_responses(intensity)],
        RtlBug::EarlyChunkRelease => vec![
            tests_lib::chunk_locking(intensity),
            tests_lib::target_stall_storm(intensity),
        ],
    }
}

/// The alignment specs that make each defect's cycle behaviour diverge.
fn alignment_tests(bug: RtlBug, intensity: usize) -> Vec<catg::TestSpec> {
    match bug {
        RtlBug::UnsampledPriorityPort => vec![tests_lib::priority_prog(intensity)],
        RtlBug::PartialLaneOffByOne => vec![
            tests_lib::lru_fairness(intensity),
            tests_lib::priority_prog(intensity),
        ],
        _ => vec![],
    }
}

/// True when the environment distinguishes the mutated RTL node from a
/// clean one on this configuration: a functional cell fails, or the
/// mutated pair's alignment rate drops strictly below the clean pair's.
fn detected(bug: RtlBug, config: &NodeConfig) -> bool {
    // A wider seed range than the qualification campaign's: on marginal
    // {config, policy} corners a single seed's traffic can miss the
    // stall/collision window the defect needs, and one firing cell is
    // all this property asks for.
    for spec in hunting_tests(bug, 20) {
        for seed in 1u64..=5 {
            let mutated = ViewSpec::Rtl(SimBackend::Event, vec![bug]);
            if qual::functional_cell_fails(config, &mutated, &spec, seed) {
                return true;
            }
        }
    }
    for spec in alignment_tests(bug, 15) {
        // Alignment cells get the same multi-seed treatment: whether the
        // wrong arbitration winner surfaces inside the compared window
        // depends on the drawn traffic, so a single seed can stay 100%
        // aligned on shapes where the next seed drops to 50%.
        for seed in 1u64..=5 {
            let rate = |dut: &mut dyn stbus_protocol::DutView| {
                let bench = catg::Testbench::new(config.clone(), qual::alignment_options());
                let mut bca = BcaNode::new(config.clone(), Fidelity::Exact);
                let a = bench.run(&mut bca, &spec, seed);
                let b = bench.run(dut, &spec, seed);
                match (&a.vcd, &b.vcd) {
                    (Some(va), Some(vb)) => stba::compare_vcd(va, vb, catg::vcd_cycle_time())
                        .ok()
                        .map(|r| r.min_rate()),
                    _ => None,
                }
            };
            let baseline = rate(&mut RtlNode::new(config.clone()));
            let mutated = rate(&mut RtlNode::with_bugs(config.clone(), &[bug]));
            if let (Some(base), Some(mutated)) = (baseline, mutated) {
                if mutated < base {
                    return true;
                }
            }
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn every_rtl_bug_is_detected_on_random_configs(base in config_strategy()) {
        for bug in RtlBug::ALL {
            let config = specialize(bug, &base);
            prop_assert!(
                detected(bug, &config),
                "{bug} evaded the environment on {config}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Equivalent mutants: the inverse property. On configurations where a
// defect's trigger hardware is absent or its observable effect collapses
// onto clean behaviour, "not detected" is the *correct* verdict — these
// pin the prose rationales in `specialize` as executable facts, so a
// future environment change that starts "detecting" dead code (or stops
// needing the specialization) breaks a test instead of a comment.
// ---------------------------------------------------------------------

/// Re-arbitrating mid-wait under latency-based arbitration re-picks the
/// longest-waiting port — the same winner the dropped hold would have
/// kept, so the mutant is equivalent.
#[test]
fn dropped_grant_hold_is_equivalent_under_latency_based_arbitration() {
    let config = NodeConfig::builder("eq_r1_latency")
        .initiators(3)
        .targets(2)
        .bus_bytes(8)
        .protocol(ProtocolType::Type3)
        .arbitration(ArbitrationKind::LatencyBased)
        .max_outstanding(3)
        .build()
        .expect("config is legal");
    assert!(
        !detected(RtlBug::DroppedGrantHold, &config),
        "a dropped grant hold must be invisible under latency-based arbitration"
    );
}

/// Only the variable-priority policy reads the priority register; under
/// fixed priority the unsampled port is dead code even with the
/// programming port present and programmed.
#[test]
fn unsampled_priority_port_is_equivalent_without_variable_priority() {
    let config = NodeConfig::builder("eq_r3_fixed")
        .initiators(3)
        .targets(2)
        .bus_bytes(8)
        .protocol(ProtocolType::Type3)
        .arbitration(ArbitrationKind::FixedPriority)
        .prog_port(true)
        .max_outstanding(3)
        .build()
        .expect("config is legal");
    assert!(
        !detected(RtlBug::UnsampledPriorityPort, &config),
        "the priority register is unread under fixed priority; the mutant is dead code"
    );
}

/// The off-by-one lane mask only binds when the partial crossbar's lane
/// count is both limiting and greater than one; a full crossbar has no
/// lane arbitration at all.
#[test]
fn partial_lane_off_by_one_is_equivalent_on_a_full_crossbar() {
    let config = NodeConfig::builder("eq_r4_full")
        .initiators(3)
        .targets(3)
        .bus_bytes(8)
        .protocol(ProtocolType::Type3)
        .architecture(Architecture::FullCrossbar)
        .arbitration(ArbitrationKind::Lru)
        .build()
        .expect("config is legal");
    assert!(
        !detected(RtlBug::PartialLaneOffByOne, &config),
        "without partial-crossbar lanes the lane mask is never consulted"
    );
}

/// Chunk filtering only exists for the split-transaction protocols; on
/// blocking Type1 the `ChunkFiltered` probe point is gated off and an
/// early release has nothing to release early.
#[test]
fn early_chunk_release_is_equivalent_under_type1() {
    let config = NodeConfig::builder("eq_r6_type1")
        .initiators(3)
        .targets(2)
        .bus_bytes(4)
        .protocol(ProtocolType::Type1)
        .arbitration(ArbitrationKind::Lru)
        .build()
        .expect("config is legal");
    assert!(
        !detected(RtlBug::EarlyChunkRelease, &config),
        "chunk locking does not exist on Type1; the mutant must stay silent"
    );
}
