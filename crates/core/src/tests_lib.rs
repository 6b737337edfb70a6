//! The twelve generic test cases (paper §5).
//!
//! "Twelve test cases have been developed to cover the tests of all main
//! features of the node such as out of order traffic or latency based
//! arbitration. … The test cases are generic and depend on some HDL
//! parameters. They can be reused for all configurations of the Node."
//!
//! Each constructor takes an `intensity` — the per-initiator transaction
//! count — so regressions can trade runtime for depth. [`all`] returns the
//! full suite.

use crate::target::TargetProfile;
use crate::testbench::TestSpec;
use crate::traffic::{OpMix, TrafficProfile};
use stbus_protocol::TransferSize;

fn spec(name: &str, description: &str, profiles: Vec<TrafficProfile>) -> TestSpec {
    TestSpec {
        name: name.to_owned(),
        description: description.to_owned(),
        // Every suite entry runs on the declarative constraint model; the
        // profile literals below are lowered through the byte-compatible
        // `to_model`, so historical seeds reproduce exactly.
        profiles: profiles.iter().map(TrafficProfile::to_model).collect(),
        target_profiles: vec![TargetProfile::default()],
        prog_schedule: Vec::new(),
    }
}

/// T01 — directed-style low-rate loads and stores; the smoke test.
pub fn basic_read_write(intensity: usize) -> TestSpec {
    spec(
        "basic_read_write",
        "low-rate loads and stores across all targets",
        vec![TrafficProfile {
            n_transactions: intensity,
            mean_gap: 6,
            op_mix: OpMix::balanced(),
            ..TrafficProfile::default()
        }],
    )
}

/// T02 — every legal opcode and size, medium pressure.
pub fn random_mixed(intensity: usize) -> TestSpec {
    spec(
        "random_mixed",
        "full opcode/size mix with medium pressure",
        vec![TrafficProfile {
            n_transactions: intensity,
            mean_gap: 3,
            op_mix: OpMix::full(),
            sizes: TransferSize::ALL.to_vec(),
            ..TrafficProfile::default()
        }],
    )
}

/// T03 — the paper's out-of-order scenario: "short transactions are sent
/// by one initiator to different targets, having different speed".
pub fn out_of_order(intensity: usize) -> TestSpec {
    let mut s = spec(
        "out_of_order",
        "short transactions to fast and slow targets force out-of-order responses",
        vec![TrafficProfile {
            n_transactions: intensity,
            mean_gap: 1,
            op_mix: OpMix::loads_only(),
            sizes: vec![TransferSize::B4, TransferSize::B8],
            ..TrafficProfile::default()
        }],
    );
    s.target_profiles = vec![TargetProfile::fast(), TargetProfile::slow()];
    s
}

/// T04 — sustained saturation so latency-based arbitration has deadlines
/// to defend.
pub fn latency_stress(intensity: usize) -> TestSpec {
    spec(
        "latency_stress",
        "all initiators saturate one hot target",
        vec![TrafficProfile {
            n_transactions: intensity,
            mean_gap: 0,
            op_mix: OpMix::balanced(),
            targets: vec![stbus_protocol::TargetId(0)],
            ..TrafficProfile::default()
        }],
    )
}

/// T05 — asymmetric demand: initiator 0 hogs, the others trickle —
/// exercises bandwidth limitation.
pub fn bandwidth_share(intensity: usize) -> TestSpec {
    spec(
        "bandwidth_share",
        "one hog plus background traffic on a shared hot target",
        vec![
            TrafficProfile {
                n_transactions: intensity * 2,
                mean_gap: 0,
                targets: vec![stbus_protocol::TargetId(0)],
                ..TrafficProfile::default()
            },
            TrafficProfile {
                n_transactions: intensity / 2 + 1,
                mean_gap: 8,
                targets: vec![stbus_protocol::TargetId(0)],
                ..TrafficProfile::default()
            },
        ],
    )
}

/// T06 — equal saturation from every initiator; LRU must rotate fairly.
pub fn lru_fairness(intensity: usize) -> TestSpec {
    spec(
        "lru_fairness",
        "symmetric saturation; grant shares must stay balanced",
        vec![TrafficProfile {
            n_transactions: intensity,
            mean_gap: 0,
            op_mix: OpMix::balanced(),
            ..TrafficProfile::default()
        }],
    )
}

/// T07 — reprograms the arbitration priorities mid-run through the
/// programming port.
pub fn priority_prog(intensity: usize) -> TestSpec {
    let mut s = spec(
        "priority_prog",
        "programming port rewrites priorities mid-run",
        vec![TrafficProfile {
            n_transactions: intensity,
            mean_gap: 1,
            ..TrafficProfile::default()
        }],
    );
    s.prog_schedule = vec![
        (20, vec![1, 9, 5, 7, 3, 8, 2, 6]),
        (60, vec![9, 1, 2, 3, 4, 5, 6, 7]),
    ];
    s
}

/// T08 — locked chunks: pairs of packets that must not be interleaved.
pub fn chunk_locking(intensity: usize) -> TestSpec {
    spec(
        "chunk_locking",
        "locked chunk pairs under contention",
        vec![TrafficProfile {
            n_transactions: intensity,
            mean_gap: 1,
            chunk_percent: 60,
            ..TrafficProfile::default()
        }],
    )
}

/// T09 — the largest transfers the protocol allows (multi-cell bursts).
pub fn max_size_bursts(intensity: usize) -> TestSpec {
    spec(
        "max_size_bursts",
        "32/64-byte bursts stress multi-cell packets",
        vec![TrafficProfile {
            n_transactions: intensity,
            mean_gap: 2,
            sizes: vec![TransferSize::B32, TransferSize::B64],
            op_mix: OpMix::balanced(),
            ..TrafficProfile::default()
        }],
    )
}

/// T10 — targets stall hard; exercises flow control and long waits.
pub fn target_stall_storm(intensity: usize) -> TestSpec {
    let mut s = spec(
        "target_stall_storm",
        "heavily throttled slow targets create deep stalls",
        vec![TrafficProfile {
            n_transactions: intensity,
            mean_gap: 0,
            chunk_percent: 20,
            r_gnt_throttle_percent: 30,
            ..TrafficProfile::default()
        }],
    );
    s.target_profiles = vec![TargetProfile {
        min_latency: 12,
        max_latency: 30,
        gnt_throttle_percent: 75,
    }];
    s
}

/// T11 — maximum throughput: everything fast, no throttles, no gaps.
pub fn back_to_back(intensity: usize) -> TestSpec {
    let mut s = spec(
        "back_to_back",
        "zero-gap traffic against instant targets",
        vec![TrafficProfile {
            n_transactions: intensity,
            mean_gap: 0,
            sizes: vec![TransferSize::B8, TransferSize::B16],
            ..TrafficProfile::default()
        }],
    );
    s.target_profiles = vec![TargetProfile::fast()];
    s
}

/// T12 — deliberate accesses to unmapped addresses; the node must answer
/// with error responses.
pub fn error_responses(intensity: usize) -> TestSpec {
    spec(
        "error_responses",
        "unmapped addresses must produce error responses",
        vec![TrafficProfile {
            n_transactions: intensity,
            mean_gap: 3,
            unmapped_percent: 25,
            ..TrafficProfile::default()
        }],
    )
}

/// The full twelve-test suite at a given intensity.
pub fn all(intensity: usize) -> Vec<TestSpec> {
    vec![
        basic_read_write(intensity),
        random_mixed(intensity),
        out_of_order(intensity),
        latency_stress(intensity),
        bandwidth_share(intensity),
        lru_fairness(intensity),
        priority_prog(intensity),
        chunk_locking(intensity),
        max_size_bursts(intensity),
        target_stall_storm(intensity),
        back_to_back(intensity),
        error_responses(intensity),
    ]
}

pub mod strategy {
    //! The shared legal-configuration distribution.
    //!
    //! One audited generator of *legal* node configurations — every shape
    //! it produces must elaborate and run clean on both views. The
    //! workspace property tests sample it through the proptest
    //! [`Strategy`] adapter ([`config_strategy`]) and the differential
    //! bug-hunt fleet (`crates/hunt`) draws from the bare
    //! [`draw_config`], so both hunt over exactly the same configuration
    //! space: a shape the fleet finds a divergence on is a shape the
    //! property suite could have drawn, and vice versa.

    use proptest::{Strategy, TestRng};
    use rand::rngs::StdRng;
    use rand::{Rng as _, RngCore as _};
    use stbus_protocol::{ArbitrationKind, Architecture, NodeConfig, ProtocolType};

    /// Draws one legal configuration from the shared distribution:
    /// 1..=4 initiators and targets, any power-of-two bus width up to 32
    /// bytes, all three protocol types, all three architectures (partial
    /// crossbars at 2 lanes), all six arbitration policies, pipeline
    /// depths 0..=2, optional programming port, and outstanding depths
    /// 1..=6.
    pub fn draw_config(rng: &mut StdRng) -> NodeConfig {
        let ni = rng.gen_range(1usize..=4);
        let nt = rng.gen_range(1usize..=4);
        let bus_log2 = rng.gen_range(0usize..=5);
        let protocol = rng.gen_range(0usize..=2);
        let arch = rng.gen_range(0usize..=2);
        let arbitration = rng.gen_range(0usize..=5);
        let pipe = rng.gen_range(0usize..=2);
        let prog = rng.next_u64() & 1 == 1;
        let outstanding = rng.gen_range(1usize..=6);
        NodeConfig::builder("random")
            .initiators(ni)
            .targets(nt)
            .bus_bytes(1 << bus_log2)
            .protocol(
                [
                    ProtocolType::Type1,
                    ProtocolType::Type2,
                    ProtocolType::Type3,
                ][protocol],
            )
            .architecture(
                [
                    Architecture::SharedBus,
                    Architecture::PartialCrossbar { lanes: 2 },
                    Architecture::FullCrossbar,
                ][arch],
            )
            .arbitration(ArbitrationKind::ALL[arbitration])
            .pipe_depth(pipe)
            .prog_port(prog)
            .max_outstanding(outstanding)
            .build()
            .expect("strategy produces legal configs")
    }

    /// The proptest adapter over [`draw_config`].
    #[derive(Clone, Copy, Debug, Default)]
    pub struct ConfigStrategy;

    impl Strategy for ConfigStrategy {
        type Value = NodeConfig;
        fn sample(&self, rng: &mut TestRng) -> NodeConfig {
            draw_config(rng)
        }
    }

    /// A strategy over legal node configurations, for `proptest!` blocks.
    pub fn config_strategy() -> ConfigStrategy {
        ConfigStrategy
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use rand::SeedableRng as _;

        #[test]
        fn draws_are_deterministic_per_seed_and_legal() {
            for seed in 0..32u64 {
                let a = draw_config(&mut StdRng::seed_from_u64(seed));
                let b = draw_config(&mut StdRng::seed_from_u64(seed));
                assert_eq!(a, b, "seed {seed} not reproducible");
                assert!((1..=4).contains(&a.n_initiators));
                assert!((1..=4).contains(&a.n_targets));
                assert!(a.bus_bytes.is_power_of_two() && a.bus_bytes <= 32);
            }
        }

        #[test]
        fn adapter_and_bare_draw_share_one_stream() {
            let mut a = StdRng::seed_from_u64(7);
            let mut b = StdRng::seed_from_u64(7);
            assert_eq!(config_strategy().sample(&mut a), draw_config(&mut b));
        }

        #[test]
        fn distribution_reaches_every_policy_and_architecture() {
            let mut arbs = std::collections::BTreeSet::new();
            let mut archs = std::collections::BTreeSet::new();
            for seed in 0..256u64 {
                let c = draw_config(&mut StdRng::seed_from_u64(seed));
                arbs.insert(format!("{:?}", c.arbitration));
                archs.insert(format!("{:?}", c.arch));
            }
            assert_eq!(arbs.len(), 6, "{arbs:?}");
            assert_eq!(archs.len(), 3, "{archs:?}");
        }
    }
}

pub mod qualification {
    //! The shared qualification campaign shape.
    //!
    //! One place defines *how hard the environment hunts* — which
    //! configurations, which tests, which seeds, which alignment spec and
    //! sign-off threshold. Both the `bug_detection` integration test and
    //! the mutation-qualification engine (`crates/mutation`, surfaced as
    //! `stbus_regress --qualify`) build on these helpers, so the two can
    //! never drift apart: a mutation that survives here survives there.

    use super::{all, lru_fairness};
    use crate::cell::{run_cell, CellSpec, Compare};
    use crate::testbench::{RunResult, TestSpec, TestbenchOptions};
    use crate::views::ViewSpec;
    use stbus_protocol::{ArbitrationKind, Architecture, NodeConfig, ProtocolType};
    use telemetry::Telemetry;

    /// Per-initiator transaction count for the functional hunt.
    pub const INTENSITY: usize = 20;
    /// Seeds each {config, test} functional cell is run with.
    pub const SEEDS: [u64; 2] = [1, 2];
    /// Per-initiator transaction count for the alignment run.
    pub const ALIGNMENT_INTENSITY: usize = 25;
    /// The seed the alignment comparison uses.
    pub const ALIGNMENT_SEED: u64 = 1;
    /// STBA sign-off threshold: alignment below this rate is a detection.
    pub const SIGNOFF: f64 = stba::SIGNOFF_RATE;

    /// The Type 2 (ordered-response) hunt configuration: ordered-response
    /// rules are invisible on the Type 3 reference node.
    pub fn t2_hunt() -> NodeConfig {
        NodeConfig::builder("t2_hunt")
            .initiators(3)
            .targets(2)
            .bus_bytes(8)
            .protocol(ProtocolType::Type2)
            .architecture(Architecture::FullCrossbar)
            .arbitration(ArbitrationKind::Lru)
            .build()
            .expect("valid")
    }

    /// The programmable-priority hunt configuration: only the
    /// variable-priority policy consumes programming-port writes, so a
    /// defect in the priority register needs this shape to matter.
    pub fn prog_hunt() -> NodeConfig {
        NodeConfig::builder("prog_hunt")
            .initiators(3)
            .targets(2)
            .bus_bytes(8)
            .protocol(ProtocolType::Type3)
            .architecture(Architecture::FullCrossbar)
            .arbitration(ArbitrationKind::VariablePriority)
            .prog_port(true)
            .build()
            .expect("valid")
    }

    /// The partial-crossbar hunt configuration: lane-mask defects only
    /// bite when the lane count is both limiting and greater than one.
    pub fn partial_hunt() -> NodeConfig {
        NodeConfig::builder("partial_hunt")
            .initiators(3)
            .targets(3)
            .bus_bytes(8)
            .protocol(ProtocolType::Type3)
            .architecture(Architecture::PartialCrossbar { lanes: 2 })
            .arbitration(ArbitrationKind::Lru)
            .build()
            .expect("valid")
    }

    /// The two canonical hunt configurations of experiment E2.
    pub fn hunt_configs() -> Vec<NodeConfig> {
        vec![NodeConfig::reference(), t2_hunt()]
    }

    /// The full qualification configuration set: the E2 pair plus the
    /// shapes that make priority-port and lane-mask defects observable.
    pub fn qualification_configs() -> Vec<NodeConfig> {
        vec![
            NodeConfig::reference(),
            t2_hunt(),
            prog_hunt(),
            partial_hunt(),
        ]
    }

    /// The functional hunt suite (all twelve tests at hunt intensity).
    pub fn suite() -> Vec<TestSpec> {
        all(INTENSITY)
    }

    /// The test the alignment comparison replays on both views.
    pub fn alignment_spec() -> TestSpec {
        lru_fairness(ALIGNMENT_INTENSITY)
    }

    /// The alignment specs a qualification campaign replays: the fairness
    /// spec plus the programming-port spec — the only test that writes
    /// the priority register, without which a dead priority port can
    /// never show up as an alignment drop.
    pub fn alignment_specs() -> Vec<TestSpec> {
        vec![alignment_spec(), super::priority_prog(ALIGNMENT_INTENSITY)]
    }

    /// Testbench options for the functional stage.
    pub fn functional_options() -> TestbenchOptions {
        TestbenchOptions::default()
    }

    /// Testbench options for the alignment stage with the waveforms
    /// captured as VCD text — the file-based flow, for callers that
    /// export or replay the dumps.
    pub fn alignment_options() -> TestbenchOptions {
        TestbenchOptions {
            capture_vcd: true,
            ..TestbenchOptions::default()
        }
    }

    /// Runs one functional cell of `view` and reports whether it failed.
    pub fn functional_cell_fails(
        config: &NodeConfig,
        view: &ViewSpec,
        spec: &TestSpec,
        seed: u64,
    ) -> bool {
        let views = vec![(view.clone(), Compare::None)];
        let cell = CellSpec::new(config.clone(), spec.clone(), seed, views);
        !run_cell(&cell, &Telemetry::disabled()).runs[0]
            .result
            .passed()
    }

    /// Runs the functional hunt — every {config, test, seed} cell of
    /// `view` over the given configurations — and returns true as soon as
    /// any cell fails.
    pub fn functional_detects(configs: &[NodeConfig], view: &ViewSpec) -> bool {
        configs.iter().any(|config| {
            let fails = |spec: &TestSpec| {
                SEEDS
                    .iter()
                    .any(|&seed| functional_cell_fails(config, view, spec, seed))
            };
            suite().iter().any(fails)
        })
    }

    /// Replays the alignment spec on the clean and the mutated view and
    /// reports whether the pair falls below the sign-off threshold.
    pub fn alignment_detects(config: &NodeConfig, clean: ViewSpec, mutated: ViewSpec) -> bool {
        let views = vec![(clean, Compare::None), (mutated, Compare::Cycle)];
        let cell = CellSpec {
            gated: false,
            ..CellSpec::new(config.clone(), alignment_spec(), ALIGNMENT_SEED, views)
        };
        let rate = run_cell(&cell, &Telemetry::disabled()).runs[1].min_rate();
        matches!(rate, Some(rate) if rate < SIGNOFF)
    }

    /// Classifies one functional run for qualification attribution.
    ///
    /// Precedence mirrors how an engineer would triage the failure: a
    /// protocol-rule violation names the defect most precisely, then the
    /// starvation watchdog, then scoreboard/anomaly evidence (which
    /// includes traffic that never completed).
    pub fn classify_functional_failure(result: &RunResult) -> Option<FunctionalDetection> {
        if let Some(v) = result.checker.violations.first() {
            return Some(match v.kind {
                crate::checker::ViolationKind::Rule(rule) => FunctionalDetection::Checker(rule),
                crate::checker::ViolationKind::Starvation => FunctionalDetection::Starvation,
            });
        }
        if !result.scoreboard_errors.is_empty() || !result.anomalies.is_empty() || !result.completed
        {
            return Some(FunctionalDetection::Scoreboard);
        }
        None
    }

    /// What a failing functional cell was attributed to.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum FunctionalDetection {
        /// A protocol-checker rule fired.
        Checker(stbus_protocol::rules::RuleId),
        /// The starvation watchdog fired.
        Starvation,
        /// The scoreboard (or an end-of-test anomaly) flagged the run.
        Scoreboard,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_twelve_named_tests() {
        let suite = all(10);
        assert_eq!(suite.len(), 12);
        let names: std::collections::HashSet<&str> =
            suite.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), 12, "names are unique");
        for s in &suite {
            assert!(!s.description.is_empty());
            assert!(!s.profiles.is_empty());
            assert!(!s.target_profiles.is_empty());
        }
    }

    #[test]
    fn out_of_order_uses_differently_fast_targets() {
        let s = out_of_order(10);
        assert!(s.target_profiles.len() >= 2);
        assert!(s.target_profiles[0].max_latency < s.target_profiles[1].min_latency);
    }

    #[test]
    fn error_test_aims_at_unmapped_memory() {
        let s = error_responses(10);
        assert!(s.profiles[0].unmapped_percent > 0);
    }

    #[test]
    fn priority_prog_has_schedule() {
        assert!(!priority_prog(10).prog_schedule.is_empty());
    }
}
