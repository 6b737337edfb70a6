//! Experiment E8 — the six arbitration policies (paper §3/§5): priority
//! and latency arbitration favor their VIP, bandwidth limitation keeps the
//! over-budget hog behind the others, LRU/round-robin give every
//! initiator its turn.
//!
//! Three initiators with asymmetric demand share one hot target; each
//! policy runs the same workload and the per-initiator completed
//! transactions and mean latency are tabulated.
//!
//! ```text
//! cargo run -p stbus-bench --release --bin exp_arbitration [intensity]
//! ```

use catg::{ConstraintModel, TargetProfile, TestSpec};
use stbus_bench::run_view;
use stbus_protocol::arbitration::ArbiterParams;
use stbus_protocol::{
    ArbitrationKind, Architecture, NodeConfig, OpKind, ProtocolType, TargetId, TransferSize,
    ViewKind,
};

fn workload(intensity: usize) -> TestSpec {
    TestSpec {
        name: "asymmetric_demand".into(),
        description: "hog + steady + sporadic on one target".into(),
        profiles: vec![
            // The hog: saturating multi-cell stores.
            ConstraintModel {
                n_transactions: intensity * 2,
                gap_max: 0,
                kinds: vec![
                    (OpKind::Load, 0),
                    (OpKind::Store, 1),
                    (OpKind::ReadModifyWrite, 0),
                    (OpKind::Swap, 0),
                    (OpKind::Flush, 0),
                    (OpKind::Purge, 0),
                ],
                sizes: vec![(TransferSize::B32, 1)],
                targets: vec![(TargetId(0), 1)],
                ..ConstraintModel::default()
            },
            // Steady near-saturating loads.
            ConstraintModel {
                n_transactions: intensity,
                gap_max: 2,
                kinds: vec![
                    (OpKind::Load, 1),
                    (OpKind::Store, 0),
                    (OpKind::ReadModifyWrite, 0),
                    (OpKind::Swap, 0),
                    (OpKind::Flush, 0),
                    (OpKind::Purge, 0),
                ],
                sizes: vec![(TransferSize::B8, 1)],
                targets: vec![(TargetId(0), 1)],
                ..ConstraintModel::default()
            },
            // Sporadic latency-sensitive loads (the "VIP").
            ConstraintModel {
                n_transactions: intensity / 2 + 1,
                gap_max: 16,
                kinds: vec![
                    (OpKind::Load, 1),
                    (OpKind::Store, 0),
                    (OpKind::ReadModifyWrite, 0),
                    (OpKind::Swap, 0),
                    (OpKind::Flush, 0),
                    (OpKind::Purge, 0),
                ],
                sizes: vec![(TransferSize::B4, 1)],
                targets: vec![(TargetId(0), 1)],
                ..ConstraintModel::default()
            },
        ],
        target_profiles: vec![TargetProfile::fast()],
        prog_schedule: Vec::new(),
    }
}

fn main() {
    let intensity: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    let spec = workload(intensity);
    println!(
        "=== E8: the six arbitration policies under asymmetric load (paper section 3/5) ===\n"
    );
    println!(
        "{:<18} {:>9} {:>9} {:>9} {:>11} {:>11} {:>11} {:>8}",
        "policy", "hog tx", "steady tx", "vip tx", "hog lat", "steady lat", "vip lat", "cycles"
    );
    let tel = telemetry::Telemetry::to_stderr(telemetry::Level::Info);
    for policy in ArbitrationKind::ALL {
        tel.info(
            "exp.arbitration",
            "running policy",
            [("policy", telemetry::Json::from(policy.to_string()))],
        );
        // Policy tuning, as a system integrator would set it: the VIP
        // (initiator 2) gets a tight latency deadline and top priority;
        // the hog (initiator 0) gets a small bandwidth budget.
        let params = ArbiterParams {
            priorities: Some(vec![0, 1, 9]),
            deadlines: Some(vec![200, 32, 2]),
            window: 16,
            budgets: Some(vec![4, 8, 8]),
        };
        let config = NodeConfig::builder("arb")
            .initiators(3)
            .targets(1)
            .bus_bytes(8)
            .protocol(ProtocolType::Type3)
            .architecture(Architecture::FullCrossbar)
            .arbitration(policy)
            .arbiter_params(params)
            .max_outstanding(8)
            .build()
            .expect("valid");
        let result = run_view(&config, ViewKind::Bca, &spec, 7);
        assert!(result.passed(), "{policy}: {:?}", result.checker.violations);
        let lat = |i: usize| {
            let s = result.stats[i];
            if s.completed == 0 {
                0.0
            } else {
                s.total_latency as f64 / s.completed as f64
            }
        };
        println!(
            "{:<18} {:>9} {:>9} {:>9} {:>11.1} {:>11.1} {:>11.1} {:>8}",
            policy.to_string(),
            result.stats[0].completed,
            result.stats[1].completed,
            result.stats[2].completed,
            lat(0),
            lat(1),
            lat(2),
            result.cycles
        );
    }
    println!();
    println!("expected shape: the hog always has a packet waiting and every policy is");
    println!("work-conserving, so the hog's mean latency is the same under all six; the");
    println!("policies differ in how long the steady and VIP initiators wait behind it:");
    println!("least under latency arbitration and the priority policies, little more");
    println!("under bandwidth limitation (each 4-cell hog packet uses up its budget of");
    println!("4 grants per 16-cycle window), most under LRU and round-robin.");
}
