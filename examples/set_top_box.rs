//! A set-top-box-like SoC scenario (the application class the paper's
//! introduction motivates STBus with), used to compare arbitration
//! policies.
//!
//! ```text
//! cargo run --release --example set_top_box
//! ```
//!
//! Three initiators share a DDR-like target through the node:
//! * a CPU issuing short, latency-sensitive reads,
//! * an MPEG decoder streaming medium bursts that must not starve,
//! * a DMA engine moving bulk data whenever it can.
//!
//! The same workload runs under each of the six arbitration policies and
//! the table shows how mean latency and completed bandwidth shift.

use catg::{ConstraintModel, TargetProfile, TestSpec, Testbench, TestbenchOptions};
use stbus_protocol::{ArbitrationKind, NodeConfig, OpKind, TargetId, TransferSize, ViewKind};

fn workload() -> TestSpec {
    TestSpec {
        name: "set_top_box".into(),
        description: "CPU + MPEG + DMA sharing a DDR-like target".into(),
        profiles: vec![
            // CPU: short reads, frequent, latency-sensitive.
            ConstraintModel {
                n_transactions: 60,
                gap_max: 4,
                kinds: vec![
                    (OpKind::Load, 1),
                    (OpKind::Store, 0),
                    (OpKind::ReadModifyWrite, 0),
                    (OpKind::Swap, 0),
                    (OpKind::Flush, 0),
                    (OpKind::Purge, 0),
                ],
                sizes: vec![(TransferSize::B4, 1), (TransferSize::B8, 1)],
                targets: vec![(TargetId(0), 1)],
                ..ConstraintModel::default()
            },
            // MPEG decoder: steady medium bursts.
            ConstraintModel {
                n_transactions: 40,
                gap_max: 6,
                sizes: vec![(TransferSize::B16, 1), (TransferSize::B32, 1)],
                targets: vec![(TargetId(0), 1)],
                ..ConstraintModel::default()
            },
            // DMA: bulk stores, saturating.
            ConstraintModel {
                n_transactions: 40,
                gap_max: 0,
                kinds: vec![
                    (OpKind::Load, 0),
                    (OpKind::Store, 1),
                    (OpKind::ReadModifyWrite, 0),
                    (OpKind::Swap, 0),
                    (OpKind::Flush, 0),
                    (OpKind::Purge, 0),
                ],
                sizes: vec![(TransferSize::B32, 1), (TransferSize::B64, 1)],
                targets: vec![(TargetId(0), 1)],
                ..ConstraintModel::default()
            },
        ],
        target_profiles: vec![TargetProfile {
            min_latency: 2,
            max_latency: 4,
            gnt_throttle_percent: 0,
        }],
        prog_schedule: Vec::new(),
    }
}

fn main() {
    let spec = workload();
    println!("policy              CPU lat  MPEG lat  DMA lat   total cycles");
    println!("------------------  -------  --------  -------   ------------");
    for policy in ArbitrationKind::ALL {
        let config = NodeConfig::builder("stb")
            .initiators(3)
            .targets(2)
            .bus_bytes(8)
            .protocol(stbus_protocol::ProtocolType::Type3)
            .architecture(stbus_protocol::Architecture::FullCrossbar)
            .arbitration(policy)
            .max_outstanding(4)
            .build()
            .expect("valid");
        let bench = Testbench::new(config.clone(), TestbenchOptions::default());
        let mut dut = catg::build_view(&config, ViewKind::Bca);
        let result = bench.run(dut.as_mut(), &spec, 42);
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
            "{:<18}  {:7.1}  {:8.1}  {:7.1}   {:>8}",
            policy.to_string(),
            lat(0),
            lat(1),
            lat(2),
            result.cycles
        );
    }
    println!();
    println!("(latency-based arbitration should protect the CPU; bandwidth");
    println!(" limitation should cap the DMA; fixed priority favors port 0)");
}
