//! Experiment E7 — the architecture trade-off (paper §3): "a single
//! shared bus … gives the better results in terms of wiring congestion
//! and area occupations, but can lead to worse results in terms of
//! performance, or a crossbar (full or partial), that leads better
//! results in terms of performance … but worse results in terms of area".
//!
//! Measures throughput and mean latency at equal offered load for the
//! three architectures, next to the mux-count area proxy.
//!
//! ```text
//! cargo run -p stbus-bench --release --bin exp_architecture [intensity]
//! ```

use catg::tests_lib;
use stbus_bench::run_view;
use stbus_protocol::{ArbitrationKind, Architecture, NodeConfig, ProtocolType, ViewKind};

fn main() {
    let intensity: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    let archs = [
        Architecture::SharedBus,
        Architecture::PartialCrossbar { lanes: 2 },
        Architecture::FullCrossbar,
    ];
    println!("=== E7: shared bus vs partial vs full crossbar (paper section 3) ===\n");
    println!(
        "{:<18} {:>10} {:>12} {:>12} {:>12}",
        "architecture", "area proxy", "cycles", "tx/kcycle", "mean latency"
    );
    let (ni, nt) = (4usize, 4usize);
    let tel = telemetry::Telemetry::to_stderr(telemetry::Level::Info);
    for arch in archs {
        tel.info(
            "exp.architecture",
            "running architecture",
            [("arch", telemetry::Json::from(arch.to_string()))],
        );
        let config = NodeConfig::builder("arch")
            .initiators(ni)
            .targets(nt)
            .bus_bytes(8)
            .protocol(ProtocolType::Type3)
            .architecture(arch)
            .arbitration(ArbitrationKind::Lru)
            .max_outstanding(4)
            .build()
            .expect("valid");
        // Saturating traffic spread over all targets.
        let spec = tests_lib::back_to_back(intensity);
        let mut cycles = 0u64;
        let mut tx = 0u64;
        let mut latency_sum = 0u64;
        for seed in [1u64, 2, 3] {
            let result = run_view(&config, ViewKind::Bca, &spec, seed);
            assert!(result.passed(), "{arch}: {:?}", result.checker.violations);
            cycles += result.cycles;
            tx += result.transactions;
            latency_sum += result.stats.iter().map(|s| s.total_latency).sum::<u64>();
        }
        println!(
            "{:<18} {:>10} {:>12} {:>12.1} {:>12.1}",
            arch.to_string(),
            arch.area_proxy(ni, nt),
            cycles,
            tx as f64 / cycles as f64 * 1000.0,
            latency_sum as f64 / tx as f64,
        );
    }
    println!();
    println!("expected shape: throughput shared < partial < full; area proxy the");
    println!("reverse — the crossover the system integrator navigates (paper section 3).");
}
