//! Experiment E5 — the BCA speed motivation (paper §1): "The fast
//! simulation of BCA models permits to fast find the optimized
//! configuration".
//!
//! Steps both views through identical saturating stimulus across growing
//! node sizes and reports simulated cycles per second plus the BCA
//! speedup factor. Absolute numbers are machine-dependent; the *shape* —
//! BCA faster than RTL at every node size — is the claim under test.
//!
//! ```text
//! cargo run -p stbus-bench --release --bin exp_speed [cycles]
//! ```

use stbus_bench::{measure_view_speed, ratio_label};
use stbus_protocol::{ArbitrationKind, Architecture, NodeConfig, ProtocolType, ViewKind};

fn config(ni: usize, nt: usize) -> NodeConfig {
    NodeConfig::builder(&format!("speed_{ni}x{nt}"))
        .initiators(ni)
        .targets(nt)
        .bus_bytes(8)
        .protocol(ProtocolType::Type3)
        .architecture(Architecture::FullCrossbar)
        .arbitration(ArbitrationKind::Lru)
        .build()
        .expect("valid")
}

fn main() {
    let cycles: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    println!("=== E5: RTL vs BCA simulation speed (paper section 1) ===\n");
    println!(
        "{:<12} {:>16} {:>16} {:>10}",
        "node size", "RTL cycles/s", "BCA cycles/s", "speedup"
    );
    let tel = telemetry::Telemetry::to_stderr(telemetry::Level::Info);
    for (ni, nt) in [(2usize, 2usize), (4, 2), (8, 4), (16, 8), (32, 16)] {
        tel.info(
            "exp.speed",
            "measuring node size",
            [
                ("initiators", telemetry::Json::from(ni)),
                ("targets", telemetry::Json::from(nt)),
                ("cycles", telemetry::Json::from(cycles)),
            ],
        );
        let cfg = config(ni, nt);
        let mut rtl = catg::build_view(&cfg, ViewKind::Rtl);
        let mut bca = catg::build_view(&cfg, ViewKind::Bca);
        // Warm up, then measure.
        measure_view_speed(rtl.as_mut(), cycles / 10);
        measure_view_speed(bca.as_mut(), cycles / 10);
        let sr = measure_view_speed(rtl.as_mut(), cycles);
        let sb = measure_view_speed(bca.as_mut(), cycles);
        println!(
            "{:<12} {:>16.0} {:>16.0} {:>10}",
            format!("{ni}i x {nt}t"),
            sr.cycles_per_second(),
            sb.cycles_per_second(),
            ratio_label(sb.cycles_per_second(), sr.cycles_per_second()),
        );
    }
    println!();
    println!("expected shape: BCA faster at every node size (the RTL view pays");
    println!("per-signal event cost).");
}
