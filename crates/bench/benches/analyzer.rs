//! Bench of the STBA pipeline: cycle-by-cycle alignment on typed port
//! traces, and the file-based flow (VCD parse, then the same comparison).

use catg::{tests_lib, Testbench, TestbenchOptions};
use criterion::{criterion_group, criterion_main, Criterion};
use stbus_protocol::{NodeConfig, ViewKind};

fn bench_analyzer(c: &mut Criterion) {
    let cfg = NodeConfig::reference();
    let bench = Testbench::new(
        cfg.clone(),
        TestbenchOptions {
            capture_vcd: true,
            capture_trace: true,
            ..TestbenchOptions::default()
        },
    );
    let spec = tests_lib::random_mixed(40);
    let mut rtl = catg::build_view(&cfg, ViewKind::Rtl);
    let mut bca = catg::build_view(&cfg, ViewKind::Bca);
    let ra = bench.run(rtl.as_mut(), &spec, 1);
    let rb = bench.run(bca.as_mut(), &spec, 1);
    let (ta, tb) = (ra.trace.expect("captured"), rb.trace.expect("captured"));
    let (a, b) = (ra.vcd.expect("captured"), rb.vcd.expect("captured"));

    let mut group = c.benchmark_group("analyzer");
    group.bench_function("compare_traces_pair", |bb| {
        bb.iter(|| stba::compare_traces(&ta, &tb).expect("aligns"));
    });
    group.bench_function("parse_vcd", |bb| {
        bb.iter(|| vcd::VcdDocument::parse(&a).expect("parses"));
    });
    group.bench_function("compare_vcd_pair", |bb| {
        bb.iter(|| stba::compare_vcd(&a, &b, catg::vcd_cycle_time()).expect("aligns"));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_analyzer
}
criterion_main!(benches);
