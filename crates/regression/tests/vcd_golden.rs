//! Golden VCD export: `TestbenchOptions::capture_vcd` must keep producing
//! the exact VCD text the waveform dump has always written, byte for
//! byte, now that the text is rendered from the typed port trace.
//!
//! The fixtures under `tests/fixtures/` were captured from the text
//! writer that predates the typed trace. Two cells are pinned, each on
//! the RTL and the BCA view: the reference configuration and a 4×3
//! Type 3 node with a 16-byte bus from the standard matrix (data lanes
//! two words wide), both running `basic_read_write` with seed 1.
//!
//! To re-capture the fixtures after an intended format change, run
//! `STBUS_BLESS_GOLDEN=1 cargo test -p stbus-regression --test vcd_golden`.

use catg::{tests_lib, Testbench, TestbenchOptions};
use stbus_bca::{BcaNode, Fidelity};
use stbus_protocol::{DutView, NodeConfig, ProtocolType};
use stbus_regression::standard_configs;
use stbus_rtl::RtlNode;
use std::path::PathBuf;

const INTENSITY: usize = 6;
const SEED: u64 = 1;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn wide_config() -> NodeConfig {
    standard_configs()
        .into_iter()
        .find(|c| {
            c.n_initiators == 4
                && c.n_targets == 3
                && c.bus_bytes == 16
                && c.protocol == ProtocolType::Type3
        })
        .expect("the standard matrix has a 4x3 Type 3 16-byte config")
}

fn capture(config: &NodeConfig, dut: &mut dyn DutView) -> String {
    let bench = Testbench::new(
        config.clone(),
        TestbenchOptions {
            capture_vcd: true,
            ..TestbenchOptions::default()
        },
    );
    let spec = tests_lib::basic_read_write(INTENSITY);
    bench.run(dut, &spec, SEED).vcd.expect("captured")
}

fn check(name: &str, text: &str) {
    let path = fixture(name);
    if std::env::var_os("STBUS_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir");
        std::fs::write(&path, text).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    if golden != text {
        let line = golden
            .lines()
            .zip(text.lines())
            .position(|(a, b)| a != b)
            .map_or_else(|| "length".to_owned(), |l| format!("line {}", l + 1));
        panic!("{name}: captured VCD differs from the golden export at {line}");
    }
}

fn check_cell(stem: &str, config: &NodeConfig) {
    let mut rtl = RtlNode::new(config.clone());
    check(&format!("{stem}_rtl.vcd"), &capture(config, &mut rtl));
    let mut bca = BcaNode::new(config.clone(), Fidelity::Relaxed);
    check(&format!("{stem}_bca.vcd"), &capture(config, &mut bca));
}

#[test]
fn reference_cell_exports_the_golden_vcd() {
    check_cell("reference_basic_rw_s1", &NodeConfig::reference());
}

#[test]
fn wide_type3_cell_exports_the_golden_vcd() {
    let config = wide_config();
    check_cell(&format!("{}_basic_rw_s1", config.name), &config);
}
