//! Worker-count determinism: the whole point of reassembling cells in
//! matrix order is that a campaign's evidence — the §5 table and
//! `manifest.json` — must not depend on how many threads produced it.

use stbus_protocol::NodeConfig;
use stbus_regression::{run_regression, standard_configs, RegressionOptions};

fn campaign(jobs: usize) -> stbus_regression::RegressionReport {
    // Two configurations of different shape, two tests, two seeds:
    // 8 cells, enough to actually interleave on 4 workers.
    let configs: Vec<NodeConfig> = vec![NodeConfig::reference(), standard_configs()[5].clone()];
    let tests = vec![
        catg::tests_lib::basic_read_write(8),
        catg::tests_lib::random_mixed(8),
    ];
    let options = RegressionOptions {
        seeds: vec![1, 2],
        jobs,
        ..RegressionOptions::default()
    };
    run_regression(&configs, &tests, &options)
}

#[test]
fn parallel_campaign_is_byte_identical_to_serial() {
    let serial = campaign(1);
    let parallel = campaign(4);

    // Neither the table nor the manifest carries a clock: both render
    // byte-identical as they are — coverage, alignment, pass/fail and the
    // metrics snapshot all included.
    assert_eq!(serial.table(), parallel.table());
    assert_eq!(
        serial.manifest_json().render_pretty(),
        parallel.manifest_json().render_pretty()
    );
}
