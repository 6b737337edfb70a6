//! The benchmark's own checks, on smoke-sized campaigns: a planted BCA
//! defect must surface as cell errors, and the traced re-drives must
//! reproduce the untraced reports cell for cell.

use catg::tests_lib;
use stbus_bca::BcaBug;
use stbus_perfbench::host::ScratchDir;
use stbus_perfbench::pins::{Pins, Tally};
use stbus_perfbench::trace::Layers;
use stbus_perfbench::{qualify, regress};

fn smoke_inputs() -> regress::Inputs {
    regress::Inputs {
        configs: regression::standard_configs().into_iter().take(2).collect(),
        tests: vec![tests_lib::random_mixed(8), tests_lib::basic_read_write(8)],
    }
}

fn pins_of(report: &regression::RegressionReport) -> Pins {
    Pins::from_reference([(
        0,
        regress::output_digest(report),
        regress::identity(report),
        regress::cell_digests(report),
    )])
    .expect("consistent reference")
}

fn tally(pins: &Pins, report: &regression::RegressionReport) -> Tally {
    let mut tally = Tally::default();
    tally.check(
        pins,
        0,
        &regress::cell_digests(report),
        &regress::output_digest(report),
        &regress::identity(report),
        false,
    );
    tally
}

#[test]
fn planted_bca_defect_raises_the_cell_error_rate() {
    let inputs = smoke_inputs();
    let clean = regress::campaign(&inputs, &regress::options(&[1], None)).0;
    let pins = pins_of(&clean);

    let again = regress::campaign(&inputs, &regress::options(&[1], None)).0;
    let clean_tally = tally(&pins, &again);
    assert!(clean_tally.correct(), "{:?}", clean_tally.errors);
    assert_eq!(clean_tally.cell_error_rate(), 0.0);

    let mut options = regress::options(&[1], None);
    options.bca_bugs = vec![BcaBug::DroppedByteEnables];
    let buggy = regress::campaign(&inputs, &options).0;
    let buggy_tally = tally(&pins, &buggy);
    assert!(!buggy_tally.correct());
    assert!(
        buggy_tally.cell_error_rate() > 0.0,
        "B1 must change some cell's outcome"
    );
}

#[test]
fn traced_cold_campaign_reproduces_the_report_and_reconciles() {
    let inputs = smoke_inputs();
    let untraced = regress::campaign(&inputs, &regress::options(&[1], None)).0;
    let mut layers = Layers::default();
    let started = std::time::Instant::now();
    let traced = regress::traced_campaign(&inputs, &regress::options(&[1], None), &mut layers);
    let wall = started.elapsed().saturating_sub(layers.trace_only);
    assert!(
        layers.fidelity_errors.is_empty(),
        "{:?}",
        layers.fidelity_errors
    );
    assert_eq!(
        regress::cell_digests(&traced),
        regress::cell_digests(&untraced)
    );
    assert_eq!(
        regress::output_digest(&traced),
        regress::output_digest(&untraced)
    );
    assert_eq!(layers.tb_runs, 8);
    assert_eq!(layers.rtl_cycles, regress::identity(&untraced).rtl_cycles);
    assert!(layers.stba_compares > 0 && layers.trace_bytes > 0);
    assert!(
        layers.attributed() <= wall,
        "{:?} > {wall:?}",
        layers.attributed()
    );
}

#[test]
fn traced_fill_and_warm_pass_match_the_runner() {
    let inputs = smoke_inputs();
    let dir = ScratchDir::new("self-test-store").unwrap();
    let options = || regress::options(&[1], Some(dir.path()));
    let mut fill = Layers::default();
    let filled = regress::traced_campaign(&inputs, &options(), &mut fill);
    assert_eq!(filled.cache.unwrap().puts, 4);
    assert!(fill.cache_bytes_written > 0);

    // The runner answers every cell from entries the traced fill wrote.
    let warm = regress::campaign(&inputs, &options()).0;
    let cache = warm.cache.unwrap();
    assert_eq!((cache.hits, cache.simulated), (4, 0));
    assert_eq!(
        regress::output_digest(&warm),
        regress::output_digest(&filled)
    );

    let mut layers = Layers::default();
    let traced_warm = regress::traced_campaign(&inputs, &options(), &mut layers);
    assert_eq!((layers.cache_hits, layers.tb_runs), (4, 0));
    assert_eq!(
        regress::cell_digests(&traced_warm),
        regress::cell_digests(&warm)
    );
}

#[test]
fn traced_qualification_reproduces_every_cell_verdict() {
    let mut options = qualify::options(&[1]);
    options.configs.truncate(1);
    options.tests = vec![tests_lib::random_mixed(8)];
    options.alignment_specs.truncate(1);
    let report = mutation::run_qualification(&options);
    let mut layers = Layers::default();
    let traced = qualify::traced_campaign(&options, &mut layers);
    assert!(
        layers.fidelity_errors.is_empty(),
        "{:?}",
        layers.fidelity_errors
    );
    assert_eq!(traced, qualify::cell_digests(&report, &options));
    let identity = qualify::traced_identity(&options, &layers);
    assert_eq!(identity.cells, qualify::matrix_identity(&options).cells);
    assert_eq!(identity.runs, qualify::matrix_identity(&options).runs);
}
