//! Shared helpers for the experiment binaries.
//!
//! Every table and figure-shaped claim of the paper has a binary here (see
//! `src/bin/exp_*.rs` and `EXPERIMENTS.md` at the workspace root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use catg::cell::{run_cell, CellSpec, Compare};
use catg::{RunResult, TestSpec, ViewSpec};
use stbus_protocol::{DutInputs, DutView, NodeConfig, ViewKind};
use std::time::Instant;
use telemetry::Telemetry;

/// Runs `test` under `seed` on the clean `kind` view of `config` as a
/// one-view cell, through the cell path every campaign mode uses
/// ([`catg::cell::run_cell`]).
pub fn run_view(config: &NodeConfig, kind: ViewKind, test: &TestSpec, seed: u64) -> RunResult {
    let views = vec![(ViewSpec::of(kind), Compare::None)];
    let cell = CellSpec::new(config.clone(), test.clone(), seed, views);
    let mut outcome = run_cell(&cell, &Telemetry::disabled());
    outcome.runs.pop().expect("one view").result
}

/// Walltime and simulated cycles of one measured run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpeedSample {
    /// Simulated clock cycles.
    pub cycles: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
}

impl SpeedSample {
    /// Simulated cycles per wall-clock second.
    pub fn cycles_per_second(&self) -> f64 {
        if self.seconds <= 0.0 {
            f64::INFINITY
        } else {
            self.cycles as f64 / self.seconds
        }
    }
}

/// Steps a bare DUT view through saturating idle-free traffic for
/// `cycles` cycles and measures the wall time. The same stimulus drives
/// both views, so the ratio of the two samples is the BCA speedup factor
/// (experiment E5).
pub fn measure_view_speed(dut: &mut dyn DutView, cycles: u64) -> SpeedSample {
    let cfg = dut.config().clone();
    dut.reset();
    let mut inputs = DutInputs::idle(&cfg);
    // Saturate: every initiator requests, every target accepts.
    for (i, p) in inputs.initiator.iter_mut().enumerate() {
        p.req = true;
        p.cell = stbus_protocol::ReqCell::new(
            ((i % cfg.n_targets) as u64) << 24,
            stbus_protocol::Opcode::default(),
            stbus_protocol::InitiatorId(i as u8),
        );
        p.r_gnt = true;
    }
    for t in inputs.target.iter_mut() {
        t.gnt = true;
    }
    let start = Instant::now();
    for cycle in 0..cycles {
        // Rotate addresses so arbitration state keeps moving.
        for (i, p) in inputs.initiator.iter_mut().enumerate() {
            p.cell.addr = (((i + cycle as usize) % cfg.n_targets) as u64) << 24;
            p.cell.tid = stbus_protocol::TransactionId((cycle % 4) as u8);
        }
        let _ = dut.step(&inputs);
    }
    SpeedSample {
        cycles,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Renders a ratio as `12.3x`.
pub fn ratio_label(fast: f64, slow: f64) -> String {
    if slow <= 0.0 {
        "n/a".to_owned()
    } else {
        format!("{:.1}x", fast / slow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbus_protocol::{NodeConfig, ViewKind};

    #[test]
    fn speed_measurement_runs_both_views() {
        let cfg = NodeConfig::reference();
        let mut rtl = catg::build_view(&cfg, ViewKind::Rtl);
        let mut bca = catg::build_view(&cfg, ViewKind::Bca);
        let sr = measure_view_speed(rtl.as_mut(), 200);
        let sb = measure_view_speed(bca.as_mut(), 200);
        assert_eq!(sr.cycles, 200);
        assert_eq!(sb.cycles, 200);
        assert!(sr.cycles_per_second() > 0.0);
        assert!(sb.cycles_per_second() > 0.0);
    }

    #[test]
    fn ratio_label_formats() {
        assert_eq!(ratio_label(10.0, 2.0), "5.0x");
        assert_eq!(ratio_label(1.0, 0.0), "n/a");
    }
}
