//! The regression tool.
//!
//! Paper §4: "The regression tool, which is developed internally to run
//! regression flow, generates and compiles these files. It consists on a
//! graphical user interface able to receive configuration parameters. It
//! runs regression tests in batch mode, through generic scripts that are
//! design independent. For each test file associated with the test seed, a
//! verification report and a functional coverage one are generated." And
//! §5: "Since Node has many configurations, regression tool can load text
//! files defining HDL parameters of each of them."
//!
//! This crate is that tool, minus the GUI: a text configuration-file
//! format ([`parse_config`]/[`render_config`]), a configuration sweep generator
//! ([`standard_configs`]), and a batch runner ([`run_regression`]) that executes the
//! twelve-test suite with the same seeds on both design views, merges
//! functional coverage, and — when all checks pass — calls the `stba`
//! analyzer on the VCD pair, implementing the Figure 4/5 flow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell_codec;
pub mod fingerprint;
pub mod flags;
mod manifest;
mod matrix;
mod report_files;
mod runner;
#[cfg(unix)]
pub mod serve;

// The text configuration-file format now lives with the types it encodes
// (`stbus_protocol::config_file`), so lower layers — the bug-hunt fleet's
// `repro.json`, the promoted-reproducer catalogue — can embed and parse
// configurations without depending on this crate. Re-exported here so
// existing `stbus_regression::parse_config` callers keep compiling.
pub use manifest::MANIFEST_SCHEMA;
pub use matrix::standard_configs;
pub use runner::{
    cell_key, run_regression, CacheSummary, ConfigOutcome, RegressionOptions, RegressionReport,
    RunRecord, CACHE_STATS_SCHEMA, SOURCE_FINGERPRINT,
};
pub use stba::SIGNOFF_RATE;
pub use stbus_protocol::config_file::{parse_config, render_config, ParseConfigError};
