//! Value Change Dump (VCD) writing and parsing.
//!
//! The paper's regression tool dumps a VCD file per test run "so that it can
//! be used later for bus accurate comparison" by the STBus Analyzer. This
//! crate provides both directions: [`VcdWriter`] emits standard VCD from the
//! testbench's per-cycle port samples, and [`VcdDocument`] parses a dump
//! back so the analyzer (`stba`) can align two waveforms cycle by cycle.
//!
//! # Example
//!
//! ```
//! use stbus_vcd::{VcdWriter, VcdDocument, Scalar};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut out = Vec::new();
//! let mut w = VcdWriter::new(&mut out, "1ns");
//! w.push_scope("top");
//! let clk = w.add_var("clk", 1);
//! let bus = w.add_var("bus", 8);
//! w.pop_scope();
//! w.begin()?;
//! w.change_scalar(0, clk, Scalar::V0)?;
//! w.change_vector(0, bus, 8, 0x00)?;
//! w.change_scalar(5, clk, Scalar::V1)?;
//! w.change_vector(5, bus, 8, 0xA5)?;
//! w.finish(10)?;
//!
//! let doc = VcdDocument::parse(std::str::from_utf8(&out)?)?;
//! let bus_var = doc.var_by_name("top.bus").expect("declared");
//! assert_eq!(doc.value_at(bus_var, 7).as_u64(), Some(0xA5));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod document;
mod error;
mod value;
mod writer;

pub use document::{VarId, VarInfo, VcdDocument};
pub use error::ParseVcdError;
pub use value::{Scalar, VcdValue};
pub use writer::VcdWriter;
