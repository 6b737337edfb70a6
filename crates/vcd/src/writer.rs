//! Streaming VCD writer.

use crate::document::VarId;
use crate::value::{Scalar, VcdValue};
use std::io::{self, Write};

/// Encodes a variable index as a VCD identifier code (printable ASCII
/// 33..=126, base 94, shortest-first).
pub(crate) fn id_code(index: usize) -> String {
    let mut n = index;
    let mut out = String::new();
    loop {
        out.push((33 + (n % 94)) as u8 as char);
        n /= 94;
        if n == 0 {
            break;
        }
        n -= 1; // bijective numeration so "!", "!!" are distinct
    }
    out
}

struct VarDecl {
    name: String,
    width: usize,
    code: String,
}

/// A streaming VCD writer.
///
/// Declare scopes and variables first, call [`VcdWriter::begin`], then emit
/// changes in nondecreasing time order and [`VcdWriter::finish`].
///
/// Generic writers can be passed by value or as `&mut W` (the standard
/// `Write for &mut W` impl applies).
pub struct VcdWriter<W: Write> {
    out: W,
    timescale: String,
    vars: Vec<VarDecl>,
    scopes: Vec<String>,
    /// Scope stack snapshots: declarations record the full path.
    header_ops: Vec<HeaderOp>,
    current_time: Option<u64>,
    began: bool,
}

enum HeaderOp {
    Push(String),
    Pop,
    Var(usize),
}

impl<W: Write> VcdWriter<W> {
    /// Creates a writer with a `$timescale` such as `"1ns"`.
    pub fn new(out: W, timescale: &str) -> Self {
        VcdWriter {
            out,
            timescale: timescale.to_owned(),
            vars: Vec::new(),
            scopes: Vec::new(),
            header_ops: Vec::new(),
            current_time: None,
            began: false,
        }
    }

    /// Opens a named scope (`$scope module name $end`).
    ///
    /// # Panics
    ///
    /// Panics if called after [`VcdWriter::begin`].
    pub fn push_scope(&mut self, name: &str) {
        assert!(!self.began, "scopes must be declared before begin()");
        self.scopes.push(name.to_owned());
        self.header_ops.push(HeaderOp::Push(name.to_owned()));
    }

    /// Closes the innermost scope.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open or after [`VcdWriter::begin`].
    pub fn pop_scope(&mut self) {
        assert!(!self.began, "scopes must be declared before begin()");
        assert!(
            self.scopes.pop().is_some(),
            "pop_scope without matching push"
        );
        self.header_ops.push(HeaderOp::Pop);
    }

    /// Declares a wire of `width` bits in the current scope.
    ///
    /// # Panics
    ///
    /// Panics if called after [`VcdWriter::begin`] or with `width == 0`.
    pub fn add_var(&mut self, name: &str, width: usize) -> VarId {
        assert!(!self.began, "vars must be declared before begin()");
        assert!(width > 0, "variable width must be nonzero");
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarDecl {
            name: name.to_owned(),
            width,
            code: id_code(id.index()),
        });
        self.header_ops.push(HeaderOp::Var(id.0 as usize));
        id
    }

    /// Writes the header, `$enddefinitions` and the all-`x` `$dumpvars`
    /// block.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn begin(&mut self) -> io::Result<()> {
        assert!(!self.began, "begin() called twice");
        self.began = true;
        writeln!(self.out, "$date\n  (stbus-verification)\n$end")?;
        writeln!(self.out, "$version\n  stbus-vcd 0.1\n$end")?;
        writeln!(self.out, "$timescale {} $end", self.timescale)?;
        let ops = std::mem::take(&mut self.header_ops);
        for op in &ops {
            match op {
                HeaderOp::Push(name) => writeln!(self.out, "$scope module {name} $end")?,
                HeaderOp::Pop => writeln!(self.out, "$upscope $end")?,
                HeaderOp::Var(i) => {
                    let v = &self.vars[*i];
                    writeln!(self.out, "$var wire {} {} {} $end", v.width, v.code, v.name)?;
                }
            }
        }
        writeln!(self.out, "$enddefinitions $end")?;
        writeln!(self.out, "$dumpvars")?;
        for i in 0..self.vars.len() {
            let width = self.vars[i].width;
            self.write_value(i, &VcdValue::unknown(width))?;
        }
        writeln!(self.out, "$end")?;
        let _ = ops;
        Ok(())
    }

    fn advance_time(&mut self, time: u64) -> io::Result<()> {
        match self.current_time {
            Some(t) if t == time => Ok(()),
            Some(t) if t > time => panic!("vcd time moved backwards: {t} -> {time}"),
            _ => {
                self.current_time = Some(time);
                writeln!(self.out, "#{time}")
            }
        }
    }

    fn write_value(&mut self, index: usize, value: &VcdValue) -> io::Result<()> {
        let var = &self.vars[index];
        if var.width == 1 {
            writeln!(self.out, "{}{}", value.bit(0).to_char(), var.code)
        } else {
            writeln!(self.out, "b{} {}", value.to_binary_string(), var.code)
        }
    }

    /// Emits a scalar change at `time`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if `begin` was not called or time moves backwards.
    pub fn change_scalar(&mut self, time: u64, var: VarId, value: Scalar) -> io::Result<()> {
        assert!(self.began, "change before begin()");
        self.advance_time(time)?;
        self.write_value(var.0 as usize, &VcdValue::scalar(value))
    }

    /// Emits a vector change at `time` from an integer value.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn change_vector(
        &mut self,
        time: u64,
        var: VarId,
        width: usize,
        value: u64,
    ) -> io::Result<()> {
        self.change_value(time, var, &VcdValue::from_u64(value, width))
    }

    /// Emits an arbitrary value change at `time`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if `begin` was not called or time moves backwards.
    pub fn change_value(&mut self, time: u64, var: VarId, value: &VcdValue) -> io::Result<()> {
        assert!(self.began, "change before begin()");
        self.advance_time(time)?;
        self.write_value(var.0 as usize, value)
    }

    /// Emits a change at `time` given as its MSB-first value characters
    /// (`0`, `1`, `x`, `z`), one per bit of the variable's width — the
    /// allocation-free path for callers that hold values as bit planes.
    /// Renders exactly as [`change_value`](Self::change_value) with the
    /// equivalent value.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if `begin` was not called or time moves backwards.
    pub fn change_digits(&mut self, time: u64, var: VarId, digits: &str) -> io::Result<()> {
        assert!(self.began, "change before begin()");
        debug_assert!(digits.chars().all(|c| Scalar::from_char(c).is_some()));
        self.advance_time(time)?;
        let var = &self.vars[var.index()];
        debug_assert_eq!(digits.len(), var.width, "one digit per bit");
        if var.width == 1 {
            writeln!(self.out, "{digits}{}", var.code)
        } else {
            writeln!(self.out, "b{digits} {}", var.code)
        }
    }

    /// Writes a final timestamp and flushes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn finish(mut self, end_time: u64) -> io::Result<W> {
        if self.began {
            self.advance_time(end_time)?;
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_codes_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            let code = id_code(i);
            assert!(code.chars().all(|c| (33..=126).contains(&(c as u32))));
            assert!(seen.insert(code), "duplicate id code at {i}");
        }
        assert_eq!(id_code(0), "!");
        assert_eq!(id_code(93), "~");
        assert_eq!(id_code(94), "!!");
    }

    #[test]
    fn writes_header_and_changes() {
        let mut buf = Vec::new();
        let mut w = VcdWriter::new(&mut buf, "1ns");
        w.push_scope("tb");
        let a = w.add_var("a", 1);
        let d = w.add_var("data", 16);
        w.pop_scope();
        w.begin().unwrap();
        w.change_scalar(0, a, Scalar::V1).unwrap();
        w.change_vector(3, d, 16, 0xBEEF).unwrap();
        w.finish(5).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("$scope module tb $end"));
        assert!(text.contains("$var wire 1 ! a $end"));
        assert!(text.contains("$var wire 16 \" data $end"));
        assert!(text.contains("#0\n1!"));
        assert!(text.contains("#3\nb1011111011101111 \""));
        assert!(text.ends_with("#5\n"));
    }

    #[test]
    fn same_time_changes_share_timestamp() {
        let mut buf = Vec::new();
        let mut w = VcdWriter::new(&mut buf, "1ns");
        let a = w.add_var("a", 1);
        let b = w.add_var("b", 1);
        w.begin().unwrap();
        w.change_scalar(7, a, Scalar::V1).unwrap();
        w.change_scalar(7, b, Scalar::V0).unwrap();
        w.finish(8).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.matches("#7").count(), 1);
    }

    #[test]
    fn digit_changes_render_like_value_changes() {
        let render = |digits: bool| {
            let mut buf = Vec::new();
            let mut w = VcdWriter::new(&mut buf, "1ns");
            let a = w.add_var("a", 1);
            let d = w.add_var("d", 4);
            w.begin().unwrap();
            if digits {
                w.change_digits(2, a, "z").unwrap();
                w.change_digits(2, d, "10x1").unwrap();
            } else {
                w.change_scalar(2, a, Scalar::Z).unwrap();
                let v = VcdValue::from_binary_str("10x1").unwrap();
                w.change_value(2, d, &v).unwrap();
            }
            w.finish(3).unwrap();
            String::from_utf8(buf).unwrap()
        };
        assert_eq!(render(true), render(false));
        assert!(render(true).contains("#2\nz!\nb10x1 \"\n"));
    }

    #[test]
    #[should_panic(expected = "time moved backwards")]
    fn backwards_time_panics() {
        let mut buf = Vec::new();
        let mut w = VcdWriter::new(&mut buf, "1ns");
        let a = w.add_var("a", 1);
        w.begin().unwrap();
        w.change_scalar(5, a, Scalar::V1).unwrap();
        let _ = w.change_scalar(4, a, Scalar::V0);
    }

    #[test]
    #[should_panic(expected = "width must be nonzero")]
    fn zero_width_var_panics() {
        let mut buf = Vec::new();
        let mut w = VcdWriter::new(&mut buf, "1ns");
        let _ = w.add_var("a", 0);
    }
}
