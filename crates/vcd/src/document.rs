//! In-memory parsed VCD documents.

use crate::error::ParseVcdError;
use crate::value::{Scalar, VcdValue};
use std::collections::HashMap;

/// Identifies a variable inside one [`VcdDocument`] (or, on the writer
/// side, one [`VcdWriter`](crate::VcdWriter)).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Declaration data of one variable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VarInfo {
    /// Dotted full path, e.g. `tb.init0.req`.
    pub path: String,
    /// Declared bit width.
    pub width: usize,
    /// The identifier code used in the change section.
    pub code: String,
}

/// A fully parsed VCD document with per-variable change lists.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VcdDocument {
    timescale: Option<String>,
    vars: Vec<VarInfo>,
    by_path: HashMap<String, VarId>,
    /// Per-var (time, value), nondecreasing in time.
    changes: Vec<Vec<(u64, VcdValue)>>,
    end_time: u64,
}

impl VcdDocument {
    /// Parses VCD text.
    ///
    /// Supports the subset emitted by common simulators: `$date`,
    /// `$version`, `$comment`, `$timescale`, `$scope`/`$upscope`, `$var`,
    /// `$enddefinitions`, `$dumpvars`/`$dumpall`/`$dumpon`/`$dumpoff`
    /// blocks, `#` timestamps, scalar and `b`-vector changes (`r`-real
    /// changes are rejected).
    ///
    /// # Errors
    ///
    /// Returns [`ParseVcdError`] with a line number on malformed input.
    pub fn parse(text: &str) -> Result<VcdDocument, ParseVcdError> {
        Parser::new(text).run()
    }

    /// The `$timescale` string, if present.
    pub fn timescale(&self) -> Option<&str> {
        self.timescale.as_deref()
    }

    /// All declared variables, in declaration order.
    pub fn vars(&self) -> &[VarInfo] {
        &self.vars
    }

    /// Every declared variable with its id, in declaration order.
    pub fn var_entries(&self) -> impl Iterator<Item = (VarId, &VarInfo)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, info)| (VarId(i as u32), info))
    }

    /// Looks up a variable by dotted path.
    pub fn var_by_name(&self, path: &str) -> Option<VarId> {
        self.by_path.get(path).copied()
    }

    /// Declaration info for a variable.
    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.index()]
    }

    /// The change list of a variable: `(time, value)` pairs in time order.
    pub fn changes(&self, id: VarId) -> &[(u64, VcdValue)] {
        &self.changes[id.index()]
    }

    /// The last timestamp in the dump.
    pub fn end_time(&self) -> u64 {
        self.end_time
    }

    /// The value of a variable at `time` (the most recent change at or
    /// before `time`); all-`x` before the first change.
    pub fn value_at(&self, id: VarId, time: u64) -> VcdValue {
        let list = &self.changes[id.index()];
        match list.partition_point(|(t, _)| *t <= time) {
            0 => VcdValue::unknown(self.vars[id.index()].width),
            n => list[n - 1].1.clone(),
        }
    }
}

struct Parser<'a> {
    lines: std::iter::Peekable<std::iter::Enumerate<std::str::Lines<'a>>>,
    timescale: Option<String>,
    vars: Vec<VarInfo>,
    by_path: HashMap<String, VarId>,
    by_code: HashMap<String, VarId>,
    changes: Vec<Vec<(u64, VcdValue)>>,
    scopes: Vec<String>,
    time: u64,
    end_time: u64,
    in_definitions: bool,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            lines: text.lines().enumerate().peekable(),
            timescale: None,
            vars: Vec::new(),
            by_path: HashMap::new(),
            by_code: HashMap::new(),
            changes: Vec::new(),
            scopes: Vec::new(),
            time: 0,
            end_time: 0,
            in_definitions: true,
        }
    }

    fn run(mut self) -> Result<VcdDocument, ParseVcdError> {
        // Tokenize the whole document, keeping line numbers.
        let mut tokens: Vec<(usize, &str)> = Vec::new();
        for (lineno, line) in self.lines.by_ref() {
            for tok in line.split_whitespace() {
                tokens.push((lineno + 1, tok));
            }
        }
        let mut i = 0usize;
        while i < tokens.len() {
            let (line, tok) = tokens[i];
            if self.in_definitions {
                i = self.definition_token(&tokens, i)?;
                continue;
            }
            match tok.chars().next() {
                Some('#') => {
                    let t: u64 = tok[1..]
                        .parse()
                        .map_err(|_| ParseVcdError::new(line, format!("bad timestamp `{tok}`")))?;
                    if t < self.time {
                        return Err(ParseVcdError::new(line, "timestamp moved backwards"));
                    }
                    self.time = t;
                    self.end_time = self.end_time.max(t);
                    i += 1;
                }
                Some('$') => {
                    // $dumpvars/$dumpall/$dumpon/$dumpoff/$end/$comment …
                    if tok == "$comment" {
                        i = skip_until_end(&tokens, i + 1, line)?;
                    } else {
                        i += 1;
                    }
                }
                Some('b') | Some('B') => {
                    let value = VcdValue::from_binary_str(&tok[1..]).ok_or_else(|| {
                        ParseVcdError::new(line, format!("bad vector value `{tok}`"))
                    })?;
                    let (_, code) = *tokens
                        .get(i + 1)
                        .ok_or_else(|| ParseVcdError::new(line, "vector change missing id code"))?;
                    self.record_change(line, code, value)?;
                    i += 2;
                }
                Some('r') | Some('R') => {
                    return Err(ParseVcdError::new(line, "real values are not supported"));
                }
                Some(c) if Scalar::from_char(c).is_some() => {
                    let scalar = Scalar::from_char(c).expect("checked");
                    let code = &tok[c.len_utf8()..];
                    if code.is_empty() {
                        return Err(ParseVcdError::new(line, "scalar change missing id code"));
                    }
                    self.record_change(line, code, VcdValue::scalar(scalar))?;
                    i += 1;
                }
                _ => {
                    return Err(ParseVcdError::new(
                        line,
                        format!("unexpected token `{tok}`"),
                    ));
                }
            }
        }
        Ok(VcdDocument {
            timescale: self.timescale,
            vars: self.vars,
            by_path: self.by_path,
            changes: self.changes,
            end_time: self.end_time,
        })
    }

    fn record_change(
        &mut self,
        line: usize,
        code: &str,
        value: VcdValue,
    ) -> Result<(), ParseVcdError> {
        let id = self
            .by_code
            .get(code)
            .copied()
            .ok_or_else(|| ParseVcdError::new(line, format!("unknown id code `{code}`")))?;
        self.changes[id.index()].push((self.time, value));
        Ok(())
    }

    fn definition_token(
        &mut self,
        tokens: &[(usize, &str)],
        i: usize,
    ) -> Result<usize, ParseVcdError> {
        let (line, tok) = tokens[i];
        match tok {
            "$date" | "$version" | "$comment" => skip_until_end(tokens, i + 1, line),
            "$timescale" => {
                let mut parts = Vec::new();
                let mut j = i + 1;
                while j < tokens.len() && tokens[j].1 != "$end" {
                    parts.push(tokens[j].1);
                    j += 1;
                }
                if j == tokens.len() {
                    return Err(ParseVcdError::new(line, "$timescale missing $end"));
                }
                self.timescale = Some(parts.join(" "));
                Ok(j + 1)
            }
            "$scope" => {
                // $scope <type> <name> $end
                let name = tokens
                    .get(i + 2)
                    .ok_or_else(|| ParseVcdError::new(line, "$scope missing name"))?
                    .1;
                expect_end(tokens, i + 3, line)?;
                self.scopes.push(name.to_owned());
                Ok(i + 4)
            }
            "$upscope" => {
                if self.scopes.pop().is_none() {
                    return Err(ParseVcdError::new(line, "$upscope without open scope"));
                }
                expect_end(tokens, i + 1, line)?;
                Ok(i + 2)
            }
            "$var" => {
                // $var <type> <width> <code> <name> [index] $end
                let width_tok = tokens
                    .get(i + 2)
                    .ok_or_else(|| ParseVcdError::new(line, "$var missing width"))?
                    .1;
                let width: usize = width_tok.parse().map_err(|_| {
                    ParseVcdError::new(line, format!("bad var width `{width_tok}`"))
                })?;
                let code = tokens
                    .get(i + 3)
                    .ok_or_else(|| ParseVcdError::new(line, "$var missing id code"))?
                    .1;
                let name = tokens
                    .get(i + 4)
                    .ok_or_else(|| ParseVcdError::new(line, "$var missing name"))?
                    .1;
                let mut j = i + 5;
                while j < tokens.len() && tokens[j].1 != "$end" {
                    j += 1; // optional [msb:lsb] index tokens
                }
                if j == tokens.len() {
                    return Err(ParseVcdError::new(line, "$var missing $end"));
                }
                let id = VarId(self.vars.len() as u32);
                let mut path = self.scopes.join(".");
                if !path.is_empty() {
                    path.push('.');
                }
                path.push_str(name);
                self.vars.push(VarInfo {
                    path: path.clone(),
                    width: width.max(1),
                    code: code.to_owned(),
                });
                self.by_path.insert(path, id);
                self.by_code.insert(code.to_owned(), id);
                self.changes.push(Vec::new());
                Ok(j + 1)
            }
            "$enddefinitions" => {
                expect_end(tokens, i + 1, line)?;
                self.in_definitions = false;
                Ok(i + 2)
            }
            other => Err(ParseVcdError::new(
                line,
                format!("unexpected token `{other}` in definitions"),
            )),
        }
    }
}

fn skip_until_end(
    tokens: &[(usize, &str)],
    mut i: usize,
    line: usize,
) -> Result<usize, ParseVcdError> {
    while i < tokens.len() {
        if tokens[i].1 == "$end" {
            return Ok(i + 1);
        }
        i += 1;
    }
    Err(ParseVcdError::new(line, "directive missing $end"))
}

fn expect_end(tokens: &[(usize, &str)], i: usize, line: usize) -> Result<(), ParseVcdError> {
    match tokens.get(i) {
        Some((_, "$end")) => Ok(()),
        _ => Err(ParseVcdError::new(line, "expected $end")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::VcdWriter;
    use crate::Scalar;

    const SAMPLE: &str = "\
$date today $end
$version test $end
$timescale 1 ns $end
$scope module tb $end
$var wire 1 ! clk $end
$scope module dut $end
$var wire 8 \" data [7:0] $end
$upscope $end
$upscope $end
$enddefinitions $end
$dumpvars
x!
bxxxxxxxx \"
$end
#0
0!
b0 \"
#5
1!
b10100101 \"
#10
0!
";

    #[test]
    fn parses_header_and_paths() {
        let doc = VcdDocument::parse(SAMPLE).unwrap();
        assert_eq!(doc.timescale(), Some("1 ns"));
        assert_eq!(doc.vars().len(), 2);
        assert!(doc.var_by_name("tb.clk").is_some());
        let data = doc.var_by_name("tb.dut.data").unwrap();
        assert_eq!(doc.var(data).width, 8);
        assert_eq!(doc.end_time(), 10);
    }

    #[test]
    fn value_at_follows_changes() {
        let doc = VcdDocument::parse(SAMPLE).unwrap();
        let clk = doc.var_by_name("tb.clk").unwrap();
        let data = doc.var_by_name("tb.dut.data").unwrap();
        assert_eq!(doc.value_at(clk, 0).as_u64(), Some(0));
        assert_eq!(doc.value_at(clk, 5).as_u64(), Some(1));
        assert_eq!(doc.value_at(clk, 9).as_u64(), Some(1));
        assert_eq!(doc.value_at(clk, 10).as_u64(), Some(0));
        assert_eq!(doc.value_at(data, 7).as_u64(), Some(0xA5));
    }

    #[test]
    fn unknown_before_first_change() {
        let text = "$timescale 1ns $end\n$var wire 4 ! v $end\n$enddefinitions $end\n#5\nb1010 !\n";
        let doc = VcdDocument::parse(text).unwrap();
        let v = doc.var_by_name("v").unwrap();
        assert!(doc.value_at(v, 0).has_unknown());
        assert_eq!(doc.value_at(v, 5).as_u64(), Some(0b1010));
    }

    #[test]
    fn rejects_unknown_code_and_backwards_time() {
        let text = "$enddefinitions $end\n#0\n1?\n";
        let err = VcdDocument::parse(text).unwrap_err();
        assert!(err.message.contains("unknown id code"));

        let text = "$var wire 1 ! a $end\n$enddefinitions $end\n#5\n1!\n#3\n0!\n";
        let err = VcdDocument::parse(text).unwrap_err();
        assert!(err.message.contains("backwards"));
    }

    #[test]
    fn rejects_real_values() {
        let text = "$var real 64 ! r $end\n$enddefinitions $end\n#0\nr3.14 !\n";
        let err = VcdDocument::parse(text).unwrap_err();
        assert!(err.message.contains("real"));
    }

    #[test]
    fn writer_output_round_trips() {
        let mut buf = Vec::new();
        let mut w = VcdWriter::new(&mut buf, "1ns");
        w.push_scope("top");
        let a = w.add_var("a", 1);
        let d = w.add_var("d", 12);
        w.pop_scope();
        w.begin().unwrap();
        for t in 0..20u64 {
            w.change_scalar(t, a, Scalar::from_bool(t % 2 == 0))
                .unwrap();
            w.change_vector(t, d, 12, t * 100).unwrap();
        }
        w.finish(20).unwrap();
        let doc = VcdDocument::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let a2 = doc.var_by_name("top.a").unwrap();
        let d2 = doc.var_by_name("top.d").unwrap();
        for t in 0..20u64 {
            assert_eq!(doc.value_at(a2, t).as_u64(), Some((t % 2 == 0) as u64));
            assert_eq!(doc.value_at(d2, t).as_u64(), Some((t * 100) & 0xFFF));
        }
        assert_eq!(doc.end_time(), 20);
    }
}
