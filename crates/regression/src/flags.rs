//! Campaign flags → [`RegressionOptions`]: the one reading of
//! `stbus-regress`'s campaign flags, shared by the CLI (regress, and the
//! `--serve` daemon's own flags) and by the daemon, which applies a
//! client's forwarded flags to its base options the same way.

use crate::runner::RegressionOptions;
use stbus_bca::Fidelity;
use stbus_protocol::ViewKind;
use std::path::PathBuf;
use std::str::FromStr;

/// Where the cell store lives when no `--cache-dir` is given.
pub const DEFAULT_CACHE_DIR: &str = ".stbus/cell-cache";

/// The most seeds one campaign runs. `--seeds N` builds the list
/// `1..=N`, and a daemon reads `N` from its clients, so it is bounded
/// before anything is allocated for it.
pub const MAX_SEEDS: u64 = 1 << 16;

/// Every flag that sets a [`RegressionOptions`] field, with the
/// placeholder of its value (`""` for a switch).
pub const CAMPAIGN_FLAGS: [(&str, &str); 11] = [
    ("--seeds", "N"),
    ("--intensity", "N"),
    ("--jobs", "N"),
    ("--engine", "event|compiled"),
    ("--views", "rtl,bca[,tlm]"),
    ("--no-compare", ""),
    ("--exact", ""),
    ("--cache", ""),
    ("--cache-dir", "DIR"),
    ("--cache-max-entries", "N"),
    ("--cache-max-bytes", "N"),
];

/// `raw` as a `T` that passes `ok`, or an error naming the flag.
pub fn value<T: FromStr>(
    flag: &str,
    raw: &str,
    expected: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, String> {
    match raw.parse() {
        Ok(v) if ok(&v) => Ok(v),
        _ => Err(format!("{flag} takes {expected} (got `{raw}`)")),
    }
}

/// `raw` as an integer above zero, or an error naming the flag.
pub fn positive<T: FromStr + PartialOrd + Default>(flag: &str, raw: &str) -> Result<T, String> {
    value(flag, raw, "a positive integer", |n| *n > T::default())
}

/// `raw` as a non-negative integer, or an error naming the flag.
pub fn count<T: FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    value(flag, raw, "a non-negative integer", |_| true)
}

/// A `--views` list: every name `rtl`, `bca` or `tlm` (any case),
/// duplicates dropped, both RTL and BCA present — they anchor the
/// alignment comparisons.
fn views(list: &str) -> Result<Vec<ViewKind>, String> {
    let mut views = Vec::new();
    for name in list.split(',').filter(|s| !s.is_empty()) {
        let view = ViewKind::ALL
            .into_iter()
            .find(|v| v.to_string().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("--views: unknown view `{name}` (expected rtl, bca or tlm)"))?;
        if !views.contains(&view) {
            views.push(view);
        }
    }
    if !views.contains(&ViewKind::Rtl) || !views.contains(&ViewKind::Bca) {
        return Err("--views: the view list must include both rtl and bca".to_owned());
    }
    Ok(views)
}

impl RegressionOptions {
    /// Applies `args` — [`CAMPAIGN_FLAGS`] named in `allowed`, each
    /// followed by its value if it takes one — in order; a later
    /// occurrence of a flag overrides an earlier one. Any `--cache*` flag
    /// switches the cell store on, in [`DEFAULT_CACHE_DIR`] unless
    /// `--cache-dir` names another. A flag outside `allowed`, or a
    /// missing or malformed value, is an error naming the flag (`self`
    /// may then be partly updated).
    pub fn apply_args<S: AsRef<str>>(
        &mut self,
        args: &[S],
        allowed: &[&str],
    ) -> Result<(), String> {
        let mut args = args.iter().map(AsRef::as_ref);
        while let Some(flag) = args.next() {
            let placeholder = CAMPAIGN_FLAGS
                .iter()
                .find(|(f, _)| *f == flag && allowed.contains(f))
                .map(|(_, p)| *p)
                .ok_or_else(|| format!("{flag} is not one of {}", allowed.join(" ")))?;
            let v = match placeholder {
                "" => "",
                _ => args
                    .next()
                    .ok_or_else(|| format!("{flag} takes {placeholder}"))?,
            };
            match flag {
                "--seeds" => {
                    let expected = format!("a positive integer up to {MAX_SEEDS}");
                    let n = value(flag, v, &expected, |n| (1..=MAX_SEEDS).contains(n))?;
                    self.seeds = (1..=n).collect();
                }
                "--intensity" => self.intensity = positive(flag, v)?,
                "--jobs" => self.jobs = count(flag, v)?,
                "--engine" => self.engine = value(flag, v, "`event` or `compiled`", |_| true)?,
                "--views" => self.views = views(v)?,
                "--no-compare" => self.compare_waveforms = false,
                "--exact" => self.fidelity = Fidelity::Exact,
                "--cache-dir" => self.cache_dir = Some(PathBuf::from(v)),
                "--cache-max-entries" => self.cache_gc.max_entries = Some(positive(flag, v)?),
                "--cache-max-bytes" => self.cache_gc.max_bytes = Some(positive(flag, v)?),
                _ => {}
            }
            if flag.starts_with("--cache") && self.cache_dir.is_none() {
                self.cache_dir = Some(PathBuf::from(DEFAULT_CACHE_DIR));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn applied(args: &[&str]) -> Result<RegressionOptions, String> {
        let mut options = RegressionOptions::default();
        options.apply_args(args, &CAMPAIGN_FLAGS.map(|(f, _)| f))?;
        Ok(options)
    }

    #[test]
    fn any_cache_flag_switches_the_store_on() {
        assert_eq!(applied(&[]).unwrap().cache_dir, None);
        let default = Some(PathBuf::from(DEFAULT_CACHE_DIR));
        assert_eq!(applied(&["--cache"]).unwrap().cache_dir, default);
        let gc = applied(&["--cache-max-entries", "3"]).unwrap();
        assert_eq!((gc.cache_dir, gc.cache_gc.max_entries), (default, Some(3)));
        let named = Some(PathBuf::from("store"));
        for args in [
            ["--cache-dir", "store", "--cache"],
            ["--cache", "--cache-dir", "store"],
        ] {
            assert_eq!(applied(&args).unwrap().cache_dir, named, "{args:?}");
        }
    }

    #[test]
    fn values_are_checked_and_errors_name_the_flag() {
        let o = applied(&["--seeds", "3", "--exact", "--views", "BCA,rtl,tlm,rtl"]).unwrap();
        assert_eq!(o.seeds, [1, 2, 3]);
        assert_eq!(o.fidelity, Fidelity::Exact);
        assert_eq!(o.views, [ViewKind::Bca, ViewKind::Rtl, ViewKind::Tlm]);
        for (args, needle) in [
            (
                &["--intensity", "0"][..],
                "--intensity takes a positive integer",
            ),
            (&["--seeds"], "--seeds takes N"),
            (
                &["--seeds", "100000000000"],
                "--seeds takes a positive integer",
            ),
            (&["--views", "rtl,tlm"], "--views"),
            (&["--engine", "fast"], "--engine"),
            (&["--configs", "dir"], "--configs is not one of"),
        ] {
            let e = applied(args).unwrap_err();
            assert!(e.contains(needle), "{args:?}: {e}");
        }
        let mut o = RegressionOptions::default();
        let e = o.apply_args(&["--jobs", "2"], &["--seeds"]).unwrap_err();
        assert!(e.starts_with("--jobs"), "{e}");
    }
}
