//! The source fingerprint: one hash over the code that decides a cell's
//! outcome.
//!
//! A stored cell is only a result for the code that produced it. The
//! build script hashes the sources listed here into the
//! `STBUS_SOURCE_FINGERPRINT` compile-time constant, and [`crate::cell_key`]
//! carries it, so rebuilding from changed sources turns every stored cell
//! into a miss. This file is shared by the build script (which includes
//! it by path) and the library, so tests can recompute the figure the
//! build produced.

use std::io;
use std::path::Path;

/// Crates, relative to the workspace root, whose `src/` tree and
/// `Cargo.toml` decide a cell's outcome: the simulation kernel, the
/// protocol, the three design views, the environment, the analyzer, the
/// waveform format it reads, and the random-number generator the
/// stimulus is drawn from.
pub const SOURCE_CRATES: [&str; 9] = [
    "crates/sim-kernel",
    "crates/stbus-protocol",
    "crates/stbus-rtl",
    "crates/stbus-bca",
    "crates/stbus-tlm",
    "crates/core",
    "crates/stba",
    "crates/vcd",
    "compat/rand",
];

/// Files of the regression crate itself that decide a cell's outcome: the
/// runner and the cell codec.
pub const SOURCE_FILES: [&str; 2] = [
    "crates/regression/src/runner.rs",
    "crates/regression/src/cell_codec.rs",
];

/// Every fingerprinted file under `root` (the workspace root), as
/// `(path relative to root with '/' separators, content)`, sorted by path.
pub fn source_files(root: &Path) -> io::Result<Vec<(String, Vec<u8>)>> {
    let mut files = Vec::new();
    for krate in SOURCE_CRATES {
        let manifest = format!("{krate}/Cargo.toml");
        files.push((manifest.clone(), std::fs::read(root.join(&manifest))?));
        collect(root, &format!("{krate}/src"), &mut files)?;
    }
    for file in SOURCE_FILES {
        files.push((file.to_owned(), std::fs::read(root.join(file))?));
    }
    files.sort();
    Ok(files)
}

fn collect(root: &Path, dir: &str, out: &mut Vec<(String, Vec<u8>)>) -> io::Result<()> {
    for entry in std::fs::read_dir(root.join(dir))? {
        let entry = entry?;
        let name = format!("{dir}/{}", entry.file_name().to_string_lossy());
        if entry.file_type()?.is_dir() {
            collect(root, &name, out)?;
        } else {
            out.push((name, std::fs::read(entry.path())?));
        }
    }
    Ok(())
}

/// FNV-1a-64 over every file's path and content, each length-prefixed
/// so no two file lists hash the same stream.
pub fn fingerprint(files: &[(String, Vec<u8>)]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (path, content) in files {
        eat(path.as_bytes());
        eat(content);
    }
    hash
}
