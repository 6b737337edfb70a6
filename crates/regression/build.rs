//! Emits `STBUS_SOURCE_FINGERPRINT`, the hash of the sources that decide
//! a cell's outcome (see `src/fingerprint.rs`), for the cell-store key.

#[path = "src/fingerprint.rs"]
mod fingerprint;

use std::path::PathBuf;

fn main() {
    let manifest = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest.join("../..");
    for krate in fingerprint::SOURCE_CRATES {
        println!(
            "cargo:rerun-if-changed={}",
            root.join(krate).join("src").display()
        );
        println!(
            "cargo:rerun-if-changed={}",
            root.join(krate).join("Cargo.toml").display()
        );
    }
    for file in fingerprint::SOURCE_FILES {
        println!("cargo:rerun-if-changed={}", root.join(file).display());
    }
    let files = fingerprint::source_files(&root).expect("read the fingerprinted sources");
    println!(
        "cargo:rustc-env=STBUS_SOURCE_FINGERPRINT={:016x}",
        fingerprint::fingerprint(&files)
    );
}
