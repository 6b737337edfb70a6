//! The cell store is keyed by the code, not by the version string: the
//! source fingerprint covers every fingerprinted file byte for byte, the
//! build embeds the fingerprint of the tree it was built from, and
//! `cell_key` carries it.

use cache::Key;
use catg::tests_lib;
use stbus_protocol::NodeConfig;
use stbus_regression::fingerprint::{fingerprint, source_files, SOURCE_CRATES, SOURCE_FILES};
use stbus_regression::{cell_codec, cell_key, RegressionOptions, SOURCE_FINGERPRINT};
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn the_build_embeds_the_fingerprint_of_its_tree() {
    let files = source_files(workspace_root()).expect("read sources");
    assert_eq!(SOURCE_FINGERPRINT, format!("{:016x}", fingerprint(&files)));
    for krate in SOURCE_CRATES {
        assert!(
            files
                .iter()
                .any(|(p, _)| p.starts_with(&format!("{krate}/src/"))),
            "{krate} contributes no source"
        );
    }
    for file in SOURCE_FILES {
        assert!(files.iter().any(|(p, _)| p == file), "{file} not hashed");
    }
}

#[test]
fn one_changed_source_byte_changes_the_fingerprint() {
    let files = source_files(workspace_root()).expect("read sources");
    let base = fingerprint(&files);
    // The first source file of every fingerprinted crate and file entry.
    let prefixes = SOURCE_CRATES
        .iter()
        .map(|c| format!("{c}/src/"))
        .chain(SOURCE_FILES.iter().map(|f| f.to_string()));
    for prefix in prefixes {
        let k = files
            .iter()
            .position(|(p, c)| p.starts_with(&prefix) && !c.is_empty())
            .expect("a non-empty file");
        let mut edited = files.clone();
        let content = &mut edited[k].1;
        let mid = content.len() / 2;
        content[mid] ^= 1;
        assert_ne!(fingerprint(&edited), base, "{}", files[k].0);
    }
}

#[test]
fn cell_key_contains_the_fingerprint() {
    let config = NodeConfig::reference();
    let spec = tests_lib::basic_read_write(4);
    let options = RegressionOptions::default();
    let parts = |source: &str| {
        [
            format!("schema:{}", cell_codec::CELL_SCHEMA),
            format!("source:{source}"),
            format!("config:{config:?}"),
            format!("test:{spec:?}"),
            "seed:1".to_owned(),
            format!("views:{:?}", options.views),
            format!("fidelity:{:?}", options.fidelity),
            format!("bca_bugs:{:?}", options.bca_bugs),
            format!("engine:{}", options.engine),
            format!("compare:{}", options.compare_waveforms),
        ]
    };
    let key = cell_key(&config, &spec, 1, &options);
    assert_eq!(key, Key::from_parts(parts(SOURCE_FINGERPRINT)));
    assert_ne!(key, Key::from_parts(parts("0000000000000000")));
}
