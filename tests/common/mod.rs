//! Golden-digest plumbing shared by the identity tests.
//!
//! An identity test computes `name -> SHA-256` for every output it pins
//! and compares the map with `tests/golden/<test>.sha256`, one
//! `<digest>  <name>` line per output. With `UPDATE_GOLDEN` set it
//! rewrites that file instead.

use hoare_lift::store::sha256::{hex, sha256};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Hex SHA-256 of a document.
pub fn digest(doc: &str) -> String {
    hex(&sha256(doc.as_bytes()))
}

/// Compare `actual` with the digests in `tests/golden/<test>.sha256`, or
/// rewrite that file when `UPDATE_GOLDEN` is set. `what` names the
/// pinned outputs in the failure message.
pub fn check_digests(test: &str, what: &str, actual: &BTreeMap<String, String>) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{test}.sha256"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        let text: String = actual.iter().map(|(name, d)| format!("{d}  {name}\n")).collect();
        std::fs::write(&path, text).expect("write digests");
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing digest file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test {test}", path.display())
    });
    let expected: BTreeMap<String, String> = text
        .lines()
        .filter_map(|l| l.split_once("  "))
        .map(|(d, name)| (name.to_string(), d.to_string()))
        .collect();
    let drifted: BTreeSet<&String> = expected
        .keys()
        .chain(actual.keys())
        .filter(|name| expected.get(*name) != actual.get(*name))
        .collect();
    assert!(
        drifted.is_empty(),
        "{what} drifted from {} for {drifted:?}; if intentional, regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}
