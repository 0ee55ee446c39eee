//! Reading the repository's source: shared by the `api_ledger` and `guards`
//! test targets (`#[path]`-included by both; not a test target itself).

use std::path::{Path, PathBuf};

pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The file up to its first line that starts with `#[cfg(test)]`.
pub fn non_test(src: &str) -> &str {
    if src.starts_with("#[cfg(test)]") {
        return "";
    }
    match src.find("\n#[cfg(test)]") {
        Some(at) => &src[..at + 1],
        None => src,
    }
}
