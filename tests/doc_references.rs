//! The prose documents name repository paths in backticks; every one must
//! exist, so a deleted or renamed file cannot stay advertised. Paths under
//! `crates/`, `tests/`, `scripts/` and `examples/` resolve from the
//! repository root, `benches/…` under `crates/bench/benches`. A brace
//! group (`src/{a,b}.rs`) names each alternative, and only the first word
//! of a span counts (`benches/x.rs --flag` names `benches/x.rs`).

use std::path::{Path, PathBuf};

const DOCUMENTS: [&str; 4] = ["README.md", "ARCHITECTURE.md", "OPERATIONS.md", "DESIGN.md"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Expand the first `{a,b,…}` group of `path`, recursively.
fn expand_braces(path: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (path.find('{'), path.find('}')) else {
        return vec![path.to_string()];
    };
    path[open + 1..close]
        .split(',')
        .flat_map(|alt| expand_braces(&format!("{}{alt}{}", &path[..open], &path[close + 1..])))
        .collect()
}

/// Every repository path a document names in an inline code span, with
/// its 1-based line number.
fn referenced_paths(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        // Odd segments between backticks are code spans.
        for span in line.split('`').skip(1).step_by(2) {
            let Some(word) = span.split_whitespace().next() else {
                continue;
            };
            if ["crates/", "tests/", "scripts/", "examples/", "benches/"]
                .iter()
                .any(|prefix| word.starts_with(prefix))
            {
                out.extend(expand_braces(word).into_iter().map(|p| (n + 1, p)));
            }
        }
    }
    out
}

#[test]
fn every_backticked_repo_path_exists() {
    let root = repo_root();
    let mut missing = Vec::new();
    let mut checked = 0usize;
    for doc in DOCUMENTS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (line, path) in referenced_paths(&text) {
            let resolved = match path.strip_prefix("benches/") {
                Some(rest) => root.join("crates/bench/benches").join(rest),
                None => root.join(&path),
            };
            checked += 1;
            if !resolved.exists() {
                missing.push(format!("{doc}:{line}: `{path}`"));
            }
        }
    }
    assert!(
        checked > 0,
        "no backticked paths found — is the scan broken?"
    );
    assert!(
        missing.is_empty(),
        "documents name missing paths:\n{}",
        missing.join("\n")
    );
}

#[test]
fn path_scan_expands_braces_and_takes_the_first_word() {
    let refs = referenced_paths(
        "see `crates/wal/src/{record,log}.rs` and\n`benches/x.rs --flag`, not `cargo test`",
    );
    assert_eq!(
        refs,
        [
            (1, "crates/wal/src/record.rs".to_string()),
            (1, "crates/wal/src/log.rs".to_string()),
            (2, "benches/x.rs".to_string()),
        ]
    );
}
