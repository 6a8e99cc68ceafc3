//! Every `pub fn` under `crates/*/src` must be named in at least one
//! other Rust file under `crates/`, `tests/`, `examples/` or
//! `benchmark/src`, so a public function nothing calls cannot stay: one
//! that only its own file uses is private, and one nothing uses is
//! deleted.
//!
//! "Named" has `grep -w` semantics: the identifier appears as a whole
//! word, in code, a comment or a string alike.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

const SCANNED: [&str; 4] = ["crates", "tests", "examples", "benchmark/src"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The functions a file declares `pub`: the identifier after a line that
/// opens with `pub fn` (`pub(crate) fn` and comments do not count).
fn pub_fns(text: &str) -> Vec<&str> {
    text.lines()
        .filter_map(|line| line.trim_start().strip_prefix("pub fn "))
        .map(|rest| rest.split(|c: char| !is_word(c)).next().unwrap_or_default())
        .collect()
}

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The whole words of `text`.
fn words(text: &str) -> HashSet<&str> {
    text.split(|c: char| !is_word(c))
        .filter(|w| !w.is_empty())
        .collect()
}

#[test]
fn every_pub_fn_is_named_in_another_file() {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in SCANNED {
        rust_files(&root.join(dir), &mut files);
    }
    let texts: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).unwrap())
        .collect();
    let vocabulary: Vec<HashSet<&str>> = texts.iter().map(|t| words(t)).collect();
    let mut unnamed = Vec::new();
    let mut checked = 0usize;
    for (i, (file, text)) in files.iter().zip(&texts).enumerate() {
        let rel = file.strip_prefix(&root).unwrap();
        let mut parts = rel.components().map(|c| c.as_os_str());
        let in_crate_src = parts.next().is_some_and(|c| c == "crates")
            && parts.next().is_some()
            && parts.next().is_some_and(|c| c == "src");
        if !in_crate_src {
            continue;
        }
        for name in pub_fns(text) {
            checked += 1;
            let named = vocabulary
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && other.contains(name));
            if !named {
                unnamed.push(format!("{}: `{name}`", rel.display()));
            }
        }
    }
    assert!(checked > 0, "no pub fns found — is the scan broken?");
    assert!(
        unnamed.is_empty(),
        "pub fns no other file names; make each private, or delete it if \
         nothing calls it:\n{}",
        unnamed.join("\n")
    );
}

#[test]
fn scans_find_pub_fns_and_whole_words() {
    let text = "pub fn a() {}\n    pub fn b_c<T>(x: T) {}\n\
                pub(crate) fn d() {}\nfn e() {}\n// pub fn f() {}\n";
    assert_eq!(pub_fns(text), ["a", "b_c"]);
    let w = words("call b_c(x); a2 + c");
    assert!(w.contains("b_c") && w.contains("a2") && w.contains("c"));
    assert!(!w.contains("b") && !w.contains("a"));
}
