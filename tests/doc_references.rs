//! The prose documents name repository paths and code in backticks; every
//! one must exist, so a deleted or renamed file, function or constant
//! cannot stay advertised.
//!
//! Paths under `crates/`, `tests/`, `scripts/` and `examples/` resolve
//! from the repository root, `benches/…` under `crates/bench/benches`. A
//! brace group (`src/{a,b}.rs`) names each alternative, and only the first
//! word of a span counts (`benches/x.rs --flag` names `benches/x.rs`).
//!
//! A `module::item` path or a `SCREAMING_CASE` constant must name an item
//! defined under `crates/*/src` (see [`resolves`]).
//!
//! A `--flag` must be one that `s3pg-convert`, `s3pg-serve` or the
//! benchmark accepts (see [`accepted_flags`]).

use std::collections::HashSet;
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

// ---- code names -------------------------------------------------------------

/// Every code name a document spans in backticks, with its 1-based line
/// number: a `module::item` path (its `::`-separated segments; a trailing
/// `()` dropped, a `[_suffix]` naming both the bare and the suffixed
/// item, a last-segment `{a,b}` group naming each alternative), or a
/// `SCREAMING_CASE` constant (one segment). Paths into `std`, `core` and
/// `alloc`, spans with anything else in them (arguments, generics,
/// spaces), and one-letter-prefixed math names like `S_PG` are not code
/// names of this repository.
fn referenced_names(text: &str) -> Vec<(usize, Vec<String>)> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        for span in line.split('`').skip(1).step_by(2) {
            let span = span.strip_suffix("()").unwrap_or(span);
            if is_constant(span) {
                out.push((n + 1, vec![span.to_string()]));
                continue;
            }
            let allowed = |c: char| c.is_ascii_alphanumeric() || "_:{},*[]".contains(c);
            if !span.contains("::") || !span.chars().all(allowed) {
                continue;
            }
            let mut segments: Vec<&str> = span.split("::").collect();
            if ["std", "core", "alloc"].contains(&segments[0]) {
                continue;
            }
            let last = segments.pop().unwrap_or_default();
            let prefix: Vec<String> = segments.iter().map(|s| s.to_string()).collect();
            let alternatives: Vec<String> = match last.split_once('[') {
                Some((bare, suffix)) => {
                    let suffix = suffix.trim_end_matches(']');
                    vec![bare.to_string(), format!("{bare}{suffix}")]
                }
                None => last
                    .trim_start_matches('{')
                    .trim_end_matches('}')
                    .split(',')
                    .filter(|alt| *alt != "*")
                    .map(str::to_string)
                    .collect(),
            };
            for alt in alternatives {
                let mut path = prefix.clone();
                path.push(alt);
                out.push((n + 1, path));
            }
        }
    }
    out
}

/// `MAX_DEPTH`-shaped: upper-case words of two or more characters first,
/// joined by underscores.
fn is_constant(span: &str) -> bool {
    let mut words = span.split('_');
    let first = words.next().unwrap_or_default();
    let upper = |w: &str| {
        !w.is_empty()
            && w.chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit())
    };
    span.contains('_')
        && first.len() >= 2
        && first.starts_with(|c: char| c.is_ascii_uppercase())
        && upper(first)
        && words.all(upper)
}

/// One source file under `crates/*/src`: its crate directory, its module
/// names (file stem and the directories above it), and the names it
/// defines.
struct Source {
    krate: String,
    modules: Vec<String>,
    defines: HashSet<String>,
}

/// The names a file defines: the identifier after `fn`, `struct`, `enum`,
/// `trait`, `type`, `const`, `static` or `mod`; an enum variant (a line
/// opening with a capitalised identifier and `(`, `{`, `,` or nothing);
/// and a struct field (a line opening with an identifier and `: `).
fn definitions(text: &str) -> HashSet<String> {
    const KEYWORDS: [&str; 8] = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
    ];
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut names = HashSet::new();
    let words: Vec<&str> = text
        .split(|c: char| !is_ident(c))
        .filter(|w| !w.is_empty())
        .collect();
    for pair in words.windows(2) {
        if KEYWORDS.contains(&pair[0]) {
            names.insert(pair[1].to_string());
        }
    }
    for line in text.lines() {
        let line = line.trim_start();
        let line = line
            .strip_prefix("pub(crate) ")
            .or_else(|| line.strip_prefix("pub "))
            .unwrap_or(line);
        let end = line.find(|c: char| !is_ident(c)).unwrap_or(line.len());
        let (ident, rest) = line.split_at(end);
        let variant = ident.starts_with(|c: char| c.is_ascii_uppercase())
            && (rest.is_empty() || rest.starts_with(['(', ' ', ',']) && !rest.starts_with(" ="));
        let field = !ident.is_empty() && rest.starts_with(": ");
        if variant || field {
            names.insert(ident.to_string());
        }
    }
    names
}

fn sources(root: &Path) -> Vec<Source> {
    fn walk(dir: &Path, krate: &str, modules: &[String], out: &mut Vec<Source>) {
        for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.unwrap().path();
            let stem = path.file_stem().unwrap().to_string_lossy().to_string();
            let mut modules = modules.to_vec();
            if path.is_dir() {
                modules.push(stem);
                walk(&path, krate, &modules, out);
            } else if path.extension().is_some_and(|x| x == "rs") {
                modules.push(stem);
                out.push(Source {
                    krate: krate.to_string(),
                    modules,
                    defines: definitions(&std::fs::read_to_string(&path).unwrap()),
                });
            }
        }
    }
    let mut out = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        let krate = dir.file_name().unwrap().to_string_lossy().to_string();
        if dir.join("src").is_dir() {
            walk(&dir.join("src"), &krate, &[], &mut out);
        }
    }
    out
}

/// Whether `path` names something defined under `crates/*/src`: its last
/// segment is defined — or is a module — in the files its qualifier
/// selects. A qualifier naming a crate (`pg`, `s3pg_pg`, `s3pg`) selects
/// that crate's files, one naming a module selects that module's files,
/// and any other qualifier (a type, a trait), or none, selects every file.
fn resolves(path: &[String], sources: &[Source]) -> bool {
    let item = &path[path.len() - 1];
    let scope: Vec<&Source> = match path.len() {
        1 => sources.iter().collect(),
        n => {
            let qualifier = &path[n - 2];
            let crate_dir = qualifier.strip_prefix("s3pg_").unwrap_or(qualifier);
            let selected: Vec<&Source> = sources
                .iter()
                .filter(|s| s.krate == crate_dir || s.modules.contains(qualifier))
                .collect();
            if selected.is_empty() {
                sources.iter().collect()
            } else {
                selected
            }
        }
    };
    scope
        .iter()
        .any(|s| s.defines.contains(item) || s.modules.contains(item))
}

#[test]
fn every_backticked_code_name_is_defined() {
    let root = repo_root();
    let sources = sources(&root);
    let mut missing = Vec::new();
    let mut checked = 0usize;
    for doc in DOCUMENTS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (line, path) in referenced_names(&text) {
            checked += 1;
            if !resolves(&path, &sources) {
                missing.push(format!("{doc}:{line}: `{}`", path.join("::")));
            }
        }
    }
    assert!(
        checked > 0,
        "no backticked code names found — is the scan broken?"
    );
    assert!(
        missing.is_empty(),
        "documents name undefined code:\n{}",
        missing.join("\n")
    );
}

#[test]
fn name_scan_expands_suffixes_and_groups_and_skips_non_names() {
    let refs = referenced_names(
        "`sparql::evaluate_scan[_params]` and `MORSEL_SIZE`, not `S_PG` or `ORDER BY`\n\
         `shacl::{extract,stats}`, `Registry::expose()`, not `std::thread::scope`,\n\
         `Arc::try_unwrap(standby)` or `baselines::*`",
    );
    let path = |p: &str| p.split("::").map(str::to_string).collect::<Vec<_>>();
    assert_eq!(
        refs,
        [
            (1, path("sparql::evaluate_scan")),
            (1, path("sparql::evaluate_scan_params")),
            (1, path("MORSEL_SIZE")),
            (2, path("shacl::extract")),
            (2, path("shacl::stats")),
            (2, path("Registry::expose")),
        ]
    );
}

#[test]
fn a_deleted_item_does_not_resolve() {
    let sources = sources(&repo_root());
    let path = |p: &str| p.split("::").map(str::to_string).collect::<Vec<_>>();
    assert!(resolves(&path("morsel::evaluate_part"), &sources));
    assert!(resolves(&path("s3pg::phase2::ingest"), &sources));
    assert!(!resolves(&path("s3pg::parallel::ingest_sharded"), &sources));
    assert!(!resolves(&path("sparql::evaluate_threads"), &sources));
    assert!(!resolves(&path("PARALLEL_MIN_WORK"), &sources));
    // Defined, but in another module than the one named.
    assert!(!resolves(&path("sparql::evaluate_part"), &sources));
}

// ---- command-line flags -----------------------------------------------------

/// The `--flag` words of `text`: a `--` followed by a lower-case letter,
/// up to the first character that is not alphanumeric or `-`.
fn flag_words(text: &str) -> Vec<String> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| {
            w.strip_prefix("--")
                .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_lowercase()))
        })
        .map(str::to_string)
        .collect()
}

/// Every flag a document spans in backticks, with its 1-based line
/// number: each `--flag` of a span that opens with a flag or with one of
/// this repository's command lines (`s3pg-convert`, `s3pg-serve`,
/// `benchmark/run.sh`). Spans that open with another tool (`cargo test
/// --test x`) are not this repository's flags.
fn referenced_flags(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        for span in line.split('`').skip(1).step_by(2) {
            let first = span.split_whitespace().next().unwrap_or_default();
            let ours = first.starts_with("--")
                || ["s3pg-convert", "s3pg-serve", "benchmark/run.sh"].contains(&first);
            if ours {
                out.extend(flag_words(span).into_iter().map(|f| (n + 1, f)));
            }
        }
    }
    out
}

/// The flags the three command lines accept: `s3pg-convert` and
/// `s3pg-serve` by their usage text, the benchmark by its argument
/// parser's source.
fn accepted_flags() -> HashSet<String> {
    let benchmark = std::fs::read_to_string(repo_root().join("benchmark/src/main.rs")).unwrap();
    [s3pg::cli::USAGE, s3pg_server::cli::USAGE, &benchmark]
        .iter()
        .flat_map(|text| flag_words(text))
        .collect()
}

#[test]
fn every_backticked_flag_is_accepted() {
    let accepted = accepted_flags();
    let mut unknown = Vec::new();
    for doc in DOCUMENTS {
        let text = std::fs::read_to_string(repo_root().join(doc)).unwrap();
        for (line, flag) in referenced_flags(&text) {
            if !accepted.contains(&flag) {
                unknown.push(format!("{doc}:{line}: `{flag}`"));
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "documents name flags no command line accepts:\n{}",
        unknown.join("\n")
    );
}

#[test]
fn flag_scan_reads_our_command_lines_only() {
    let refs = referenced_flags(
        "`--wal-dir DIR`, `s3pg-serve --slow-query-ms MS` and\n\
         `benchmark/run.sh --workload mixed --traced`, not `cargo test --test x` or `a--b`",
    );
    let flag = |line: usize, f: &str| (line, f.to_string());
    assert_eq!(
        refs,
        [
            flag(1, "--wal-dir"),
            flag(1, "--slow-query-ms"),
            flag(2, "--workload"),
            flag(2, "--traced"),
        ]
    );
    let accepted = accepted_flags();
    assert!(accepted.contains("--fsync-batch") && accepted.contains("--trace-out"));
    assert!(accepted.contains("--traced") && !accepted.contains("--threads"));
}
