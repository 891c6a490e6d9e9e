//! lrf-lint — the workspace invariant linter (`cargo run -p lrf-lint`).
//!
//! Enforces, as hard CI failures, the correctness conventions the
//! concurrency harness depends on:
//!
//! * **service-panic** — no `.unwrap()` / `.expect(` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` in `lrf-service` library
//!   code or in the code a request runs through beyond it: the `lrf-core`
//!   files (rounds, pooled re-rank, the schemes, the coupled trainer, the
//!   log kernels), `lrf-svm`'s solver, `lrf-index`'s scans and
//!   `lrf-logdb`'s log store. Everything reachable from the request path
//!   must produce typed `ServiceError`s, not poison locks and dead pool
//!   workers. (Constructor `assert!`s are startup validation and stay
//!   allowed.)
//! * **std-sync** — no direct `std::sync` in facade-covered crates
//!   (`lrf-service`, `lrf-logdb`): synchronization goes through
//!   `lrf-sync`, so the model checker sees every lock the service takes.
//! * **wall-clock** — no `Instant` / `SystemTime` in first-party library
//!   code: timing goes through the injectable `lrf_obs::Clock`
//!   (`MonotonicClock` holds the only waived wall-clock reads), so session
//!   logic, eviction, TTL, and span timing stay deterministic and
//!   modelable.
//! * **no-println** — no `println!` / `eprintln!` / `print!` / `eprint!`
//!   / `dbg!` in library crates (binaries under `src/bin/` may print).
//! * **raw-fs** — no direct `std::fs` / `File::open` / `OpenOptions` in
//!   first-party library code outside `lrf-storage`: file IO goes through
//!   the injectable `StorageIo` layer, so every durability path stays
//!   fault-testable (`FaultIo`) and crash-simulable (`MemIo`). Vendored
//!   crates and `#[cfg(test)]` scaffolding are exempt.
//!
//! A violation can be waived in place with a justified annotation:
//!
//! ```text
//! // lrf-lint: allow(service-panic): why this cannot fire
//! ```
//!
//! on the offending line or a comment line above it (intervening comment
//! lines are fine). The justification is mandatory, and an annotation
//! that suppresses nothing is itself an error — stale waivers don't
//! accumulate.
//!
//! The scanner is comment- and string-aware (a `panic!` in a doc comment
//! or string literal is not a violation) and skips `#[cfg(test)]` /
//! `#[test]` items, where `unwrap` is idiomatic.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const RULES: [&str; 5] = [
    "service-panic",
    "std-sync",
    "wall-clock",
    "no-println",
    "raw-fs",
];

/// (rule, tokens that trigger it). Tokens starting with an identifier
/// character are matched with an identifier boundary on the left, so
/// `println!` does not also report the `print!` inside `eprintln!`.
fn rule_tokens(rule: &str) -> &'static [&'static str] {
    match rule {
        "service-panic" => &[
            ".unwrap()",
            ".expect(",
            "panic!",
            "unreachable!",
            "todo!",
            "unimplemented!",
        ],
        "std-sync" => &["std::sync"],
        "wall-clock" => &["Instant", "SystemTime"],
        "no-println" => &["println!", "eprintln!", "print!", "eprint!", "dbg!"],
        "raw-fs" => &["std::fs", "File::open", "File::create", "OpenOptions"],
        other => panic!("unknown rule {other}"),
    }
}

/// Per-rule remediation hint appended to every finding.
fn rule_hint(rule: &str) -> &'static str {
    match rule {
        "service-panic" => "return a typed `ServiceError` instead",
        "std-sync" => "synchronize through the `lrf-sync` facade",
        "wall-clock" => {
            "inject `lrf_obs::Clock` (`MonotonicClock` in production, `ManualClock` in tests)"
        }
        "no-println" => "library code stays silent; print from binaries",
        "raw-fs" => {
            "route file IO through an injected `lrf_storage::StorageIo` so faults stay testable"
        }
        other => panic!("unknown rule {other}"),
    }
}

/// One reported problem (violation, bad annotation, or stale annotation).
struct Finding {
    file: PathBuf,
    line: usize,
    rule: String,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// A source file split into per-line code and comment channels, with
/// test-item lines marked. Line numbering is 1-based.
struct MaskedFile {
    /// Line text with comments and string/char literal *contents* blanked
    /// to spaces (delimiters kept), so token scans only see real code.
    code: Vec<String>,
    /// Line text with only comment interiors kept — where lint
    /// annotations live.
    comment: Vec<String>,
    /// Lines inside `#[cfg(test)]` / `#[test]` items.
    in_test: Vec<bool>,
}

fn mask(source: &str) -> MaskedFile {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(usize),
        Str,
        RawStr(usize),
        Char,
    }
    let bytes: Vec<char> = source.chars().collect();
    let mut code = String::with_capacity(source.len());
    let mut comment = String::with_capacity(source.len());
    let mut st = St::Code;
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        if c == '\n' {
            if st == St::LineComment {
                st = St::Code;
            }
            code.push('\n');
            comment.push('\n');
            i += 1;
            continue;
        }
        let (code_ch, comment_ch) = match st {
            St::Code => {
                if c == '/' && bytes.get(i + 1) == Some(&'/') {
                    st = St::LineComment;
                    (' ', ' ')
                } else if c == '/' && bytes.get(i + 1) == Some(&'*') {
                    st = St::BlockComment(1);
                    (' ', ' ')
                } else if c == '"' {
                    st = St::Str;
                    ('"', ' ')
                } else if c == 'r' || c == 'b' {
                    // Possible raw/byte string prefix: r", br", r#", ...
                    let mut j = i + 1;
                    if c == 'b' && bytes.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0usize;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') && (c == 'r' || j > i + 1) {
                        // Emit the prefix as code, enter raw-string state
                        // at the opening quote.
                        for &p in &bytes[i..=j] {
                            code.push(p);
                            comment.push(' ');
                        }
                        i = j + 1;
                        st = St::RawStr(hashes);
                        continue;
                    }
                    (c, ' ')
                } else if c == '\'' {
                    // Lifetime ('a) vs char literal ('x', '\n').
                    let next_ident = bytes
                        .get(i + 1)
                        .is_some_and(|&n| n.is_alphanumeric() || n == '_');
                    if next_ident && bytes.get(i + 2) != Some(&'\'') {
                        (c, ' ') // lifetime
                    } else {
                        st = St::Char;
                        ('\'', ' ')
                    }
                } else {
                    (c, ' ')
                }
            }
            St::LineComment => (' ', c),
            St::BlockComment(depth) => {
                if c == '*' && bytes.get(i + 1) == Some(&'/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    code.push(' ');
                    comment.push(' ');
                    code.push(' ');
                    comment.push(' ');
                    i += 2;
                    continue;
                } else if c == '/' && bytes.get(i + 1) == Some(&'*') {
                    st = St::BlockComment(depth + 1);
                    code.push(' ');
                    comment.push(' ');
                    code.push(' ');
                    comment.push(' ');
                    i += 2;
                    continue;
                } else {
                    (' ', c)
                }
            }
            St::Str => {
                if c == '\\' {
                    i += 2;
                    code.push(' ');
                    comment.push(' ');
                    code.push(' ');
                    comment.push(' ');
                    continue;
                } else if c == '"' {
                    st = St::Code;
                    ('"', ' ')
                } else {
                    (' ', ' ')
                }
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    let closed = (0..hashes).all(|k| bytes.get(i + 1 + k) == Some(&'#'));
                    if closed {
                        for _ in 0..=hashes {
                            code.push('"');
                            comment.push(' ');
                        }
                        i += 1 + hashes;
                        st = St::Code;
                        continue;
                    }
                    (' ', ' ')
                } else {
                    (' ', ' ')
                }
            }
            St::Char => {
                if c == '\\' {
                    i += 2;
                    code.push(' ');
                    comment.push(' ');
                    code.push(' ');
                    comment.push(' ');
                    continue;
                } else if c == '\'' {
                    st = St::Code;
                    ('\'', ' ')
                } else {
                    (' ', ' ')
                }
            }
        };
        code.push(code_ch);
        comment.push(comment_ch);
        i += 1;
    }

    let code_lines: Vec<String> = code.lines().map(str::to_string).collect();
    let comment_lines: Vec<String> = comment.lines().map(str::to_string).collect();
    let in_test = mark_test_items(&code_lines);
    MaskedFile {
        code: code_lines,
        comment: comment_lines,
        in_test,
    }
}

/// Marks every line belonging to a `#[cfg(test)]` or `#[test]` item: from
/// the attribute to the close of the brace block that follows it.
fn mark_test_items(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut line = 0usize;
    while line < code.len() {
        let l = &code[line];
        let is_test_attr = l.contains("#[cfg(test)]")
            || l.contains("#[cfg(all(test")
            || l.contains("#[test]")
            || l.contains("#[bench]");
        if !is_test_attr {
            line += 1;
            continue;
        }
        // Find the item's opening brace, then its matching close.
        let mut depth = 0usize;
        let mut opened = false;
        let mut end = line;
        'outer: for (li, lt) in code.iter().enumerate().skip(line) {
            for ch in lt.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if opened && depth == 0 {
                            end = li;
                            break 'outer;
                        }
                    }
                    _ => {}
                }
            }
            end = li;
        }
        for t in in_test.iter_mut().take(end + 1).skip(line) {
            *t = true;
        }
        line = end + 1;
    }
    in_test
}

/// A parsed `lrf-lint: allow(rule): justification` annotation.
struct Allow {
    line: usize,
    rule: String,
    /// Line numbers this annotation waives (its own + next code line).
    covers: Vec<usize>,
    used: bool,
}

/// Extracts annotations from the comment channel; malformed ones are
/// reported as findings immediately.
fn parse_allows(file: &Path, masked: &MaskedFile, findings: &mut Vec<Finding>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (idx, text) in masked.comment.iter().enumerate() {
        let Some(pos) = text.find("lrf-lint:") else {
            continue;
        };
        let line = idx + 1;
        let rest = text[pos + "lrf-lint:".len()..].trim_start();
        let Some(inner) = rest.strip_prefix("allow(") else {
            findings.push(Finding {
                file: file.to_path_buf(),
                line,
                rule: "annotation".into(),
                message: "malformed lrf-lint annotation: expected `allow(<rule>): <why>`".into(),
            });
            continue;
        };
        let Some(close) = inner.find(')') else {
            findings.push(Finding {
                file: file.to_path_buf(),
                line,
                rule: "annotation".into(),
                message: "malformed lrf-lint annotation: unclosed `allow(`".into(),
            });
            continue;
        };
        let rule = inner[..close].trim().to_string();
        if !RULES.contains(&rule.as_str()) {
            findings.push(Finding {
                file: file.to_path_buf(),
                line,
                rule: "annotation".into(),
                message: format!("unknown lint rule `{rule}` in allow annotation"),
            });
            continue;
        }
        let after = inner[close + 1..].trim_start();
        let justification = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if justification.is_empty() {
            findings.push(Finding {
                file: file.to_path_buf(),
                line,
                rule: "annotation".into(),
                message: format!(
                    "allow({rule}) requires a justification: `lrf-lint: allow({rule}): <why>`"
                ),
            });
            continue;
        }
        // The annotation covers its own line and the next line that holds
        // code, skipping blank / comment-only lines (so multi-line
        // justification comments work).
        let mut covers = vec![line];
        for (j, code) in masked.code.iter().enumerate().skip(idx + 1) {
            covers.push(j + 1);
            if !code.trim().is_empty() {
                break;
            }
        }
        allows.push(Allow {
            line,
            rule,
            covers,
            used: false,
        });
    }
    allows
}

/// True if `code` contains `token` outside identifier context.
fn has_token(code: &str, token: &str) -> bool {
    let mut from = 0usize;
    while let Some(rel) = code[from..].find(token) {
        let at = from + rel;
        let ident_start = token
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let boundary_ok = !ident_start
            || at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if boundary_ok {
            return true;
        }
        from = at + token.len();
    }
    false
}

/// Scans one file's source for violations of `rules`.
fn lint_source(file: &Path, source: &str, rules: &[&str]) -> Vec<Finding> {
    let masked = mask(source);
    let mut findings = Vec::new();
    let mut allows = parse_allows(file, &masked, &mut findings);
    for (idx, code) in masked.code.iter().enumerate() {
        if masked.in_test[idx] {
            continue;
        }
        let line = idx + 1;
        for &rule in rules {
            for token in rule_tokens(rule) {
                if !has_token(code, token) {
                    continue;
                }
                if let Some(a) = allows
                    .iter_mut()
                    .find(|a| a.rule == rule && a.covers.contains(&line))
                {
                    a.used = true;
                    continue;
                }
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line,
                    rule: rule.to_string(),
                    message: format!(
                        "`{token}` is not allowed here — {} (see tools/lint)",
                        rule_hint(rule)
                    ),
                });
            }
        }
    }
    for a in &allows {
        if !a.used {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: a.line,
                rule: a.rule.clone(),
                message: "stale allow annotation: it suppresses nothing — remove it".into(),
            });
        }
    }
    findings
}

/// Recursively collects `.rs` files under `dir` (or `dir` itself when a
/// scope names one file), skipping `bin/` subtrees, in sorted order for
/// deterministic reports.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    if dir.is_file() {
        out.push(dir.to_path_buf());
        return;
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Files of `crates/core/src` off the request path, exempt from its
/// `service-panic` scope: the evaluation-only presentation policies
/// (`active.rs`), the configuration a service validates once at build
/// (`config.rs`), the offline log simulator (`log_collection.rs`) and the
/// crate root. Every other file of the crate is in scope, so a new one is
/// held to the rule from its first line.
const CORE_EXEMPT: [&str; 4] = [
    "crates/core/src/active.rs",
    "crates/core/src/config.rs",
    "crates/core/src/log_collection.rs",
    "crates/core/src/lib.rs",
];

/// (scope directories or files, rules) pairs, relative to the workspace
/// root. A file is held to the union of the rules of every scope that
/// covers it, except that [`CORE_EXEMPT`] is outside `service-panic`.
fn scopes() -> Vec<(Vec<&'static str>, Vec<&'static str>)> {
    vec![
        // The request path must be panic-free; synchronization and time
        // are facade-only in the concurrency-bearing crates.
        (
            vec!["crates/service/src"],
            vec![
                "service-panic",
                "std-sync",
                "wall-clock",
                "no-println",
                "raw-fs",
            ],
        ),
        // The request path does not end at the crate boundary: a rerank
        // runs the round, the pooled re-rank, a scheme's fit and its
        // kernels in `lrf-core`, every solve in `lrf-svm`'s row store,
        // every shard scan through `lrf-index`'s top-k, and every log
        // vector it reads and every session a close records through
        // `lrf-logdb`; a panic there kills the same worker.
        (
            vec![
                "crates/core/src",
                "crates/svm/src",
                "crates/index/src",
                "crates/logdb/src",
            ],
            vec!["service-panic"],
        ),
        (
            vec!["crates/logdb/src"],
            vec!["std-sync", "wall-clock", "no-println", "raw-fs"],
        ),
        // `lrf-storage` is the one crate allowed to touch `std::fs`: its
        // `StdIo` backend is where raw file IO is supposed to live. It is
        // still held to the determinism rules.
        (vec!["crates/storage/src"], vec!["wall-clock", "no-println"]),
        // Every other first-party library crate: no stray prints, no
        // wall-clock reads — timing is injected via `lrf_obs::Clock` — and
        // no raw file IO, which goes through `lrf_storage::StorageIo`.
        // `crates/obs` itself is in scope: `MonotonicClock` carries the
        // only waived `Instant` reads in the workspace.
        (
            vec![
                "crates/imaging/src",
                "crates/features/src",
                "crates/svm/src",
                "crates/index/src",
                "crates/cbir/src",
                "crates/core/src",
                "crates/bench/src",
                "crates/sync/src",
                "crates/obs/src",
                "src",
            ],
            vec!["wall-clock", "no-println", "raw-fs"],
        ),
        // Vendored stand-ins are library code too, so no stray prints —
        // but they may read the wall clock internally.
        (
            vec![
                "crates/vendor/rand/src",
                "crates/vendor/serde/src",
                "crates/vendor/serde_derive/src",
                "crates/vendor/serde_json/src",
                "crates/vendor/proptest/src",
                "crates/vendor/loom/src",
            ],
            vec!["no-println"],
        ),
    ]
}

fn workspace_root() -> PathBuf {
    // tools/lint/ -> workspace root is two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("tools/lint sits two levels under the workspace root")
        .to_path_buf()
}

/// The rules a file (relative to the workspace root) is held to: the
/// union over the scopes covering it.
fn rules_for(rel: &Path) -> Vec<&'static str> {
    let mut rules = Vec::new();
    for (entries, scope_rules) in scopes() {
        if entries.iter().any(|entry| rel.starts_with(entry)) {
            for rule in scope_rules {
                if !rules.contains(&rule) {
                    rules.push(rule);
                }
            }
        }
    }
    if CORE_EXEMPT.iter().any(|exempt| rel == Path::new(exempt)) {
        rules.retain(|&rule| rule != "service-panic");
    }
    rules
}

fn main() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    for (entries, _) in scopes() {
        for entry in entries {
            rs_files(&root.join(entry), &mut files);
        }
    }
    // One pass per file under all its rules, so a waiver for one scope's
    // rule is not reported stale by another scope's pass.
    files.sort();
    files.dedup();
    let mut findings = Vec::new();
    let n_files = files.len();
    for file in files {
        let rel = file.strip_prefix(&root).unwrap_or(&file);
        match std::fs::read_to_string(&file) {
            Ok(source) => findings.extend(lint_source(rel, &source, &rules_for(rel))),
            Err(_) => findings.push(Finding {
                file: file.clone(),
                line: 0,
                rule: "io".into(),
                message: "unreadable source file".into(),
            }),
        }
    }
    if findings.is_empty() {
        println!("lrf-lint: {n_files} files clean");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!("{f}");
        }
        eprintln!("lrf-lint: {} finding(s) in {n_files} files", findings.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str, rules: &[&str]) -> Vec<Finding> {
        lint_source(Path::new("test.rs"), src, rules)
    }

    #[test]
    fn flags_panic_tokens_in_code() {
        let findings = lint(
            "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
            &["service-panic"],
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].message.contains(".unwrap()"));
    }

    #[test]
    fn ignores_tokens_in_comments_and_strings() {
        let src = r###"
// this comment says panic! and .unwrap()
/* block comment: std::sync */
fn f() -> &'static str {
    let s = "contains panic! and Instant";
    let r = r#"raw with .unwrap()"#;
    let c = '"';
    let _ = (s, r, c);
    "done"
}
"###;
        let findings = lint(
            src,
            &["service-panic", "std-sync", "wall-clock", "no-println"],
        );
        let shown: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
        assert!(findings.is_empty(), "{shown:?}");
    }

    #[test]
    fn skips_cfg_test_modules_and_test_fns() {
        let src = "
fn real() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
        panic!(\"fine in tests\");
    }
}
";
        assert!(lint(src, &["service-panic"]).is_empty());
        let src2 = "
#[test]
fn standalone() {
    Some(1).unwrap();
}

fn real(x: Option<u32>) -> u32 { x.unwrap() }
";
        let findings = lint(src2, &["service-panic"]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 7);
    }

    #[test]
    fn justified_allow_suppresses_and_is_marked_used() {
        let src = "
fn f(x: Option<u32>) -> u32 {
    // lrf-lint: allow(service-panic): x is Some by construction
    x.unwrap()
}
";
        assert!(lint(src, &["service-panic"]).is_empty());
        // Multi-line justification comments between annotation and code.
        let src2 = "
fn f(x: Option<u32>) -> u32 {
    // lrf-lint: allow(service-panic): x was checked
    // two lines above, so this cannot fire
    x.unwrap()
}
";
        assert!(lint(src2, &["service-panic"]).is_empty());
    }

    #[test]
    fn allow_without_justification_is_an_error() {
        let src = "
// lrf-lint: allow(service-panic)
fn f(x: Option<u32>) -> u32 { x.unwrap() }
";
        let findings = lint(src, &["service-panic"]);
        // The malformed annotation AND the unsuppressed violation.
        assert_eq!(findings.len(), 2);
        assert!(findings[0].message.contains("requires a justification"));
    }

    #[test]
    fn stale_allow_is_an_error() {
        let src = "
// lrf-lint: allow(service-panic): nothing here panics anymore
fn f() -> u32 { 7 }
";
        let findings = lint(src, &["service-panic"]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("stale allow"));
    }

    #[test]
    fn unknown_rule_in_allow_is_an_error() {
        let src = "// lrf-lint: allow(made-up-rule): because\nfn f() {}\n";
        let findings = lint(src, &["service-panic"]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("unknown lint rule"));
    }

    #[test]
    fn std_sync_and_wall_clock_flagged() {
        let src = "use std::sync::Mutex;\nuse std::time::Instant;\n";
        let findings = lint(src, &["std-sync", "wall-clock"]);
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].rule, "std-sync");
        assert_eq!(findings[1].rule, "wall-clock");
    }

    #[test]
    fn println_boundaries_do_not_double_report() {
        let src = "fn f() { eprintln!(\"x\"); }\n";
        let findings = lint(src, &["no-println"]);
        assert_eq!(findings.len(), 1, "eprintln! must not also match println!");
        assert!(findings[0].message.contains("eprintln!"));
    }

    #[test]
    fn raw_fs_flags_direct_file_io_but_not_comments_or_tests() {
        let src = "
// std::fs in a comment is fine
fn load(p: &std::path::Path) -> Vec<u8> {
    std::fs::read(p).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    fn scratch() {
        std::fs::create_dir_all(\"/tmp/x\").unwrap();
    }
}
";
        let findings = lint(src, &["raw-fs"]);
        assert_eq!(findings.len(), 1, "only the non-test read is a finding");
        assert_eq!(findings[0].line, 4);
        assert!(
            findings[0].message.contains("lrf_storage::StorageIo"),
            "raw-fs findings must route the author to the storage layer: {}",
            findings[0].message
        );
    }

    #[test]
    fn raw_fs_waiver_works_like_any_other() {
        let src = "
fn probe() -> bool {
    // lrf-lint: allow(raw-fs): startup-only existence probe, no IO injected yet
    std::fs::metadata(\"/etc/hosts\").is_ok()
}
";
        assert!(lint(src, &["raw-fs"]).is_empty());
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        // A naive char-literal scanner would treat 'a as opening a
        // literal and swallow the .unwrap() that follows.
        let src = "fn f<'a>(x: &'a Option<u32>) -> u32 { x.as_ref().copied().unwrap() }\n";
        let findings = lint(src, &["service-panic"]);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn wall_clock_hint_points_at_the_clock_trait() {
        let findings = lint("use std::time::Instant;\n", &["wall-clock"]);
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].message.contains("lrf_obs::Clock"),
            "wall-clock findings must route the author to the injectable clock: {}",
            findings[0].message
        );
    }

    #[test]
    fn waived_wall_clock_read_is_allowed() {
        // The shape MonotonicClock uses: a justified waiver on the comment
        // line directly above the sanctioned read.
        let src = "
fn origin() -> std::time::Instant {
    // lrf-lint: allow(wall-clock): the sanctioned production read
    std::time::Instant::now()
}
";
        let findings = lint(src, &["wall-clock"]);
        // The fn signature's `Instant` (line 2) is still flagged — only
        // the waived read is suppressed.
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn first_party_scopes_cover_wall_clock_but_vendor_does_not() {
        let rules_for = |dir: &str| rules_for(Path::new(dir));
        for dir in ["crates/obs/src", "crates/bench/src", "crates/svm/src"] {
            assert!(
                rules_for(dir).contains(&"wall-clock"),
                "{dir} must be held to the wall-clock rule"
            );
        }
        // Vendored stand-ins time things internally.
        assert!(!rules_for("crates/vendor/proptest/src").contains(&"wall-clock"));
        // Raw file IO is storage's job and nobody else's: every other
        // first-party crate is held to raw-fs, storage itself is not.
        for dir in [
            "crates/service/src",
            "crates/logdb/src",
            "crates/cbir/src",
            "src",
        ] {
            assert!(
                rules_for(dir).contains(&"raw-fs"),
                "{dir} must be held to the raw-fs rule"
            );
        }
        assert!(!rules_for("crates/storage/src").contains(&"raw-fs"));
        assert!(rules_for("crates/storage/src").contains(&"no-println"));
    }

    #[test]
    fn core_request_path_files_are_held_to_service_panic() {
        for file in [
            "crates/core/src/rf_svm.rs",
            "crates/core/src/pooled.rs",
            "crates/core/src/coupled.rs",
            "crates/svm/src/cache.rs",
            "crates/index/src/lib.rs",
            "crates/logdb/src/shared.rs",
        ] {
            let rules = rules_for(Path::new(file));
            // Still under the crate-wide rules, and now panic-checked too.
            assert!(rules.contains(&"wall-clock"), "{file}: {rules:?}");
            let src = "fn fit(r: Result<u32, u32>) -> u32 {\n    r.expect(\"validated\")\n}\n";
            let findings = lint_source(Path::new(file), src, &rules);
            assert_eq!(findings.len(), 1, "{file}");
            assert_eq!(
                (findings[0].rule.as_str(), findings[0].line),
                ("service-panic", 2)
            );
        }
        // The crate's exemptions are named; every other file of it is in
        // scope, one added after this test included.
        for file in CORE_EXEMPT {
            let rules = rules_for(Path::new(file));
            assert!(!rules.contains(&"service-panic"), "{file}: {rules:?}");
            assert!(rules.contains(&"wall-clock"), "{file}: {rules:?}");
        }
        for file in ["crates/core/src/block.rs", "crates/core/src/new_module.rs"] {
            assert!(
                rules_for(Path::new(file)).contains(&"service-panic"),
                "{file}"
            );
        }
    }

    #[test]
    fn expect_err_is_not_expect() {
        let src = "fn f(r: Result<u32, u32>) -> u32 { r.expect_err(\"msg\") }\n";
        // .expect_err is a different (equally panicking) API — flagged via
        // its own token? No: the panic-free rule targets the request path
        // conversions; expect_err does not appear there. The token
        // `.expect(` must not match `.expect_err(`.
        assert!(lint(src, &["service-panic"]).is_empty());
    }
}
