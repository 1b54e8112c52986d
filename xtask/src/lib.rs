//! Invariant-enforcing static analysis for the sigmund-rs workspace.
//!
//! `cargo xtask lint` walks every `.rs` file in the repository and enforces
//! the invariants that ordinary rustc/clippy lints cannot express. Rules
//! live in a registry ([`rules::registry`]) — each entry bundles the rule's
//! name, severity, file policy, test-code policy, scanner, and the ok/bad
//! fixture pair that proves it works. The catalog (what each rule proves
//! and which workspace invariant it guards) is rendered in DESIGN.md §6.
//!
//! Scanning runs in two phases:
//!
//! 1. **per-file** — each file's token stream is checked against every
//!    applicable per-file rule (determinism, panic-surface, atomics-scope,
//!    map-iteration, dot-seam, error-swallow, cast-truncation);
//! 2. **cross-file** — the whole tree is checked for *presence* properties
//!    (reference-coverage, fault-coverage): every `pub fn *_reference`
//!    executable spec must be exercised by name in the fast-path
//!    equivalence suite, and every `FaultPlan` fault class in the chaos
//!    suite.
//!
//! Genuinely-safe sites opt out with a *reasoned* escape hatch on the same
//! line or the line above:
//!
//! ```text
//! // xtask: allow(panic-surface) — len checked above, split cannot fail
//! ```
//!
//! An allow without a reason, an allow naming an unknown rule, or an allow
//! that suppresses nothing is itself a violation (`allow-syntax`), so the
//! escape hatch cannot rot silently.
//!
//! The crate is dependency-free by design: the linter must build and run
//! even when the registry is unreachable or the workspace it lints is
//! broken.

#![warn(missing_docs)]

pub mod lexer;
pub mod rules;

use lexer::{lex, Lexed, Token, TokenKind};
use rules::{registry, rule_named, rule_names, FileCtx, Scan, TestCode, TreeCtx, TreeFile};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Version of the JSON report schema written by [`Report::to_json`].
/// Bumped when fields are added/renamed so archived reports diff cleanly.
pub const SCHEMA_VERSION: u32 = 2;

/// Which files each rule applies to. Paths are repo-relative with `/`
/// separators.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Files exempt from the determinism rule (bench binaries that
    /// legitimately measure wall time).
    pub determinism_allow: Vec<String>,
    /// Files allowed to use `std::sync::atomic`.
    pub atomics_allow: Vec<String>,
    /// Crate names (under `crates/<name>/src/`) whose non-test code is held
    /// to library standards: panic-free, no hash-order iteration, no
    /// swallowed errors.
    pub library_crates: Vec<String>,
    /// Path prefixes where the dot-seam rule applies (scoring code).
    pub dot_seam_scope: Vec<String>,
    /// Files exempt from the dot-seam rule (the seam itself).
    pub dot_seam_exempt: Vec<String>,
    /// Path prefixes of blob/snapshot parse paths (cast-truncation scope).
    pub parse_paths: Vec<String>,
    /// Source prefix scanned for `pub fn *_reference` executable specs.
    pub reference_src_prefix: String,
    /// Test file that must exercise every `*_reference` method by name.
    pub reference_test_file: String,
    /// File holding the `FaultPlan` struct whose fault classes need tests.
    pub fault_plan_file: String,
    /// Test file that must exercise every fault class by name.
    pub fault_test_file: String,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            determinism_allow: vec![
                "crates/bench/src/bin/t2_sampled_map.rs".into(),
                "crates/bench/src/bin/t8_hogwild.rs".into(),
            ],
            atomics_allow: vec![
                "crates/core/src/storage.rs".into(),
                "crates/serving/src/shard.rs".into(),
            ],
            library_crates: vec![
                "types".into(),
                "datagen".into(),
                "dfs".into(),
                "cluster".into(),
                "mapreduce".into(),
                "core".into(),
                "pipeline".into(),
                "serving".into(),
                "obs".into(),
            ],
            dot_seam_scope: vec!["crates/core/src/".into(), "crates/serving/src/".into()],
            dot_seam_exempt: vec!["crates/core/src/model.rs".into()],
            parse_paths: vec![
                "crates/core/src/snapshot.rs".into(),
                "crates/core/src/recs_codec.rs".into(),
                "crates/dfs/src/".into(),
                "crates/types/src/hash.rs".into(),
                "crates/types/src/wire.rs".into(),
                "crates/pipeline/src/data.rs".into(),
                "crates/pipeline/src/journal.rs".into(),
                "crates/pipeline/src/monitor.rs".into(),
                "crates/serving/src/store.rs".into(),
                "crates/serving/src/tier.rs".into(),
            ],
            reference_src_prefix: "crates/core/src/".into(),
            reference_test_file: "tests/infer_fastpath.rs".into(),
            fault_plan_file: "crates/types/src/fault.rs".into(),
            fault_test_file: "tests/chaos.rs".into(),
        }
    }
}

/// One confirmed rule violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule name (a registered rule, or `allow-syntax` for a broken
    /// escape-hatch comment).
    pub rule: String,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl Violation {
    /// Severity name of this violation's rule (`error` for unknown rules).
    pub fn severity(&self) -> &'static str {
        rule_named(&self.rule)
            .map(|r| r.severity.name())
            .unwrap_or("error")
    }
}

/// One parsed `// xtask: allow(...)` escape hatch.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Name of the rule being allowed.
    pub rule: String,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line of the comment.
    pub line: usize,
    /// The stated reason (never empty in a well-formed allow).
    pub reason: String,
    /// Whether the allow suppressed at least one match.
    pub used: bool,
}

/// Lint result for a whole tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All violations, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// All well-formed allows, sorted by (file, line, rule).
    pub allows: Vec<Allow>,
}

impl Report {
    /// Violation counts keyed by rule name. Every registered rule gets an
    /// entry (zero included) so reports stay comparable across PRs.
    pub fn counts(&self) -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for r in registry() {
            m.insert(r.name.to_string(), 0);
        }
        for v in &self.violations {
            *m.entry(v.rule.clone()).or_insert(0) += 1;
        }
        m
    }

    /// Sorts violations and allows by (file, line, rule) for stable diffs.
    pub fn sort(&mut self) {
        self.violations
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        self.allows
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    }

    /// Serializes the report as pretty-printed JSON (hand-rolled; the linter
    /// is dependency-free). Schema v2: `schema_version` field, per-violation
    /// severity, entries pre-sorted by (file, line, rule).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str("  \"counts\": {");
        let counts = self.counts();
        let mut first = true;
        for (k, v) in &counts {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("\n    \"{}\": {}", json_escape(k), v));
        }
        s.push_str("\n  },\n");
        s.push_str("  \"violations\": [");
        first = true;
        for v in &self.violations {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                json_escape(&v.rule),
                v.severity(),
                json_escape(&v.file),
                v.line,
                json_escape(&v.message)
            ));
        }
        s.push_str(if self.violations.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"allows\": [");
        first = true;
        for a in &self.allows {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\", \"used\": {}}}",
                json_escape(&a.rule),
                json_escape(&a.file),
                a.line,
                json_escape(&a.reason),
                a.used
            ));
        }
        s.push_str(if self.allows.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        s.push_str("}\n");
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Lints a single file's source text with every per-file rule active.
/// `rel` is the repo-relative path used for policy decisions and reporting.
/// Cross-file rules need a whole tree and run only under [`run_lint`].
pub fn lint_source(rel: &str, src: &str, policy: &Policy) -> (Vec<Violation>, Vec<Allow>) {
    let lexed = lex(src);
    let all = |_: &str| true;
    let mut violations = Vec::new();
    let mut allows = Vec::new();
    scan_file(rel, &lexed, policy, &all, &mut violations, &mut allows);
    report_unused_allows(&allows, &all, &mut violations);
    violations.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    (violations, allows)
}

/// Walks `root` and lints every `.rs` file with every rule (skipping
/// `target/`, `.git/`, `results/`, and the `xtask/` tree itself, whose
/// fixtures contain deliberate violations).
pub fn run_lint(root: &Path, policy: &Policy) -> io::Result<Report> {
    run_lint_filtered(root, policy, None)
}

/// Like [`run_lint`], restricted to the named rules when `filter` is
/// `Some`. Unused-allow reporting is restricted to allows whose rule is
/// active (an allow for a rule that did not run cannot have been used).
pub fn run_lint_filtered(
    root: &Path,
    policy: &Policy,
    filter: Option<&[String]>,
) -> io::Result<Report> {
    let active = |name: &str| match filter {
        None => true,
        Some(f) => f.iter().any(|n| n == name),
    };
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();

    let mut report = Report::default();
    let mut allows: Vec<Allow> = Vec::new();
    let mut tree: Vec<TreeFile> = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        let lexed = lex(&src);
        report.files_scanned += 1;
        scan_file(
            &rel,
            &lexed,
            policy,
            &active,
            &mut report.violations,
            &mut allows,
        );
        tree.push(TreeFile {
            rel,
            tokens: lexed.tokens,
        });
    }

    // Cross-file phase: presence properties over the whole tree. Matches
    // are suppressible through the same allow mechanism, anchored at the
    // reported (file, line).
    let ctx = TreeCtx {
        files: &tree,
        policy,
    };
    for rule in registry() {
        let Scan::CrossFile(scan) = rule.scan else {
            continue;
        };
        if !active(rule.name) {
            continue;
        }
        for (file, line, message) in scan(&ctx) {
            suppress_or_report(
                rule.name,
                &file,
                line,
                message,
                &mut allows,
                &mut report.violations,
            );
        }
    }

    report_unused_allows(&allows, &active, &mut report.violations);
    report.allows = allows;
    report.sort();
    Ok(report)
}

/// Runs every active per-file rule over one lexed file, routing matches
/// through the allow mechanism.
fn scan_file(
    rel: &str,
    lexed: &Lexed,
    policy: &Policy,
    active: &dyn Fn(&str) -> bool,
    violations: &mut Vec<Violation>,
    allows: &mut Vec<Allow>,
) {
    let mut file_allows = parse_allows(rel, lexed, active, violations);
    let test_flags = mark_test_tokens(&lexed.tokens);
    let ctx = FileCtx {
        rel,
        tokens: &lexed.tokens,
        policy,
    };
    for rule in registry() {
        let Scan::PerFile(scan) = rule.scan else {
            continue;
        };
        if !active(rule.name) || !(rule.applies)(policy, rel) {
            continue;
        }
        for (idx, message) in scan(&ctx) {
            if rule.test_code == TestCode::Skipped && test_flags.get(idx).copied().unwrap_or(false)
            {
                continue;
            }
            let Some(tok) = lexed.tokens.get(idx) else {
                continue;
            };
            suppress_or_report(
                rule.name,
                rel,
                tok.line,
                message,
                &mut file_allows,
                violations,
            );
        }
    }
    allows.append(&mut file_allows);
}

/// Marks the allow covering (file, line) as used, or records a violation.
fn suppress_or_report(
    rule: &str,
    file: &str,
    line: usize,
    message: String,
    allows: &mut [Allow],
    violations: &mut Vec<Violation>,
) {
    if let Some(a) = allows
        .iter_mut()
        .find(|a| a.rule == rule && a.file == file && (a.line == line || a.line + 1 == line))
    {
        a.used = true;
    } else {
        violations.push(Violation {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            message,
        });
    }
}

/// Reports each allow that suppressed nothing, provided its rule ran.
fn report_unused_allows(
    allows: &[Allow],
    active: &dyn Fn(&str) -> bool,
    violations: &mut Vec<Violation>,
) {
    for a in allows {
        if !a.used && active(&a.rule) {
            violations.push(Violation {
                rule: "allow-syntax".to_string(),
                file: a.file.clone(),
                line: a.line,
                message: format!(
                    "unused `xtask: allow({})` — nothing on this line or the next matches the rule",
                    a.rule
                ),
            });
        }
    }
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    const SKIP_DIRS: &[&str] = &["target", ".git", "results", "xtask", "node_modules"];
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            let top_level = dir == root;
            if SKIP_DIRS.contains(&name.as_ref())
                && (top_level || name == "target" || name == ".git")
            {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Parses every `// xtask: allow(<rule>) — <reason>` comment. Malformed
/// comments (unknown rule, missing reason, bad syntax) are reported as
/// `allow-syntax` violations when that rule is active.
fn parse_allows(
    rel: &str,
    lexed: &Lexed,
    active: &dyn Fn(&str) -> bool,
    violations: &mut Vec<Violation>,
) -> Vec<Allow> {
    let syntax_active = active("allow-syntax");
    let push_syntax = |line: usize, message: String, violations: &mut Vec<Violation>| {
        if syntax_active {
            violations.push(Violation {
                rule: "allow-syntax".into(),
                file: rel.into(),
                line,
                message,
            });
        }
    };
    let mut allows = Vec::new();
    for c in &lexed.comments {
        let text = c.text.trim();
        let Some(pos) = text.find("xtask:") else {
            continue;
        };
        let rest = text[pos + "xtask:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            push_syntax(
                c.line,
                "malformed xtask comment — expected `xtask: allow(<rule>) — <reason>`".into(),
                violations,
            );
            continue;
        };
        let Some(close) = rest.find(')') else {
            push_syntax(
                c.line,
                "malformed xtask allow — missing `)`".into(),
                violations,
            );
            continue;
        };
        let rule_name = rest[..close].trim();
        let Some(rule) = rule_named(rule_name) else {
            push_syntax(
                c.line,
                format!(
                    "unknown rule `{rule_name}` — registered rules: {}",
                    rule_names()
                ),
                violations,
            );
            continue;
        };
        let reason = rest[close + 1..]
            .trim_start_matches(|ch: char| {
                ch.is_whitespace() || ch == '—' || ch == '-' || ch == '–' || ch == ':'
            })
            .trim();
        if reason.is_empty() {
            push_syntax(
                c.line,
                format!(
                    "`xtask: allow({})` without a reason — state why the site is safe",
                    rule.name
                ),
                violations,
            );
            // Still record the allow so the underlying site is not double-
            // reported; the missing reason is the one actionable violation.
        }
        allows.push(Allow {
            rule: rule.name.to_string(),
            file: rel.into(),
            line: c.line,
            reason: reason.to_string(),
            used: false,
        });
    }
    allows
}

/// Marks which tokens live inside test code: the body (and signature) of any
/// item annotated `#[test]` or `#[cfg(test)]` (including `#[cfg(all(test,
/// ...))]`; `#[cfg(not(test))]` does *not* count as test code).
fn mark_test_tokens(tokens: &[Token]) -> Vec<bool> {
    let punct = |i: usize, c: char| matches!(tokens.get(i).map(|t| &t.kind), Some(TokenKind::Punct(p)) if *p == c);
    let mut flags = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if punct(i, '#') {
            let mut j = i + 1;
            let inner = punct(j, '!');
            if inner {
                j += 1;
            }
            if punct(j, '[') {
                let (end, is_test) = scan_attr(tokens, j);
                if !inner && is_test {
                    // Skip any further attributes on the same item.
                    let mut k = end + 1;
                    while punct(k, '#') && punct(k + 1, '[') {
                        let (e, _) = scan_attr(tokens, k + 1);
                        k = e + 1;
                    }
                    // Walk the item: everything up to (and including) its
                    // brace-delimited body is test code. A `;` at bracket
                    // depth 0 before any `{` means a body-less item.
                    let mut depth = 0i32;
                    while k < tokens.len() {
                        if let Some(TokenKind::Punct(p)) = tokens.get(k).map(|t| &t.kind) {
                            match p {
                                '(' | '[' => depth += 1,
                                ')' | ']' => depth -= 1,
                                ';' if depth == 0 => {
                                    flags[k] = true;
                                    k += 1;
                                    break;
                                }
                                '{' if depth == 0 => {
                                    let mut braces = 1i32;
                                    flags[k] = true;
                                    k += 1;
                                    while k < tokens.len() && braces > 0 {
                                        flags[k] = true;
                                        match tokens[k].kind {
                                            TokenKind::Punct('{') => braces += 1,
                                            TokenKind::Punct('}') => braces -= 1,
                                            _ => {}
                                        }
                                        k += 1;
                                    }
                                    break;
                                }
                                _ => {}
                            }
                        }
                        flags[k] = true;
                        k += 1;
                    }
                    i = k;
                    continue;
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    flags
}

/// Scans the attribute starting at the `[` at `open`. Returns the index of
/// the matching `]` and whether the attribute marks test code.
fn scan_attr(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut idents: Vec<&str> = Vec::new();
    let mut i = open;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokenKind::Punct('[') | TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(']') | TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokenKind::Ident(s) => idents.push(s.as_str()),
            _ => {}
        }
        i += 1;
    }
    let is_test = match idents.first() {
        Some(&"test") if idents.len() == 1 => true,
        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        _ => false,
    };
    (i, is_test)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violations(rel: &str, src: &str) -> Vec<Violation> {
        lint_source(rel, src, &Policy::default()).0
    }

    #[test]
    fn unwrap_in_lib_crate_is_flagged() {
        let v = violations("crates/core/src/train.rs", "fn f() { x.unwrap(); }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "panic-surface");
    }

    #[test]
    fn unwrap_in_test_mod_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { x.unwrap(); }\n}\n";
        assert!(violations("crates/core/src/train.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_still_linted() {
        let src = "#[cfg(not(test))]\nfn f() { x.unwrap(); }\n";
        let v = violations("crates/core/src/train.rs", src);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn wall_clock_in_test_code_is_flagged() {
        let src = "#[test]\nfn t() { let t = Instant::now(); t }\n";
        let v = violations("crates/core/src/train.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "determinism");
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_used() {
        let src = "fn f() {\n  // xtask: allow(panic-surface) — checked above\n  x.unwrap();\n}\n";
        let (v, a) = lint_source("crates/core/src/train.rs", src, &Policy::default());
        assert!(v.is_empty(), "{v:?}");
        assert!(a[0].used);
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let src = "fn f() {\n  x.unwrap(); // xtask: allow(panic-surface)\n}\n";
        let v = violations("crates/core/src/train.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "allow-syntax");
    }

    #[test]
    fn unused_allow_is_a_violation() {
        let src = "// xtask: allow(determinism) — no reason to exist\nfn f() {}\n";
        let v = violations("crates/core/src/train.rs", src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("unused"));
    }

    #[test]
    fn bench_allowlist_exempts_determinism() {
        let src = "fn main() { let t = Instant::now(); t }";
        assert!(violations("crates/bench/src/bin/t2_sampled_map.rs", src).is_empty());
        assert_eq!(violations("crates/bench/src/bin/t3_other.rs", src).len(), 1);
    }

    #[test]
    fn atomics_only_in_storage() {
        let src = "use std::sync::atomic::AtomicU32;";
        assert!(violations("crates/core/src/storage.rs", src).is_empty());
        // The sharded serving frontend's swap seam is the second audited
        // lock-free module; the rest of the serving crate stays fenced.
        assert!(violations("crates/serving/src/shard.rs", src).is_empty());
        let v = violations("crates/serving/src/lib.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "atomics-scope");
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let report = Report {
            files_scanned: 2,
            violations: vec![Violation {
                rule: "determinism".into(),
                file: "a \"b\".rs".into(),
                line: 3,
                message: "m".into(),
            }],
            allows: vec![],
        };
        let j = report.to_json();
        assert!(j.contains("\"schema_version\": 2"));
        assert!(j.contains("\"files_scanned\": 2"));
        assert!(j.contains("\"severity\": \"error\""));
        assert!(j.contains("a \\\"b\\\".rs"));
    }

    #[test]
    fn counts_enumerate_every_registered_rule() {
        let counts = Report::default().counts();
        for r in registry() {
            assert_eq!(
                counts.get(r.name),
                Some(&0),
                "missing zero entry: {}",
                r.name
            );
        }
        assert_eq!(counts.len(), registry().len());
    }

    #[test]
    fn hash_map_iteration_is_flagged_and_btree_is_not() {
        let src = "fn f(m: &HashMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }";
        let v = violations("crates/core/src/candidates.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "map-iteration");
        let src = "fn f(m: &BTreeMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }";
        assert!(violations("crates/core/src/candidates.rs", src).is_empty());
    }

    #[test]
    fn hash_map_lookup_is_not_iteration() {
        let src = "fn f(m: &HashMap<u32, u32>) -> Option<&u32> { m.get(&1) }";
        assert!(violations("crates/core/src/candidates.rs", src).is_empty());
    }

    #[test]
    fn for_loop_over_hash_map_is_flagged() {
        let src = "fn f(m: HashMap<u32, u32>) { for (k, v) in m { drop((k, v)); } }";
        let v = violations("crates/pipeline/src/daily.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "map-iteration");
    }

    #[test]
    fn dot_seam_flags_sum_outside_model() {
        let src = "fn f(a: &[f32], b: &[f32]) -> f32 { a.iter().zip(b).map(|(x, y)| x * y).sum() }";
        let v = violations("crates/core/src/inference.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "dot-seam");
        // The seam itself is exempt.
        assert!(violations("crates/core/src/model.rs", src).is_empty());
        // Out of scope: non-scoring crates.
        assert!(violations("crates/datagen/src/events.rs", src).is_empty());
    }

    #[test]
    fn error_swallow_flags_let_underscore_but_not_write_macro() {
        let src = "fn f() { let _ = fallible(); }";
        let v = violations("crates/dfs/src/checkpoint.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "error-swallow");
        let src = "fn f(out: &mut String) { let _ = writeln!(out, \"x\"); }";
        assert!(violations("crates/obs/src/summary.rs", src).is_empty());
    }

    #[test]
    fn cast_truncation_flags_parse_paths_only() {
        let src = "fn f(n: u64) -> u32 { n as u32 }";
        let v = violations("crates/core/src/snapshot.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "cast-truncation");
        // Every file that parses blob bytes is in scope, the shared wire
        // reader/writer first of all.
        for path in [
            "crates/types/src/wire.rs",
            "crates/pipeline/src/data.rs",
            "crates/pipeline/src/monitor.rs",
            "crates/serving/src/store.rs",
        ] {
            assert_eq!(violations(path, src).len(), 1, "{path}");
        }
        // Widening casts are fine even in parse paths.
        let src = "fn f(n: u32) -> u64 { n as u64 }";
        assert!(violations("crates/core/src/snapshot.rs", src).is_empty());
        // Outside parse paths the rule does not apply.
        let src = "fn f(n: u64) -> u32 { n as u32 }";
        assert!(violations("crates/core/src/train.rs", src).is_empty());
    }
}
