//! The lint rules and the engine that applies them to one file.
//!
//! # Rules
//!
//! | rule | scope | what it flags |
//! |------|-------|---------------|
//! | `hot-path-panic` | `dram`/`soc`/`core`/`sched`/`serve` non-test code | `.unwrap()`, `.expect(...)`, `panic!` — simulator and replay hot paths must return errors. `assert!`/`debug_assert!`/`unreachable!` are deliberately *not* flagged: contract checks are welcome. |
//! | `nondeterminism` | sim/experiment crates non-test code | `Instant::now`, `SystemTime`, `HashMap`, `HashSet`, `thread_rng` — results must be byte-identical across runs and `--jobs` settings. |
//! | `raw-stderr` | `dram`/`soc`/`core`/`sched`/`experiments` library code | `println!`/`eprintln!`/`print!`/`eprint!` — library crates must route output through telemetry or return it to the CLI layer, not write to the process streams. |
//! | `hot-loop-metrics` | `dram`/`soc` library code | `metrics::add`/`observe_max`/`counter`/`gauge` lexically inside a `for`/`while`/`loop` body — each call takes the registry lock, so per-cycle loops must accumulate locally and publish once after the loop (the §9 overhead budget depends on it). |
//!
//! Findings are suppressed with a `// pccs-lint: allow(<rule>)` comment on
//! the finding's line or the line directly above — waivers are visible in
//! review and greppable, unlike a config file.
//!
//! Rustdoc coverage is not a rule here: every library crate root carries
//! `#![warn(missing_docs, unreachable_pub)]`, and the clippy gate runs
//! with `-D warnings`.
//!
//! # Test code
//!
//! All rules exempt test code: files under `tests/`, `benches/`,
//! `examples/`, and `#[cfg(test)]`-gated regions inside library files
//! (found by brace-matching over the token stream).

use crate::lexer::{lex, LexedFile, Token, TokenKind};
use crate::report::{Finding, LintReport};
use std::collections::{BTreeMap, BTreeSet};

/// Stable names of every rule, in report order: the file-scoped phase-1
/// rules first, then the workspace-scoped phase-2 rules implemented in
/// [`crate::workspace`].
pub const RULE_NAMES: &[&str] = &[
    "hot-path-panic",
    "nondeterminism",
    "raw-stderr",
    "hot-loop-metrics",
    "dead-pub-item",
    "metrics-registry-drift",
    "stale-waiver",
    "dependency-cycle",
];

/// Crates whose non-test code is a simulator or replay hot path.
const HOT_PATH_CRATES: &[&str] = &["dram", "soc", "core", "sched", "serve"];

/// Crates whose non-test code must be deterministic.
const DETERMINISTIC_CRATES: &[&str] = &[
    "dram",
    "soc",
    "core",
    "workloads",
    "experiments",
    "sched",
    "serve",
];

/// Identifiers that introduce nondeterminism on sight.
const NONDETERMINISTIC_IDENTS: &[&str] = &["HashMap", "HashSet", "SystemTime", "thread_rng"];

/// Crates whose library code must not write to stdout/stderr directly;
/// output routes through telemetry reports or returns to the CLI layer.
const QUIET_CRATES: &[&str] = &["dram", "soc", "core", "sched", "serve", "experiments"];

/// Print-family macros the `raw-stderr` rule flags.
const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint"];

/// Crates whose loops are per-cycle simulator inner loops.
const HOT_LOOP_CRATES: &[&str] = &["dram", "soc"];

/// Metrics-registry entry points that take the registry lock; one call
/// per loop iteration would put registry cost on the per-cycle path
/// (DESIGN.md §9.1). Accumulate locally, publish once after the loop. Shared with
/// the symbol index, which records the metric-name literal at these call
/// sites for the `metrics-registry-drift` rule.
pub(crate) const METRICS_PUBLISH_FNS: &[&str] = &["add", "observe_max", "counter", "gauge"];

/// How a file is situated relative to the rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Crate directory name under `crates/` (`dram`, `soc`, …).
    pub crate_name: String,
    /// Whether the path alone marks it as test/bench/example code.
    pub is_test_path: bool,
    /// Whether it is a binary target (`src/bin/**` or `src/main.rs`).
    pub is_bin: bool,
}

/// Classifies a repo-relative path. Returns `None` for files the linter
/// ignores entirely (non-Rust, outside `crates/`, generated output).
pub fn classify(rel_path: &str) -> Option<FileClass> {
    let norm = rel_path.replace('\\', "/");
    if !norm.ends_with(".rs") {
        return None;
    }
    let rest = norm.strip_prefix("crates/")?;
    let (crate_name, inner) = rest.split_once('/')?;
    if inner.starts_with("target/") {
        return None;
    }
    let is_test_path = inner.starts_with("tests/")
        || inner.starts_with("benches/")
        || inner.starts_with("examples/")
        || inner == "build.rs";
    let is_bin = inner.starts_with("src/bin/") || inner == "src/main.rs";
    Some(FileClass {
        crate_name: crate_name.to_owned(),
        is_test_path,
        is_bin,
    })
}

/// Marks every token inside a `#[cfg(test)]`-gated item. The workspace
/// pass shares this notion of test code.
///
/// Finds each `# [ cfg ( test ) ]` attribute sequence, then extends the
/// region over the following item: to the matching `}` if the item is
/// brace-delimited, or to the terminating `;` otherwise. Comments and
/// string contents are already stripped, so brace counting is exact.
pub(crate) fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let text = |k: usize| tokens.get(k).map(|t| t.text.as_str());
    let mut i = 0;
    while i < tokens.len() {
        let is_cfg_test = text(i) == Some("#")
            && text(i + 1) == Some("[")
            && text(i + 2) == Some("cfg")
            && text(i + 3) == Some("(")
            && text(i + 4) == Some("test")
            && text(i + 5) == Some(")")
            && text(i + 6) == Some("]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i + 7;
        // Skip any further attributes on the same item.
        while text(j) == Some("#") && text(j + 1) == Some("[") {
            let mut depth = 0usize;
            j += 1;
            loop {
                match text(j) {
                    Some("[") => depth += 1,
                    Some("]") => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    None => break,
                    _ => {}
                }
                j += 1;
            }
        }
        // Extend over the item body.
        let mut depth = 0usize;
        let end = loop {
            match text(j) {
                Some("{") => depth += 1,
                Some("}") => {
                    depth -= 1;
                    if depth == 0 {
                        break j;
                    }
                }
                Some(";") if depth == 0 => break j,
                None => break j.min(tokens.len()),
                _ => {}
            }
            j += 1;
        };
        for m in mask
            .iter_mut()
            .take((end + 1).min(tokens.len()))
            .skip(start)
        {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

struct RuleCtx<'a> {
    class: &'a FileClass,
    rel_path: &'a str,
    lexed: &'a LexedFile,
    in_test: &'a [bool],
}

impl RuleCtx<'_> {
    fn ident(&self, k: usize) -> Option<&str> {
        self.lexed
            .tokens
            .get(k)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
    }

    fn text(&self, k: usize) -> Option<&str> {
        self.lexed.tokens.get(k).map(|t| t.text.as_str())
    }

    fn finding(&self, rule: &str, line: u32, message: String) -> Finding {
        Finding {
            rule: rule.to_owned(),
            file: self.rel_path.to_owned(),
            line,
            message,
        }
    }
}

fn hot_path_panic(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if !HOT_PATH_CRATES.contains(&ctx.class.crate_name.as_str())
        || ctx.class.is_test_path
        || ctx.class.is_bin
    {
        return;
    }
    for (k, tok) in ctx.lexed.tokens.iter().enumerate() {
        if ctx.in_test[k] || tok.kind != TokenKind::Ident {
            continue;
        }
        match tok.text.as_str() {
            "unwrap" | "expect"
                if k > 0 && ctx.text(k - 1) == Some(".") && ctx.text(k + 1) == Some("(") =>
            {
                out.push(ctx.finding(
                    "hot-path-panic",
                    tok.line,
                    format!(
                        ".{}() in simulator hot-path code; return a typed error \
                         or document a waiver",
                        tok.text
                    ),
                ));
            }
            "panic" if ctx.text(k + 1) == Some("!") => {
                out.push(
                    ctx.finding(
                        "hot-path-panic",
                        tok.line,
                        "panic! in simulator hot-path code; return a typed error \
                     or document a waiver"
                            .to_owned(),
                    ),
                );
            }
            _ => {}
        }
    }
}

fn nondeterminism(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if !DETERMINISTIC_CRATES.contains(&ctx.class.crate_name.as_str()) || ctx.class.is_test_path {
        return;
    }
    for (k, tok) in ctx.lexed.tokens.iter().enumerate() {
        if ctx.in_test[k] || tok.kind != TokenKind::Ident {
            continue;
        }
        let name = tok.text.as_str();
        if NONDETERMINISTIC_IDENTS.contains(&name) {
            let hint = match name {
                "HashMap" | "HashSet" => "iteration order varies; use BTreeMap/BTreeSet",
                "SystemTime" => "wall-clock state; thread a timestamp in instead",
                "thread_rng" => "unseeded RNG; use a seeded SmallRng",
                _ => "nondeterministic",
            };
            out.push(ctx.finding(
                "nondeterminism",
                tok.line,
                format!("{name} in deterministic sim/experiment code ({hint})"),
            ));
        } else if name == "Instant"
            && ctx.text(k + 1) == Some(":")
            && ctx.text(k + 2) == Some(":")
            && ctx.ident(k + 3) == Some("now")
        {
            out.push(
                ctx.finding(
                    "nondeterminism",
                    tok.line,
                    "Instant::now in deterministic sim/experiment code; simulated \
                 time must come from the cycle counter"
                        .to_owned(),
                ),
            );
        }
    }
}

fn raw_stderr(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if !QUIET_CRATES.contains(&ctx.class.crate_name.as_str())
        || ctx.class.is_test_path
        || ctx.class.is_bin
    {
        return;
    }
    for (k, tok) in ctx.lexed.tokens.iter().enumerate() {
        if ctx.in_test[k] || tok.kind != TokenKind::Ident {
            continue;
        }
        if PRINT_MACROS.contains(&tok.text.as_str()) && ctx.text(k + 1) == Some("!") {
            out.push(ctx.finding(
                "raw-stderr",
                tok.line,
                format!(
                    "{}! in library code; route output through telemetry or \
                     return it to the CLI layer",
                    tok.text
                ),
            ));
        }
    }
}

/// Marks every token inside the body of a lexical `for`/`while`/`loop`.
///
/// Loop headers are found by keyword; the body is the first `{` at
/// paren/bracket depth zero after the header (struct literals are not
/// legal in loop-header expression position, so that brace is always the
/// body), then brace-matched to its close. A `for` with no `in` before
/// the brace is `impl Trait for Type` or a `for<'a>` bound, not a loop —
/// scanning resumes inside its braces so real loops nested there are
/// still found. Comments and strings are already stripped by the lexer,
/// so brace counting is exact.
fn loop_body_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let text = |k: usize| tokens.get(k).map(|t| t.text.as_str());
    let mut i = 0;
    while i < tokens.len() {
        let keyword = text(i);
        if !matches!(keyword, Some("for" | "while" | "loop")) {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let mut depth = 0usize;
        let mut saw_in = false;
        let body_open = loop {
            match text(j) {
                Some("(" | "[") => depth += 1,
                Some(")" | "]") => depth = depth.saturating_sub(1),
                Some("in") if depth == 0 => saw_in = true,
                Some("{") if depth == 0 => break Some(j),
                // A terminator before any body brace: not a loop header
                // (e.g. `for` inside a use path or a macro fragment).
                Some(";" | "}") if depth == 0 => break None,
                None => break None,
                _ => {}
            }
            j += 1;
        };
        let Some(open) = body_open else {
            i = j.max(i + 1);
            continue;
        };
        if keyword == Some("for") && !saw_in {
            i = open;
            continue;
        }
        let mut braces = 0usize;
        let mut end = open;
        for (k, tok) in tokens.iter().enumerate().skip(open) {
            match tok.text.as_str() {
                "{" => braces += 1,
                "}" => {
                    braces -= 1;
                    if braces == 0 {
                        end = k;
                        break;
                    }
                }
                _ => {}
            }
            end = k;
        }
        for m in mask.iter_mut().take(end + 1).skip(open) {
            *m = true;
        }
        // Resume inside the body so nested loops are processed too (the
        // re-marking is idempotent).
        i = open + 1;
    }
    mask
}

fn hot_loop_metrics(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if !HOT_LOOP_CRATES.contains(&ctx.class.crate_name.as_str())
        || ctx.class.is_test_path
        || ctx.class.is_bin
    {
        return;
    }
    let in_loop = loop_body_mask(&ctx.lexed.tokens);
    for (k, tok) in ctx.lexed.tokens.iter().enumerate() {
        if ctx.in_test[k] || !in_loop[k] || tok.kind != TokenKind::Ident || tok.text != "metrics" {
            continue;
        }
        if ctx.text(k + 1) != Some(":") || ctx.text(k + 2) != Some(":") {
            continue;
        }
        let Some(func) = ctx.ident(k + 3) else {
            continue;
        };
        if METRICS_PUBLISH_FNS.contains(&func) && ctx.text(k + 4) == Some("(") {
            out.push(ctx.finding(
                "hot-loop-metrics",
                tok.line,
                format!(
                    "metrics::{func} inside a per-cycle loop takes the registry \
                     lock every iteration; accumulate locally and publish once \
                     after the loop"
                ),
            ));
        }
    }
}

/// If `rule` is waived for a finding on `line`, returns the line of the
/// waiving directive: the finding's own line or the line directly above.
pub(crate) fn waived_at(
    waivers: &BTreeMap<u32, BTreeSet<String>>,
    rule: &str,
    line: u32,
) -> Option<u32> {
    [line, line.saturating_sub(1)]
        .into_iter()
        .find(|l| waivers.get(l).is_some_and(|set| set.contains(rule)))
}

/// Raw phase-1 findings for one lexed file, before waivers are applied.
///
/// The single-file entry point [`lint_source`] and the workspace pass in
/// [`crate::workspace`] both run the same rule set through here and
/// apply waivers with [`waived_at`]; the workspace pass also records
/// which directives were used, so it can flag stale ones.
pub(crate) fn file_findings(
    class: &FileClass,
    rel_path: &str,
    lexed: &LexedFile,
    in_test: &[bool],
) -> Vec<Finding> {
    let ctx = RuleCtx {
        class,
        rel_path,
        lexed,
        in_test,
    };
    let mut raw = Vec::new();
    hot_path_panic(&ctx, &mut raw);
    nondeterminism(&ctx, &mut raw);
    raw_stderr(&ctx, &mut raw);
    hot_loop_metrics(&ctx, &mut raw);
    raw
}

/// Lints one file's source text under its repo-relative path.
///
/// Returns an empty report (zero files scanned) when [`classify`] ignores
/// the path. Runs only the file-scoped rules; the workspace rules need
/// the full tree and live in [`crate::workspace`].
pub fn lint_source(rel_path: &str, src: &str) -> LintReport {
    let Some(class) = classify(rel_path) else {
        return LintReport::default();
    };
    let lexed = lex(src);
    let in_test = test_mask(&lexed.tokens);
    let raw = file_findings(&class, rel_path, &lexed, &in_test);

    let mut report = LintReport {
        files_scanned: 1,
        ..LintReport::default()
    };
    for f in raw {
        if waived_at(&lexed.waivers, &f.rule, f.line).is_some() {
            report.waived += 1;
        } else {
            report.findings.push(f);
        }
    }
    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(path: &str, src: &str) -> Vec<String> {
        lint_source(path, src)
            .findings
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn classify_sorts_paths() {
        assert_eq!(
            classify("crates/dram/src/bank.rs").unwrap().crate_name,
            "dram"
        );
        assert!(
            classify("crates/dram/tests/conformance.rs")
                .unwrap()
                .is_test_path
        );
        assert!(
            classify("crates/experiments/src/bin/repro.rs")
                .unwrap()
                .is_bin
        );
        assert!(classify("README.md").is_none());
        assert!(classify("tests/model_vs_gables.rs").is_none());
        assert!(classify("vendor/rand/src/lib.rs").is_none());
    }

    #[test]
    fn unwrap_in_hot_path_is_flagged() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(
            rules_of("crates/dram/src/a.rs", src),
            vec!["hot-path-panic"]
        );
        // Same code outside a hot-path crate passes.
        assert!(rules_of("crates/experiments/src/a.rs", src).is_empty());
    }

    #[test]
    fn asserts_are_not_panics() {
        let src = "fn f(x: u32) { assert!(x > 0); debug_assert_eq!(x, x); }\n";
        assert!(rules_of("crates/dram/src/a.rs", src).is_empty());
        let src = "fn f() { panic!(\"boom\"); }\n";
        assert_eq!(
            rules_of("crates/dram/src/a.rs", src),
            vec!["hot-path-panic"]
        );
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn f(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
        assert!(rules_of("crates/soc/src/a.rs", src).is_empty());
    }

    #[test]
    fn code_after_a_test_region_is_not_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(rules_of("crates/soc/src/a.rs", src), vec!["hot-path-panic"]);
    }

    #[test]
    fn controller_module_is_covered_by_hot_path_rules() {
        // The memory controller lives in a hot-path, deterministic crate:
        // both rules must apply to it.
        let src = "use std::collections::HashMap;\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let rules = rules_of("crates/dram/src/controller.rs", src);
        assert_eq!(rules, vec!["nondeterminism", "hot-path-panic"]);
    }

    #[test]
    fn nondeterminism_sources_are_flagged() {
        let src = "use std::collections::HashMap;\nfn t() { let _ = std::time::Instant::now(); }\n";
        let rules = rules_of("crates/sched/src/a.rs", src);
        assert_eq!(rules, vec!["nondeterminism", "nondeterminism"]);
        // `Instant` alone (e.g. stored as a field type) is not flagged.
        assert!(rules_of("crates/sched/src/a.rs", "use std::time::Instant;\n").is_empty());
    }

    #[test]
    fn raw_stderr_flags_print_macros_in_library_code() {
        let src = "fn f() { println!(\"hi\"); eprintln!(\"oops\"); }\n";
        assert_eq!(
            rules_of("crates/sched/src/a.rs", src),
            vec!["raw-stderr", "raw-stderr"]
        );
        assert_eq!(
            rules_of("crates/experiments/src/a.rs", src),
            vec!["raw-stderr", "raw-stderr"]
        );
        // Binaries, tests, and non-quiet crates may print.
        assert!(rules_of("crates/experiments/src/bin/repro.rs", src).is_empty());
        assert!(rules_of("crates/sched/tests/a.rs", src).is_empty());
        assert!(rules_of("crates/cli/src/a.rs", src).is_empty());
        // A `println` identifier without `!` (e.g. a local fn) passes, as
        // does a print-macro name inside a string or comment.
        assert!(rules_of("crates/sched/src/a.rs", "fn println_like() {}\n").is_empty());
        assert!(rules_of(
            "crates/sched/src/a.rs",
            "// println! in a comment\nfn f() -> &'static str { \"print!\" }\n"
        )
        .is_empty());
        // Waivers suppress like every other rule.
        let src = "fn f() {\n    // pccs-lint: allow(raw-stderr)\n    eprintln!(\"x\");\n}\n";
        let report = lint_source("crates/soc/src/a.rs", src);
        assert!(report.is_clean());
        assert_eq!(report.waived, 1);
    }

    #[test]
    fn metrics_publishes_in_loops_are_flagged() {
        // The planted anti-pattern: a per-cycle loop publishing to the
        // registry every iteration.
        let src = "fn run(h: u64) {\n    for cycle in 0..h {\n        metrics::add(\"dram.cycles\", 1);\n        let _ = cycle;\n    }\n}\n";
        assert_eq!(
            rules_of("crates/dram/src/a.rs", src),
            vec!["hot-loop-metrics"]
        );
        assert_eq!(
            rules_of("crates/soc/src/a.rs", src),
            vec!["hot-loop-metrics"]
        );
        // Outside the hot-loop crates the pattern is someone else's call.
        assert!(rules_of("crates/experiments/src/a.rs", src).is_empty());
        // `while` and bare `loop` bodies are covered, reads-by-handle too.
        let src = "fn f() { while busy() { metrics::observe_max(\"q\", 1); } }\n";
        assert_eq!(
            rules_of("crates/dram/src/a.rs", src),
            vec!["hot-loop-metrics"]
        );
        let src = "fn f() { loop { let c = metrics::counter(\"x\"); c.get(); break; } }\n";
        assert_eq!(
            rules_of("crates/dram/src/a.rs", src),
            vec!["hot-loop-metrics"]
        );
        // The fix — accumulate locally, publish after the loop — passes.
        let src = "fn run(h: u64) {\n    let mut n = 0;\n    for _ in 0..h { n += 1; }\n    metrics::add(\"dram.cycles\", n);\n}\n";
        assert!(rules_of("crates/dram/src/a.rs", src).is_empty());
        // `impl Trait for Type` braces are not loop bodies, but a real
        // loop nested inside the impl still trips.
        let src = "impl Engine for Fast {\n    fn publish(&self) { metrics::add(\"x\", 1); }\n}\n";
        assert!(rules_of("crates/dram/src/a.rs", src).is_empty());
        let src = "impl Engine for Fast {\n    fn run(&self, h: u64) {\n        for _ in 0..h { metrics::add(\"x\", 1); }\n    }\n}\n";
        assert_eq!(
            rules_of("crates/dram/src/a.rs", src),
            vec!["hot-loop-metrics"]
        );
        // Waivers suppress like every other rule.
        let src = "fn f() {\n    for _ in 0..2 {\n        // pccs-lint: allow(hot-loop-metrics)\n        metrics::add(\"x\", 1);\n    }\n}\n";
        let report = lint_source("crates/dram/src/a.rs", src);
        assert!(report.is_clean());
        assert_eq!(report.waived, 1);
    }

    #[test]
    fn waivers_suppress_and_count() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // pccs-lint: allow(hot-path-panic)\n    x.unwrap()\n}\n";
        let report = lint_source("crates/dram/src/a.rs", src);
        assert!(report.is_clean());
        assert_eq!(report.waived, 1);
        // A waiver for a different rule does not suppress.
        let src = "fn f(x: Option<u32>) -> u32 {\n    // pccs-lint: allow(nondeterminism)\n    x.unwrap()\n}\n";
        assert!(!lint_source("crates/dram/src/a.rs", src).is_clean());
        // Nor does a waiver two lines above the finding.
        let src = "fn f(x: Option<u32>) -> u32 {\n    // pccs-lint: allow(hot-path-panic)\n\n    x.unwrap()\n}\n";
        assert!(!lint_source("crates/dram/src/a.rs", src).is_clean());
    }

    #[test]
    fn strings_and_comments_never_trip_rules() {
        let src =
            "fn f() -> &'static str { \"call .unwrap() and panic!\" }\n// HashMap in a comment\n";
        assert!(rules_of("crates/dram/src/a.rs", src).is_empty());
    }
}
