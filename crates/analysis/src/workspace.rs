//! Phase 2 of the workspace analysis: cross-file lint rules.
//!
//! The per-file rules in [`crate::rules`] prove their findings from one
//! token stream. The rules here need the whole tree, so linting runs in
//! two phases: phase 1 ([`WorkspaceIndex::analyze`]) lexes every file
//! and distils it into a [`crate::symbols::FileSymbols`] record plus the
//! raw (pre-waiver) file-scoped findings; phase 2 ([`WorkspaceIndex::run`])
//! executes the cross-file rules over the index, applies waivers
//! centrally, and then checks the waivers themselves for staleness.
//!
//! # Workspace rules
//!
//! | rule | what it flags |
//! |------|---------------|
//! | `dead-pub-item` | a `pub` item in a library crate whose name is referenced nowhere else in the workspace (tests, bins, and examples included). Reference counting is name-based: a shared name can only suppress a finding, never invent one. |
//! | `metrics-registry-drift` | a metric name published in `telemetry`/`dram`/`sched`/`serve`/`soc` that is absent from `pccs_bench::REQUIRED_METRICS` — and the reverse, a `REQUIRED_METRICS` entry no workspace code publishes. Names assembled at runtime are declared with a `pccs-lint: publishes(name, …)` comment directive. Skipped when the tree has no `REQUIRED_METRICS` definition. |
//! | `stale-waiver` | an `allow(rule)` waiver directive that suppresses zero findings, or names an unknown rule. Waivable itself (one level — no second-order staleness check). |
//! | `dependency-cycle` | a strongly-connected component among a crate's top-level modules; every `use` edge inside the cycle is its own finding site. |
//! | `deprecated-shim-expiry` | any `#[deprecated]` attribute in library non-test code — the workspace policy keeps shims one release, so a marker that survives into the next PR is expired. |
//!
//! # Diff-aware mode
//!
//! [`lint_changed`] lexes only the changed files' crates (plus the bench
//! registry) and filters findings to changed files. Reference counting
//! against unlexed files falls back to a conservative word-boundary text
//! search, which can only over-count references — so the diff-aware
//! report is always a strict subset of the full run.
//!
//! [`WorkspaceIndex::analyze`]: crate::workspace::WorkspaceIndex::analyze
//! [`WorkspaceIndex::run`]: crate::workspace::WorkspaceIndex::run
//! [`lint_changed`]: crate::workspace::lint_changed

use crate::graph;
use crate::lexer::lex;
use crate::report::{Finding, LintReport, Scope};
use crate::rules::{self, classify, rule_scope, FileClass, RULE_NAMES};
use crate::symbols::{index_file, FileSymbols, Visibility};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose metric publishes must reconcile with `REQUIRED_METRICS`.
const METRICS_CRATES: &[&str] = &["telemetry", "dram", "sched", "serve", "soc"];

/// Filters applied to a lint run (the CLI's `--rule` / `--scope`).
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Keep only findings of this rule.
    pub rule: Option<String>,
    /// Keep only findings of this scope.
    pub scope: Option<Scope>,
}

/// One analyzed file: classification, symbols, raw findings, waivers.
#[derive(Debug, Clone)]
struct AnalyzedFile {
    rel_path: String,
    class: FileClass,
    symbols: FileSymbols,
    /// Raw (pre-waiver) file-scoped findings.
    raw_findings: Vec<Finding>,
    /// `line -> waived rules` from `allow(...)` directives.
    waivers: BTreeMap<u32, BTreeSet<String>>,
    /// `line -> declared metric names` from `publishes(...)` directives.
    declared_publishes: BTreeMap<u32, BTreeSet<String>>,
    /// Line spans covered by `#[cfg(test)]` regions.
    test_spans: Vec<(u32, u32)>,
    lines: u32,
}

impl AnalyzedFile {
    fn in_test_span(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(s, e)| s <= line && line <= e)
    }
}

/// The phase-1 output: every analyzed file, sorted by path.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceIndex {
    files: Vec<AnalyzedFile>,
}

/// If `rule` is waived for a finding on `line`, returns the directive
/// line that waives it (same line or the line above).
fn waived_at(waivers: &BTreeMap<u32, BTreeSet<String>>, rule: &str, line: u32) -> Option<u32> {
    [line, line.saturating_sub(1)]
        .into_iter()
        .find(|l| waivers.get(l).is_some_and(|set| set.contains(rule)))
}

/// Word-boundary substring search: `needle` appears in `haystack` with
/// non-identifier characters (or edges) on both sides. Used for
/// conservative reference counting against unlexed files in diff-aware
/// mode — every tokenized identifier occurrence is also a word-boundary
/// text occurrence, so this never under-counts.
fn appears_as_word(haystack: &str, needle: &str) -> bool {
    if needle.is_empty() {
        return false;
    }
    let is_word = |b: u8| b == b'_' || b.is_ascii_alphanumeric();
    let bytes = haystack.as_bytes();
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(needle) {
        let at = start + pos;
        let end = at + needle.len();
        let before_ok = at == 0 || !is_word(bytes[at - 1]);
        let after_ok = end >= bytes.len() || !is_word(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

impl WorkspaceIndex {
    /// Phase 1: lexes and indexes `(repo-relative path, source)` pairs.
    /// Paths that [`classify`] ignores are skipped.
    pub fn analyze(sources: &[(String, String)]) -> Self {
        let mut files = Vec::new();
        for (rel, src) in sources {
            let Some(class) = classify(rel) else {
                continue;
            };
            let lexed = lex(src);
            let mask = rules::test_mask(&lexed.tokens);
            let symbols = index_file(&lexed, &mask);
            let raw_findings = rules::file_findings(&class, rel, &lexed, &mask);
            let mut test_spans: Vec<(u32, u32)> = Vec::new();
            let mut open: Option<(u32, u32)> = None;
            for (k, tok) in lexed.tokens.iter().enumerate() {
                if mask[k] {
                    open = Some(match open {
                        None => (tok.line, tok.line),
                        Some((s, _)) => (s, tok.line),
                    });
                } else if let Some(span) = open.take() {
                    test_spans.push(span);
                }
            }
            if let Some(span) = open {
                test_spans.push(span);
            }
            files.push(AnalyzedFile {
                rel_path: rel.clone(),
                class,
                symbols,
                raw_findings,
                waivers: lexed.waivers,
                declared_publishes: lexed.publishes,
                test_spans,
                lines: lexed.lines,
            });
        }
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        WorkspaceIndex { files }
    }

    /// Phase 2 over the full index: file rules + workspace rules,
    /// central waiver application, stale-waiver detection, filtering.
    pub fn run(&self, opts: &LintOptions) -> LintReport {
        self.run_filtered(opts, None, &|_| false)
    }

    /// Test support: removes `name` from every indexed `REQUIRED_METRICS`
    /// definition, proving `metrics-registry-drift` falsifiable without
    /// mutating the tree on disk.
    pub fn remove_required_metric(&mut self, name: &str) {
        for f in &mut self.files {
            f.symbols.required_metrics.retain(|rm| rm.name != name);
        }
    }

    /// The shared phase-2 engine. `changed` restricts the report to the
    /// given files (diff-aware mode); `external_ref` answers "does this
    /// name occur in a file outside the index" for conservative
    /// reference counting in that mode.
    fn run_filtered(
        &self,
        opts: &LintOptions,
        changed: Option<&BTreeSet<String>>,
        external_ref: &dyn Fn(&str) -> bool,
    ) -> LintReport {
        let changed_mode = changed.is_some();
        let mut raw: Vec<Finding> = Vec::new();
        for f in &self.files {
            raw.extend(f.raw_findings.iter().cloned());
        }
        raw.extend(self.dead_pub_findings(changed, external_ref));
        raw.extend(self.drift_findings(changed, external_ref));
        raw.extend(self.cycle_findings());
        raw.extend(self.shim_expiry_findings());

        let path_idx: BTreeMap<&str, usize> = self
            .files
            .iter()
            .enumerate()
            .map(|(i, f)| (f.rel_path.as_str(), i))
            .collect();

        // Central waiver application, tracking which directive each
        // suppression used so staleness is decidable afterwards.
        let mut used: BTreeSet<(usize, u32, &str)> = BTreeSet::new();
        let mut findings = Vec::new();
        let mut waived = 0usize;
        for f in raw {
            let idx = path_idx[f.file.as_str()];
            if let Some(dline) = waived_at(&self.files[idx].waivers, &f.rule, f.line) {
                waived += 1;
                let rule: &str = RULE_NAMES
                    .iter()
                    .copied()
                    .find(|r| *r == f.rule)
                    .unwrap_or("");
                used.insert((idx, dline, rule));
                continue;
            }
            findings.push(f);
        }

        // Stale-waiver pass. Directives in test paths/regions are exempt
        // (test code is outside every rule's jurisdiction). In diff-aware
        // mode only file-scoped rules are decidable — a workspace-rule
        // waiver may be "used" by a finding the partial index cannot see.
        for (idx, af) in self.files.iter().enumerate() {
            if af.class.is_test_path {
                continue;
            }
            for (&dline, dir_rules) in &af.waivers {
                if af.in_test_span(dline) || af.in_test_span(dline + 1) {
                    continue;
                }
                for rule in dir_rules {
                    if rule == "stale-waiver" {
                        // Applied below; staleness is checked one level only.
                        continue;
                    }
                    let known = RULE_NAMES.contains(&rule.as_str());
                    if known && changed_mode && rule_scope(rule) == Scope::Workspace {
                        continue;
                    }
                    if known && used.contains(&(idx, dline, rule.as_str())) {
                        continue;
                    }
                    let message = if known {
                        format!("waiver `allow({rule})` suppresses no findings; delete it")
                    } else {
                        format!("waiver names unknown rule `{rule}`")
                    };
                    let stale = Finding {
                        rule: "stale-waiver".to_owned(),
                        scope: Scope::Workspace,
                        file: af.rel_path.clone(),
                        line: dline,
                        message,
                    };
                    if waived_at(&af.waivers, "stale-waiver", dline).is_some() {
                        waived += 1;
                    } else {
                        findings.push(stale);
                    }
                }
            }
        }

        if let Some(rule) = &opts.rule {
            findings.retain(|f| &f.rule == rule);
        }
        if let Some(scope) = opts.scope {
            findings.retain(|f| f.scope == scope);
        }
        if let Some(changed) = changed {
            findings.retain(|f| changed.contains(&f.file));
        }

        let mut report = LintReport {
            findings,
            files_scanned: self.files.len(),
            lines_scanned: self.files.iter().map(|f| f.lines as usize).sum(),
            waived,
        };
        report.sort();
        report
    }

    /// `dead-pub-item`: `pub` items in library crates whose names occur
    /// nowhere beyond their own definition sites. In diff-aware mode
    /// (`changed` is `Some`) candidates outside the changed set are
    /// skipped up front: their findings would be filtered out anyway, and
    /// skipping them avoids the workspace-wide reference search — the
    /// bulk of a small diff's cost.
    fn dead_pub_findings(
        &self,
        changed: Option<&BTreeSet<String>>,
        external_ref: &dyn Fn(&str) -> bool,
    ) -> Vec<Finding> {
        let lib_crates: BTreeSet<&str> = self
            .files
            .iter()
            .filter(|f| f.rel_path == format!("crates/{}/src/lib.rs", f.class.crate_name))
            .map(|f| f.class.crate_name.as_str())
            .collect();
        let mut def_counts: BTreeMap<&str, usize> = BTreeMap::new();
        let mut totals: BTreeMap<&str, usize> = BTreeMap::new();
        for f in &self.files {
            for d in &f.symbols.defs {
                *def_counts.entry(d.name.as_str()).or_insert(0) += 1;
            }
            for (name, count) in &f.symbols.ident_counts {
                *totals.entry(name.as_str()).or_insert(0) += count;
            }
        }
        let mut out = Vec::new();
        for f in &self.files {
            if f.class.is_test_path
                || f.class.is_bin
                || !lib_crates.contains(f.class.crate_name.as_str())
                || changed.is_some_and(|c| !c.contains(&f.rel_path))
            {
                continue;
            }
            for d in &f.symbols.defs {
                if d.vis != Visibility::Pub || d.in_test {
                    continue;
                }
                let refs = totals[d.name.as_str()] - def_counts[d.name.as_str()];
                if refs > 0 || external_ref(&d.name) {
                    continue;
                }
                out.push(Finding {
                    rule: "dead-pub-item".to_owned(),
                    scope: Scope::Workspace,
                    file: f.rel_path.clone(),
                    line: d.line,
                    message: format!(
                        "pub {} `{}` is referenced nowhere else in the workspace \
                         (tests and bins included); delete it or narrow it to pub(crate)",
                        d.kind.as_str(),
                        d.name
                    ),
                });
            }
        }
        out
    }

    /// `metrics-registry-drift`, both directions. Skipped entirely when
    /// the tree defines no `REQUIRED_METRICS`. In diff-aware mode the
    /// registry-side direction is only evaluated when the registry file
    /// itself changed — its findings anchor there, so they would be
    /// filtered out otherwise and the per-entry reference searches are
    /// pure waste.
    fn drift_findings(
        &self,
        changed: Option<&BTreeSet<String>>,
        external_ref: &dyn Fn(&str) -> bool,
    ) -> Vec<Finding> {
        let mut required: BTreeMap<&str, (&str, u32)> = BTreeMap::new();
        for f in &self.files {
            if f.class.is_test_path {
                continue;
            }
            for rm in &f.symbols.required_metrics {
                required
                    .entry(rm.name.as_str())
                    .or_insert((f.rel_path.as_str(), rm.line));
            }
        }
        if required.is_empty() {
            return Vec::new();
        }
        // Published names: literal call sites plus declared directives,
        // non-test code only. `published_anywhere` spans all crates (an
        // entry published by `experiments` is not drift); the per-site
        // list is restricted to the five metrics-owning crates.
        let mut published_anywhere: BTreeSet<&str> = BTreeSet::new();
        let mut sites: Vec<(&str, &str, u32)> = Vec::new();
        for f in &self.files {
            if f.class.is_test_path {
                continue;
            }
            let owned = METRICS_CRATES.contains(&f.class.crate_name.as_str());
            for p in &f.symbols.publishes {
                if p.in_test {
                    continue;
                }
                published_anywhere.insert(p.name.as_str());
                if owned {
                    sites.push((p.name.as_str(), f.rel_path.as_str(), p.line));
                }
            }
            for (&line, names) in &f.declared_publishes {
                if f.in_test_span(line) {
                    continue;
                }
                for name in names {
                    published_anywhere.insert(name.as_str());
                    if owned {
                        sites.push((name.as_str(), f.rel_path.as_str(), line));
                    }
                }
            }
        }
        let mut out = Vec::new();
        for (name, file, line) in sites {
            if !required.contains_key(name) {
                out.push(Finding {
                    rule: "metrics-registry-drift".to_owned(),
                    scope: Scope::Workspace,
                    file: file.to_owned(),
                    line,
                    message: format!(
                        "metric `{name}` is published here but absent from \
                         pccs_bench::REQUIRED_METRICS; register it or rename"
                    ),
                });
            }
        }
        for (name, (file, line)) in required {
            if changed.is_some_and(|c| !c.contains(file)) {
                continue;
            }
            if published_anywhere.contains(name) || external_ref(name) {
                continue;
            }
            out.push(Finding {
                rule: "metrics-registry-drift".to_owned(),
                scope: Scope::Workspace,
                file: file.to_owned(),
                line,
                message: format!(
                    "REQUIRED_METRICS entry `{name}` is published nowhere in the \
                     workspace; drop the entry or restore the publish"
                ),
            });
        }
        out
    }

    /// `dependency-cycle`: per-crate module-graph SCCs, one finding per
    /// participating `use` edge.
    fn cycle_findings(&self) -> Vec<Finding> {
        let mut by_crate: BTreeMap<&str, Vec<(&str, &str, &FileSymbols)>> = BTreeMap::new();
        for f in &self.files {
            if f.class.is_test_path || f.class.is_bin {
                continue;
            }
            let prefix_len = "crates/".len() + f.class.crate_name.len() + 1;
            let Some(inner) = f.rel_path.get(prefix_len..) else {
                continue;
            };
            by_crate
                .entry(f.class.crate_name.as_str())
                .or_default()
                .push((f.rel_path.as_str(), inner, &f.symbols));
        }
        let mut out = Vec::new();
        for (crate_name, files) in by_crate {
            let edges = graph::crate_edges(&files);
            for cycle in graph::cycles(&edges) {
                let ring = cycle.modules.join(" <-> ");
                for e in &cycle.edges {
                    out.push(Finding {
                        rule: "dependency-cycle".to_owned(),
                        scope: Scope::Workspace,
                        file: e.file.clone(),
                        line: e.line,
                        message: format!(
                            "module cycle in crate `{crate_name}` ({ring}): this \
                             use edge `{}` -> `{}` closes the loop; invert it or \
                             extract the shared part into a new module",
                            e.from, e.to
                        ),
                    });
                }
            }
        }
        out
    }

    /// `deprecated-shim-expiry`: any surviving `#[deprecated]` marker in
    /// library non-test code.
    fn shim_expiry_findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for f in &self.files {
            if f.class.is_test_path || f.class.is_bin {
                continue;
            }
            for &line in &f.symbols.deprecated_attrs {
                out.push(Finding {
                    rule: "deprecated-shim-expiry".to_owned(),
                    scope: Scope::Workspace,
                    file: f.rel_path.clone(),
                    line,
                    message: "#[deprecated] shim has outlived its one-release grace \
                              period; delete the shim and migrate remaining callers"
                        .to_owned(),
                });
            }
        }
        out
    }
}

/// Collects `(repo-relative path, absolute path)` for every `.rs` file
/// under `<root>/crates`, sorted. A missing `crates/` directory is
/// [`io::ErrorKind::NotFound`].
fn workspace_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let crates = root.join("crates");
    if !crates.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no crates/ directory under {}", root.display()),
        ));
    }
    let mut paths = Vec::new();
    crate::collect_rust_files(&crates, &mut paths)?;
    paths
        .into_iter()
        .map(|p| {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            Ok((rel, p))
        })
        .collect()
}

/// Full-tree analysis: phase 1 over every file under `<root>/crates`.
/// `analyze_root(root)?.run(&LintOptions::default())` lints the whole
/// tree with every rule, as `pccs lint` does without filters; paths in
/// findings are relative to `root`.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree; a missing
/// `crates/` directory is reported as [`io::ErrorKind::NotFound`].
pub fn analyze_root(root: &Path) -> io::Result<WorkspaceIndex> {
    let mut sources = Vec::new();
    for (rel, path) in workspace_files(root)? {
        sources.push((rel, fs::read_to_string(&path)?));
    }
    Ok(WorkspaceIndex::analyze(&sources))
}

/// Diff-aware lint: analyzes only the crates containing `changed` files
/// (plus the bench registry, which anchors `metrics-registry-drift`),
/// and reports only findings in changed files — a strict subset of the
/// full run, at a fraction of its cost.
///
/// `changed` holds repo-relative paths (as from `git diff --name-only`);
/// entries outside `crates/**/*.rs` are ignored. Files outside the
/// lexed set are consulted lazily, via word-boundary text search, only
/// when a candidate finding needs workspace-wide reference evidence.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_changed(root: &Path, changed: &[String], opts: &LintOptions) -> io::Result<LintReport> {
    let changed_set: BTreeSet<String> = changed
        .iter()
        .map(|p| p.replace('\\', "/"))
        .filter(|p| classify(p).is_some())
        .collect();
    if changed_set.is_empty() {
        return Ok(LintReport::default());
    }
    let changed_crates: BTreeSet<String> = changed_set
        .iter()
        .filter_map(|p| classify(p))
        .map(|c| c.crate_name)
        .collect();
    let mut lexed_sources = Vec::new();
    let mut unlexed_paths = Vec::new();
    for (rel, path) in workspace_files(root)? {
        let Some(class) = classify(&rel) else {
            continue;
        };
        let in_scope =
            changed_crates.contains(&class.crate_name) || rel == "crates/bench/src/lib.rs";
        if in_scope {
            lexed_sources.push((rel, fs::read_to_string(&path)?));
        } else {
            unlexed_paths.push(path);
        }
    }
    let index = WorkspaceIndex::analyze(&lexed_sources);
    // Unlexed contents load lazily: most diffs produce no candidate that
    // needs workspace-wide reference evidence, and skipping the reads is
    // most of lint-changed's speed advantage.
    let cache: RefCell<Option<Vec<String>>> = RefCell::new(None);
    let external_ref = |needle: &str| -> bool {
        let mut slot = cache.borrow_mut();
        let contents = slot.get_or_insert_with(|| {
            unlexed_paths
                .iter()
                .filter_map(|p| fs::read_to_string(p).ok())
                .collect()
        });
        contents.iter().any(|src| appears_as_word(src, needle))
    };
    Ok(index.run_filtered(opts, Some(&changed_set), &external_ref))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_of(files: &[(&str, &str)]) -> WorkspaceIndex {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| ((*p).to_owned(), (*s).to_owned()))
            .collect();
        WorkspaceIndex::analyze(&sources)
    }

    fn rule_findings(report: &LintReport, rule: &str) -> Vec<(String, u32)> {
        report
            .findings
            .iter()
            .filter(|f| f.rule == rule)
            .map(|f| (f.file.clone(), f.line))
            .collect()
    }

    #[test]
    fn dead_pub_item_fires_only_on_unreferenced_pub_items() {
        let index = index_of(&[
            (
                "crates/leaf/src/lib.rs",
                "/// D.\npub fn used() {}\n/// D.\npub fn orphan() {}\npub(crate) fn internal() {}\n",
            ),
            ("crates/app/src/lib.rs", "/// D.\npub fn app() { used(); }\napp_entry!(app);\n"),
        ]);
        let report = index.run(&LintOptions::default());
        let dead = rule_findings(&report, "dead-pub-item");
        // `orphan` is dead; `used` is referenced from app; `internal` is
        // pub(crate); `app` is referenced by the macro invocation.
        assert_eq!(dead, vec![("crates/leaf/src/lib.rs".to_owned(), 4)]);
    }

    #[test]
    fn dead_pub_references_from_tests_count() {
        let index = index_of(&[
            (
                "crates/leaf/src/lib.rs",
                "/// D.\npub fn tested_only() {}\n",
            ),
            (
                "crates/leaf/tests/api.rs",
                "#[test]\nfn t() { pccs_leaf::tested_only(); }\n",
            ),
        ]);
        let report = index.run(&LintOptions::default());
        assert!(rule_findings(&report, "dead-pub-item").is_empty());
    }

    #[test]
    fn dead_pub_skips_bin_only_crates_and_test_regions() {
        let index = index_of(&[
            // No src/lib.rs: a binary-only crate has no library API.
            (
                "crates/tool/src/main.rs",
                "pub fn helper() {}\nfn main() {}\n",
            ),
            (
                "crates/leaf/src/lib.rs",
                "#[cfg(test)]\nmod tests {\n    pub fn fixture() {}\n}\n",
            ),
        ]);
        let report = index.run(&LintOptions::default());
        assert!(rule_findings(&report, "dead-pub-item").is_empty());
    }

    const BENCH_SRC: &str = "/// R.\npub const REQUIRED_METRICS: &[&str] = &[\n    \"dram.cycles\",\n    \"ghost.metric\",\n];\n";

    #[test]
    fn drift_flags_both_directions() {
        let index = index_of(&[
            ("crates/bench/src/lib.rs", BENCH_SRC),
            (
                "crates/dram/src/stats.rs",
                "fn publish() {\n    metrics::add(\"dram.cycles\", 1);\n    metrics::add(\"dram.rogue\", 1);\n}\n",
            ),
        ]);
        let report = index.run(&LintOptions::default());
        let drift = rule_findings(&report, "metrics-registry-drift");
        // `dram.rogue` published-but-unregistered (at the publish site);
        // `ghost.metric` registered-but-unpublished (at the entry line).
        assert_eq!(
            drift,
            vec![
                ("crates/bench/src/lib.rs".to_owned(), 4),
                ("crates/dram/src/stats.rs".to_owned(), 3),
            ]
        );
    }

    #[test]
    fn drift_accepts_declared_publishes_and_skips_foreign_crates() {
        let index = index_of(&[
            (
                "crates/bench/src/lib.rs",
                "/// R.\npub const REQUIRED_METRICS: &[&str] = &[\"serve.dyn\", \"sweep.cells\"];\n",
            ),
            (
                "crates/serve/src/slo.rs",
                "fn publish(prefix: &str) {\n    // pccs-lint: publishes(serve.dyn)\n    emit(prefix);\n}\n",
            ),
            // experiments is outside the five metrics crates: its publish
            // satisfies direction A without being drift-checked itself.
            (
                "crates/experiments/src/runner.rs",
                "fn f() { metrics::add(\"sweep.cells\", 1); metrics::add(\"sweep.extra\", 1); }\n",
            ),
        ]);
        let report = index.run(&LintOptions::default());
        assert!(rule_findings(&report, "metrics-registry-drift").is_empty());
    }

    #[test]
    fn drift_is_skipped_without_a_registry() {
        let index = index_of(&[(
            "crates/dram/src/stats.rs",
            "fn publish() { metrics::add(\"dram.unlisted\", 1); }\n",
        )]);
        let report = index.run(&LintOptions::default());
        assert!(rule_findings(&report, "metrics-registry-drift").is_empty());
    }

    #[test]
    fn drift_is_falsifiable_by_removing_a_registry_entry() {
        let mut index = index_of(&[
            (
                "crates/bench/src/lib.rs",
                "/// R.\npub const REQUIRED_METRICS: &[&str] = &[\"dram.bytes\", \"dram.cycles\"];\n",
            ),
            (
                "crates/dram/src/stats.rs",
                "fn publish() { metrics::add(\"dram.cycles\", 1); metrics::add(\"dram.bytes\", 1); }\n",
            ),
        ]);
        assert!(rule_findings(
            &index.run(&LintOptions::default()),
            "metrics-registry-drift"
        )
        .is_empty());
        index.remove_required_metric("dram.cycles");
        let drift = rule_findings(
            &index.run(&LintOptions::default()),
            "metrics-registry-drift",
        );
        assert_eq!(drift, vec![("crates/dram/src/stats.rs".to_owned(), 1)]);
    }

    #[test]
    fn dependency_cycle_reports_every_edge_site() {
        let index = index_of(&[
            ("crates/x/src/lib.rs", "pub mod a;\npub mod b;\n"),
            (
                "crates/x/src/a.rs",
                "use crate::b::B;\n/// D.\npub struct A;\n",
            ),
            (
                "crates/x/src/b.rs",
                "use crate::a::A;\n/// D.\npub struct B;\n",
            ),
        ]);
        let report = index.run(&LintOptions::default());
        let cycle = rule_findings(&report, "dependency-cycle");
        assert_eq!(
            cycle,
            vec![
                ("crates/x/src/a.rs".to_owned(), 1),
                ("crates/x/src/b.rs".to_owned(), 1),
            ]
        );
    }

    #[test]
    fn shim_expiry_flags_surviving_deprecated_markers() {
        let index = index_of(&[(
            "crates/dram/src/controller.rs",
            "/// D.\n#[deprecated(note = \"kept one release\")]\npub fn old_api() {}\nfn live() { old_api(); }\n",
        )]);
        let report = index.run(&LintOptions::default());
        assert_eq!(
            rule_findings(&report, "deprecated-shim-expiry"),
            vec![("crates/dram/src/controller.rs".to_owned(), 2)]
        );
    }

    #[test]
    fn workspace_findings_are_waivable_at_their_anchor() {
        let index = index_of(&[(
            "crates/dram/src/controller.rs",
            "/// D.\n// pccs-lint: allow(deprecated-shim-expiry)\n#[deprecated]\npub fn old_api() {}\nfn live() { old_api(); }\n",
        )]);
        let report = index.run(&LintOptions::default());
        assert!(rule_findings(&report, "deprecated-shim-expiry").is_empty());
        assert_eq!(report.waived, 1);
        // The waiver is used, so it is not stale.
        assert!(rule_findings(&report, "stale-waiver").is_empty());
    }

    #[test]
    fn stale_and_unknown_waivers_are_findings() {
        let index = index_of(&[(
            "crates/dram/src/quiet.rs",
            "// pccs-lint: allow(hot-path-panic)\nfn fine() {}\n// pccs-lint: allow(no-such-rule)\nfn also_fine() {}\n",
        )]);
        let report = index.run(&LintOptions::default());
        let stale = rule_findings(&report, "stale-waiver");
        assert_eq!(
            stale,
            vec![
                ("crates/dram/src/quiet.rs".to_owned(), 1),
                ("crates/dram/src/quiet.rs".to_owned(), 3),
            ]
        );
        let messages: Vec<&str> = report
            .findings
            .iter()
            .filter(|f| f.rule == "stale-waiver")
            .map(|f| f.message.as_str())
            .collect();
        assert!(messages[0].contains("suppresses no findings"));
        assert!(messages[1].contains("unknown rule"));
    }

    #[test]
    fn stale_waiver_is_itself_waivable_one_level() {
        let index = index_of(&[(
            "crates/dram/src/quiet.rs",
            "// pccs-lint: allow(hot-path-panic, stale-waiver)\nfn fine() {}\n",
        )]);
        let report = index.run(&LintOptions::default());
        assert!(rule_findings(&report, "stale-waiver").is_empty());
        assert_eq!(report.waived, 1);
    }

    #[test]
    fn waivers_in_test_code_are_never_stale() {
        let index = index_of(&[
            (
                "crates/dram/tests/probe.rs",
                "// pccs-lint: allow(hot-path-panic)\nfn t() {}\n",
            ),
            (
                "crates/dram/src/lib.rs",
                "#[cfg(test)]\nmod tests {\n    // pccs-lint: allow(nondeterminism)\n    fn t() {}\n}\n",
            ),
        ]);
        let report = index.run(&LintOptions::default());
        assert!(rule_findings(&report, "stale-waiver").is_empty());
    }

    #[test]
    fn rule_and_scope_filters_apply() {
        let index = index_of(&[(
            "crates/dram/src/bad.rs",
            "/// D.\n#[deprecated]\npub fn shim() {}\nfn f(x: Option<u32>) -> u32 { shim(); x.unwrap() }\n",
        )]);
        let all = index.run(&LintOptions::default());
        assert_eq!(all.per_rule()["hot-path-panic"], 1);
        assert_eq!(all.per_rule()["deprecated-shim-expiry"], 1);
        let only_expiry = index.run(&LintOptions {
            rule: Some("deprecated-shim-expiry".to_owned()),
            scope: None,
        });
        assert_eq!(only_expiry.findings.len(), 1);
        let file_only = index.run(&LintOptions {
            rule: None,
            scope: Some(Scope::File),
        });
        assert!(file_only.findings.iter().all(|f| f.scope == Scope::File));
        assert!(file_only.per_rule().contains_key("hot-path-panic"));
    }

    #[test]
    fn word_boundary_search_is_conservative_but_bounded() {
        assert!(appears_as_word("let x = orphan();", "orphan"));
        assert!(appears_as_word("\"orphan\"", "orphan"));
        assert!(!appears_as_word("let x = orphanage();", "orphan"));
        assert!(!appears_as_word("let x = my_orphan;", "orphan"));
        assert!(appears_as_word("dram.cycles", "dram.cycles"));
        assert!(!appears_as_word("", "orphan"));
    }
}
