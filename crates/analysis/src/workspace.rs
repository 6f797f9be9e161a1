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
//!
//! [`WorkspaceIndex::analyze`]: crate::workspace::WorkspaceIndex::analyze
//! [`WorkspaceIndex::run`]: crate::workspace::WorkspaceIndex::run

use crate::graph;
use crate::lexer::lex;
use crate::report::{Finding, LintReport};
use crate::rules::{self, classify, waived_at, FileClass, RULE_NAMES};
use crate::symbols::{index_file, FileSymbols, Visibility};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose metric publishes must reconcile with `REQUIRED_METRICS`.
const METRICS_CRATES: &[&str] = &["telemetry", "dram", "sched", "serve", "soc"];

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
            });
        }
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        WorkspaceIndex { files }
    }

    /// Test support: removes `name` from every indexed `REQUIRED_METRICS`
    /// definition, proving `metrics-registry-drift` falsifiable without
    /// mutating the tree on disk.
    pub fn remove_required_metric(&mut self, name: &str) {
        for f in &mut self.files {
            f.symbols.required_metrics.retain(|rm| rm.name != name);
        }
    }

    /// Phase 2 over the full index: file rules + workspace rules,
    /// central waiver application, stale-waiver detection.
    pub fn run(&self) -> LintReport {
        let mut raw: Vec<Finding> = Vec::new();
        for f in &self.files {
            raw.extend(f.raw_findings.iter().cloned());
        }
        raw.extend(self.dead_pub_findings());
        raw.extend(self.drift_findings());
        raw.extend(self.cycle_findings());

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
        // (test code is outside every rule's jurisdiction).
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

        let mut report = LintReport {
            findings,
            files_scanned: self.files.len(),
            waived,
        };
        report.sort();
        report
    }

    /// `dead-pub-item`: `pub` items in library crates whose names occur
    /// nowhere beyond their own definition sites.
    fn dead_pub_findings(&self) -> Vec<Finding> {
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
            {
                continue;
            }
            for d in &f.symbols.defs {
                if d.vis != Visibility::Pub || d.in_test {
                    continue;
                }
                let refs = totals[d.name.as_str()] - def_counts[d.name.as_str()];
                if refs > 0 {
                    continue;
                }
                out.push(Finding {
                    rule: "dead-pub-item".to_owned(),
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
    /// the tree defines no `REQUIRED_METRICS`.
    fn drift_findings(&self) -> Vec<Finding> {
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
            if published_anywhere.contains(name) {
                continue;
            }
            out.push(Finding {
                rule: "metrics-registry-drift".to_owned(),
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
/// `analyze_root(root)?.run()` lints the whole tree with every rule, as
/// `pccs lint` does; paths in findings are relative to `root`.
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
        let report = index.run();
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
        let report = index.run();
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
        let report = index.run();
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
        let report = index.run();
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
        let report = index.run();
        assert!(rule_findings(&report, "metrics-registry-drift").is_empty());
    }

    #[test]
    fn drift_is_skipped_without_a_registry() {
        let index = index_of(&[(
            "crates/dram/src/stats.rs",
            "fn publish() { metrics::add(\"dram.unlisted\", 1); }\n",
        )]);
        let report = index.run();
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
        assert!(rule_findings(&index.run(), "metrics-registry-drift").is_empty());
        index.remove_required_metric("dram.cycles");
        let drift = rule_findings(&index.run(), "metrics-registry-drift");
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
        let report = index.run();
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
    fn workspace_findings_are_waivable_at_their_anchor() {
        let index = index_of(&[(
            "crates/dram/src/lib.rs",
            "/// D.\n// pccs-lint: allow(dead-pub-item)\npub fn old_api() {}\n",
        )]);
        let report = index.run();
        assert!(rule_findings(&report, "dead-pub-item").is_empty());
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
        let report = index.run();
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
        let report = index.run();
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
        let report = index.run();
        assert!(rule_findings(&report, "stale-waiver").is_empty());
    }
}
