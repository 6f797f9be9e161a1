//! Repo-specific static analysis for the PCCS workspace: `pccs-lint`.
//!
//! The simulators promise two properties no general-purpose tool checks:
//! hot paths never panic (a co-run sweep must not die mid-batch on a
//! malformed config) and results are bit-identical across runs and
//! `--jobs` settings (nondeterministic iteration order or wall-clock reads
//! silently break profile caching and regression baselines). This crate
//! enforces those invariants — plus rustdoc coverage and the expiry of
//! deprecated shims — with a hand-rolled lexer ([`lexer`]) and a
//! small rule engine ([`rules`]), because the build environment has no
//! registry access for `syn`-based tooling.
//!
//! Run it via `cargo run -p pccs-analysis --bin pccs-lint`, the `pccs lint`
//! CLI subcommand, or `scripts/check.sh`. See [`rules`] for the rule table
//! and the `// pccs-lint: allow(<rule>)` waiver syntax.
//!
//! # Example
//!
//! ```
//! use pccs_analysis::rules::lint_source;
//!
//! let report = lint_source(
//!     "crates/dram/src/example.rs",
//!     "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
//! );
//! assert_eq!(report.findings[0].rule, "hot-path-panic");
//! ```

/// Per-crate module graph and cycle detection.
pub mod graph;
/// A hand-rolled Rust lexer, just deep enough for linting.
pub mod lexer;
/// Lint findings and machine-readable reports.
pub mod report;
/// The file-scoped lint rules and the engine that applies them.
pub mod rules;
/// The per-file symbol index (phase 1 of the workspace analysis).
pub mod symbols;
/// The cross-file workspace rules (phase 2) and diff-aware linting.
pub mod workspace;

pub use report::{Finding, LintReport};
pub use rules::lint_source;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
/// Hidden directories and `target/` are skipped.
pub(crate) fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_rust_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `.rs` file under `<root>/crates` with the file-scoped
/// *and* workspace-scoped rules, returning the merged report. Paths in
/// findings are relative to `root`. Equivalent to
/// [`workspace::analyze_root`] followed by [`workspace::WorkspaceIndex::run`]
/// with default options.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree; a missing
/// `crates/` directory is reported as [`io::ErrorKind::NotFound`].
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    Ok(workspace::analyze_root(root)?.run(&workspace::LintOptions::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_walk_finds_this_crate() {
        // The analysis crate lives two levels below the repo root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap();
        let report = lint_workspace(root).expect("workspace lints");
        assert!(
            report.files_scanned > 50,
            "expected a real workspace walk, scanned {}",
            report.files_scanned
        );
    }

    #[test]
    fn missing_root_is_a_not_found_error() {
        let err = lint_workspace(Path::new("/nonexistent-pccs-root")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
