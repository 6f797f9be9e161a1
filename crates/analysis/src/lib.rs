//! Repo-specific static analysis for the PCCS workspace: `pccs lint`.
//!
//! The simulators promise properties that neither rustc nor clippy
//! checks: hot paths never panic (a co-run sweep must not die mid-batch
//! on a malformed config), results are bit-identical across runs and
//! `--jobs` settings (nondeterministic iteration order or wall-clock reads
//! silently break profile caching and regression baselines), and every
//! published metric is in the one registry. This crate enforces those
//! invariants with a hand-rolled lexer ([`lexer`]) and a small rule
//! engine ([`rules`], [`workspace`]), because the build environment has
//! no registry access for `syn`-based tooling. Rustdoc coverage is left
//! to rustc: each library crate root carries
//! `#![warn(missing_docs, unreachable_pub)]`, and the clippy gate denies
//! warnings.
//!
//! Run it via `pccs lint [--root <path>]` or `scripts/check.sh`; it
//! always lints the whole tree. See [`rules`] for the rule table and the
//! `// pccs-lint: allow(<rule>)` waiver syntax.
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

#![warn(missing_docs, unreachable_pub)]

/// Per-crate module graph and cycle detection.
pub mod graph;
/// A hand-rolled Rust lexer, just deep enough for linting.
pub mod lexer;
/// Lint findings and the text report.
pub mod report;
/// The file-scoped lint rules and the engine that applies them.
pub mod rules;
/// The per-file symbol index (phase 1 of the workspace analysis).
pub mod symbols;
/// The cross-file workspace rules (phase 2).
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
        let report = workspace::analyze_root(root)
            .expect("workspace lints")
            .run();
        assert!(
            report.files_scanned > 50,
            "expected a real workspace walk, scanned {}",
            report.files_scanned
        );
    }

    #[test]
    fn missing_root_is_a_not_found_error() {
        let err = workspace::analyze_root(Path::new("/nonexistent-pccs-root")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
