//! Phase 1 of the workspace analysis: the per-file symbol index.
//!
//! [`index_file`] distils one lexed file into the facts the workspace
//! rules ([`crate::workspace`]) need: item definitions with visibility,
//! identifier occurrence counts (for `dead-pub-item` reference counting),
//! metric-name string literals at `metrics::` publish call sites and the
//! `REQUIRED_METRICS` registry entries (for `metrics-registry-drift`),
//! and `use` paths (for the module graph in [`crate::graph`]).
//!
//! The index is name-based, not a resolver: two items sharing a name
//! alias each other's references. For linting that errs in the safe
//! direction — a shared name can only *suppress* a dead-pub finding,
//! never invent one — which is the right bias for a CI gate.
//!
//! [`index_file`]: crate::symbols::index_file

use crate::lexer::{LexedFile, Token, TokenKind};
use crate::rules::METRICS_PUBLISH_FNS;
use std::collections::BTreeMap;

/// What kind of item a definition introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free function, method, or trait method).
    Fn,
    /// `struct`.
    Struct,
    /// `enum`.
    Enum,
    /// `trait`.
    Trait,
    /// `mod` (inline or file-backed declaration).
    Mod,
    /// `type` alias (free or associated).
    TypeAlias,
    /// `const` item.
    Const,
    /// `static` item.
    Static,
    /// `union`.
    Union,
}

impl ItemKind {
    /// Maps an item keyword to its kind; `None` for non-item keywords.
    fn from_keyword(kw: &str) -> Option<Self> {
        Some(match kw {
            "fn" => ItemKind::Fn,
            "struct" => ItemKind::Struct,
            "enum" => ItemKind::Enum,
            "trait" => ItemKind::Trait,
            "mod" => ItemKind::Mod,
            "type" => ItemKind::TypeAlias,
            "const" => ItemKind::Const,
            "static" => ItemKind::Static,
            "union" => ItemKind::Union,
            _ => return None,
        })
    }

    /// The keyword, for messages (`fn`, `struct`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            ItemKind::Fn => "fn",
            ItemKind::Struct => "struct",
            ItemKind::Enum => "enum",
            ItemKind::Trait => "trait",
            ItemKind::Mod => "mod",
            ItemKind::TypeAlias => "type",
            ItemKind::Const => "const",
            ItemKind::Static => "static",
            ItemKind::Union => "union",
        }
    }
}

/// Item visibility, at the granularity the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// `pub` — workspace-visible public API.
    Pub,
    /// `pub(crate)` / `pub(super)` / `pub(in …)` — crate-internal.
    Restricted,
    /// No visibility keyword.
    Private,
}

/// One item definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemDef {
    /// The item's name.
    pub name: String,
    /// What the item is.
    pub kind: ItemKind,
    /// Its visibility.
    pub vis: Visibility,
    /// 1-based line of the item keyword.
    pub line: u32,
    /// Whether the definition sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// One `metrics::add/observe_max/counter/gauge("name", …)` call site with
/// a literal metric name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricPublish {
    /// The metric name literal.
    pub name: String,
    /// 1-based line of the call.
    pub line: u32,
    /// Whether the call sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// One entry of a `REQUIRED_METRICS` array literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequiredMetric {
    /// The metric name.
    pub name: String,
    /// 1-based line of the entry (drift findings anchor here).
    pub line: u32,
}

/// Where a `use` path starts, which decides how the module graph
/// resolves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UseKind {
    /// `use crate::…` — absolute within the defining crate.
    Crate,
    /// `use super::…` with the given number of `super` segments.
    Super(usize),
    /// `use self::…` — relative to the current module.
    SelfMod,
    /// Any other leading segment (external crate, std, 2018 uniform
    /// path) — never a module-graph edge.
    External,
}

/// One `use` declaration, reduced to what the module graph needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsePath {
    /// How the path starts.
    pub kind: UseKind,
    /// The first path segment(s) after the prefix — one for
    /// `use crate::foo::…`, several for a group `use crate::{a, b::c}`.
    pub firsts: Vec<String>,
    /// 1-based line of the `use` keyword.
    pub line: u32,
    /// Whether the declaration sits inside a `#[cfg(test)]` region —
    /// test imports must not create module-graph edges, or two modules'
    /// tests importing each other would fake a dependency cycle.
    pub in_test: bool,
}

/// The symbol-index view of one file (phase-1 output).
#[derive(Debug, Clone, Default)]
pub struct FileSymbols {
    /// Every item definition, in source order.
    pub defs: Vec<ItemDef>,
    /// Occurrences of each identifier token, including keywords and
    /// test regions (dead-pub counts references *anywhere*, tests
    /// included).
    pub ident_counts: BTreeMap<String, usize>,
    /// Metric publish call sites with literal names.
    pub publishes: Vec<MetricPublish>,
    /// Entries of a `REQUIRED_METRICS` array defined in this file.
    pub required_metrics: Vec<RequiredMetric>,
    /// `use` declarations.
    pub uses: Vec<UsePath>,
}

/// Modifier keywords that may sit between a visibility and the item
/// keyword (`pub const unsafe extern "C" fn …`). String ABI literals are
/// handled separately by token kind.
const ITEM_MODIFIERS: &[&str] = &["unsafe", "async", "extern", "default", "const"];

/// Builds the symbol index for one lexed file. `in_test` is the
/// `#[cfg(test)]` token mask from the rule engine (same length as
/// `lexed.tokens`).
pub fn index_file(lexed: &LexedFile, in_test: &[bool]) -> FileSymbols {
    let mut out = FileSymbols::default();
    let tokens = &lexed.tokens;
    for tok in tokens {
        if tok.kind == TokenKind::Ident {
            *out.ident_counts.entry(tok.text.clone()).or_insert(0) += 1;
        }
    }
    scan_defs(tokens, in_test, &mut out);
    scan_uses(tokens, in_test, &mut out);
    scan_publishes(lexed, in_test, &mut out);
    scan_required_metrics(lexed, &mut out);
    out
}

fn ident_at(tokens: &[Token], k: usize) -> Option<&str> {
    tokens
        .get(k)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
}

fn text_at(tokens: &[Token], k: usize) -> Option<&str> {
    tokens.get(k).map(|t| t.text.as_str())
}

fn scan_defs(tokens: &[Token], in_test: &[bool], out: &mut FileSymbols) {
    for k in 0..tokens.len() {
        let Some(kind) = ident_at(tokens, k).and_then(ItemKind::from_keyword) else {
            continue;
        };
        let Some(name) = ident_at(tokens, k + 1) else {
            continue;
        };
        let prev = if k == 0 { None } else { text_at(tokens, k - 1) };
        match kind {
            // `const fn f`, `*const T`, and `<const N: usize>` generics
            // are not const items; same for `*mut`/`*const` raw pointers.
            ItemKind::Const if name == "fn" => continue,
            ItemKind::Const | ItemKind::Static
                if matches!(prev, Some("*") | Some("<") | Some(",")) =>
            {
                continue
            }
            _ => {}
        }
        // Walk back over modifiers (and an ABI string) to the token in
        // visibility position.
        let mut j = k;
        while j > 0 {
            let t = &tokens[j - 1];
            if t.kind == TokenKind::Literal || ITEM_MODIFIERS.contains(&t.text.as_str()) {
                j -= 1;
            } else {
                break;
            }
        }
        let vis = match if j == 0 { None } else { text_at(tokens, j - 1) } {
            Some("pub") => Visibility::Pub,
            Some(")") => {
                // `pub(crate)` / `pub(super)` / `pub(in path)`.
                let mut m = j - 1;
                while m > 0 && text_at(tokens, m) != Some("(") {
                    m -= 1;
                }
                if m >= 1 && text_at(tokens, m - 1) == Some("pub") {
                    Visibility::Restricted
                } else {
                    Visibility::Private
                }
            }
            _ => Visibility::Private,
        };
        out.defs.push(ItemDef {
            name: name.to_owned(),
            kind,
            vis,
            line: tokens[k].line,
            in_test: in_test[k],
        });
    }
}

fn scan_uses(tokens: &[Token], in_test: &[bool], out: &mut FileSymbols) {
    let mut k = 0;
    while k < tokens.len() {
        if ident_at(tokens, k) != Some("use") {
            k += 1;
            continue;
        }
        let line = tokens[k].line;
        let use_in_test = in_test[k];
        let mut j = k + 1;
        let double_colon =
            |j: usize| text_at(tokens, j) == Some(":") && text_at(tokens, j + 1) == Some(":");
        let kind = if ident_at(tokens, j) == Some("crate") && double_colon(j + 1) {
            j += 3;
            UseKind::Crate
        } else if ident_at(tokens, j) == Some("self") && double_colon(j + 1) {
            j += 3;
            UseKind::SelfMod
        } else {
            let mut supers = 0usize;
            while ident_at(tokens, j) == Some("super") && double_colon(j + 1) {
                supers += 1;
                j += 3;
            }
            if supers > 0 {
                UseKind::Super(supers)
            } else {
                UseKind::External
            }
        };
        let mut firsts = Vec::new();
        if text_at(tokens, j) == Some("{") {
            // A group: the first identifier of each top-level element.
            let mut depth = 0usize;
            let mut expect = false;
            while j < tokens.len() && text_at(tokens, j) != Some(";") {
                match text_at(tokens, j).unwrap_or_default() {
                    "{" => {
                        depth += 1;
                        expect = depth == 1;
                    }
                    "}" => {
                        depth = depth.saturating_sub(1);
                        expect = false;
                    }
                    "," => expect = depth == 1,
                    _ => {
                        if expect {
                            if let Some(id) = ident_at(tokens, j) {
                                firsts.push(id.to_owned());
                            }
                        }
                        expect = false;
                    }
                }
                j += 1;
            }
        } else if let Some(id) = ident_at(tokens, j) {
            firsts.push(id.to_owned());
        }
        out.uses.push(UsePath {
            kind,
            firsts,
            line,
            in_test: use_in_test,
        });
        // Skip to the end of the statement.
        while j < tokens.len() && text_at(tokens, j) != Some(";") {
            j += 1;
        }
        k = j + 1;
    }
}

fn scan_publishes(lexed: &LexedFile, in_test: &[bool], out: &mut FileSymbols) {
    let tokens = &lexed.tokens;
    for k in 0..tokens.len() {
        if ident_at(tokens, k) != Some("metrics")
            || text_at(tokens, k + 1) != Some(":")
            || text_at(tokens, k + 2) != Some(":")
        {
            continue;
        }
        let Some(func) = ident_at(tokens, k + 3) else {
            continue;
        };
        if !METRICS_PUBLISH_FNS.contains(&func) || text_at(tokens, k + 4) != Some("(") {
            continue;
        }
        let mut a = k + 5;
        if text_at(tokens, a) == Some("&") {
            a += 1;
        }
        if let Some(name) = lexed.strings.get(&a) {
            out.publishes.push(MetricPublish {
                name: name.clone(),
                line: tokens[k].line,
                in_test: in_test[k],
            });
        }
    }
}

fn scan_required_metrics(lexed: &LexedFile, out: &mut FileSymbols) {
    let tokens = &lexed.tokens;
    for k in 0..tokens.len() {
        if ident_at(tokens, k) != Some("REQUIRED_METRICS") {
            continue;
        }
        // Only the defining site has `… = &[ "…", … ]` shortly after the
        // name; reference sites (loops, `contains` calls) do not.
        let mut j = k + 1;
        let mut eq = None;
        while j < tokens.len() && j < k + 14 {
            match text_at(tokens, j) {
                Some("=") => {
                    eq = Some(j);
                    break;
                }
                Some(";") | Some("{") | Some(")") => break,
                _ => {}
            }
            j += 1;
        }
        let Some(eq) = eq else { continue };
        let mut j = eq + 1;
        if text_at(tokens, j) == Some("&") {
            j += 1;
        }
        if text_at(tokens, j) != Some("[") {
            continue;
        }
        j += 1;
        while j < tokens.len() && text_at(tokens, j) != Some("]") {
            if let Some(name) = lexed.strings.get(&j) {
                out.required_metrics.push(RequiredMetric {
                    name: name.clone(),
                    line: tokens[j].line,
                });
            }
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_mask;

    fn index(src: &str) -> FileSymbols {
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        index_file(&lexed, &mask)
    }

    #[test]
    fn defs_record_kind_visibility_and_line() {
        let src = "/// D.\npub fn api() {}\npub(crate) struct Internal;\nenum Private { A }\npub const LIMIT: u32 = 4;\n";
        let defs = index(src).defs;
        assert_eq!(defs.len(), 4);
        assert_eq!(
            (
                defs[0].name.as_str(),
                defs[0].kind,
                defs[0].vis,
                defs[0].line
            ),
            ("api", ItemKind::Fn, Visibility::Pub, 2)
        );
        assert_eq!(defs[1].vis, Visibility::Restricted);
        assert_eq!(defs[2].vis, Visibility::Private);
        assert_eq!(
            (defs[3].name.as_str(), defs[3].kind),
            ("LIMIT", ItemKind::Const)
        );
    }

    #[test]
    fn const_fn_pointers_and_generics_are_not_const_items() {
        let src = "pub const fn fast() -> u32 { 1 }\nfn raw(p: *const u8) {}\nfn arr<const N: usize>() {}\nstruct M<T, const K: usize>(T);\n";
        let defs = index(src).defs;
        let consts: Vec<_> = defs.iter().filter(|d| d.kind == ItemKind::Const).collect();
        assert!(consts.is_empty(), "{consts:?}");
        // `pub const fn fast` is a Pub fn (walk-back crosses `const`).
        let fast = defs.iter().find(|d| d.name == "fast").unwrap();
        assert_eq!((fast.kind, fast.vis), (ItemKind::Fn, Visibility::Pub));
    }

    #[test]
    fn abi_strings_do_not_hide_visibility() {
        let src = "pub unsafe extern \"C\" fn hook() {}\n";
        let defs = index(src).defs;
        assert_eq!(defs[0].vis, Visibility::Pub);
        assert_eq!(defs[0].name, "hook");
    }

    #[test]
    fn test_region_defs_are_marked() {
        let src = "pub fn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let defs = index(src).defs;
        assert!(!defs.iter().find(|d| d.name == "real").unwrap().in_test);
        assert!(defs.iter().find(|d| d.name == "helper").unwrap().in_test);
        assert!(defs.iter().find(|d| d.name == "tests").unwrap().in_test);
    }

    #[test]
    fn ident_counts_include_every_occurrence() {
        let src = "pub fn thing() {}\nfn call() { thing(); thing(); }\n";
        let counts = index(src).ident_counts;
        assert_eq!(counts["thing"], 3);
        assert_eq!(counts["call"], 1);
    }

    #[test]
    fn use_paths_resolve_prefix_and_first_segments() {
        let src = "use crate::engine::MemoryEngine;\nuse super::super::util;\nuse self::local::Item;\nuse std::collections::BTreeMap;\nuse crate::{alpha, beta::Thing, gamma::{X, Y}};\n";
        let uses = index(src).uses;
        assert_eq!(uses.len(), 5);
        assert_eq!(uses[0].kind, UseKind::Crate);
        assert_eq!(uses[0].firsts, vec!["engine"]);
        assert_eq!(uses[1].kind, UseKind::Super(2));
        assert_eq!(uses[1].firsts, vec!["util"]);
        assert_eq!(uses[2].kind, UseKind::SelfMod);
        assert_eq!(uses[3].kind, UseKind::External);
        assert_eq!(uses[4].firsts, vec!["alpha", "beta", "gamma"]);
        assert!(uses.iter().all(|u| !u.in_test));
    }

    #[test]
    fn test_region_uses_are_marked() {
        let src = "use crate::real;\n#[cfg(test)]\nmod tests {\n    use crate::other;\n}\n";
        let uses = index(src).uses;
        assert_eq!(uses.len(), 2);
        assert!(!uses[0].in_test);
        assert!(uses[1].in_test);
    }

    #[test]
    fn metric_publishes_capture_literal_names() {
        let src = "fn f() {\n    metrics::add(\"dram.cycles\", n);\n    metrics::counter(\"dram.bytes\").get();\n    metrics::add(&name, 1);\n}\n#[cfg(test)]\nmod tests {\n    fn t() { metrics::add(\"test.only\", 1); }\n}\n";
        let pubs = index(src).publishes;
        let names: Vec<_> = pubs.iter().map(|p| p.name.as_str()).collect();
        // `&name` has no literal; the test-region publish is marked.
        assert_eq!(names, vec!["dram.cycles", "dram.bytes", "test.only"]);
        assert!(pubs[2].in_test);
        assert!(!pubs[0].in_test);
    }

    #[test]
    fn required_metrics_entries_come_from_the_definition_only() {
        let src = "pub const REQUIRED_METRICS: &[&str] = &[\n    \"dram.cycles\",\n    \"sim.runs\",\n];\nfn check() { for m in REQUIRED_METRICS { look(m); } }\n";
        let req = index(src).required_metrics;
        assert_eq!(req.len(), 2);
        assert_eq!((req[0].name.as_str(), req[0].line), ("dram.cycles", 2));
        assert_eq!((req[1].name.as_str(), req[1].line), ("sim.runs", 3));
    }
}
