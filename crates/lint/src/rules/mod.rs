//! The rule catalog.
//!
//! Rules come in two shapes. **File rules** ([`Rule`]) are pure
//! functions over one lexed file — right for token-local properties
//! (a `HashMap` ident, a wall-clock path). **Workspace rules**
//! ([`WorkspaceRule`]) run over the phase-1 [`WorkspaceIndex`] and
//! check cross-file contracts — an `Event` variant constructed in one
//! crate must be matched by exactly one engine in another. Scoping (which workspace paths a file rule patrols)
//! lives on the rule itself so the driver stays generic; `--scope-all`
//! overrides scoping, which is how the fixture tests exercise rules
//! outside their home crates.

use crate::diag::Diagnostic;
use crate::index::WorkspaceIndex;
use crate::lexer::{Kind, Lexed, Token};

mod ambient_randomness;
mod digest_completeness;
mod domain_isolation;
mod event_exhaustiveness;
mod event_flow_closure;
mod hot_path_clone;
mod lossy_cast;
mod unit_mixing;
mod unordered_iteration;
mod unused_allow;
mod wall_clock;

/// Catalog version, bumped whenever a rule is added, removed, or
/// renamed. `1` was the eight-rule per-file era (PRs 3–6); `2` added
/// the five cross-file rules built on the workspace index; `3` dropped
/// `snapshot-completeness` and `snapshot-symmetry`, whose properties
/// the `Snap` field-list declarations now enforce at compile time.
pub const CATALOG_VERSION: u32 = 3;

/// One per-file invariant check.
pub trait Rule {
    /// Stable identifier, accepted by `// asan-lint: allow(<name>)`.
    fn name(&self) -> &'static str;
    /// One-line description for `--help` / docs.
    fn describe(&self) -> &'static str;
    /// Human-readable scope for the machine catalog.
    fn scope(&self) -> &'static str;
    /// The PR that introduced the rule (machine catalog).
    fn since_pr(&self) -> u32;
    /// Whether the rule patrols `rel_path` (workspace-relative, `/`
    /// separators). Ignored under `--scope-all`.
    fn applies(&self, rel_path: &str) -> bool;
    /// Emits diagnostics for one file.
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>);
}

/// One cross-file invariant check over the workspace index.
pub trait WorkspaceRule {
    /// Stable identifier, accepted by `// asan-lint: allow(<name>)`.
    fn name(&self) -> &'static str;
    /// One-line description for `--help` / docs.
    fn describe(&self) -> &'static str;
    /// Human-readable scope for the machine catalog.
    fn scope(&self) -> &'static str;
    /// The PR that introduced the rule (machine catalog).
    fn since_pr(&self) -> u32;
    /// Emits diagnostics over the whole index.
    fn check(&self, index: &WorkspaceIndex, out: &mut Vec<Diagnostic>);
}

/// Everything a file rule sees about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub rel_path: &'a str,
    /// The lexed source.
    pub lexed: &'a Lexed,
}

impl FileCtx<'_> {
    /// Shorthand for the token slice.
    pub fn tokens(&self) -> &[Token] {
        &self.lexed.tokens
    }
}

/// The per-file rule set, in catalog order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(unordered_iteration::NoUnorderedIteration),
        Box::new(wall_clock::NoWallClock),
        Box::new(ambient_randomness::NoAmbientRandomness),
        Box::new(lossy_cast::LossyModelCast),
        Box::new(event_exhaustiveness::EventExhaustiveness),
        Box::new(digest_completeness::DigestCompleteness),
        Box::new(hot_path_clone::NoHotPathClone),
        Box::new(unit_mixing::UnitMixing),
    ]
}

/// The cross-file rule set, in catalog order. `unused-allow` is not
/// here: it is computed by the driver, which alone knows which
/// directives suppressed a finding (see `unused_allow`'s module docs).
pub fn workspace_rules() -> Vec<Box<dyn WorkspaceRule>> {
    vec![
        Box::new(event_flow_closure::EventFlowClosure),
        Box::new(domain_isolation::DomainIsolation),
    ]
}

/// One row of the machine-readable rule catalog (`--list-rules`).
pub struct CatalogEntry {
    /// Stable rule identifier.
    pub name: &'static str,
    /// One-line description.
    pub describe: &'static str,
    /// Human-readable scope.
    pub scope: &'static str,
    /// PR that introduced the rule.
    pub since_pr: u32,
    /// `"file"` or `"workspace"` analysis.
    pub analysis: &'static str,
}

/// The full catalog in stable order: per-file rules, then workspace
/// rules, then the driver-computed `unused-allow`. The golden test in
/// `crates/lint/tests` pins this list, so any change to the rule set
/// is an explicit diff.
pub fn catalog() -> Vec<CatalogEntry> {
    let mut out: Vec<CatalogEntry> = all_rules()
        .iter()
        .map(|r| CatalogEntry {
            name: r.name(),
            describe: r.describe(),
            scope: r.scope(),
            since_pr: r.since_pr(),
            analysis: "file",
        })
        .collect();
    out.extend(workspace_rules().iter().map(|r| CatalogEntry {
        name: r.name(),
        describe: r.describe(),
        scope: r.scope(),
        since_pr: r.since_pr(),
        analysis: "workspace",
    }));
    out.push(unused_allow::catalog_entry());
    out
}

/// True when the token at `i` is an identifier with text `s`.
pub(crate) fn is_ident(toks: &[Token], i: usize, s: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == Kind::Ident && t.text == s)
}

/// True when the token at `i` is the punctuation `s`.
pub(crate) fn is_punct(toks: &[Token], i: usize, s: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == Kind::Punct && t.text == s)
}

/// Finds the matching close brace for the open brace at `open`
/// (which must be a `{`); returns its index, or `toks.len()` if
/// unbalanced.
pub(crate) fn matching_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
    }
    toks.len()
}

/// Finds the matching close delimiter `c` for the opener `o` at
/// `open`; returns its index, or `toks.len()` if unbalanced.
pub(crate) fn matching_delim(toks: &[Token], open: usize, o: &str, c: &str) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.kind == Kind::Punct {
            if t.text == o {
                depth += 1;
            } else if t.text == c {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
    }
    toks.len()
}

pub(crate) use unused_allow::UNUSED_ALLOW;
