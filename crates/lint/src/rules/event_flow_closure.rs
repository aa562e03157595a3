//! Rule `event-flow-closure`: the `Event` vocabulary is closed over
//! the workspace.
//!
//! The per-file `event-exhaustiveness` rule can prove an engine's
//! `match` makes a decision per arm — but it cannot see that a variant
//! constructed in `crates/net` is matched by *no* engine at all, or by
//! two. Both bugs survive a loud `other => unreachable!()` catch-all:
//! the orphaned variant simply never reaches any engine's match (the
//! bus routes it to a subsystem whose engine rejects it at runtime,
//! or the simulation silently drops it), and the first digest that
//! notices is a golden regression three layers away. This rule closes
//! the loop over the phase-1 workspace index: for the workspace's
//! `enum Event`, every variant must be (a) constructed somewhere,
//! (b) matched in exactly one engine's `on_event` body. A variant
//! matched nowhere is *orphaned*; a variant never constructed is
//! *dead*; a variant matched in two engines has ambiguous ownership.
//! Diagnostics anchor at the variant's declaration so the fix site is
//! always the event vocabulary itself.

use std::collections::{BTreeMap, BTreeSet};

use super::WorkspaceRule;
use crate::diag::{Diagnostic, Severity};
use crate::index::{pattern_spans, WorkspaceIndex};
use crate::lexer::Kind;

/// The enum whose closure is checked.
const EVENT_ENUM: &str = "Event";

pub(crate) struct EventFlowClosure;

impl WorkspaceRule for EventFlowClosure {
    fn name(&self) -> &'static str {
        "event-flow-closure"
    }

    fn describe(&self) -> &'static str {
        "every Event variant is constructed somewhere and matched by exactly one engine's on_event"
    }

    fn scope(&self) -> &'static str {
        "workspace (anchored at the enum Event declaration)"
    }

    fn since_pr(&self) -> u32 {
        8
    }

    fn check(&self, index: &WorkspaceIndex, out: &mut Vec<Diagnostic>) {
        // Where is `enum Event` declared? No declaration in the index
        // (e.g. a fixture set without one) means nothing to close
        // over.
        let decls: Vec<(usize, usize)> = index
            .files
            .iter()
            .enumerate()
            .flat_map(|(fi, f)| {
                f.enums
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.name == EVENT_ENUM)
                    .map(move |(ei, _)| (fi, ei))
            })
            .collect();
        if decls.is_empty() {
            return;
        }

        // One pass over every file: classify each `Event::Variant`
        // reference as pattern (inside a match-arm pattern span) or
        // construction, and attribute pattern references to the
        // enclosing `on_event`'s impl type.
        let mut constructed: BTreeMap<String, (String, u32)> = BTreeMap::new();
        let mut matched_by: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for file in &index.files {
            let toks = &file.lexed.tokens;
            let spans = pattern_spans(toks, 0..toks.len());
            for i in 0..toks.len() {
                let t = &toks[i];
                if t.kind != Kind::Ident || t.text != EVENT_ENUM {
                    continue;
                }
                if !super::is_punct(toks, i + 1, "::") {
                    continue;
                }
                let Some(v) = toks.get(i + 2).filter(|v| v.kind == Kind::Ident) else {
                    continue;
                };
                // `Event::default()` and friends are associated
                // fns, not variants; variants are UpperCamelCase.
                if !v.text.starts_with(char::is_uppercase) {
                    continue;
                }
                let in_pattern = spans.iter().any(|s| s.contains(&i));
                if in_pattern {
                    // Pattern position: counts as "handled" only when
                    // the enclosing fn is an engine's `on_event`. A
                    // routing table (`subsystem_for`) or a test
                    // asserting on an event is neutral.
                    let handler = file
                        .fns
                        .iter()
                        .find(|f| f.name == "on_event" && f.body.contains(&i));
                    if let Some(f) = handler {
                        if let Some(ty) = &f.impl_ty {
                            matched_by
                                .entry(v.text.clone())
                                .or_default()
                                .insert(ty.clone());
                        }
                    }
                } else {
                    constructed
                        .entry(v.text.clone())
                        .or_insert_with(|| (file.rel_path.clone(), v.line));
                }
            }
        }

        // Judge every declared variant.
        for (fi, ei) in decls {
            let file = &index.files[fi];
            let decl = &file.enums[ei];
            for v in &decl.variants {
                let built = constructed.get(&v.name);
                let engines = matched_by.get(&v.name);
                let n_engines = engines.map_or(0, BTreeSet::len);
                if built.is_none() {
                    out.push(Diagnostic {
                        rule: self.name(),
                        severity: Severity::Deny,
                        file: file.rel_path.clone(),
                        line: v.line,
                        col: v.col,
                        message: format!(
                            "dead event: `{EVENT_ENUM}::{}` is declared but constructed \
                             nowhere in the workspace; delete the variant or wire up its \
                             producer",
                            v.name,
                        ),
                    });
                }
                if let (Some((f, l)), 0) = (built, n_engines) {
                    out.push(Diagnostic {
                        rule: self.name(),
                        severity: Severity::Deny,
                        file: file.rel_path.clone(),
                        line: v.line,
                        col: v.col,
                        message: format!(
                            "orphaned event: `{EVENT_ENUM}::{}` is constructed (e.g. \
                             {f}:{l}) but matched in no engine's `on_event`; route it to \
                             an engine or remove the producer",
                            v.name,
                        ),
                    });
                }
                if n_engines > 1 {
                    let owners: Vec<&str> = engines
                        .expect("n_engines > 1")
                        .iter()
                        .map(String::as_str)
                        .collect();
                    out.push(Diagnostic {
                        rule: self.name(),
                        severity: Severity::Deny,
                        file: file.rel_path.clone(),
                        line: v.line,
                        col: v.col,
                        message: format!(
                            "ambiguous event ownership: `{EVENT_ENUM}::{}` is matched in \
                             `on_event` of {} — the bus routes each variant to exactly \
                             one engine",
                            v.name,
                            owners.join(", "),
                        ),
                    });
                }
            }
        }
    }
}
