//! `check --fix`: mechanical rewrites for the two rules whose fix is
//! unambiguous.
//!
//! Two finding kinds are safe to rewrite without judgment:
//!
//! - **unused-allow** — the directive suppresses nothing, so deleting
//!   it cannot change what the checker reports (beyond removing the
//!   finding itself). The whole `// asan-lint: …` comment goes; if the
//!   line is then blank, the line goes too.
//! - **no-unordered-iteration** — `HashMap → BTreeMap` and `HashSet →
//!   BTreeSet` are drop-in for the operations the model crates use,
//!   and the flagged line names the type (declaration, `use`, or
//!   constructor) directly.
//!
//! Everything else (a wall-clock read, an undigested stats field) has
//! a design decision inside it and stays manual. Fixing is idempotent
//! by construction: each rewrite removes exactly the finding that
//! requested it, so a second `--fix` run finds nothing to do — CI
//! asserts this by running the fixer twice and diffing.
//!
//! Files with *unstaged* git modifications are refused (skipped, with
//! a note) unless `--fix-dirty` is given: the fixer must never
//! interleave its edits with work the author has not yet staged, where
//! a `git checkout -- <file>` after a surprise rewrite would destroy
//! both.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::diag::Diagnostic;
use crate::rules;

/// What one `--fix` pass did.
#[derive(Debug, Default)]
pub struct FixOutcome {
    /// Files rewritten (or, under dry-run, that would be).
    pub files_fixed: usize,
    /// Individual findings rewritten away.
    pub edits: usize,
    /// Workspace-relative paths skipped because they carry unstaged
    /// modifications (rerun with `--fix-dirty` to include them).
    pub skipped_dirty: Vec<String>,
}

/// Whether `check --fix` knows a mechanical rewrite for this finding.
pub fn is_fixable(d: &Diagnostic) -> bool {
    d.rule == rules::UNUSED_ALLOW || d.rule == "no-unordered-iteration"
}

/// Applies every mechanical fix for `diags` under `root`. With
/// `dry_run`, counts what would change but writes nothing.
pub fn apply(
    root: &Path,
    diags: &[Diagnostic],
    allow_dirty: bool,
    dry_run: bool,
) -> Result<FixOutcome, String> {
    let dirty = if allow_dirty {
        BTreeSet::new()
    } else {
        dirty_files(root)
    };
    let mut by_file: BTreeMap<&str, Vec<&Diagnostic>> = BTreeMap::new();
    for d in diags.iter().filter(|d| is_fixable(d)) {
        by_file.entry(d.file.as_str()).or_default().push(d);
    }

    let mut outcome = FixOutcome::default();
    for (rel, file_diags) in by_file {
        if dirty.contains(rel) {
            outcome.skipped_dirty.push(rel.to_string());
            continue;
        }
        let path = if Path::new(rel).is_absolute() {
            PathBuf::from(rel)
        } else {
            root.join(rel)
        };
        let src = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let had_trailing_newline = src.ends_with('\n');
        let mut lines: Vec<Option<String>> = src.lines().map(|l| Some(l.to_string())).collect();
        let mut edits = 0usize;
        // Bottom-up so earlier edits cannot shift later line numbers;
        // `lines` slots are only ever rewritten or tombstoned, never
        // spliced, so indexes stay stable anyway.
        let mut ordered: Vec<&Diagnostic> = file_diags;
        ordered.sort_by_key(|d| std::cmp::Reverse(d.line));
        for d in ordered {
            let idx = (d.line as usize).wrapping_sub(1);
            let Some(slot) = lines.get_mut(idx) else {
                continue;
            };
            let Some(line) = slot.as_ref() else { continue };
            let fixed = if d.rule == rules::UNUSED_ALLOW {
                strip_allow_comment(line)
            } else {
                Some(swap_unordered_types(line))
            };
            match fixed {
                Some(new) if new.trim().is_empty() && d.rule == rules::UNUSED_ALLOW => {
                    *slot = None;
                    edits += 1;
                }
                Some(new) if new != *line => {
                    *slot = Some(new);
                    edits += 1;
                }
                _ => {}
            }
        }
        if edits == 0 {
            continue;
        }
        outcome.files_fixed += 1;
        outcome.edits += edits;
        if dry_run {
            continue;
        }
        let mut rebuilt = lines.into_iter().flatten().collect::<Vec<_>>().join("\n");
        if had_trailing_newline {
            rebuilt.push('\n');
        }
        fs::write(&path, rebuilt).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(outcome)
}

/// Removes the `// asan-lint: …` comment from a line, returning the
/// remainder (trailing whitespace trimmed). `None` when no directive
/// comment is found (e.g. a block-comment directive — left for a
/// human).
fn strip_allow_comment(line: &str) -> Option<String> {
    let marker = line.find("asan-lint:")?;
    // Walk back to the `//` that opens the comment the marker sits in.
    let open = line[..marker].rfind("//")?;
    Some(line[..open].trim_end().to_string())
}

/// Rewrites `HashMap`/`HashSet` to their ordered counterparts,
/// whole-identifier matches only.
fn swap_unordered_types(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let chars: Vec<char> = line.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let hit = ["HashMap", "HashSet"].iter().find(|w| {
            chars[i..].starts_with(&w.chars().collect::<Vec<_>>()[..])
                && (i == 0 || !is_ident_char(chars[i - 1]))
                && chars.get(i + w.len()).is_none_or(|c| !is_ident_char(*c))
        });
        if let Some(w) = hit {
            out.push_str(if **w == *"HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            });
            i += w.len();
        } else {
            out.push(chars[i]);
            i += 1;
        }
    }
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Workspace-relative paths with unstaged modifications. A failing
/// `git` (no repository — e.g. the fixture tests' temp dirs) means
/// nothing is dirty.
fn dirty_files(root: &Path) -> BTreeSet<String> {
    let Ok(out) = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["diff", "--name-only"])
        .output()
    else {
        return BTreeSet::new();
    };
    if !out.status.success() {
        return BTreeSet::new();
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_allow_removes_only_the_comment() {
        assert_eq!(
            strip_allow_comment("let m = x; // asan-lint: allow(no-wall-clock) reviewed"),
            Some("let m = x;".to_string())
        );
        assert_eq!(
            strip_allow_comment("    // asan-lint: allow(no-wall-clock)"),
            Some(String::new())
        );
        assert_eq!(strip_allow_comment("let m = x; // plain comment"), None);
    }

    #[test]
    fn swap_is_whole_identifier_only() {
        assert_eq!(
            swap_unordered_types("use std::collections::{HashMap, HashSet};"),
            "use std::collections::{BTreeMap, BTreeSet};"
        );
        assert_eq!(
            swap_unordered_types("struct MyHashMapLike;"),
            "struct MyHashMapLike;"
        );
    }
}
