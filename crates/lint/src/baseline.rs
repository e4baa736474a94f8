//! Stable diagnostic fingerprints and the CI baseline diff gate.
//!
//! The interprocedural rules make findings *global* properties: edit one
//! helper and a diagnostic can appear three modules away. A CI gate that
//! fails on any finding would then block unrelated work, and a gate that
//! fails on none would let regressions rot. The middle path is a
//! *baseline*: a committed set of fingerprints for the findings the team
//! has already seen, so `ulc-lint --baseline=PATH` fails only on **new**
//! findings (and `--write-baseline` re-records the set after triage).
//!
//! Fingerprints must survive harmless edits, so they hash the file path,
//! the rule and the *digit-stripped* message (line numbers inside
//! call-chain traces churn on every unrelated edit), plus an occurrence
//! index to keep several identical findings in one file distinct. They
//! deliberately exclude the line number itself: moving a function does
//! not create a "new" finding.
//!
//! The baseline file is plain text — one fingerprint per line, `#`
//! comments ignored — so diffs review like any other source change.

use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

/// FNV-1a 64-bit over a byte stream: tiny, dependency-free and stable
/// across platforms and releases (unlike `DefaultHasher`).
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The message with ASCII digits removed: call-chain traces embed
/// `file:line` hops whose numbers churn on unrelated edits.
fn normalized(message: &str) -> String {
    message.chars().filter(|c| !c.is_ascii_digit()).collect()
}

/// Computes the fingerprint of a `(file, rule, message, occurrence)`
/// quadruple as a 16-hex-digit string.
pub fn fingerprint(file: &str, rule: &str, message: &str, occurrence: usize) -> String {
    let norm = normalized(message);
    let stream = file
        .bytes()
        .chain([0u8])
        .chain(rule.bytes())
        .chain([0u8])
        .chain(norm.bytes())
        .chain([0u8])
        .chain(occurrence.to_le_bytes());
    format!("{:016x}", fnv1a(stream))
}

/// Assigns a fingerprint to every diagnostic, in order: diagnostics that
/// normalize identically within one file get increasing occurrence
/// indices, so `k` identical findings stay `k` distinct fingerprints.
pub fn assign_fingerprints(diags: &mut [Diagnostic]) {
    let mut counts: BTreeMap<(String, String, String), usize> = BTreeMap::new();
    for d in diags.iter_mut() {
        let key = (d.file.clone(), d.rule.clone(), normalized(&d.message));
        let occurrence = counts.entry(key).or_insert(0);
        d.fingerprint = fingerprint(&d.file, &d.rule, &d.message, *occurrence);
        *occurrence += 1;
    }
}

/// Reads a baseline file: one fingerprint per line (first whitespace
/// field; the rest is human-readable context), `#` comments and blank
/// lines ignored.
pub fn read_baseline(path: &Path) -> io::Result<BTreeSet<String>> {
    let text = fs::read_to_string(path)?;
    let mut set = BTreeSet::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(fp) = line.split_whitespace().next() {
            set.insert(fp.to_string());
        }
    }
    Ok(set)
}

/// Writes the baseline for `diags`: a header comment plus one
/// `fingerprint rule file:line` line per finding (only the fingerprint
/// is parsed back; rule and location are context for reviewers).
pub fn write_baseline(path: &Path, diags: &[Diagnostic]) -> io::Result<()> {
    let mut out = String::from(
        "# ulc-lint baseline: known findings, one fingerprint per line.\n\
         # Regenerate with `ulc-lint --write-baseline=<this file>` after triage;\n\
         # the diff gate (`--baseline`) fails only on fingerprints not listed here.\n",
    );
    for d in diags {
        out.push_str(&format!(
            "{} {} {}:{}\n",
            d.fingerprint, d.rule, d.file, d.line
        ));
    }
    fs::write(path, out)
}

/// The diagnostics whose fingerprints are not in `baseline` — the
/// findings the diff gate fails on.
pub fn new_findings<'a>(
    diags: &'a [Diagnostic],
    baseline: &BTreeSet<String>,
) -> Vec<&'a Diagnostic> {
    diags
        .iter()
        .filter(|d| !baseline.contains(&d.fingerprint))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(file: &str, line: usize, rule: &str, msg: &str) -> Diagnostic {
        Diagnostic::new(file, line, rule, msg)
    }

    #[test]
    fn fingerprints_ignore_lines_and_embedded_numbers() {
        let a = fingerprint(
            "a.rs",
            "hot-path-alloc",
            "chain x (a.rs:10) → y (a.rs:20)",
            0,
        );
        let b = fingerprint(
            "a.rs",
            "hot-path-alloc",
            "chain x (a.rs:11) → y (a.rs:99)",
            0,
        );
        assert_eq!(a, b);
        let c = fingerprint(
            "b.rs",
            "hot-path-alloc",
            "chain x (a.rs:10) → y (a.rs:20)",
            0,
        );
        assert_ne!(a, c, "file is part of the identity");
    }

    #[test]
    fn identical_findings_get_distinct_occurrences() {
        let mut diags = vec![
            diag(
                "a.rs",
                3,
                "hot-path-alloc",
                "`vec!` allocates on a per-access path",
            ),
            diag(
                "a.rs",
                9,
                "hot-path-alloc",
                "`vec!` allocates on a per-access path",
            ),
        ];
        assign_fingerprints(&mut diags);
        assert_ne!(diags[0].fingerprint, diags[1].fingerprint);
        // Re-running on the same set reproduces the same fingerprints.
        let first = diags[0].fingerprint.clone();
        assign_fingerprints(&mut diags);
        assert_eq!(diags[0].fingerprint, first);
    }

    #[test]
    fn baseline_round_trips_and_diffs() {
        let dir = std::env::temp_dir().join("ulc_lint_baseline_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("baseline.txt");
        let mut old = vec![diag(
            "a.rs",
            3,
            "hot-path-alloc",
            "`vec!` allocates on a per-access path",
        )];
        assign_fingerprints(&mut old);
        write_baseline(&path, &old).expect("write");
        let set = read_baseline(&path).expect("read");
        assert_eq!(set.len(), 1);
        assert!(new_findings(&old, &set).is_empty(), "old finding is known");

        let mut newer = vec![
            diag(
                "a.rs",
                3,
                "hot-path-alloc",
                "`vec!` allocates on a per-access path",
            ),
            diag(
                "b.rs",
                1,
                "plane-exhaustive",
                "handler names 2 of 3 variants",
            ),
        ];
        assign_fingerprints(&mut newer);
        let fresh = new_findings(&newer, &set);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].file, "b.rs");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn comments_and_context_fields_are_ignored_on_read() {
        let dir = std::env::temp_dir().join("ulc_lint_baseline_test2");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("baseline.txt");
        std::fs::write(
            &path,
            "# header\n\nabcdef0123456789 hot-path-alloc a.rs:3\n",
        )
        .expect("write");
        let set = read_baseline(&path).expect("read");
        assert!(set.contains("abcdef0123456789"), "{set:?}");
        std::fs::remove_file(&path).ok();
    }
}
