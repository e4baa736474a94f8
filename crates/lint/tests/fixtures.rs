//! Self-test of the linter against the fixture suite: one positive file
//! per rule plus the lexer edge cases, asserting the exact `file:line`
//! diagnostics each must produce.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use ulc_lint::rules::{FileKind, ALL_RULES};
use ulc_lint::{lint_source, Diagnostic};

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    lint_source(name, &src, FileKind::Library)
}

/// The (line, rule) signature of a diagnostic list.
fn signature(diags: &[Diagnostic]) -> Vec<(usize, &str)> {
    diags.iter().map(|d| (d.line, d.rule.as_str())).collect()
}

#[test]
fn allow_syntax_positive_cases() {
    let d = lint_fixture("allow_syntax_pos.rs");
    assert_eq!(
        signature(&d),
        [
            (4, "allow-syntax"),  // no reason
            (7, "allow-syntax"),  // unknown rule
            (10, "allow-syntax"), // unclosed parenthesis
            (13, "allow-syntax"), // misspelled marker
        ],
        "{d:#?}"
    );
}

#[test]
fn dead_allow_positive_cases() {
    let d = lint_fixture("dead_allow_pos.rs");
    assert_eq!(signature(&d), [(5, "dead-allow")], "{d:#?}");
}

#[test]
fn plane_exhaustive_positive_cases() {
    let d = lint_fixture("plane_exhaustive_pos.rs");
    assert_eq!(signature(&d), [(13, "plane-exhaustive")], "{d:#?}");
    assert!(d[0].message.contains("`Reload`, `Notice`"), "{}", d[0].message);
}

/// The positive fixtures between them exercise exactly the rules the
/// pass knows: a rule without a fixture, or a fixture for a rule the
/// pass no longer has, fails here.
#[test]
fn fixture_suite_covers_all_rule_classes() {
    let mut rules: Vec<String> = [
        "allow_syntax_pos.rs",
        "dead_allow_pos.rs",
        "plane_exhaustive_pos.rs",
        "lexer_raw_string.rs",
    ]
    .iter()
    .flat_map(|f| lint_fixture(f))
    .map(|d| d.rule)
    .collect();
    rules.sort();
    rules.dedup();
    let mut all = ALL_RULES.to_vec();
    all.sort();
    assert_eq!(rules, all);
    assert_eq!(
        all,
        ["allow-syntax", "dead-allow", "hot-path-alloc", "plane-exhaustive"]
    );
}

/// `#[expect]` raises the lint it names inside its own scope, so the
/// clippy parity fixture (`examples/clippy_parity.rs`) cannot by itself
/// tell whether the workspace enables a lint. This closes the gap: every
/// lint the fixture expects must be raised by the root
/// `[workspace.lints]` table, except `missing_safety_doc` (on by
/// default) and `disallowed_types` (`allow` in the table, raised per
/// hot-path module).
#[test]
fn parity_fixture_lints_are_raised_by_the_workspace_table() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(dir.join("../../Cargo.toml")).expect("root manifest");
    let mut levels = BTreeMap::new();
    let mut tool = None;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            tool = line
                .strip_prefix("[workspace.lints.")
                .and_then(|t| t.strip_suffix(']'));
        } else if let (Some(tool), Some((name, level))) = (tool, line.split_once('=')) {
            let name = name.trim();
            let lint = match tool {
                "rust" => name.to_string(),
                _ => format!("{tool}::{name}"),
            };
            levels.insert(lint, level.trim().trim_matches('"').to_string());
        }
    }
    let fixture =
        std::fs::read_to_string(dir.join("examples/clippy_parity.rs")).expect("parity fixture");
    let expected: BTreeSet<&str> = fixture
        .split("#[expect(")
        .skip(1)
        .filter_map(|rest| rest.split("reason").next())
        .flat_map(|lints| lints.split(','))
        .map(str::trim)
        .filter(|l| !l.is_empty() && l.chars().all(|c| c.is_alphanumeric() || "_:".contains(c)))
        .collect();
    assert!(expected.len() >= 10, "{expected:?}");
    for lint in expected {
        let level = levels.get(lint).map(String::as_str);
        match lint {
            "clippy::missing_safety_doc" => {}
            "clippy::disallowed_types" => {
                assert_eq!(level, Some("allow"), "{levels:?}");
                assert!(fixture.contains("#![warn(clippy::disallowed_types)]"));
            }
            _ => assert!(
                matches!(level, Some("warn" | "deny")),
                "`{lint}` is not raised by [workspace.lints]: {levels:?}"
            ),
        }
    }
}

/// The workspace walk must skip the deliberately-violating fixtures.
#[test]
fn workspace_walk_skips_fixtures() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let diags = ulc_lint::lint_workspace(root).expect("walk the lint crate");
    assert!(
        diags.is_empty(),
        "lint crate sources must self-lint clean: {diags:#?}"
    );
}

// ── Lexer edge cases ────────────────────────────────────────────────
// Each fixture hides rule-relevant text inside a literal or comment
// form the lexer must classify correctly, then plants one real finding
// whose exact line proves the scan resynchronised.

#[test]
fn raw_strings_do_not_smuggle_allow_markers() {
    let d = lint_fixture("lexer_raw_string.rs");
    assert_eq!(signature(&d), [(14, "hot-path-alloc")], "{d:#?}");
}

#[test]
fn nested_block_comments_nest() {
    let d = lint_fixture("lexer_nested_comment.rs");
    assert_eq!(signature(&d), [(10, "hot-path-alloc")], "{d:#?}");
}

#[test]
fn byte_strings_are_data() {
    let d = lint_fixture("lexer_byte_string.rs");
    assert_eq!(signature(&d), [(9, "hot-path-alloc")], "{d:#?}");
}

#[test]
fn lifetimes_are_not_char_literals() {
    let d = lint_fixture("lexer_lifetime.rs");
    assert_eq!(signature(&d), [(10, "hot-path-alloc")], "{d:#?}");
}
