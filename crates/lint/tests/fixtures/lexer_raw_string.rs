//! Lexer edge case: allow-marker text inside raw strings is data, not a
//! comment — it must not suppress the diagnostic on the next line.

/// Help text that *mentions* the allow syntax, as docs tend to.
pub fn help() -> &'static str {
    r#"write // lint:allow(hot-path-alloc) reason above the offending line"#
}

/// The allocation below sits directly under a raw string whose *contents*
/// look like an allow; a lexer that mistook it for a comment would
/// wrongly suppress the finding.
pub fn access_into(b: u32) -> Vec<u32> {
    let _s = r##"decoy: lint:allow(hot-path-alloc) hidden behind hashes "# still open"##;
    vec![b]
}
