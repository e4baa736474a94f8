//! Lexer edge case: byte strings are data. Allocating calls and comment
//! openers inside them must not derail the scan.

/// The byte pattern spells `.clone()`, `vec!` and an unclosed `/*`;
/// none of it is code, and the scan must resynchronise cleanly so the
/// real allocation below is still seen.
pub fn access_into(b: u32) -> Vec<u32> {
    let _pat: &[u8] = b".clone() vec![] /* never closed";
    vec![b]
}
