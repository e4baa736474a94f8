//! Lexer edge case: block comments nest. Allocations inside nested
//! comments are dead text; code after the *outer* close is live again.

/* outer /* inner vec![0] */ still inside the outer comment */

/// The `.to_vec()` is swallowed by the nested comment; the `vec!` after
/// the outer close is live and must be the only finding.
pub fn access_into(b: u32) -> Vec<u32> {
    /* /* deep */ let _ = [b].to_vec(); */
    vec![b]
}
