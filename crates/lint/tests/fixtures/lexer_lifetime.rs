//! Lexer edge case: `'a` is a lifetime, not the start of a char
//! literal. A mis-scan would swallow the tokens after it — including
//! the allocation this fixture expects to be flagged.

/// Generic over `'a`; also exercises a real char literal (`'x'`) and an
/// escaped one (`'\''`) on the way to the finding.
pub fn access_into<'a>(x: &'a [u8]) -> Vec<u8> {
    let _c = 'x';
    let _q = '\'';
    x.to_vec()
}
