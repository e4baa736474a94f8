// Positive cases for the `allow-syntax` rule: malformed allow comments
// are themselves diagnostics and suppress nothing.

// lint:allow(hot-path-alloc)
fn missing_reason() {}

// lint:allow(no-such-rule) a reason that cannot save an unknown rule
fn unknown_rule() {}

// lint:allow(hot-path-alloc
fn unclosed() {}

// lint:allowing nothing at all
fn misspelled() {}
