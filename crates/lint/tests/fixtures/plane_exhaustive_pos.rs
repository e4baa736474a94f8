// Positive case for the `plane-exhaustive` rule: a delivery handler that
// names a strict subset of a marked enum's variants and has no `_ =>` arm.

// lint:exhaustive
enum Message {
    Demote,
    Reload,
    Notice,
}

fn pump(plane: &mut Plane) {
    plane.deliver(0);
    if let Message::Demote = next() {}
}
