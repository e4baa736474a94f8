// Positive case for the `dead-allow` rule: the allocation the comment
// excused is gone, so the comment is stale.

fn access_into(b: u32) -> u32 {
    // lint:allow(hot-path-alloc) the old body grew a scratch Vec here
    b + 1
}
