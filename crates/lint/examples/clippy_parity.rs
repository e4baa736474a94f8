//! Parity fixture for the `ulc-lint` rules that rustc and clippy took
//! over (DESIGN.md §5c). Each positive case of the retired rules'
//! fixtures is here once, under an `#[expect(<lint>, reason = "parity
//! fixture")]`. If the workspace lint table or `clippy.toml` stops
//! raising that lint here, the expectation goes unfulfilled and
//! `cargo clippy --workspace --all-targets -- -D warnings` fails. The
//! clean constructs of the retired negative fixtures sit beside them
//! without annotations, so a lint that starts firing on them fails too.
//!
//! The file is an example built as a library: clippy's in-tests
//! exemptions do not apply, and its `pub` items are exported, as in the
//! workspace's library crates.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, RandomState};
use std::time::Instant;

/// Determinism: simulator state keyed by block.
#[derive(Debug, Default)]
pub struct Sim {
    table: HashMap<u64, u64>,
    ordered: BTreeMap<u64, u64>,
}

impl Sim {
    /// Hash-order iteration feeding an order-sensitive fold.
    #[expect(
        clippy::disallowed_methods,
        clippy::iter_over_hash_type,
        reason = "parity fixture"
    )]
    pub fn order_sensitive_sum(&self) -> u64 {
        let mut acc = 0u64;
        for (_, v) in self.table.iter() {
            acc = acc.wrapping_mul(31).wrapping_add(*v);
        }
        acc
    }

    /// Hash-order `keys()`.
    #[expect(clippy::disallowed_methods, reason = "parity fixture")]
    pub fn first_key(&self) -> Option<u64> {
        self.table.keys().next().copied()
    }

    /// Point lookups and size queries are order-safe.
    pub fn lookups(&self) -> (Option<&u64>, usize, bool) {
        (self.table.get(&1), self.table.len(), self.table.is_empty())
    }

    /// Ordered-map and slice iteration are order-safe.
    pub fn ordered_sum(&self, items: &[u64]) -> u64 {
        self.ordered.values().sum::<u64>() + items.iter().sum::<u64>()
    }
}

/// Determinism: a bare `for` over a hash table.
#[expect(clippy::iter_over_hash_type, reason = "parity fixture")]
pub fn bare_for_loop(seen: &HashMap<u64, u64>) -> usize {
    let mut n = 0;
    for _ in seen {
        n += 1;
    }
    n
}

/// Determinism: the wall clock.
#[expect(clippy::disallowed_methods, reason = "parity fixture")]
pub fn wall_clock() -> Instant {
    Instant::now()
}

/// Determinism: an ambient RNG. The vendored `rand` has no `thread_rng`;
/// std's per-process hash seed is the ambient randomness in reach.
#[expect(clippy::disallowed_methods, reason = "parity fixture")]
pub fn ambient_rng() -> u64 {
    RandomState::new().hash_one(0u64)
}

/// Unsafe hygiene: an `unsafe` block with no `// SAFETY:` comment.
///
/// # Safety
///
/// `p` must point at a live byte.
pub unsafe fn read_raw(p: *const u8) -> u8 {
    #[expect(clippy::undocumented_unsafe_blocks, reason = "parity fixture")]
    unsafe {
        *p
    }
}

/// Unsafe hygiene: an `unsafe fn` that does not say what its caller
/// must guarantee.
#[expect(clippy::missing_safety_doc, reason = "parity fixture")]
pub unsafe fn no_justification(p: *mut u8) {
    *p = 0;
}

/// Unsafe hygiene: a `// SAFETY:` comment too far above its block.
///
/// # Safety
///
/// `p` must point at a live byte.
pub unsafe fn stale_comment(p: *const u8) -> u8 {
    // SAFETY: separated from the block below by a statement, so it
    // justifies nothing.
    let _ = p;
    #[expect(clippy::undocumented_unsafe_blocks, reason = "parity fixture")]
    unsafe {
        *p
    }
}

/// Unsafe hygiene: a justified block.
///
/// # Safety
///
/// `p` must point at a live byte.
pub unsafe fn justified(p: *const u8) -> u8 {
    // SAFETY: the caller guarantees `p` points at a live byte.
    unsafe { *p }
}

/// Panic hygiene: `unwrap()`.
#[expect(clippy::unwrap_used, reason = "parity fixture")]
pub fn direct_unwrap(x: Option<u8>) -> u8 {
    x.unwrap()
}

/// Panic hygiene: dropped coverage. `expect` with a non-literal message
/// has no clippy lint short of `expect_used`, which would also reject
/// the sanctioned `expect("invariant: …")` form.
pub fn bare_expect(x: Option<u8>, msg: &str) -> u8 {
    x.expect(msg)
}

/// Panic hygiene: dropped coverage, as for [`bare_expect`]: an empty
/// `expect` message.
pub fn empty_expect(x: Option<u8>) -> u8 {
    x.expect("")
}

/// Panic hygiene: `panic!`.
#[expect(clippy::panic, reason = "parity fixture")]
pub fn explicit_panic() {
    panic!("library code must not abort")
}

/// Panic hygiene: the marker macros.
pub fn marker_macros(x: u8) -> u8 {
    match x {
        #[expect(clippy::todo, reason = "parity fixture")]
        0 => todo!(),
        #[expect(clippy::unimplemented, reason = "parity fixture")]
        1 => unimplemented!(),
        #[expect(clippy::unreachable, reason = "parity fixture")]
        _ => unreachable!(),
    }
}

/// Panic hygiene: the sanctioned forms.
pub fn documented_expect(x: Option<u8>, len: usize, cap: usize) -> Result<u8, String> {
    assert!(len <= cap, "length within capacity");
    let _ = x.expect("invariant: entry was inserted by the caller");
    x.ok_or_else(|| "missing".to_string())
}

/// Doc coverage: each undocumented public item.
pub mod undocumented {
    #[expect(missing_docs, reason = "parity fixture")]
    pub fn undocumented_fn() {}

    #[expect(missing_docs, reason = "parity fixture")]
    pub struct Undocumented {
        #[expect(missing_docs, reason = "parity fixture")]
        pub field: u32,
        private_field: u32,
    }

    impl Undocumented {
        /// Reads the private field, so it is not dead code.
        pub fn private(&self) -> u32 {
            self.private_field
        }
    }

    #[expect(missing_docs, reason = "parity fixture")]
    pub enum AlsoUndocumented {
        #[expect(missing_docs, reason = "parity fixture")]
        Variant,
    }

    #[expect(missing_docs, reason = "parity fixture")]
    pub const LIMIT: usize = 8;

    /// A documented item, a crate-private one and a re-export are clean.
    pub fn documented_fn() {
        crate_private();
    }

    pub(crate) fn crate_private() {}

    pub use std::collections::BTreeMap;
}

/// Hot-path tables: a module on the hot-path list raises the
/// workspace-`allow` lint, as the engine's hot-path modules do.
pub mod hot {
    #![warn(clippy::disallowed_types)]

    /// A per-block table.
    #[derive(Debug, Default)]
    pub struct Table {
        #[expect(clippy::disallowed_types, reason = "parity fixture")]
        map: std::collections::HashMap<u64, u32>,
        dense: Vec<Option<u32>>,
        fast: fxhash::FxHashMap<u64, u32>,
        ordered: std::collections::BTreeMap<u64, u32>,
    }

    impl Table {
        /// Sizes of every representation.
        pub fn sizes(&self) -> [usize; 4] {
            [
                self.map.len(),
                self.dense.len(),
                self.fast.len(),
                self.ordered.len(),
            ]
        }
    }

    /// Builds the set.
    #[expect(clippy::disallowed_types, reason = "parity fixture")]
    pub fn build() -> std::collections::HashSet<u64> {
        #[expect(clippy::disallowed_types, reason = "parity fixture")]
        let mut set = std::collections::HashSet::new();
        set.insert(0);
        set
    }
}
