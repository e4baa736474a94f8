//! Dense block-ID interning and flat-table block maps.
//!
//! Every hot loop in the simulation engine keys some table by [`BlockId`].
//! A `std::collections::HashMap<BlockId, V>` pays a SipHash of the full
//! 64-bit id on every probe; the engine, however, only ever sees a
//! bounded universe of blocks — the trace footprint — so the ids can be
//! *interned* once into dense `u32` indices and every subsequent table
//! access becomes a vector index.
//!
//! * [`BlockInterner`] assigns dense indices in first-seen order. Indices
//!   are **stable under incremental insertion**: interning a stream
//!   record-by-record (the online case) yields exactly the indices a
//!   whole-trace pass would (see the property tests).
//! * [`BlockMap`] is the flat `Vec`-indexed table the protocols use. The
//!   pre-existing map-backed path is retained behind
//!   [`TableMode::Hashed`] so the differential suite (and the E9
//!   benchmark) can run both representations through identical protocol
//!   code and prove bit-identical `SimStats`.
//! * [`next_use_times_interned`] routes the OPT forward-distance scan
//!   through the interner (one intern per reference, then pure array
//!   arithmetic), replacing the borrow-then-rehash double hashing the
//!   generic scan used to do.
//!
//! The dense representation has three tiers, tried in order, and hashes
//! only in the last:
//!
//! 1. **Direct.** Raw ids below [`DIRECT_LIMIT`] — every looping, Zipf
//!    and temporal synthetic workload and any real trace with compact
//!    block numbers — index a direct slot vector by the raw id itself.
//! 2. **File arena.** File-set ids pack the file index at bit 32
//!    (`(file << 32) | offset`, see [`BlockId::in_file`]). Those with a
//!    file index below [`FILE_LIMIT`] and an offset below
//!    [`DIRECT_LIMIT`] index a per-file `(base, len)` table and then one
//!    shared slot arena. A file's region is appended to the arena the
//!    first time the file is touched; an offset past its end moves the
//!    file to a fresh power-of-two region at the arena's end, abandoning
//!    the old one. Two dependent loads, both into small dense vectors.
//!    The arena's memory is bounded by the entries it holds: if its
//!    regions grow too sparse (ids far apart within their files), the map
//!    moves every file-tier entry to the fallback and stops using the
//!    tier until it is cleared.
//! 3. **Fallback.** Ids outside both bounds go to the vendored fast-hash
//!    map, one multiply-rotate hash instead of a SipHash.
//!
//! So every id the synthetic generators emit takes an indexed slot, and
//! the hot path is a bounds check or two and a vector load. This is what
//! buys the E9 and E14 throughput wins.
//!
//! Iteration over a [`BlockMap`] visits direct entries in raw-id order,
//! then file-tier entries in file and offset order, then fallback entries
//! in fast-hash order for [`TableMode::Dense`], but SipHash order for
//! [`TableMode::Hashed`]; callers must only iterate where order is
//! behaviourally irrelevant (the same rule the workspace lint enforces
//! for hash maps).

// A per-reference hot-path module: no SipHash std tables (DESIGN.md §5e).
#![warn(clippy::disallowed_types)]

use crate::{BlockId, Trace};
use fxhash::FxHashMap;

/// A sentinel meaning "no next use" in the OPT forward scan; matches
/// `ulc_cache::opt::NEVER`.
const NEVER: u64 = u64::MAX;

/// Raw block ids below this bound are direct-indexed by a dense
/// [`BlockMap`]. It also bounds the in-file offset of the file tier.
/// Bounds the worst-case direct table, and the largest file region, at
/// 2 M slots per map.
pub const DIRECT_LIMIT: u64 = 1 << 21;

/// File-set ids whose file index (`raw >> 32`) is below this bound, and
/// whose offset is below [`DIRECT_LIMIT`], take a dense [`BlockMap`]'s
/// file arena instead of its hash fallback. Bounds the per-file region
/// table at 64 Ki entries per map.
pub const FILE_LIMIT: u64 = 1 << 16;

/// Maps [`BlockId`]s to dense `u32` indices in first-seen order.
///
/// # Examples
///
/// ```
/// use ulc_trace::{BlockId, BlockInterner};
///
/// let mut interner = BlockInterner::new();
/// let a = interner.intern(BlockId::new(700));
/// let b = interner.intern(BlockId::new(3));
/// assert_eq!((a, b), (0, 1));
/// assert_eq!(interner.intern(BlockId::new(700)), 0); // stable
/// assert_eq!(interner.resolve(1), Some(BlockId::new(3)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct BlockInterner {
    index_of: FxHashMap<u64, u32>,
    blocks: Vec<BlockId>,
}

impl BlockInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        BlockInterner::default()
    }

    /// Creates an empty interner with room for `capacity` distinct blocks.
    pub fn with_capacity(capacity: usize) -> Self {
        BlockInterner {
            index_of: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
            blocks: Vec::with_capacity(capacity),
        }
    }

    /// Builds an interner over a whole trace and returns it together with
    /// the trace's reference stream re-expressed as dense indices.
    pub fn from_trace(trace: &Trace) -> (Self, Vec<u32>) {
        let mut interner = BlockInterner::with_capacity(trace.len().min(1 << 20));
        let ids = trace.iter().map(|r| interner.intern(r.block)).collect();
        (interner, ids)
    }

    /// Interns `block`, returning its dense index. The first call for a
    /// given block assigns the next free index; later calls return the
    /// same index forever.
    #[inline]
    pub fn intern(&mut self, block: BlockId) -> u32 {
        match self.index_of.entry(block.raw()) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let idx = self.blocks.len() as u32;
                assert!(idx != u32::MAX, "block universe exceeds u32 indices");
                self.blocks.push(block);
                e.insert(idx);
                idx
            }
        }
    }

    /// Returns the dense index of `block` if it has been interned.
    #[inline]
    pub fn get(&self, block: BlockId) -> Option<u32> {
        self.index_of.get(&block.raw()).copied()
    }

    /// Returns the block behind a dense index, if `idx` was assigned.
    #[inline]
    pub fn resolve(&self, idx: u32) -> Option<BlockId> {
        self.blocks.get(idx as usize).copied()
    }

    /// Number of distinct blocks interned so far.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// Which table representation a [`BlockMap`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableMode {
    /// Interned dense indices over a flat `Vec` — the default engine.
    Dense,
    /// The pre-existing `std::collections::HashMap` path, retained as the
    /// reference implementation for differential tests and benchmarks.
    Hashed,
}

/// A map from [`BlockId`] to `V` with a switchable representation.
///
/// [`TableMode::Dense`] stores values in flat slot vectors, in three
/// tiers (see the module docs): raw ids below [`DIRECT_LIMIT`] index the
/// direct table, file-set ids whose file index is below [`FILE_LIMIT`]
/// and whose offset is below [`DIRECT_LIMIT`] index the file arena, and
/// only ids outside both bounds reach the fast-hash fallback.
/// [`TableMode::Hashed`] is the historical SipHash `HashMap`. Both
/// representations implement identical map semantics, which is exactly
/// what the differential suite asserts end-to-end through the protocols.
///
/// # Examples
///
/// ```
/// use ulc_trace::{BlockId, BlockMap, TableMode};
///
/// let mut m: BlockMap<u32> = BlockMap::new(TableMode::Dense);
/// assert_eq!(m.insert(BlockId::new(9), 1), None);
/// assert_eq!(m.insert(BlockId::new(9), 2), Some(1));
/// assert_eq!(m.get(BlockId::new(9)), Some(&2));
/// assert_eq!(m.remove(BlockId::new(9)), Some(2));
/// assert!(m.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct BlockMap<V> {
    repr: Repr<V>,
}

#[derive(Clone, Debug)]
enum Repr<V> {
    Dense(Dense<V>),
    #[expect(
        clippy::disallowed_types,
        reason = "this is the retained map-backed reference representation itself"
    )]
    Hashed(std::collections::HashMap<BlockId, V>),
}

/// A file's slots in the arena: offset `o` lives at `base + o` for every
/// `o < len`. A file never touched has `len == 0`.
#[derive(Clone, Copy, Debug, Default)]
struct Region {
    base: u32,
    len: u32,
}

/// The smallest region a file's first touch opens. Most file-set files
/// are a few blocks long and are read from offset 0 upward, so this
/// spares them the 1 → 2 → 4 relocations.
const MIN_REGION: u32 = 4;

/// The most arena slots a dense map spends per file-tier entry, beyond
/// [`ARENA_FLOOR`]. A compaction that finds the regions in use (plus the
/// one being opened) spanning more than `ARENA_FLOOR` plus this many
/// slots per entry (counting the one going in) moves every file-tier
/// entry to the hash fallback and turns the tier off. So ids that sit far
/// apart within their files (one far offset in each of many files, say)
/// cost O(entries) memory, as they would in a hash map. The file-set
/// workloads stay well inside it (EXPERIMENTS.md E14).
const MAX_SLOTS_PER_ENTRY: usize = 16;

/// Arena slots a dense map may span whatever its entry count, so a small
/// map is never judged by its first few regions.
const ARENA_FLOOR: usize = 1 << 12;

/// The three-tier flat representation behind [`TableMode::Dense`].
#[derive(Clone, Debug)]
struct Dense<V> {
    /// Slots for raw ids below [`DIRECT_LIMIT`], indexed by the raw id
    /// itself; grown on demand to the largest id seen.
    direct: Vec<Option<V>>,
    /// Each file's region of `arena`, indexed by file index; grown on
    /// demand to the largest file seen.
    files: Vec<Region>,
    /// Slots of the file tier. A file's region is appended the first time
    /// the file is touched; an offset past its end moves the file to a
    /// new power-of-two region at the end, and the old (now empty) region
    /// is abandoned. When the next region would not fit the capacity,
    /// [`Dense::compact`] reclaims abandoned regions and those of files
    /// left without entries, so the arena is bounded by the regions in
    /// use, not by every file a run ever touched; and if those are too
    /// sparse it turns the tier off (see [`MAX_SLOTS_PER_ENTRY`]).
    arena: Vec<Option<V>>,
    /// `(file, base)` of every region in `arena`, in arena order,
    /// abandoned ones included (their file's region has moved on).
    regions: Vec<(u32, u32)>,
    /// Occupied slots in `direct` and `arena`.
    slots_len: usize,
    /// File indices below this take the file tier: [`FILE_LIMIT`], or 0
    /// once [`Dense::compact`] has turned the tier off. [`Dense::clear`]
    /// turns it back on.
    file_limit: u64,
    /// Fast-hash fallback for ids outside both flat tiers.
    sparse: FxHashMap<u64, V>,
}

impl<V> Dense<V> {
    fn new() -> Self {
        Dense {
            direct: Vec::new(),
            files: Vec::new(),
            arena: Vec::new(),
            regions: Vec::new(),
            slots_len: 0,
            file_limit: FILE_LIMIT,
            sparse: FxHashMap::default(),
        }
    }

    /// Splits a raw id at or above [`DIRECT_LIMIT`] into `(file, offset)`
    /// if it belongs to the file tier.
    #[inline]
    fn file_tier(&self, raw: u64) -> Option<(usize, u32)> {
        let (file, offset) = (raw >> 32, raw as u32);
        (file < self.file_limit && u64::from(offset) < DIRECT_LIMIT)
            .then_some((file as usize, offset))
    }

    /// The arena slot of `offset` in `file`, if the file's region covers it.
    #[inline]
    fn arena_index(&self, file: usize, offset: u32) -> Option<usize> {
        let r = self.files.get(file)?;
        (offset < r.len).then_some((r.base + offset) as usize)
    }

    /// The arena slot of `offset` in `file`, opening the file's region on
    /// first touch or relocating it when `offset` lies past its end.
    /// `None` if the compaction this needed turned the file tier off.
    fn claim(&mut self, file: usize, offset: u32) -> Option<usize> {
        if let Some(i) = self.arena_index(file, offset) {
            return Some(i);
        }
        if file >= self.files.len() {
            self.files.resize(file + 1, Region::default());
        }
        let len = (offset + 1).next_power_of_two().max(MIN_REGION) as usize;
        if self.arena.len() + len > self.arena.capacity() && !self.compact(len) {
            return None;
        }
        let old = self.files[file];
        let base = self.arena.len();
        assert!(
            base + len <= u32::MAX as usize,
            "file arena exceeds u32 slots"
        );
        self.arena.resize_with(base + len, || None);
        let (head, region) = self.arena.split_at_mut(base);
        let moved = &mut head[old.base as usize..][..old.len as usize];
        for (from, to) in moved.iter_mut().zip(region) {
            *to = from.take();
        }
        self.files[file] = Region {
            base: base as u32,
            len: len as u32,
        };
        self.regions.push((file as u32, base as u32));
        Some(base + offset as usize)
    }

    /// Slides the regions of files that still hold an entry to the front
    /// of the arena, in arena order, and drops the rest: abandoned regions
    /// and regions whose entries were all removed (their file reverts to
    /// untouched). Then makes sure the live regions plus `need` slots fill
    /// at most half the capacity, so compaction costs amortised O(1) per
    /// claimed slot. The arena only reallocates here or in
    /// [`Dense::reserve`], and `regions` is grown alongside it (every
    /// region spans at least [`MIN_REGION`] slots), so neither
    /// reallocates while the regions in use fit the capacity.
    ///
    /// If the live regions plus `need` would span more than
    /// [`MAX_SLOTS_PER_ENTRY`] slots per file-tier entry (counting the one
    /// about to go in), turns the file tier off instead
    /// ([`Dense::leave_file_tier`]) and returns `false`. So the arena's
    /// capacity stays below a constant multiple of the map's peak entry
    /// count, or of what [`Dense::reserve`] asked for if that is more.
    fn compact(&mut self, need: usize) -> bool {
        let mut end = 0;
        let mut kept = 0;
        let mut entries = 0;
        for k in 0..self.regions.len() {
            let (file, base) = self.regions[k];
            let r = self.files[file as usize];
            if r.base != base || r.len == 0 {
                continue; // abandoned
            }
            let (from, len) = (base as usize, r.len as usize);
            let live = self.arena[from..from + len]
                .iter()
                .filter(|s| s.is_some())
                .count();
            if live == 0 {
                self.files[file as usize] = Region::default();
                continue;
            }
            entries += live;
            // `from >= end`: moving slot by slot from the low end never
            // overwrites a slot that is still to be moved.
            for j in 0..len {
                let v = self.arena[from + j].take();
                self.arena[end + j] = v;
            }
            self.files[file as usize].base = end as u32;
            self.regions[kept] = (file, end as u32);
            kept += 1;
            end += len;
        }
        self.regions.truncate(kept);
        self.arena.truncate(end);
        if end + need > ARENA_FLOOR + MAX_SLOTS_PER_ENTRY * (entries + 1) {
            self.leave_file_tier(entries);
            return false;
        }
        self.grow_arena(2 * (end + need));
        true
    }

    /// Moves the `entries` file-tier entries of a just-compacted arena to
    /// the hash fallback, frees the arena and the file table, and routes
    /// every file-set id to the fallback until [`Dense::clear`].
    // lint:cold-path a one-time switch of a map whose file ids are too sparse; allocation is by design
    #[cold]
    fn leave_file_tier(&mut self, entries: usize) {
        let mut arena = std::mem::take(&mut self.arena);
        self.sparse.reserve(entries);
        for &(file, base) in &self.regions {
            let len = self.files[file as usize].len as usize;
            let slots = &mut arena[base as usize..][..len];
            for (offset, slot) in slots.iter_mut().enumerate() {
                if let Some(v) = slot.take() {
                    self.sparse.insert((u64::from(file) << 32) | offset as u64, v);
                }
            }
        }
        self.slots_len -= entries;
        self.files = Vec::new();
        self.regions = Vec::new();
        self.file_limit = 0;
    }

    /// Grows the arena's capacity to at least `slots`, and the region
    /// list's to match.
    fn grow_arena(&mut self, slots: usize) {
        self.arena.reserve(slots.saturating_sub(self.arena.len()));
        let regions = self.arena.capacity() / MIN_REGION as usize;
        self.regions
            .reserve(regions.saturating_sub(self.regions.len()));
    }

    /// The allocated flat slot of `raw`: `None` for fallback ids and for
    /// flat ids whose slot does not exist yet.
    #[inline]
    fn slot(&self, raw: u64) -> Option<&Option<V>> {
        if raw < DIRECT_LIMIT {
            self.direct.get(raw as usize)
        } else {
            let (file, offset) = self.file_tier(raw)?;
            self.arena_index(file, offset).map(|i| &self.arena[i])
        }
    }

    #[inline]
    fn get(&self, raw: u64) -> Option<&V> {
        if raw < DIRECT_LIMIT {
            self.direct.get(raw as usize).and_then(Option::as_ref)
        } else if let Some((file, offset)) = self.file_tier(raw) {
            let i = self.arena_index(file, offset)?;
            self.arena[i].as_ref()
        } else {
            self.sparse.get(&raw)
        }
    }

    #[inline]
    fn get_mut(&mut self, raw: u64) -> Option<&mut V> {
        if raw < DIRECT_LIMIT {
            self.direct.get_mut(raw as usize).and_then(Option::as_mut)
        } else if let Some((file, offset)) = self.file_tier(raw) {
            let i = self.arena_index(file, offset)?;
            self.arena[i].as_mut()
        } else {
            self.sparse.get_mut(&raw)
        }
    }

    #[inline]
    fn insert(&mut self, raw: u64, value: V) -> Option<V> {
        let slot = if raw < DIRECT_LIMIT {
            let i = raw as usize;
            if i >= self.direct.len() {
                self.direct.resize_with(i + 1, || None);
            }
            &mut self.direct[i]
        } else if let Some((file, offset)) = self.file_tier(raw) {
            match self.claim(file, offset) {
                Some(i) => &mut self.arena[i],
                None => return self.sparse.insert(raw, value),
            }
        } else {
            return self.sparse.insert(raw, value);
        };
        let old = slot.replace(value);
        if old.is_none() {
            self.slots_len += 1;
        }
        old
    }

    #[inline]
    fn remove(&mut self, raw: u64) -> Option<V> {
        let slot = if raw < DIRECT_LIMIT {
            self.direct.get_mut(raw as usize)
        } else if let Some((file, offset)) = self.file_tier(raw) {
            let i = self.arena_index(file, offset);
            i.map(|i| &mut self.arena[i])
        } else {
            return self.sparse.remove(&raw);
        };
        let old = slot.and_then(Option::take);
        if old.is_some() {
            self.slots_len -= 1;
        }
        old
    }

    fn reserve(&mut self, additional: usize) {
        if self.file_limit == 0 {
            // File-set ids go to the fallback now.
            self.sparse.reserve(additional);
            return;
        }
        self.grow_arena(self.arena.len() + 2 * additional);
        let files = additional.min(FILE_LIMIT as usize);
        self.files.reserve(files.saturating_sub(self.files.len()));
    }

    fn clear(&mut self) {
        for s in &mut self.direct {
            *s = None;
        }
        self.files.fill(Region::default());
        self.arena.clear();
        self.regions.clear();
        self.slots_len = 0;
        self.file_limit = FILE_LIMIT;
        self.sparse.clear();
    }
}

impl<V> Default for BlockMap<V> {
    fn default() -> Self {
        BlockMap::new(TableMode::Dense)
    }
}

impl<V> BlockMap<V> {
    /// Creates an empty map with the given representation.
    pub fn new(mode: TableMode) -> Self {
        let repr = match mode {
            TableMode::Dense => Repr::Dense(Dense::new()),
            TableMode::Hashed => Repr::Hashed(Default::default()),
        };
        BlockMap { repr }
    }

    /// The representation this map was built with.
    pub fn mode(&self) -> TableMode {
        match self.repr {
            Repr::Dense(_) => TableMode::Dense,
            Repr::Hashed(_) => TableMode::Hashed,
        }
    }

    /// Returns a reference to the value for `block`, if present.
    #[inline]
    pub fn get(&self, block: BlockId) -> Option<&V> {
        match &self.repr {
            Repr::Dense(d) => d.get(block.raw()),
            Repr::Hashed(m) => m.get(&block),
        }
    }

    /// Returns a mutable reference to the value for `block`, if present.
    #[inline]
    pub fn get_mut(&mut self, block: BlockId) -> Option<&mut V> {
        match &mut self.repr {
            Repr::Dense(d) => d.get_mut(block.raw()),
            Repr::Hashed(m) => m.get_mut(&block),
        }
    }

    /// Returns `true` if `block` has a value.
    #[inline]
    pub fn contains_key(&self, block: BlockId) -> bool {
        self.get(block).is_some()
    }

    /// Inserts `value` for `block`, returning the previous value if any.
    #[inline]
    pub fn insert(&mut self, block: BlockId, value: V) -> Option<V> {
        match &mut self.repr {
            Repr::Dense(d) => d.insert(block.raw(), value),
            Repr::Hashed(m) => m.insert(block, value),
        }
    }

    /// Removes and returns the value for `block`, if present.
    #[inline]
    pub fn remove(&mut self, block: BlockId) -> Option<V> {
        match &mut self.repr {
            Repr::Dense(d) => d.remove(block.raw()),
            Repr::Hashed(m) => m.remove(&block),
        }
    }

    /// Reserves room for `additional` more entries in the tiers that grow
    /// with occupancy or with new files.
    ///
    /// For [`TableMode::Dense`] this pre-sizes the file arena to twice
    /// `additional` slots (regions round up to powers of two, and the
    /// arena reallocates only once the regions in use fill more than half
    /// of it) and the file table to `additional` files (at most
    /// [`FILE_LIMIT`]). The file tier can reach its high-water mark
    /// arbitrarily late in a run and would otherwise reallocate inside a
    /// measured steady phase (DESIGN.md §5f). The direct slot vector is
    /// left alone: it is grown to the largest sub-[`DIRECT_LIMIT`] id
    /// seen, which any warm-up phase discovers. The fast-hash fallback is
    /// reserved only once the file tier has turned off and file-set ids
    /// go there. For [`TableMode::Hashed`] the whole map is reserved.
    pub fn reserve(&mut self, additional: usize) {
        match &mut self.repr {
            Repr::Dense(d) => d.reserve(additional),
            Repr::Hashed(m) => m.reserve(additional),
        }
    }

    /// Hints the CPU to pull the flat-table slot for `block` into cache:
    /// the direct slot, or the file-arena slot (reading the file's region
    /// to find it). A no-op for fallback ids, for slots that do not exist
    /// yet and on non-x86_64 targets; never touches map contents, so
    /// calling it (or not) for any block is semantics-free — the batched
    /// access pipeline issues it a few references ahead of the access
    /// itself.
    #[inline]
    pub fn prefetch(&self, block: BlockId) {
        #[cfg(target_arch = "x86_64")]
        if let Repr::Dense(d) = &self.repr {
            if let Some(slot) = d.slot(block.raw()) {
                // SAFETY: `slot` is a live reference into a slot vector;
                // prefetch dereferences nothing, it only hints the cache
                // about a valid address.
                unsafe {
                    std::arch::x86_64::_mm_prefetch(
                        (slot as *const Option<V>).cast::<i8>(),
                        std::arch::x86_64::_MM_HINT_T0,
                    );
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = block;
    }

    /// Number of entries with a value.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Dense(d) => d.slots_len + d.sparse.len(),
            Repr::Hashed(m) => m.len(),
        }
    }

    /// Returns `true` if the map holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every value. The direct table keeps its slots and the
    /// file tier its capacity, so re-inserted blocks pay no regrowth.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Dense(d) => d.clear(),
            Repr::Hashed(m) => m.clear(),
        }
    }

    /// Iterates over `(block, &value)` pairs.
    ///
    /// For [`TableMode::Dense`] the order is raw-id order over the direct
    /// table, then file order and offset order within each file over the
    /// file tier, then fast-hash order over the fallback;
    /// [`TableMode::Hashed`] walks in SipHash order. Use only where order
    /// cannot influence behaviour.
    #[expect(
        clippy::disallowed_methods,
        reason = "the documented contract: callers use this only where order cannot leak"
    )]
    pub fn iter(&self) -> Iter<'_, V> {
        Iter(match &self.repr {
            Repr::Dense(d) => IterRepr::Dense {
                direct: d.direct.iter().enumerate(),
                files: d.files.iter().enumerate(),
                arena: &d.arena,
                region: (0, [].iter().enumerate()),
                sparse: d.sparse.iter(),
            },
            Repr::Hashed(m) => IterRepr::Hashed(m.iter()),
        })
    }
}

/// Iterator over a [`BlockMap`]; created by [`BlockMap::iter`].
#[derive(Debug)]
pub struct Iter<'a, V>(IterRepr<'a, V>);

/// Enumerated cursor over a run of slots (the index is the raw id in the
/// direct table, the offset in a file region).
type SlotCursor<'a, V> = std::iter::Enumerate<std::slice::Iter<'a, Option<V>>>;

#[derive(Debug)]
enum IterRepr<'a, V> {
    Dense {
        direct: SlotCursor<'a, V>,
        files: std::iter::Enumerate<std::slice::Iter<'a, Region>>,
        arena: &'a [Option<V>],
        /// The current file's raw-id prefix (`file << 32`) and the rest
        /// of its region.
        region: (u64, SlotCursor<'a, V>),
        sparse: std::collections::hash_map::Iter<'a, u64, V>,
    },
    Hashed(std::collections::hash_map::Iter<'a, BlockId, V>),
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (BlockId, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            IterRepr::Dense {
                direct,
                files,
                arena,
                region,
                sparse,
            } => {
                for (raw, slot) in direct.by_ref() {
                    if let Some(v) = slot.as_ref() {
                        return Some((BlockId::new(raw as u64), v));
                    }
                }
                loop {
                    for (offset, slot) in region.1.by_ref() {
                        if let Some(v) = slot.as_ref() {
                            return Some((BlockId::new(region.0 | offset as u64), v));
                        }
                    }
                    let Some((file, r)) = files.next() else {
                        break;
                    };
                    let arena: &'a [Option<V>] = arena;
                    let slots = &arena[r.base as usize..][..r.len as usize];
                    *region = ((file as u64) << 32, slots.iter().enumerate());
                }
                sparse.next().map(|(&raw, v)| (BlockId::new(raw), v))
            }
            IterRepr::Hashed(it) => it.next().map(|(b, v)| (*b, v)),
        }
    }
}

/// OPT forward distances, routed through the interner: for every position
/// `i`, the time of the next reference to the same block, or `u64::MAX`
/// if it is never referenced again.
///
/// This is the interned replacement for the generic
/// `ulc_cache::opt::next_use_times` scan, which kept a
/// `HashMap<&T, usize>` and hashed each key twice per step (a lookup
/// immediately followed by an insert). Here each reference is interned
/// once (one fast hash) and the scan itself is pure array arithmetic.
///
/// # Examples
///
/// ```
/// use ulc_trace::{intern::next_use_times_interned, BlockId};
///
/// let blocks: Vec<BlockId> = [1u64, 2, 1].map(BlockId::new).into();
/// assert_eq!(next_use_times_interned(&blocks), vec![2, u64::MAX, u64::MAX]);
/// ```
pub fn next_use_times_interned(blocks: &[BlockId]) -> Vec<u64> {
    let mut interner = BlockInterner::with_capacity(blocks.len().min(1 << 20));
    let ids: Vec<u32> = blocks.iter().map(|&b| interner.intern(b)).collect();
    let mut last_seen: Vec<u64> = vec![NEVER; interner.len()];
    let mut out = vec![NEVER; ids.len()];
    for (i, &id) in ids.iter().enumerate().rev() {
        out[i] = last_seen[id as usize];
        last_seen[id as usize] = i as u64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raws: &[u64]) -> Vec<BlockId> {
        raws.iter().copied().map(BlockId::new).collect()
    }

    #[test]
    fn intern_assigns_first_seen_order() {
        let mut it = BlockInterner::new();
        assert_eq!(it.intern(BlockId::new(50)), 0);
        assert_eq!(it.intern(BlockId::new(7)), 1);
        assert_eq!(it.intern(BlockId::new(50)), 0);
        assert_eq!(it.len(), 2);
        assert_eq!(it.get(BlockId::new(7)), Some(1));
        assert_eq!(it.get(BlockId::new(8)), None);
        assert_eq!(it.resolve(0), Some(BlockId::new(50)));
        assert_eq!(it.resolve(2), None);
    }

    #[test]
    fn from_trace_matches_incremental() {
        let t = Trace::from_blocks(ids(&[5, 9, 5, 2, 9, 5]));
        let (interner, stream) = BlockInterner::from_trace(&t);
        assert_eq!(stream, vec![0, 1, 0, 2, 1, 0]);
        let mut inc = BlockInterner::new();
        let inc_stream: Vec<u32> = t.iter().map(|r| inc.intern(r.block)).collect();
        assert_eq!(stream, inc_stream);
        assert_eq!(interner.len(), inc.len());
    }

    #[test]
    fn block_map_semantics_match_between_modes() {
        for mode in [TableMode::Dense, TableMode::Hashed] {
            let mut m: BlockMap<u32> = BlockMap::new(mode);
            assert_eq!(m.mode(), mode);
            assert!(m.is_empty());
            assert_eq!(m.insert(BlockId::new(3), 30), None);
            assert_eq!(m.insert(BlockId::new(4), 40), None);
            assert_eq!(m.insert(BlockId::new(3), 31), Some(30));
            assert_eq!(m.len(), 2);
            assert_eq!(m.get(BlockId::new(3)), Some(&31));
            assert!(m.contains_key(BlockId::new(4)));
            *m.get_mut(BlockId::new(4)).unwrap() += 1;
            assert_eq!(m.remove(BlockId::new(4)), Some(41));
            assert_eq!(m.remove(BlockId::new(4)), None);
            assert_eq!(m.len(), 1);
            m.clear();
            assert!(m.is_empty());
            assert_eq!(m.get(BlockId::new(3)), None);
            // Reuse after clear.
            assert_eq!(m.insert(BlockId::new(3), 99), None);
            assert_eq!(m.get(BlockId::new(3)), Some(&99));
        }
    }

    #[test]
    fn dense_iter_is_raw_order_then_spill_order() {
        let mut m: BlockMap<u32> = BlockMap::new(TableMode::Dense);
        m.insert(BlockId::new(9), 1);
        m.insert(BlockId::new(2), 2);
        m.insert(BlockId::new(5), 3);
        m.insert(BlockId::new(DIRECT_LIMIT + 7), 4); // spills
        m.remove(BlockId::new(2));
        let got: Vec<(u64, u32)> = m.iter().map(|(b, &v)| (b.raw(), v)).collect();
        assert_eq!(got, vec![(5, 3), (9, 1), (DIRECT_LIMIT + 7, 4)]);
    }

    fn dense<V>(m: &BlockMap<V>) -> &Dense<V> {
        match &m.repr {
            Repr::Dense(d) => d,
            Repr::Hashed(_) => panic!("not a dense map"),
        }
    }

    /// Entries in a dense map's hash fallback.
    fn fallback_len<V>(m: &BlockMap<V>) -> usize {
        dense(m).sparse.len()
    }

    #[test]
    fn file_set_and_sparse_ids_obey_map_semantics() {
        // A file-tier id (file 7) and a fallback id (file index past
        // FILE_LIMIT) must obey the same map semantics in both modes.
        let lo = BlockId::new(3);
        let file = BlockId::new((7u64 << 32) | 3);
        let hi = BlockId::new((FILE_LIMIT << 32) | 3);
        for mode in [TableMode::Dense, TableMode::Hashed] {
            let mut m: BlockMap<u32> = BlockMap::new(mode);
            assert_eq!(m.insert(lo, 1), None);
            assert_eq!(m.insert(file, 2), None);
            assert_eq!(m.insert(hi, 3), None);
            assert_eq!(m.len(), 3);
            assert_eq!(m.get(lo), Some(&1));
            assert_eq!(m.get(file), Some(&2));
            assert_eq!(m.get(hi), Some(&3));
            assert_eq!(m.insert(file, 20), Some(2));
            assert_eq!(m.remove(file), Some(20));
            assert_eq!(m.remove(file), None);
            assert_eq!(m.get(file), None);
            assert_eq!(m.remove(hi), Some(3));
            assert_eq!(m.get(lo), Some(&1));
            m.clear();
            assert!(m.is_empty());
            assert_eq!(m.insert(file, 9), None);
            assert_eq!(m.get(file), Some(&9));
        }
    }

    #[test]
    fn file_regions_relocate_without_losing_entries() {
        let mut m: BlockMap<u32> = BlockMap::new(TableMode::Dense);
        let block = |file: u64, offset: u32| BlockId::new((file << 32) | u64::from(offset));
        // Interleave two files so relocations never sit at the arena's
        // end, and leave a hole in each.
        for offset in 0..100u32 {
            m.insert(block(5, offset), offset);
            m.insert(block(2, offset), 1000 + offset);
        }
        m.remove(block(5, 40));
        m.remove(block(2, 0));
        assert_eq!(m.len(), 198);
        for offset in 0..100u32 {
            assert_eq!(m.get(block(5, offset)), (offset != 40).then_some(&offset));
            let want = 1000 + offset;
            assert_eq!(m.get(block(2, offset)), (offset != 0).then_some(&want));
        }
        assert_eq!(m.get(block(5, 100)), None);
        // A far offset opens a region sized to the next power of two.
        m.insert(block(9, 1000), 7);
        assert_eq!(m.get(block(9, 1000)), Some(&7));
        assert_eq!(m.get(block(9, 1023)), None);
        // Iteration: file order, offset order within a file.
        let got: Vec<u64> = m.iter().map(|(b, _)| b.raw()).collect();
        let mut want: Vec<u64> = (1..100).map(|o| block(2, o).raw()).collect();
        want.extend((0..100).filter(|&o| o != 40).map(|o| block(5, o).raw()));
        want.push(block(9, 1000).raw());
        assert_eq!(got, want);
        assert_eq!(fallback_len(&m), 0);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
        m.insert(block(5, 99), 1);
        assert_eq!(m.get(block(5, 99)), Some(&1));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn compaction_bounds_the_arena_by_the_regions_in_use() {
        let block = |file: u64, offset: u64| BlockId::new((file << 32) | offset);
        let mut m: BlockMap<u64> = BlockMap::new(TableMode::Dense);
        m.reserve(64);
        // A few long-lived files interleaved with a stream of short-lived
        // ones: the arena must not grow with the number of files touched.
        for f in 1..=4u64 {
            m.insert(block(f, 0), f);
        }
        for f in 10..20_000u64 {
            m.insert(block(f, 0), f);
            m.insert(block(f, 1), f);
            if f % 97 == 0 {
                // Relocate a long-lived file now and then.
                let keep = 1 + f % 4;
                m.insert(block(keep, (f / 97) % 40), f);
            }
            m.remove(block(f, 0));
            m.remove(block(f, 1));
        }
        let d = dense(&m);
        assert!(d.arena.capacity() <= 1024, "arena {}", d.arena.capacity());
        // Every region left after the last compaction is still in use or
        // was abandoned since.
        assert!(d.regions.len() <= d.arena.len() / MIN_REGION as usize);
        let mut want: Vec<(u64, u64)> = (1..=4u64).map(|f| (block(f, 0).raw(), f)).collect();
        for f in (97..20_000u64).step_by(97) {
            let keep = 1 + f % 4;
            let raw = block(keep, (f / 97) % 40).raw();
            match want.iter_mut().find(|(r, _)| *r == raw) {
                Some(e) => e.1 = f,
                None => want.push((raw, f)),
            }
        }
        want.sort_unstable();
        let got: Vec<(u64, u64)> = m.iter().map(|(b, &v)| (b.raw(), v)).collect();
        assert_eq!(got, want);
        assert_eq!(m.len(), want.len());
    }

    #[test]
    fn sparse_file_ids_leave_the_file_tier_with_bounded_memory() {
        let block = |file: u64, offset: u64| BlockId::new((file << 32) | offset);
        // The arena's capacity may reach four times the span a compaction
        // accepts (it at most doubles past what that compaction asked for).
        let bound = |len: usize| 4 * (ARENA_FLOOR + MAX_SLOTS_PER_ENTRY * (len + 1));
        for offset in [DIRECT_LIMIT - 1, 1000, 100] {
            let mut m: BlockMap<u64> = BlockMap::new(TableMode::Dense);
            m.reserve(64);
            // One far offset in each of many files.
            for f in 1..=4096u64 {
                m.insert(block(f, offset), f);
                let cap = dense(&m).arena.capacity();
                assert!(cap <= bound(m.len()), "offset {offset}: {cap} slots");
            }
            assert_eq!(fallback_len(&m), m.len(), "offset {offset}: tier still on");
            assert_eq!(dense(&m).files.capacity(), 0);
            // Every entry survived the move, and further ones go the same way.
            m.insert(block(1, 0), 0);
            assert_eq!(m.len(), 4097);
            for f in 1..=4096u64 {
                assert_eq!(m.get(block(f, offset)), Some(&f));
            }
            assert_eq!(m.remove(block(1, 0)), Some(0));
            assert_eq!(m.iter().count(), 4096);
            // `clear` turns the tier back on.
            m.clear();
            m.insert(block(1, 0), 0);
            assert_eq!(fallback_len(&m), 0);
            assert_eq!(m.get(block(1, 0)), Some(&0));
        }
    }

    /// The noise-free witness for the file tier: every block the
    /// file-set workloads emit takes an indexed slot, so a dense map
    /// over them never hashes, whether it holds every block or only a
    /// cache's worth of them.
    #[test]
    fn file_set_workloads_never_reach_the_hash_fallback() {
        use crate::synthetic;
        for trace in [
            synthetic::httpd_multi(100_000),
            synthetic::httpd_single(100_000),
        ] {
            let mut m: BlockMap<()> = BlockMap::new(TableMode::Dense);
            for r in trace.iter() {
                m.insert(r.block, ());
            }
            let distinct: std::collections::BTreeSet<BlockId> =
                trace.iter().map(|r| r.block).collect();
            assert_eq!(m.len(), distinct.len());
            assert_eq!(fallback_len(&m), 0, "a file-set id was hashed");
            // A FIFO window of 2048 blocks: removals thin the regions out.
            let mut window: BlockMap<()> = BlockMap::new(TableMode::Dense);
            let mut order = std::collections::VecDeque::new();
            for r in trace.iter() {
                if window.insert(r.block, ()).is_none() {
                    order.push_back(r.block);
                }
                if order.len() > 2048 {
                    window.remove(order.pop_front().unwrap());
                }
            }
            assert_eq!(window.len(), 2048);
            assert_eq!(fallback_len(&window), 0, "the windowed map was hashed");
        }
        // Ids outside both flat tiers do land in the fallback.
        let outside = [
            DIRECT_LIMIT,             // file 0, offset too large
            (1 << 32) | DIRECT_LIMIT, // offset too large
            (FILE_LIMIT << 32) | 1,   // file index too large
            u64::MAX,
        ];
        let mut m: BlockMap<()> = BlockMap::new(TableMode::Dense);
        for raw in outside {
            m.insert(BlockId::new(raw), ());
        }
        assert_eq!(fallback_len(&m), outside.len());
        // While the last in-bounds ids stay flat. (A lone entry at the
        // last offset would open a 2 M-slot region for one entry, so the
        // tier would rightly turn off; its routing is checked instead.)
        m.insert(BlockId::new(DIRECT_LIMIT - 1), ());
        m.insert(BlockId::new(((FILE_LIMIT - 1) << 32) | 3), ());
        assert_eq!(fallback_len(&m), outside.len());
        assert_eq!(m.len(), outside.len() + 2);
        let last = ((FILE_LIMIT - 1) << 32) | (DIRECT_LIMIT - 1);
        let d = dense(&m);
        assert_eq!(d.file_tier(last), Some((FILE_LIMIT as usize - 1, DIRECT_LIMIT as u32 - 1)));
        assert!(outside.iter().all(|&raw| d.file_tier(raw).is_none()));
    }

    #[test]
    fn hashed_iter_visits_every_entry() {
        let mut m: BlockMap<u32> = BlockMap::new(TableMode::Hashed);
        for i in 0..10u64 {
            m.insert(BlockId::new(i), i as u32);
        }
        let mut got: Vec<u64> = m.iter().map(|(b, _)| b.raw()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..10u64).collect::<Vec<_>>());
    }

    #[test]
    fn interned_next_use_matches_naive() {
        let blocks = ids(&[1, 2, 1, 3, 2, 1, 4]);
        let got = next_use_times_interned(&blocks);
        // Naive O(n^2) oracle.
        let mut want = vec![NEVER; blocks.len()];
        for i in 0..blocks.len() {
            for j in i + 1..blocks.len() {
                if blocks[j] == blocks[i] {
                    want[i] = j as u64;
                    break;
                }
            }
        }
        assert_eq!(got, want);
        assert!(next_use_times_interned(&[]).is_empty());
    }
}
