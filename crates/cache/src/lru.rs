//! Keyed LRU stacks and a bounded LRU cache.

// A per-reference hot-path module: no SipHash std tables (DESIGN.md §5e).
#![warn(clippy::disallowed_types)]

use crate::{LinkedSlab, NodeHandle};
use fxhash::FxHashMap;
use std::hash::Hash;

/// An unbounded LRU stack over keys: a recency ordering with O(1) touch,
/// removal and bottom access.
///
/// This is the bare recency structure; [`LruCache`] adds a capacity bound
/// and eviction. The LIRS and MQ stacks and queues build on it directly.
///
/// # Examples
///
/// ```
/// use ulc_cache::LruStack;
///
/// let mut s = LruStack::new();
/// s.touch(1);
/// s.touch(2);
/// s.touch(1);
/// assert_eq!(s.bottom(), Some(&2));
/// assert_eq!(s.top(), Some(&1));
/// ```
#[derive(Clone, Debug, Default)]
pub struct LruStack<K: Eq + Hash + Clone> {
    list: LinkedSlab<K>,
    // The recency *order* lives in the list; this map only locates nodes,
    // so the fast deterministic Fx hasher is behaviour-neutral here.
    map: FxHashMap<K, NodeHandle>,
    /// Keys covered by the last [`LruStack::reserve`]; 0 if never
    /// reserved.
    reserved: usize,
}

impl<K: Eq + Hash + Clone> LruStack<K> {
    /// Creates an empty stack.
    pub fn new() -> Self {
        LruStack {
            list: LinkedSlab::new(),
            map: FxHashMap::default(),
            reserved: 0,
        }
    }

    /// Pre-sizes the stack for `capacity` keys: slab slots, the free
    /// list and the locator map are all grown up front so a steady-state
    /// run whose occupancy high-water is reached late never reallocates
    /// mid-measurement (DESIGN.md §5f).
    ///
    /// The map gets a quarter as much room again. A removal can leave a
    /// tombstone that keeps its bucket in use, and once tombstones use up
    /// the free buckets the map would grow at an arbitrary point of a run,
    /// with no more keys than before. A reserved stack instead rebuilds
    /// the map in place from the list when that happens, which allocates
    /// nothing; the spare quarter keeps those rebuilds rare. (For most
    /// capacities the table is no larger than natural growth makes it;
    /// only one whose natural size would be over four-fifths full is
    /// doubled.)
    pub fn reserve(&mut self, capacity: usize) {
        self.list.reserve(capacity);
        let slots = capacity + capacity / 4 + 1;
        self.map.reserve(slots.saturating_sub(self.map.len()));
        self.reserved = self.reserved.max(capacity);
    }

    /// Called before a new key goes in. If tombstones have used up the
    /// map's free buckets (`len == capacity`) while the keys still fit
    /// the reservation, rebuilds the map (see [`LruStack::rebuild_map`]).
    /// The test is two loads from the map's header, off the hit path.
    #[inline]
    fn purge_tombstones(&mut self) {
        if self.map.len() == self.map.capacity() && self.map.len() < self.reserved {
            self.rebuild_map();
        }
    }

    /// Empties the map and re-inserts every key from the list: the same
    /// keys and handles, no tombstones, no allocation.
    #[cold]
    fn rebuild_map(&mut self) {
        self.map.clear();
        for (h, k) in self.list.iter() {
            // lint:allow(hot-path-alloc) K is Copy (BlockId) on every simulation path; K::clone is a move
            self.map.insert(k.clone(), h);
        }
    }

    /// Number of keys in the stack.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Returns `true` if `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts `key` at the top, or moves it there if already present.
    /// Returns `true` if the key was already present.
    pub fn touch(&mut self, key: K) -> bool {
        if let Some(&h) = self.map.get(&key) {
            self.list.move_to_front(h);
            true
        } else {
            self.purge_tombstones();
            // lint:allow(hot-path-alloc) K is Copy (BlockId) on every simulation path; K::clone is a move
            let h = self.list.push_front(key.clone());
            self.map.insert(key, h);
            false
        }
    }

    /// Inserts `key` at the bottom, or moves it there if already present.
    /// Returns `true` if the key was already present.
    pub fn touch_bottom(&mut self, key: K) -> bool {
        if let Some(&h) = self.map.get(&key) {
            self.list.move_to_back(h);
            true
        } else {
            self.purge_tombstones();
            // lint:allow(hot-path-alloc) K is Copy (BlockId) on every simulation path; K::clone is a move
            let h = self.list.push_back(key.clone());
            self.map.insert(key, h);
            false
        }
    }

    /// Removes `key`, returning `true` if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.map.remove(key) {
            Some(h) => {
                self.list.remove(h);
                true
            }
            None => false,
        }
    }

    /// The most recently touched key.
    pub fn top(&self) -> Option<&K> {
        self.list.front().and_then(|h| self.list.get(h))
    }

    /// The least recently touched key.
    pub fn bottom(&self) -> Option<&K> {
        self.list.back().and_then(|h| self.list.get(h))
    }

    /// Removes and returns the least recently touched key.
    pub fn pop_bottom(&mut self) -> Option<K> {
        let h = self.list.back()?;
        let key = self.list.remove(h).expect("back handle is fresh");
        self.map.remove(&key);
        Some(key)
    }

    /// Iterates keys from most to least recently touched.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.list.iter().map(|(_, k)| k)
    }
}

/// What an access to a bounded cache did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheEvent<K> {
    /// The key was present.
    Hit,
    /// The key was absent and has been inserted; `evicted` is the victim
    /// that was dropped to make room, if the cache was full.
    Miss {
        /// Victim evicted to make room, if any.
        evicted: Option<K>,
    },
}

impl<K> CacheEvent<K> {
    /// Returns `true` for [`CacheEvent::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheEvent::Hit)
    }
}

/// A capacity-bounded LRU cache over keys.
///
/// # Examples
///
/// ```
/// use ulc_cache::{CacheEvent, LruCache};
///
/// let mut c = LruCache::new(2);
/// assert_eq!(c.access(1), CacheEvent::Miss { evicted: None });
/// assert_eq!(c.access(2), CacheEvent::Miss { evicted: None });
/// assert_eq!(c.access(1), CacheEvent::Hit);
/// // 2 is now the LRU victim.
/// assert_eq!(c.access(3), CacheEvent::Miss { evicted: Some(2) });
/// ```
#[derive(Clone, Debug)]
pub struct LruCache<K: Eq + Hash + Clone> {
    stack: LruStack<K>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone> LruCache<K> {
    /// Creates a cache holding at most `capacity` keys, its stack reserved
    /// ([`LruStack::reserve`]) for the whole capacity plus the one key an
    /// insertion holds before it evicts, so no access ever allocates
    /// (DESIGN.md §5f).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        let mut stack = LruStack::new();
        stack.reserve(capacity + 1);
        LruCache { stack, capacity }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.stack.len()
    }

    /// Returns `true` if no keys are cached.
    pub fn is_empty(&self) -> bool {
        self.stack.is_empty()
    }

    /// Returns `true` if the cache is at capacity.
    pub fn is_full(&self) -> bool {
        self.stack.len() == self.capacity
    }

    /// Returns `true` if `key` is cached.
    pub fn contains(&self, key: &K) -> bool {
        self.stack.contains(key)
    }

    /// References `key`: moves it to the MRU position on a hit, inserts it
    /// (evicting the LRU victim if full) on a miss.
    pub fn access(&mut self, key: K) -> CacheEvent<K> {
        if self.stack.touch(key) {
            CacheEvent::Hit
        } else {
            let evicted = if self.stack.len() > self.capacity {
                self.stack.pop_bottom()
            } else {
                None
            };
            CacheEvent::Miss { evicted }
        }
    }

    /// Inserts `key` at the MRU end *without* counting as a reference
    /// (used for demotions arriving from an upper level). Returns the
    /// eviction victim if the cache was full, `None` otherwise (also `None`
    /// when the key was already present and was just refreshed).
    pub fn insert_mru(&mut self, key: K) -> Option<K> {
        if self.stack.touch(key) {
            None
        } else if self.stack.len() > self.capacity {
            self.stack.pop_bottom()
        } else {
            None
        }
    }

    /// Inserts `key` at the LRU end (the Wong & Wilkes LRU-insertion
    /// variant for demoted blocks). Returns the eviction victim if the
    /// cache was full.
    ///
    /// If the cache is exactly full, inserting at the LRU end would evict
    /// the inserted key itself; the key is dropped and returned as the
    /// victim, matching a zero-benefit insertion.
    pub fn insert_lru(&mut self, key: K) -> Option<K> {
        if self.stack.touch_bottom(key) {
            None
        } else if self.stack.len() > self.capacity {
            self.stack.pop_bottom()
        } else {
            None
        }
    }

    /// Removes `key` from the cache, returning `true` if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        self.stack.remove(key)
    }

    /// The current LRU victim, if any.
    pub fn lru(&self) -> Option<&K> {
        self.stack.bottom()
    }

    /// Iterates keys from MRU to LRU.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.stack.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_stack_purges_tombstones_instead_of_growing() {
        let mut c = LruCache::new(256);
        let room = c.stack.map.capacity();
        let mut model = std::collections::VecDeque::new();
        // File-set-shaped keys (file index at bit 32), as in the httpd
        // workloads whose churn exposed the late growth.
        for i in 0..200_000u64 {
            let key = ((i * 7919 % 4099) << 32) | (i % 5);
            if i % 3 == 0 {
                c.remove(&key);
                model.retain(|&k| k != key);
            } else {
                let hit = c.access(key).is_hit();
                assert_eq!(hit, model.contains(&key));
                model.retain(|&k| k != key);
                model.push_front(key);
                model.truncate(256);
            }
            assert!(c.stack.map.capacity() <= room, "the locator map grew");
        }
        assert!(c.iter().copied().eq(model.iter().copied()));
    }

    #[test]
    fn stack_orders_by_recency() {
        let mut s = LruStack::new();
        for k in [1, 2, 3, 2] {
            s.touch(k);
        }
        let order: Vec<i32> = s.iter().copied().collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn stack_pop_bottom_is_lru() {
        let mut s = LruStack::new();
        s.touch("a");
        s.touch("b");
        s.touch("a");
        assert_eq!(s.pop_bottom(), Some("b"));
        assert_eq!(s.pop_bottom(), Some("a"));
        assert_eq!(s.pop_bottom(), None);
    }

    #[test]
    fn stack_remove_unknown_is_false() {
        let mut s: LruStack<u32> = LruStack::new();
        assert!(!s.remove(&7));
        s.touch(7);
        assert!(s.remove(&7));
        assert!(s.is_empty());
    }

    #[test]
    fn stack_touch_bottom_places_last() {
        let mut s = LruStack::new();
        s.touch(1);
        s.touch_bottom(2);
        assert_eq!(s.bottom(), Some(&2));
        s.touch_bottom(1);
        assert_eq!(s.bottom(), Some(&1));
    }

    #[test]
    fn cache_hit_rate_of_loop_smaller_than_cache_is_total() {
        let mut c = LruCache::new(10);
        let mut hits = 0;
        for i in 0..100 {
            if c.access(i % 5).is_hit() {
                hits += 1;
            }
        }
        assert_eq!(hits, 95);
    }

    #[test]
    fn cache_loop_larger_than_cache_never_hits() {
        // The classic LRU pathology the paper builds on.
        let mut c = LruCache::new(10);
        let mut hits = 0;
        for i in 0..110 {
            if c.access(i % 11).is_hit() {
                hits += 1;
            }
        }
        assert_eq!(hits, 0);
    }

    #[test]
    fn cache_never_exceeds_capacity() {
        let mut c = LruCache::new(3);
        for i in 0..50 {
            c.access(i % 7);
            assert!(c.len() <= 3);
        }
        assert!(c.is_full());
    }

    #[test]
    fn cache_eviction_order_is_lru() {
        let mut c = LruCache::new(2);
        c.access(1);
        c.access(2);
        c.access(1); // order: 1 (MRU), 2 (LRU)
        match c.access(3) {
            CacheEvent::Miss { evicted: Some(2) } => {}
            other => panic!("expected eviction of 2, got {other:?}"),
        }
        assert!(c.contains(&1));
        assert!(!c.contains(&2));
    }

    #[test]
    fn insert_mru_does_not_overfill() {
        let mut c = LruCache::new(2);
        c.access(1);
        c.access(2);
        let victim = c.insert_mru(3);
        assert_eq!(victim, Some(1));
        assert_eq!(c.len(), 2);
        assert!(c.contains(&3));
    }

    #[test]
    fn insert_lru_victimizes_itself_when_full() {
        let mut c = LruCache::new(2);
        c.access(1);
        c.access(2);
        let victim = c.insert_lru(3);
        assert_eq!(victim, Some(3));
        assert!(c.contains(&1) && c.contains(&2));
    }

    #[test]
    fn insert_lru_fills_spare_capacity() {
        let mut c = LruCache::new(3);
        c.access(1);
        assert_eq!(c.insert_lru(2), None);
        assert_eq!(c.lru(), Some(&2));
    }

    #[test]
    fn remove_frees_capacity() {
        let mut c = LruCache::new(1);
        c.access(1);
        assert!(c.remove(&1));
        assert_eq!(c.access(2), CacheEvent::Miss { evicted: None });
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = LruCache::<u8>::new(0);
    }
}
