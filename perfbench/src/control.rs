//! The host-speed control: a fixed two-level LRU simulation that lives in
//! this package, so no change to the repository's crates can move it.
//!
//! On a shared host the same cell's rate drifts by up to 2× over tens of
//! seconds, far more than any bound a regression gate could use, and the
//! drift is common to every cell of a run. The timed rounds run one
//! control sample after every cell; the end-to-end rates are then stated
//! at a nominal host speed, the one where the control takes
//! [`NOMINAL_NS_PER_OP`] per operation (see [`crate::run::Report`]).

use std::time::Instant;

/// Control operations per sample (about 10 ms).
pub const OPS_PER_SAMPLE: usize = 100_000;

/// The control speed the calibrated rates are stated at.
pub const NOMINAL_NS_PER_OP: f64 = 100.0;

const NIL: u32 = u32::MAX;

/// An LRU cache of `u64` keys: open addressing with backward-shift
/// deletion over an index-linked recency list.
#[derive(Debug)]
pub struct MiniLru {
    cap: usize,
    keys: Vec<u64>,
    prev: Vec<u32>,
    next: Vec<u32>,
    table: Vec<u32>,
    head: u32,
    tail: u32,
}

impl MiniLru {
    /// An empty cache of `cap` keys.
    pub fn new(cap: usize) -> Self {
        MiniLru {
            cap,
            keys: Vec::with_capacity(cap),
            prev: Vec::with_capacity(cap),
            next: Vec::with_capacity(cap),
            table: vec![NIL; (2 * cap).next_power_of_two()],
            head: NIL,
            tail: NIL,
        }
    }

    /// Empties the cache, keeping its memory.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.prev.clear();
        self.next.clear();
        self.table.fill(NIL);
        self.head = NIL;
        self.tail = NIL;
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as usize & (self.table.len() - 1)
    }

    /// The table slot holding `key`, or the empty slot where it would go.
    fn slot(&self, key: u64) -> usize {
        let mask = self.table.len() - 1;
        let mut i = self.home(key);
        while self.table[i] != NIL && self.keys[self.table[i] as usize] != key {
            i = (i + 1) & mask;
        }
        i
    }

    fn unlink(&mut self, n: u32) {
        let (p, x) = (self.prev[n as usize], self.next[n as usize]);
        if p == NIL {
            self.head = x;
        } else {
            self.next[p as usize] = x;
        }
        if x == NIL {
            self.tail = p;
        } else {
            self.prev[x as usize] = p;
        }
    }

    fn push_front(&mut self, n: u32) {
        self.prev[n as usize] = NIL;
        self.next[n as usize] = self.head;
        if self.head == NIL {
            self.tail = n;
        } else {
            self.prev[self.head as usize] = n;
        }
        self.head = n;
    }

    /// Empties slot `i` and shifts back later entries of its probe run.
    fn remove_slot(&mut self, mut i: usize) {
        let mask = self.table.len() - 1;
        self.table[i] = NIL;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let e = self.table[j];
            if e == NIL {
                return;
            }
            let h = self.home(self.keys[e as usize]);
            let stays = if i <= j {
                i < h && h <= j
            } else {
                i < h || h <= j
            };
            if !stays {
                self.table[i] = e;
                self.table[j] = NIL;
                i = j;
            }
        }
    }

    /// References `key`: `(hit, key evicted to make room)`.
    pub fn access(&mut self, key: u64) -> (bool, Option<u64>) {
        let s = self.slot(key);
        if self.table[s] != NIL {
            let n = self.table[s];
            self.unlink(n);
            self.push_front(n);
            return (true, None);
        }
        let (n, evicted) = if self.keys.len() < self.cap {
            self.keys.push(key);
            self.prev.push(NIL);
            self.next.push(NIL);
            ((self.keys.len() - 1) as u32, None)
        } else {
            let victim = self.tail;
            let old = self.keys[victim as usize];
            self.unlink(victim);
            let vs = self.slot(old);
            self.remove_slot(vs);
            self.keys[victim as usize] = key;
            (victim, Some(old))
        };
        let s = self.slot(key);
        self.table[s] = n;
        self.push_front(n);
        (false, evicted)
    }
}

/// The control workload: a client LRU over a server LRU that receives
/// the client's misses and evictions, fed a fixed skewed key stream.
#[derive(Debug)]
pub struct Control {
    keys: Vec<u64>,
    pos: usize,
    client: MiniLru,
    server: MiniLru,
}

impl Default for Control {
    fn default() -> Self {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let keys = (0..4 * OPS_PER_SAMPLE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                (u * u * 600_000.0) as u64
            })
            .collect();
        Control {
            keys,
            pos: 0,
            client: MiniLru::new(40_000),
            server: MiniLru::new(80_000),
        }
    }
}

impl Control {
    /// Runs one sample from empty caches and returns its host time per
    /// operation in nanoseconds.
    pub fn sample(&mut self) -> f64 {
        self.client.clear();
        self.server.clear();
        let ops = &self.keys[self.pos..self.pos + OPS_PER_SAMPLE];
        self.pos = (self.pos + OPS_PER_SAMPLE) % self.keys.len();
        let t = Instant::now();
        let mut server_hits = 0u64;
        for &k in ops {
            let (hit, evicted) = self.client.access(k);
            if !hit {
                server_hits += u64::from(self.server.access(k).0);
                if let Some(e) = evicted {
                    self.server.access(e);
                }
            }
        }
        std::hint::black_box(server_hits);
        t.elapsed().as_secs_f64() * 1e9 / OPS_PER_SAMPLE as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_lru_matches_a_naive_lru() {
        let mut lru = MiniLru::new(50);
        let mut model: Vec<u64> = Vec::new();
        let mut x: u64 = 7;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (x >> 33) % 120;
            let (hit, evicted) = lru.access(k);
            let pos = model.iter().position(|&m| m == k);
            assert_eq!(hit, pos.is_some());
            if let Some(p) = pos {
                model.remove(p);
            }
            model.insert(0, k);
            let expect = if model.len() > 50 { model.pop() } else { None };
            assert_eq!(evicted, expect);
        }
    }

    #[test]
    fn samples_take_positive_time() {
        let mut c = Control::default();
        assert!(c.sample() > 0.0);
    }
}
