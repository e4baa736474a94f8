//! SimStats digests and the table pinned in `digests.txt`.

use ulc_hierarchy::SimStats;

/// FNV-1a over every counter of `s`, in declaration order.
pub fn digest(s: &SimStats) -> u64 {
    let f = &s.faults;
    let words = [s.references, s.misses]
        .into_iter()
        .chain(s.hits_by_level.iter().copied())
        .chain([u64::MAX])
        .chain(s.demotions_by_boundary.iter().copied())
        .chain([
            f.messages_sent,
            f.messages_delivered,
            f.messages_dropped,
            f.messages_duplicated,
            f.messages_reordered,
            f.overflow_drops,
            f.rpc_failures,
            f.crashes,
            f.reconciliation_rounds,
            f.stale_status_hits,
            f.residency_violations_detected,
            f.residency_violations_repaired,
            f.delivery_batches,
        ]);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Expected digests keyed by `(workload, cell label)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Pins {
    entries: Vec<(String, String, u64)>,
}

impl Pins {
    /// The table pinned beside the benchmark (default seed, full size).
    pub fn pinned() -> Pins {
        Pins::parse(include_str!("../digests.txt"))
    }

    /// Parses `workload label hex-digest` lines; `#` starts a comment.
    ///
    /// # Panics
    ///
    /// Panics on a malformed line: the table ships with the benchmark.
    pub fn parse(text: &str) -> Pins {
        let entries = text
            .lines()
            .map(|l| l.split('#').next().unwrap_or("").trim())
            .filter(|l| !l.is_empty())
            .map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                assert_eq!(f.len(), 3, "malformed digest line {l:?}");
                let d = u64::from_str_radix(f[2], 16).expect("hex digest");
                (f[0].to_string(), f[1].to_string(), d)
            })
            .collect();
        Pins { entries }
    }

    /// Renders the table in the format [`Pins::parse`] reads.
    pub fn render(&self) -> String {
        self.entries
            .iter()
            .map(|(w, c, d)| format!("{w} {c} {d:016x}\n"))
            .collect()
    }

    /// Adds or replaces one entry.
    pub fn set(&mut self, workload: &str, label: &str, digest: u64) {
        match self
            .entries
            .iter_mut()
            .find(|(w, c, _)| w == workload && c == label)
        {
            Some(e) => e.2 = digest,
            None => self
                .entries
                .push((workload.to_string(), label.to_string(), digest)),
        }
    }

    /// The pinned digest of one cell.
    pub fn get(&self, workload: &str, label: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(w, c, _)| w == workload && c == label)
            .map(|e| e.2)
    }
}
