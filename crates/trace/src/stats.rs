//! Descriptive statistics over traces.

use crate::Trace;
use std::collections::HashMap;

/// Summary statistics of a [`Trace`].
///
/// # Examples
///
/// ```
/// use ulc_trace::{BlockId, Trace, TraceStats};
///
/// let t = Trace::from_blocks([1u64, 2, 1, 3].map(BlockId::new));
/// let s = TraceStats::compute(&t);
/// assert_eq!(s.references, 4);
/// assert_eq!(s.unique_blocks, 3);
/// assert_eq!(s.max_block_refs, 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TraceStats {
    /// Total number of references.
    pub references: usize,
    /// Number of distinct blocks.
    pub unique_blocks: usize,
    /// Number of clients.
    pub num_clients: u32,
    /// Highest per-block reference count.
    pub max_block_refs: usize,
    /// Mean references per distinct block.
    pub mean_block_refs: f64,
    /// Fraction of references that are re-references (not first touches).
    pub rereference_fraction: f64,
    /// Footprint in mebibytes assuming 8 KB blocks.
    pub footprint_mib: f64,
}

impl TraceStats {
    /// Computes statistics in a single pass over the trace.
    pub fn compute(trace: &Trace) -> Self {
        let mut counts: HashMap<_, usize> = HashMap::new();
        for r in trace {
            *counts.entry(r.block).or_insert(0) += 1;
        }
        let references = trace.len();
        let unique_blocks = counts.len();
        #[expect(
            clippy::disallowed_methods,
            reason = "max over the multiset of counts is order-independent"
        )]
        let max_block_refs = counts.values().copied().max().unwrap_or(0);
        let mean_block_refs = if unique_blocks == 0 {
            0.0
        } else {
            references as f64 / unique_blocks as f64
        };
        let rereference_fraction = if references == 0 {
            0.0
        } else {
            (references - unique_blocks) as f64 / references as f64
        };
        TraceStats {
            references,
            unique_blocks,
            num_clients: trace.num_clients(),
            max_block_refs,
            mean_block_refs,
            rereference_fraction,
            footprint_mib: unique_blocks as f64 * 8.0 / 1024.0,
        }
    }
}

impl std::fmt::Display for TraceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} refs, {} blocks ({:.1} MiB), {} client(s), {:.2} refs/block, {:.1}% re-refs",
            self.references,
            self.unique_blocks,
            self.footprint_mib,
            self.num_clients,
            self.mean_block_refs,
            100.0 * self.rereference_fraction
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockId;

    #[test]
    fn empty_trace_has_zero_stats() {
        let s = TraceStats::compute(&Trace::new());
        assert_eq!(s.references, 0);
        assert_eq!(s.unique_blocks, 0);
        assert_eq!(s.mean_block_refs, 0.0);
        assert_eq!(s.rereference_fraction, 0.0);
    }

    #[test]
    fn rereference_fraction_of_loop() {
        let t = crate::synthetic::cs(3 * crate::synthetic::CS_BLOCKS as usize);
        let s = TraceStats::compute(&t);
        assert!((s.rereference_fraction - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.max_block_refs, 3);
    }

    #[test]
    fn footprint_in_mib() {
        let t = Trace::from_blocks((0..128).map(BlockId::new));
        let s = TraceStats::compute(&t);
        assert!((s.footprint_mib - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_is_nonempty() {
        let t = Trace::from_blocks([BlockId::new(1)]);
        assert!(!format!("{}", TraceStats::compute(&t)).is_empty());
    }
}
