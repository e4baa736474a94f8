//! Paper-shaped benchmark of the ULC reproduction.
//!
//! One process runs one workload (see `NOTES.md`): it generates the
//! workload's traces from a seed, times the figures' protocol cells
//! through the public `simulate` driver, checks every cell's `SimStats`,
//! and prints one JSON result line. With `--layers` it also runs the
//! layer ladder ([`ladder`]) for the per-layer metrics; the `traced`
//! feature compiles the engines' observability recording and the
//! counting allocator in for that run.

#![warn(missing_docs)]

pub mod alloc;
pub mod control;
pub mod digest;
pub mod ladder;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod workloads;
