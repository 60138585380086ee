//! # herqles-exec — deterministic parallel execution runtime
//!
//! The streaming QEC-cycle engine, the calibration-dataset generator and
//! `readout-nn`'s row-split GEMMs and network forward all shard
//! *embarrassingly parallel but order-sensitive* work: every shard's output
//! must be a pure function of `(shard index, seed)` so that running on 1, 2
//! or 16 threads produces bit-identical results. This crate is the
//! workspace's one parallel runtime — no library code spawns threads of its
//! own — and centralizes the pattern behind a persistent worker pool:
//!
//! * [`ShardPool`] — a fixed set of persistent worker threads with one
//!   dispatch primitive and two shorthands for it:
//!   - [`ShardPool::staged`]: the staged fan-out — `stages ×
//!     tasks_per_stage` task indices, claimed in ascending order by the
//!     workers and the caller, while the caller runs a prelude and then
//!     consumes each stage as soon as all of its tasks have completed
//!     ([`CallerStep`]). Each task learns the index of the thread running
//!     it (the caller is worker 0), so it can use per-thread scratch. This
//!     is what lets the cycle engine synthesize a whole QEC cycle's readout
//!     in one fan-out while it discriminates and decodes round `t` as soon
//!     as round `t`'s rows are in;
//!   - [`ShardPool::run`]: parallel-for over task indices, the one-stage
//!     case with nothing to consume (the caller participates, so a
//!     1-thread pool degenerates to an inline loop);
//!   - [`ShardPool::run_mut`]: parallel-for over disjoint `&mut` shards.
//!
//!   Idle threads spin, then park: a worker spins on the pool's generation
//!   counter for a bounded time before it parks on a condvar, and the caller
//!   spins on the stage it waits for before it parks in turn. A pool with
//!   more threads than [`std::thread::available_parallelism`] never spins.
//! * [`Tiles`] — a `Sync` view of disjoint mutable tiles over one buffer,
//!   for shard closures that each write their own row of a shared batch;
//! * [`stream_seed`] — the SplitMix64 RNG-stream derivation (shared with
//!   `readout_sim`'s dataset generator) that makes per-shard randomness a
//!   function of `(root seed, shard index)` rather than of the sharding
//!   layout.
//! * [`PoolTelemetry`] — optional per-worker instrumentation
//!   ([`ShardPool::set_telemetry`]): task spans with worker-id tracks plus
//!   busy/idle-ns counters, zero-cost when unset and allocation-free when
//!   attached.
//!
//! **Determinism is by construction, not by scheduling**: the pool hands out
//! task indices dynamically (whichever worker is free takes the next shard),
//! but because every task writes only its own shard and draws only from its
//! own derived RNG stream, the result is independent of the interleaving.
//! Dispatch itself performs **zero heap allocation**, so a warm engine round
//! stays allocation-free even when it fans out across the pool.
//!
//! # Example
//!
//! ```
//! use herqles_exec::{stream_seed, ShardPool};
//!
//! let pool = ShardPool::new(4);
//! let mut shards = vec![0u64; 16];
//! pool.run_mut(&mut shards, |i, out| {
//!     // Each shard derives its own RNG stream: the result is identical
//!     // for every pool size.
//!     *out = stream_seed(42, i as u64);
//! });
//! assert_eq!(shards[3], stream_seed(42, 3));
//! ```

pub mod pool;
pub mod rng;
pub mod telemetry;
pub mod tiles;

pub use pool::{CallerStep, ShardPool};
pub use rng::stream_seed;
pub use telemetry::PoolTelemetry;
pub use tiles::Tiles;
