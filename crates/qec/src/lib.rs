//! Rotated surface-code simulation with phenomenological noise.
//!
//! This crate is the reproduction's stand-in for the Stim stabilizer
//! simulator used in the paper's Fig. 13 (logical error rate vs physical
//! error rate at several readout-error levels) and the surface-17 syndrome
//! cycle-time study of Fig. 14(b):
//!
//! * [`layout`] — geometry of the distance-`d` rotated surface code
//!   (data qubits, Z-stabilizer plaquettes, boundary structure);
//! * [`syndrome`] — phenomenological noise blocks: per-round data-qubit `X`
//!   errors with probability `p` and syndrome measurement flips with
//!   probability `εR` (the readout error HERQULES improves), producing
//!   space-time detection events;
//! * [`decoder`] — block decoding: exact minimum-weight matching for small
//!   event sets, dispatching to the union-find decoder for everything
//!   larger, plus the subset-DP reference oracle;
//! * [`matching`] — the exact matcher: Edmonds' blossom algorithm over a
//!   set of detection events with the boundary folded into the edge
//!   weights and a canonical tie-break, `O(k³)` in fixed memory;
//! * [`graph`] — the precomputed space-time decoding graph (stabilizer ×
//!   round nodes, virtual west/east boundary nodes, uniform-weight edges);
//! * [`uf`] — the union-find decoder: synchronous half-step cluster growth
//!   with weighted union + path compression, boundary absorption,
//!   spanning-forest peeling, and exact re-matching of small interaction
//!   groups — no defect-count ceiling, near-linear cost;
//! * [`window`] — sliding-window streaming decode: commit groups
//!   `max(lag, d + 1)` rounds behind the stream, defer seam-straddling
//!   groups wholesale;
//! * [`logical`] — Monte-Carlo logical-error-rate estimation;
//! * [`cycle`] — the surface-code syndrome-extraction cycle-time model with
//!   Google-like and IBM-like gate sets (Fig. 14(b)).
//!
//! Only `X` errors / `Z` stabilizers are simulated; by the code's CSS
//! symmetry the `Z`-error sector behaves identically, so reported logical
//! error rates are per error sector (the convention the paper's figure
//! uses).
//!
//! # Example
//!
//! ```
//! use surface_code::{LogicalErrorConfig, estimate_logical_error_rate};
//!
//! let cfg = LogicalErrorConfig {
//!     distance: 3,
//!     rounds: 3,
//!     data_error_prob: 0.03,
//!     meas_error_prob: 0.0,
//!     blocks: 2_000,
//!     seed: 7,
//! };
//! let rate = estimate_logical_error_rate(&cfg);
//! assert!(rate < 0.5);
//! ```

pub mod cycle;
pub mod decoder;
pub mod graph;
pub mod layout;
pub mod logical;
pub mod matching;
pub mod syndrome;
pub mod uf;
pub mod window;

pub use cycle::{CycleTimes, GateSet};
pub use decoder::DecodeOutcome;
pub use decoder::{
    decode_block, decode_block_exact, decode_block_uf, decode_block_with, DecodeScratch,
    EXACT_DISPATCH_LIMIT, EXACT_MATCHING_LIMIT,
};
pub use graph::DecodingGraph;
pub use layout::RotatedSurfaceCode;
pub use logical::{estimate_logical_error_rate, LogicalErrorConfig};
pub use syndrome::{stabilizer_parities, NoiseParams, SyndromeBlock, SyndromeSim};
pub use uf::UnionFindScratch;
pub use window::SlidingWindowDecoder;
