//! Sharded, batch-parallel, stage-pipelined execution layer for TER-iDS.
//!
//! The sequential [`ter_ids::TerIdsEngine`] processes one arrival at a
//! time on one core. This crate scales that pipeline out without changing
//! a single reported pair or statistic:
//!
//! * [`ShardedTerIdsEngine`] drives the same [`ter_ids::LiveState`] as
//!   the sequential engine (window, metadata, `ES`, counts, statistics)
//!   over `S` shard grids — the only state the two engines do not share;
//! * [`ShardRouter`] hash-partitions the ER-grid's cells into the shards;
//! * [`stages`] names the per-arrival pipeline — **impute → traverse →
//!   refine → merge** — as pure stage kernels;
//! * [`pool`] keeps a persistent worker pool alive across batches
//!   (spawn once per [`ShardedTerIdsEngine::with_pool`] session, not per
//!   batch), each worker owning its shard group for a batch and its
//!   imputer for the session;
//! * [`engine`] drives the stages: inline on the driving thread when
//!   `threads == 1`, otherwise through one pooled drive that pipelines
//!   arrival `i`'s refine with arrival `i+1`'s traverse, so the driving
//!   thread waits once per arrival (counted in
//!   [`ter_ids::StageMetrics`]);
//! * [`merge`] deterministically folds the per-worker partial results
//!   back together (matches sorted by normalized pair), with expiry and
//!   result-set maintenance in the sequential merge phase so window
//!   semantics are unchanged.
//!
//! The contract — output **bit-identical** to the sequential engine for
//! every shard count, thread count, batch size, and session shape — is
//! enforced by the differential suite in `tests/parallel_parity.rs` and
//! the property tests in `proptests.rs`.

pub mod engine;
pub mod merge;
pub(crate) mod pool;
pub mod router;
pub(crate) mod stages;

#[cfg(test)]
mod proptests;

pub use engine::{ExecConfig, PooledEngine, ShardedTerIdsEngine};
pub use merge::{merge_outcomes, merge_surfaced, RefineOutcome};
pub use router::ShardRouter;
