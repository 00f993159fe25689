//! The live-window state of a TER-iDS engine, written once.
//!
//! Algorithm 2 keeps one sliding window, one result set `ES` and one
//! ER-grid, and updates them the same way on every arrival. [`LiveState`]
//! is everything in that picture except the grid: the window, the
//! metadata of every live tuple, the per-stream and topical counts the
//! pair accounting reads, `ES`, the reported-pair history, and the
//! cumulative statistics and timings. The sequential
//! [`TerIdsEngine`](crate::TerIdsEngine) drives it with one
//! [`RegionGrid`]; the sharded engine in `ter_exec` drives it with `S`
//! shard grids and a worker pool. Expiry, candidate selection, arrival
//! finalization, admission and [`EngineState`] export/import therefore
//! exist once, which is what keeps the two engines' outputs and
//! checkpoints equal by construction.
//!
//! Per arrival an engine calls, in order: [`LiveState::push`] (expiry;
//! the engine evicts the returned tuple from its grid), its own grid
//! traversal, [`LiveState::candidates`], the refine cascade, its own grid
//! insert, and [`LiveState::finalize`].

use std::collections::HashSet;
use std::sync::Arc;

use ter_index::{CellKey, RegionGrid};
use ter_stream::{Arrival, SlidingWindow};
use ter_text::fxhash::{FxHashMap, FxHashSet};

use crate::meta::{ErAggregate, TupleMeta};
use crate::metrics::{PhaseTiming, PruneStats};
use crate::refine::RefineOutcome;
use crate::results::ResultSet;
use crate::state::EngineState;

/// The shared dynamic state of a TER-iDS engine. See the
/// [module docs](self).
#[derive(Debug)]
pub struct LiveState {
    window: SlidingWindow<u64>,
    metas: FxHashMap<u64, Arc<TupleMeta>>,
    /// Live tuple count per stream (for O(1) candidate-pair accounting).
    stream_counts: Vec<usize>,
    /// Live tuples with `possibly_topical = true` — the inverted list
    /// realizing Theorem 4.1: a non-topical arrival can only match a
    /// topical counterpart, so only this (small) set is ever examined.
    topical_ids: FxHashSet<u64>,
    results: ResultSet,
    reported: FxHashSet<(u64, u64)>,
    stats: PruneStats,
    timing: PhaseTiming,
}

impl LiveState {
    /// An empty state over a window of capacity `window`.
    pub fn new(window: usize) -> Self {
        Self {
            window: SlidingWindow::new(window),
            metas: FxHashMap::default(),
            stream_counts: Vec::new(),
            topical_ids: FxHashSet::default(),
            results: ResultSet::new(),
            reported: FxHashSet::default(),
            stats: PruneStats::default(),
            timing: PhaseTiming::default(),
        }
    }

    /// Checks that `batch` can be stepped on top of this state: no id is
    /// already live or repeats within the batch, and timestamps never
    /// decrease — neither below the window's newest nor inside the batch
    /// (equal timestamps are legal). A service must run this before a
    /// batch reaches its log: stepping a violating batch would panic on
    /// the duplicate id or persist a window that recovery refuses.
    pub fn admit(&self, batch: &[Arrival]) -> Result<(), String> {
        let mut newest = self.window.newest().map(|(ts, _)| ts);
        // The ids come from clients: a keyed hasher keeps a crafted batch
        // of colliding ids from turning this check quadratic.
        let mut seen: HashSet<u64> = HashSet::with_capacity(batch.len());
        for a in batch {
            let (id, ts) = (a.record.id, a.timestamp);
            if self.metas.contains_key(&id) {
                return Err(format!("tuple id {id} is already live"));
            }
            if !seen.insert(id) {
                return Err(format!("tuple id {id} repeats within the batch"));
            }
            if let Some(prev) = newest.filter(|&prev| ts < prev) {
                return Err(format!(
                    "timestamp {ts} of tuple {id} precedes timestamp {prev}"
                ));
            }
            newest = Some(ts);
        }
        Ok(())
    }

    /// Expiry (Algorithm 2 lines 2–7): pushes an arrival into the window
    /// and, when that expires the oldest tuple, drops the tuple's
    /// metadata and counts and its pairs from `ES`. Returns the expired
    /// metadata, which the caller evicts from its grid, and the dropped
    /// pairs, normalized and sorted (the step's retraction delta).
    pub fn push(&mut self, timestamp: u64, id: u64) -> (Option<Arc<TupleMeta>>, Vec<(u64, u64)>) {
        let Some((_, old_id)) = self.window.push(timestamp, id) else {
            return (None, Vec::new());
        };
        let meta = self
            .metas
            .remove(&old_id)
            .expect("every window entry has metadata");
        self.stream_counts[meta.stream_id] -= 1;
        self.topical_ids.remove(&old_id);
        (Some(meta), self.results.remove_involving(old_id))
    }

    /// The candidates the pair-level cascade must examine for `probe`:
    /// surfaced live tuples (restricted to the topical inverted list when
    /// the probe cannot be topical — Theorem 4.1), excluding the probe
    /// itself and same-stream tuples (the problem statement pairs tuples
    /// "from two of n data streams"), in ascending-id order so any
    /// partition of the returned slice is deterministic.
    pub fn candidates(&self, probe: &TupleMeta, surfaced: &FxHashSet<u64>) -> Vec<Arc<TupleMeta>> {
        let mut ids: Vec<u64> = if probe.possibly_topical {
            surfaced.iter().copied().collect()
        } else {
            self.topical_ids
                .iter()
                .copied()
                .filter(|id| surfaced.contains(id))
                .collect()
        };
        ids.sort_unstable();
        ids.into_iter()
            .filter(|&id| id != probe.id)
            .filter_map(|id| self.metas.get(&id))
            .filter(|m| m.stream_id != probe.stream_id)
            .map(Arc::clone)
            .collect()
    }

    /// Arrival finalization (Algorithm 2 lines 11–13): folds the refine
    /// outcome of every examined candidate of `meta` into the statistics,
    /// attributes the pairs never examined, enters the matches into `ES`
    /// and the reported history, and registers the tuple as live.
    /// Returns the matches, sorted by normalized pair — the step's
    /// `new_matches`.
    ///
    /// # Panics
    /// Panics if the tuple's id is already live; [`LiveState::admit`]
    /// rules that out for an admitted batch.
    pub fn finalize(
        &mut self,
        meta: Arc<TupleMeta>,
        mut outcome: RefineOutcome,
    ) -> Vec<(u64, u64)> {
        let matches = outcome.matches.len() as u64;
        let examined = outcome.sim + outcome.prob + outcome.instance + matches;
        self.stats.sim += outcome.sim;
        self.stats.prob += outcome.prob;
        self.stats.instance += outcome.instance;
        self.stats.matches += matches;
        self.account_pairs(&meta, examined);
        outcome.matches.sort_unstable();
        for &(a, b) in &outcome.matches {
            self.results.insert(a, b);
            self.reported.insert((a, b));
        }
        if self.stream_counts.len() <= meta.stream_id {
            self.stream_counts.resize(meta.stream_id + 1, 0);
        }
        self.stream_counts[meta.stream_id] += 1;
        if meta.possibly_topical {
            self.topical_ids.insert(meta.id);
        }
        let id = meta.id;
        let prev = self.metas.insert(id, meta);
        assert!(prev.is_none(), "duplicate tuple id {id}");
        outcome.matches
    }

    /// Counts this arrival's candidate pairs into the statistics:
    /// `eligible` total pairs (live tuples of other streams), plus bulk
    /// attribution of the pairs never examined —
    ///
    /// * topical probe: everything skipped was cell-pruned, and a cell
    ///   visited for a topical tuple can only fail the similarity check →
    ///   `sim`;
    /// * non-topical probe: skipped tuples are the non-topical ones
    ///   (Theorem 4.1, `topic`) plus cell-pruned topical ones (`sim`).
    fn account_pairs(&mut self, probe: &TupleMeta, examined: u64) {
        let eligible: u64 = self
            .stream_counts
            .iter()
            .enumerate()
            .filter(|(sid, _)| *sid != probe.stream_id)
            .map(|(_, &c)| c as u64)
            .sum();
        self.stats.total_pairs += eligible;
        if probe.possibly_topical {
            self.stats.sim += eligible - examined;
        } else {
            let topical_eligible = self
                .topical_ids
                .iter()
                .filter(|id| {
                    self.metas
                        .get(id)
                        .is_some_and(|m| m.stream_id != probe.stream_id)
                })
                .count() as u64;
            self.stats.topic += eligible - topical_eligible;
            self.stats.sim += topical_eligible - examined;
        }
    }

    /// Adds one step's phase timing to the cumulative timing.
    pub fn record_timing(&mut self, step: &PhaseTiming) {
        self.timing.accumulate(step);
    }

    /// Snapshots the state in the canonical [`EngineState`]
    /// representation (window order, sorted pairs), with the cells of
    /// `grids` — one whole grid or the shards that partition it — merged
    /// into one key-sorted list, so the sequential and the sharded engine
    /// export *equal* states at the same stream position.
    pub fn export<'g>(
        &self,
        grid_cells: u16,
        grids: impl IntoIterator<Item = &'g RegionGrid<u64, ErAggregate>>,
    ) -> EngineState {
        let window: Vec<(u64, u64)> = self.window.iter().map(|(t, id)| (t, *id)).collect();
        let metas = window
            .iter()
            .map(|(_, id)| self.metas[id].as_ref().clone())
            .collect();
        let mut results: Vec<(u64, u64)> = self.results.iter().collect();
        results.sort_unstable();
        let mut reported: Vec<(u64, u64)> = self.reported.iter().copied().collect();
        reported.sort_unstable();
        let mut cells: Vec<(CellKey, Vec<u64>)> = grids
            .into_iter()
            .flat_map(|g| g.iter_cells())
            .map(|(k, _, entries)| (k.clone(), entries.iter().map(|e| e.payload).collect()))
            .collect();
        cells.sort_by(|(a, _), (b, _)| a.cmp(b));
        EngineState {
            window_capacity: self.window.capacity(),
            grid_cells,
            window,
            metas,
            stream_counts: self.stream_counts.clone(),
            results,
            reported,
            stats: self.stats,
            cells,
        }
    }

    /// Replaces the state with a snapshot after validating it against
    /// the engine's schema `arity`, this window's capacity, and the grid
    /// resolution. Every field but `cells` is restored here; the caller
    /// rebuilds its grid from [`EngineState::cells_by_tuple`] once this
    /// returns `Ok`. Phase timings restart at zero (wall clock is not
    /// recoverable state). On `Err` the state is left untouched — the
    /// recovery path must never panic or half-apply.
    pub fn import(
        &mut self,
        state: &EngineState,
        arity: usize,
        grid_cells: u16,
    ) -> Result<(), String> {
        state.validate(arity, self.window.capacity(), grid_cells)?;
        let mut live = LiveState::new(self.window.capacity());
        for &(ts, id) in &state.window {
            // validate() bounds the length by the capacity and checks
            // monotonic timestamps, so no push can evict or assert.
            live.window.push(ts, id);
        }
        for meta in &state.metas {
            if meta.possibly_topical {
                live.topical_ids.insert(meta.id);
            }
            live.metas.insert(meta.id, Arc::new(meta.clone()));
        }
        for &(a, b) in &state.results {
            live.results.insert(a, b);
        }
        live.stream_counts = state.stream_counts.clone();
        live.reported = state.reported.iter().copied().collect();
        live.stats = state.stats;
        *self = live;
        Ok(())
    }

    /// Number of unexpired tuples.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Window capacity `w`.
    pub fn window_capacity(&self) -> usize {
        self.window.capacity()
    }

    /// The window of `(timestamp, id)` entries, oldest first.
    pub fn window(&self) -> &SlidingWindow<u64> {
        &self.window
    }

    /// Metadata (including the imputed probabilistic tuple) of a live
    /// tuple.
    pub fn meta(&self, id: u64) -> Option<&Arc<TupleMeta>> {
        self.metas.get(&id)
    }

    /// Ids of the unexpired tuples, ascending.
    pub fn live_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.metas.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Live tuple count per stream id.
    pub fn stream_tuple_counts(&self) -> &[usize] {
        &self.stream_counts
    }

    /// Number of live tuples currently flagged possibly-topical.
    pub fn topical_count(&self) -> usize {
        self.topical_ids.len()
    }

    /// The live result set `ES`.
    pub fn results(&self) -> &ResultSet {
        &self.results
    }

    /// Every pair ever reported.
    pub fn reported(&self) -> &FxHashSet<(u64, u64)> {
        &self.reported
    }

    /// Cumulative pruning statistics.
    pub fn prune_stats(&self) -> PruneStats {
        self.stats
    }

    /// Cumulative per-phase timing.
    pub fn timing(&self) -> PhaseTiming {
        self.timing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ter_repo::{Record, Schema};
    use ter_text::Dictionary;

    fn arrival(id: u64, timestamp: u64) -> Arrival {
        Arrival {
            stream_id: 0,
            timestamp,
            record: Record::from_texts(
                &Schema::new(vec!["a"]),
                id,
                &[Some("x")],
                &mut Dictionary::new(),
            ),
        }
    }

    /// A state holding ids 1 and 2 at timestamps 5 and 7, built through
    /// the per-arrival path.
    fn live() -> LiveState {
        let mut live = LiveState::new(4);
        for (id, timestamp) in [(1, 5), (2, 7)] {
            let a = arrival(id, timestamp);
            live.push(timestamp, id);
            let meta = TupleMeta {
                id,
                stream_id: 0,
                timestamp,
                tuple: ter_stream::ProbTuple::certain(a.record),
                main_bounds: Vec::new(),
                main_expect: Vec::new(),
                aux_bounds: Vec::new(),
                size_bounds: Vec::new(),
                topics: Default::default(),
                possibly_topical: false,
                possible_tokens: Default::default(),
            };
            live.finalize(Arc::new(meta), RefineOutcome::default());
        }
        assert_eq!(live.live_ids(), vec![1, 2]);
        live
    }

    #[test]
    fn admit_rejects_each_violation() {
        let live = live();
        let live_id = live.admit(&[arrival(3, 8), arrival(2, 9)]).unwrap_err();
        assert!(live_id.contains("already live"), "{live_id}");
        let repeat = live.admit(&[arrival(3, 8), arrival(3, 9)]).unwrap_err();
        assert!(repeat.contains("repeats"), "{repeat}");
        let below = live.admit(&[arrival(3, 6)]).unwrap_err();
        assert!(below.contains("precedes timestamp 7"), "{below}");
        let decreasing = live.admit(&[arrival(3, 9), arrival(4, 8)]).unwrap_err();
        assert!(decreasing.contains("precedes timestamp 9"), "{decreasing}");
    }

    #[test]
    fn admit_accepts_equal_timestamps() {
        let live = live();
        live.admit(&[arrival(3, 7), arrival(4, 7), arrival(5, 8)])
            .unwrap();
        // An expired id may come back; only live ids are refused.
        LiveState::new(4).admit(&[arrival(1, 0)]).unwrap();
        live.admit(&[]).unwrap();
    }
}
