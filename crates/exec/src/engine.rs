//! The sharded, batch-parallel TER-iDS engine.
//!
//! [`ShardedTerIdsEngine`] processes arrivals in batches
//! ([`ter_ids::ErProcessor::step_batch`]) and produces output
//! **bit-identical** to the sequential [`ter_ids::TerIdsEngine`] for any
//! shard count, thread count, and batch size. Both engines drive the same
//! [`LiveState`] (window, metadata, `ES`, counts, statistics); this one
//! differs only in its grid — `S` shard grids — and in running the
//! per-arrival pipeline as the named stages of [`stages`](crate::stages)
//! — **impute → traverse → refine → merge** — on the persistent worker
//! pool of [`pool`](crate::pool):
//!
//! 1. **Impute** — rule selection, imputation, and [`TupleMeta`]
//!    derivation read only the static [`TerContext`], so the whole batch
//!    is imputed concurrently (contiguous chunks across workers) with
//!    per-arrival results equal to the sequential engine's.
//! 2. **Traverse** — the ER-grid is partitioned into `S` shards by
//!    cell-key hash ([`ShardRouter`]); each worker owns a disjoint shard
//!    group for the batch and applies grid mutations (the previous
//!    arrival's insert, this arrival's expiry) in arrival order before
//!    traversing with the shared cell-level predicate, so every cell
//!    sees exactly the op sequence the monolithic grid would.
//! 3. **Refine** — the candidates are partitioned; each worker routes its
//!    slice through the shared cascade ([`ter_ids::refine_candidates`]).
//!    Small candidate sets are refined on the driving thread instead — a
//!    synchronization barrier is not worth a handful of pairs
//!    (`refine_fanout_min`).
//! 4. **Merge** — expiry, candidate selection and arrival finalization
//!    ([`LiveState`]) happen on the driving thread in arrival order, so
//!    window semantics are unchanged.
//!
//! # The pooled drive
//!
//! After imputation both arrival `i`'s refine *and* arrival `i+1`'s
//! traverse inputs are known (the eviction schedule is a pure function of
//! the window and the arrival order —
//! [`stages::eviction_schedule`](crate::stages)), so the driving thread
//! queues `Refine(i)` and `Step(i+1)` together and waits once per
//! arrival. Workers answer in FIFO order, so the interleaving is
//! deterministic, and every grid cell sees the sequential engine's op
//! order. [`StageMetrics::er_barriers`] counts the driving thread's wait
//! rounds: at most one per arrival plus one per batch.
//!
//! # Pool sessions
//!
//! With `threads == 1` the whole pipeline runs inline on the driving
//! thread — no pool, no channels — so the single-thread configuration is
//! a fair baseline rather than a message-passing straw man. With more
//! threads, a plain [`ErProcessor::step_batch`] call spins the pool up
//! for that one batch; long-lived consumers (the `ter_serve` daemon, the
//! benches) wrap their feed loop in [`ShardedTerIdsEngine::with_pool`]
//! so the workers persist across batches and only the shard groups
//! travel per batch.

use std::ops::Deref;
use std::sync::Arc;
use std::time::Instant;

use ter_ids::meta::TupleMeta;
use ter_ids::{
    refine_candidates, EngineState, ErProcessor, LiveState, Params, PhaseTiming, PruneStats,
    PruningMode, ResultSet, StageMetrics, StepOutput, TerContext,
};
use ter_impute::RuleImputer;
use ter_index::RegionGrid;
use ter_stream::Arrival;
use ter_text::fxhash::{FxHashMap, FxHashSet};

use crate::merge::RefineOutcome;
use crate::pool::{pool_channels, worker_loop, Pool};
use crate::router::ShardRouter;
use crate::stages::{
    apply_evict, apply_insert, eviction_schedule, impute_one, traverse_shards, ShardGrid, WorkerCtx,
};

/// Parallel execution knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Number of ER-grid shards `S` (cells are hash-partitioned across
    /// them). Result-invariant; more shards than threads lets the router
    /// balance cell load across workers.
    pub shards: usize,
    /// Worker threads `T` driving imputation, traversal, and refinement.
    /// Result-invariant; `1` runs the whole pipeline inline.
    pub threads: usize,
    /// Candidate sets smaller than this are refined on the driving
    /// thread: the per-arrival fan-out barrier costs more than deciding
    /// a few pairs. Result-invariant — both paths run the same
    /// [`refine_candidates`](ter_ids::refine_candidates) cascade.
    pub refine_fanout_min: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self {
            shards: 8,
            threads,
            refine_fanout_min: 16,
        }
    }
}

impl ExecConfig {
    /// `shards`/`threads` with the default fan-out threshold (16).
    pub fn new(shards: usize, threads: usize) -> Self {
        Self {
            shards,
            threads,
            ..Self::default()
        }
    }
}

/// The sharded, batch-parallel TER-iDS engine: a [`LiveState`] plus `S`
/// shard grids. See the [module docs](self). Dereferences to its
/// [`LiveState`] for the read accessors (`window_len`, `meta`, …).
pub struct ShardedTerIdsEngine<'a> {
    ctx: &'a TerContext,
    params: Params,
    mode: PruningMode,
    exec: ExecConfig,
    gamma: f64,
    router: ShardRouter,
    imputer: RuleImputer<'a>,
    /// The partitioned ER-grid; shard `s` holds exactly the cells with
    /// `router.shard_of(key) == s`. Handed to the workers for the
    /// duration of a batch and reassembled afterwards.
    shards: Vec<ShardGrid>,
    live: LiveState,
    metrics: StageMetrics,
    name: &'static str,
}

impl<'a> ShardedTerIdsEngine<'a> {
    /// Creates a sharded engine over a prebuilt context.
    pub fn new(ctx: &'a TerContext, params: Params, mode: PruningMode, exec: ExecConfig) -> Self {
        params.validate().expect("invalid parameters");
        assert!(exec.shards > 0, "at least one shard");
        assert!(exec.threads > 0, "at least one worker thread");
        let d = ctx.arity();
        Self {
            ctx,
            params,
            mode,
            exec,
            gamma: params.gamma(d),
            router: ShardRouter::new(exec.shards),
            imputer: ctx.indexed_imputer(params.impute),
            shards: (0..exec.shards)
                .map(|_| RegionGrid::new(d, params.grid_cells))
                .collect(),
            live: LiveState::new(params.window),
            metrics: StageMetrics::default(),
            name: match mode {
                PruningMode::Full => "TER-iDS(shard)",
                PruningMode::GridOnly => "Ij+GER(shard)",
            },
        }
    }

    /// The similarity threshold `γ = ρ · d` in use.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Shard count `S`.
    pub fn shard_count(&self) -> usize {
        self.exec.shards
    }

    /// Worker thread count `T`.
    pub fn thread_count(&self) -> usize {
        self.exec.threads
    }

    /// Cell-entry count per shard (diagnostics: shows how the router
    /// spreads grid load).
    pub fn shard_entry_counts(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(ShardGrid::cell_entry_count)
            .collect()
    }

    /// Entry counts of every occupied grid cell across all shards — the
    /// density statistic the query planner's greedy join-order heuristic
    /// reads instead of maintaining histograms.
    pub fn cell_entry_counts(&self) -> Vec<usize> {
        self.shards
            .iter()
            .flat_map(|g| g.iter_cells().map(|(.., entries)| entries.len()))
            .collect()
    }

    /// Runs `f` against this engine with a **persistent** worker pool
    /// attached: the `threads` workers (each owning its session-long
    /// CDD-indexed imputer) spawn once, and every
    /// [`PooledEngine::step_batch`] inside reuses them — only the shard
    /// groups travel per batch. With `threads == 1` no pool is spawned
    /// and the handle drives the inline path, so callers can wrap their
    /// feed loop unconditionally. The pool joins before `with_pool`
    /// returns.
    pub fn with_pool<R>(&mut self, f: impl FnOnce(&mut PooledEngine<'_, 'a>) -> R) -> R {
        if self.exec.threads == 1 {
            return f(&mut PooledEngine {
                eng: self,
                pool: None,
            });
        }
        let ctx: &'a TerContext = self.ctx;
        let wctx = self.worker_ctx();
        let impute_cfg = self.params.impute;
        let threads = self.exec.threads;
        std::thread::scope(move |scope| {
            let mut chans = Vec::with_capacity(threads);
            for _ in 0..threads {
                let (chan, req_rx, resp_tx) = pool_channels();
                scope.spawn(move || {
                    // Each worker owns its imputer for the session; it is
                    // a cheap view over the context's prebuilt indexes,
                    // and identical inputs give identical imputations.
                    let imputer = ctx.indexed_imputer(impute_cfg);
                    worker_loop(wctx, ctx, &imputer, req_rx, resp_tx);
                });
                chans.push(chan);
            }
            let mut pe = PooledEngine {
                eng: self,
                pool: Some(Pool::new(chans)),
            };
            let out = f(&mut pe);
            // Dropping the handle drops the request senders — the
            // session-end signal — and the scope joins the workers.
            drop(pe);
            out
        })
    }

    /// The session-invariant worker inputs, borrowing only from the
    /// static context (never from `self`), so a live pool and a mutable
    /// engine coexist.
    fn worker_ctx(&self) -> WorkerCtx<'a> {
        let ctx = self.ctx;
        WorkerCtx {
            router: self.router,
            pair: ter_ids::PairContext {
                keywords: &ctx.keywords,
                gamma: self.gamma,
                alpha: self.params.alpha,
                aux_counts: &ctx.aux_counts,
                mode: self.mode,
            },
        }
    }

    /// Snapshots the engine's dynamic state in the canonical
    /// engine-agnostic [`EngineState`]: the shard grids merge into one
    /// sorted logical cell list (the router partitions cells, so the union
    /// is disjoint), and per-cell entry order is the monolithic grid's by
    /// the sharding invariant — the exported state is *equal* to the
    /// sequential engine's at the same stream position.
    pub fn export_state(&self) -> EngineState {
        self.live.export(self.params.grid_cells, &self.shards)
    }

    /// Replaces the engine's dynamic state with a validated snapshot,
    /// routing each persisted cell to its owning shard. Accepts snapshots
    /// exported by either engine (the representation is shard-agnostic),
    /// so a sequential checkpoint restores into a sharded engine and vice
    /// versa. On `Err` the engine is left untouched.
    pub fn import_state(&mut self, state: &EngineState) -> Result<(), String> {
        let d = self.ctx.arity();
        self.live.import(state, d, self.params.grid_cells)?;
        let mut shards: Vec<ShardGrid> = (0..self.exec.shards)
            .map(|_| RegionGrid::new(d, self.params.grid_cells))
            .collect();
        for (meta, keys) in state.cells_by_tuple() {
            let (region, agg) = (meta.region(), meta.aggregate());
            for key in keys {
                let shard = &mut shards[self.router.shard_of(key)];
                shard.insert_at([key.clone()], &region, meta.id, agg.clone());
            }
        }
        self.shards = shards;
        Ok(())
    }
}

impl Deref for ShardedTerIdsEngine<'_> {
    type Target = LiveState;

    fn deref(&self) -> &LiveState {
        &self.live
    }
}

/// Records one batch's accumulated per-stage wall-times into the global
/// observability registry — one histogram observation per stage per
/// batch, so the hot loop only pays local integer adds. No-op when
/// observability is disabled ([`ter_obs::timer`] returns `None` then, so
/// the accumulators stay zero and nothing is recorded).
fn record_stage_batch(traverse_us: u64, refine_us: u64, merge_us: u64, barrier_us: Option<u64>) {
    if !ter_obs::enabled() {
        return;
    }
    let seq = ter_obs::OBS.engine_batches.get();
    ter_obs::OBS.engine_traverse_micros.record(traverse_us);
    ter_obs::flight(ter_obs::kind::TRAVERSE, seq, 0, 0, traverse_us);
    ter_obs::trace::add_current_elapsed(ter_obs::trace::kind::TRAVERSE, traverse_us);
    ter_obs::OBS.engine_refine_micros.record(refine_us);
    ter_obs::flight(ter_obs::kind::REFINE, seq, 0, 0, refine_us);
    ter_obs::trace::add_current_elapsed(ter_obs::trace::kind::REFINE, refine_us);
    ter_obs::OBS.engine_merge_micros.record(merge_us);
    ter_obs::flight(ter_obs::kind::MERGE, seq, 0, 0, merge_us);
    ter_obs::trace::add_current_elapsed(ter_obs::trace::kind::MERGE, merge_us);
    if let Some(b) = barrier_us {
        ter_obs::OBS.engine_barrier_wait_micros.record(b);
        ter_obs::trace::add_current_elapsed(ter_obs::trace::kind::BARRIER, b);
    }
}

/// Adds the microseconds since an enabled [`ter_obs::timer`] to a local
/// stage accumulator (free when disabled).
fn lap(t0: Option<Instant>, acc: &mut u64) {
    if let Some(t0) = t0 {
        *acc += t0.elapsed().as_micros() as u64;
    }
}

/// Closes one arrival's step: its imputation timing plus the ER time
/// since `er_start` goes into the cumulative timing and the output.
fn close_step(
    live: &mut LiveState,
    imp_timing: &PhaseTiming,
    er_start: Instant,
    new_matches: Vec<(u64, u64)>,
    retractions: Vec<(u64, u64)>,
    evicted: Option<Arc<TupleMeta>>,
) -> StepOutput {
    let mut timing = *imp_timing;
    timing.er += er_start.elapsed();
    live.record_timing(&timing);
    StepOutput {
        new_matches,
        retractions,
        expired: evicted.map(|m| m.id).into_iter().collect(),
        timing,
    }
}

/// The inline drive (`threads == 1`): every stage on the driving thread
/// over the whole shard set, in the sequential engine's op order —
/// expire, traverse, refine, insert, finalize.
fn drive_inline(
    eng: &mut ShardedTerIdsEngine<'_>,
    batch: &[Arrival],
    per_arrival: &[(Arc<TupleMeta>, PhaseTiming)],
) -> Vec<StepOutput> {
    let wctx = eng.worker_ctx();
    let mut shards: Vec<(usize, ShardGrid)> = eng.shards.drain(..).enumerate().collect();
    let (mut traverse_us, mut refine_us, mut merge_us) = (0u64, 0u64, 0u64);
    let mut outputs = Vec::with_capacity(batch.len());
    for (arrival, (meta, imp_timing)) in batch.iter().zip(per_arrival) {
        let er_start = Instant::now();
        let mut t0 = ter_obs::timer();
        let (evicted, retractions) = eng.live.push(arrival.timestamp, arrival.record.id);
        lap(t0, &mut merge_us);

        t0 = ter_obs::timer();
        if let Some(old) = &evicted {
            apply_evict(&mut shards, old);
        }
        let mut surfaced = FxHashSet::default();
        traverse_shards(&shards, &wctx, meta, &mut surfaced);
        lap(t0, &mut traverse_us);

        t0 = ter_obs::timer();
        let cands = eng.live.candidates(meta, &surfaced);
        let outcome = refine_candidates(meta, &cands, &wctx.pair);
        lap(t0, &mut refine_us);

        t0 = ter_obs::timer();
        apply_insert(&mut shards, wctx.router, meta);
        let new_matches = eng.live.finalize(Arc::clone(meta), outcome);
        lap(t0, &mut merge_us);
        outputs.push(close_step(
            &mut eng.live,
            imp_timing,
            er_start,
            new_matches,
            retractions,
            evicted,
        ));
    }
    eng.shards = shards.into_iter().map(|(_, g)| g).collect();
    record_stage_batch(traverse_us, refine_us, merge_us, None);
    outputs
}

/// Resolves a scheduled eviction to its metadata: an in-batch arrival
/// (it may expire before the batch ends) or a prior window resident.
fn scheduled_evict_meta(
    scheduled: Option<u64>,
    idx_of: &FxHashMap<u64, usize>,
    per_arrival: &[(Arc<TupleMeta>, PhaseTiming)],
    live: &LiveState,
) -> Option<Arc<TupleMeta>> {
    scheduled.map(|id| match idx_of.get(&id) {
        Some(&k) => Arc::clone(&per_arrival[k].0),
        None => Arc::clone(live.meta(id).expect("scheduled eviction of unknown tuple")),
    })
}

/// The pooled drive: one combined barrier per arrival. Arrival `i+1`'s
/// traverse (insert `i`, evict per the precomputed schedule, probe
/// `i+1`) is queued right after arrival `i`'s refine, so the workers flow
/// from refining `i` straight into traversing `i+1` while the driving
/// thread finalizes `i`. The grid op order and the merge order are the
/// sequential engine's — only the waiting overlaps.
fn drive_overlapped<'a>(
    eng: &mut ShardedTerIdsEngine<'a>,
    pool: &Pool,
    wctx: WorkerCtx<'a>,
    batch: &[Arrival],
    per_arrival: &[(Arc<TupleMeta>, PhaseTiming)],
) -> Vec<StepOutput> {
    let n = batch.len();
    let sched = eviction_schedule(eng.live.window(), batch);
    let idx_of: FxHashMap<u64, usize> = batch
        .iter()
        .enumerate()
        .map(|(i, a)| (a.record.id, i))
        .collect();

    // Prologue: arrival 0's traverse has no pending insert (the previous
    // batch's final insert was applied at its `End`).
    let ev0 = scheduled_evict_meta(sched[0], &idx_of, per_arrival, &eng.live);
    pool.send_step(None, ev0.as_ref(), &per_arrival[0].0);
    eng.metrics.er_barriers += 1;
    let (mut traverse_us, mut refine_us, mut merge_us, mut barrier_us) = (0u64, 0u64, 0u64, 0u64);
    let mut t0 = ter_obs::timer();
    let mut surfaced = pool.collect_surfaced();
    lap(t0, &mut traverse_us);
    lap(t0, &mut barrier_us);

    let mut outputs = Vec::with_capacity(n);
    for i in 0..n {
        let (meta, imp_timing) = &per_arrival[i];
        let er_start = Instant::now();

        // ---- expiry (the real push; the schedule must agree) ----
        t0 = ter_obs::timer();
        let (evicted, retractions) = eng.live.push(batch[i].timestamp, batch[i].record.id);
        debug_assert_eq!(
            evicted.as_ref().map(|m| m.id),
            sched[i],
            "eviction schedule diverged from the window"
        );
        lap(t0, &mut merge_us);

        // ---- candidate selection ----
        t0 = ter_obs::timer();
        let cands = eng.live.candidates(meta, &surfaced);

        // ---- queue refine(i), then traverse(i+1), then wait once ----
        let fan_sent = if cands.len() >= eng.exec.refine_fanout_min {
            pool.send_refine(meta, &cands)
        } else {
            0
        };
        if i + 1 < n {
            let ev = scheduled_evict_meta(sched[i + 1], &idx_of, per_arrival, &eng.live);
            pool.send_step(Some(meta), ev.as_ref(), &per_arrival[i + 1].0);
        }
        // A small candidate set refines here, on the driving thread,
        // overlapping the workers' traverse of i+1.
        let mut outcome = if fan_sent == 0 {
            refine_candidates(meta, &cands, &wctx.pair)
        } else {
            eng.metrics.fanned_refines += 1;
            RefineOutcome::default()
        };
        if fan_sent > 0 || i + 1 < n {
            eng.metrics.er_barriers += 1;
        }
        lap(t0, &mut refine_us);
        if fan_sent > 0 {
            // FIFO per worker: its Refined(i) reply precedes its
            // Surfaced(i+1) reply, so this drain order is deterministic.
            t0 = ter_obs::timer();
            outcome = pool.collect_refined(fan_sent);
            lap(t0, &mut refine_us);
            lap(t0, &mut barrier_us);
        }
        if i + 1 < n {
            t0 = ter_obs::timer();
            surfaced = pool.collect_surfaced();
            lap(t0, &mut traverse_us);
            lap(t0, &mut barrier_us);
        }

        // ---- merge ----
        t0 = ter_obs::timer();
        let new_matches = eng.live.finalize(Arc::clone(meta), outcome);
        lap(t0, &mut merge_us);
        outputs.push(close_step(
            &mut eng.live,
            imp_timing,
            er_start,
            new_matches,
            retractions,
            evicted,
        ));
    }
    record_stage_batch(traverse_us, refine_us, merge_us, Some(barrier_us));
    outputs
}

/// An engine with a live pool session attached (see
/// [`ShardedTerIdsEngine::with_pool`]). Drives batches through the
/// persistent workers; between batches the full state lives in the
/// engine, so state export/import and every read accessor work
/// mid-session.
pub struct PooledEngine<'s, 'a> {
    eng: &'s mut ShardedTerIdsEngine<'a>,
    pool: Option<Pool>,
}

impl<'a> PooledEngine<'_, 'a> {
    /// Read access to the underlying engine.
    pub fn engine(&self) -> &ShardedTerIdsEngine<'a> {
        self.eng
    }

    /// Mutable access to the underlying engine (the pool holds no engine
    /// state between batches, so any engine operation is safe here).
    pub fn engine_mut(&mut self) -> &mut ShardedTerIdsEngine<'a> {
        self.eng
    }

    /// [`ShardedTerIdsEngine::export_state`] pass-through.
    pub fn export_state(&self) -> EngineState {
        self.eng.export_state()
    }

    /// [`ShardedTerIdsEngine::import_state`] pass-through.
    pub fn import_state(&mut self, state: &EngineState) -> Result<(), String> {
        self.eng.import_state(state)
    }

    /// Phases 1–4 for one batch through the session's workers.
    fn step_batch_impl(&mut self, batch: &[Arrival]) -> Vec<StepOutput> {
        if batch.is_empty() {
            return Vec::new();
        }
        let batch_t0 = ter_obs::timer();
        ter_obs::OBS.engine_batches.inc();
        // Library mode: no outer driver owns a causal trace for this
        // batch, so it roots its own (keyed by the engine batch ordinal).
        // In daemon mode the serve step stage owns the trace and this is
        // a no-op.
        let self_rooted = ter_obs::trace::root_if_unattached(ter_obs::OBS.engine_batches.get());
        let eng = &mut *self.eng;

        // ---- impute stage ----
        let t0 = ter_obs::timer();
        let per_arrival: Vec<(Arc<TupleMeta>, PhaseTiming)> = match &self.pool {
            Some(pool) if batch.len() > 1 => pool.impute_batch(batch),
            _ => batch
                .iter()
                .map(|a| impute_one(&eng.imputer, eng.ctx, a))
                .collect(),
        };
        let impute_us = ter_obs::OBS.engine_impute_micros.observe_since(t0);
        ter_obs::flight(
            ter_obs::kind::IMPUTE,
            ter_obs::OBS.engine_batches.get(),
            batch.len() as u64,
            0,
            impute_us,
        );
        ter_obs::trace::add_current_elapsed(ter_obs::trace::kind::IMPUTE, impute_us);

        let outputs = match &self.pool {
            None => drive_inline(eng, batch, &per_arrival),
            Some(pool) => {
                eng.metrics.pooled_batches += 1;
                // Workers own disjoint shard groups for the whole batch
                // (shard s → worker s mod T), so each cell's op sequence
                // is applied by exactly one worker, in arrival order —
                // identical to the monolithic grid.
                let shard_count = eng.shards.len();
                let threads = pool.len();
                let mut groups: Vec<Vec<(usize, ShardGrid)>> =
                    (0..threads).map(|_| Vec::new()).collect();
                for (sid, grid) in eng.shards.drain(..).enumerate() {
                    groups[sid % threads].push((sid, grid));
                }
                pool.begin(groups);
                let wctx = eng.worker_ctx();
                let outputs = drive_overlapped(eng, pool, wctx, batch, &per_arrival);
                let last = per_arrival.last().map(|(m, _)| Arc::clone(m));
                eng.shards = pool.finish(last, shard_count);
                outputs
            }
        };
        let batch_us = batch_t0.map_or(0, |t| t.elapsed().as_micros() as u64);
        ter_obs::flight(
            ter_obs::kind::BATCH,
            ter_obs::OBS.engine_batches.get(),
            batch.len() as u64,
            0,
            batch_us,
        );
        if self_rooted {
            ter_obs::trace::add_current_elapsed(ter_obs::trace::kind::STEP, batch_us);
            ter_obs::trace::end_current();
        }
        outputs
    }
}

impl ErProcessor for PooledEngine<'_, '_> {
    fn name(&self) -> &'static str {
        self.eng.name
    }

    fn process(&mut self, arrival: &Arrival) -> StepOutput {
        self.step_batch_impl(std::slice::from_ref(arrival))
            .pop()
            .expect("one output per arrival")
    }

    fn step_batch(&mut self, batch: &[Arrival]) -> Vec<StepOutput> {
        self.step_batch_impl(batch)
    }

    fn results(&self) -> &ResultSet {
        self.eng.live.results()
    }

    fn reported(&self) -> &FxHashSet<(u64, u64)> {
        self.eng.live.reported()
    }

    fn prune_stats(&self) -> PruneStats {
        self.eng.live.prune_stats()
    }

    fn timing(&self) -> PhaseTiming {
        self.eng.live.timing()
    }

    fn stage_metrics(&self) -> StageMetrics {
        self.eng.metrics
    }
}

impl ErProcessor for ShardedTerIdsEngine<'_> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn process(&mut self, arrival: &Arrival) -> StepOutput {
        self.step_batch(std::slice::from_ref(arrival))
            .pop()
            .expect("one output per arrival")
    }

    /// One batch through a transient pool session (the pool spins up and
    /// joins within the call). Long-lived consumers should hold a
    /// session open via [`ShardedTerIdsEngine::with_pool`] instead.
    fn step_batch(&mut self, batch: &[Arrival]) -> Vec<StepOutput> {
        if batch.is_empty() {
            return Vec::new();
        }
        self.with_pool(|pe| pe.step_batch_impl(batch))
    }

    fn results(&self) -> &ResultSet {
        self.live.results()
    }

    fn reported(&self) -> &FxHashSet<(u64, u64)> {
        self.live.reported()
    }

    fn prune_stats(&self) -> PruneStats {
        self.live.prune_stats()
    }

    fn timing(&self) -> PhaseTiming {
        self.live.timing()
    }

    fn stage_metrics(&self) -> StageMetrics {
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ter_ids::TerIdsEngine;
    use ter_repo::{PivotConfig, Record, Repository, Schema};
    use ter_rules::DiscoveryConfig;
    use ter_stream::StreamSet;
    use ter_text::{Dictionary, KeywordSet};

    /// The same 2-stream scenario as the sequential engine's unit tests.
    fn scenario() -> (TerContext, StreamSet) {
        let schema = Schema::new(vec!["title", "tags"]);
        let mut dict = Dictionary::new();
        let repo_rows = [
            ("space cowboy adventure", "scifi western"),
            ("space cowboy adventure saga", "scifi western"),
            ("high school romance", "drama comedy"),
            ("high school romance club", "drama comedy"),
            ("cooking master", "comedy food"),
            ("idol music live", "music idol"),
        ];
        let repo_recs = repo_rows
            .iter()
            .enumerate()
            .map(|(i, (a, b))| {
                Record::from_texts(&schema, 1000 + i as u64, &[Some(a), Some(b)], &mut dict)
            })
            .collect();
        let repo = Repository::from_records(schema.clone(), repo_recs);
        let keywords = KeywordSet::parse("scifi", &dict);
        let ctx = TerContext::build(
            repo,
            keywords,
            &PivotConfig::default(),
            &DiscoveryConfig {
                min_support: 2,
                min_constant_support: 2,
                ..DiscoveryConfig::default()
            },
            16,
        );
        let s0 = vec![
            Record::from_texts(
                &schema,
                1,
                &[Some("space cowboy adventure"), Some("scifi western")],
                &mut dict,
            ),
            Record::from_texts(
                &schema,
                3,
                &[Some("cooking master"), Some("comedy food")],
                &mut dict,
            ),
        ];
        let s1 = vec![
            Record::from_texts(
                &schema,
                2,
                &[Some("space cowboy adventure"), Some("scifi western")],
                &mut dict,
            ),
            Record::from_texts(
                &schema,
                4,
                &[Some("idol music live"), Some("music idol")],
                &mut dict,
            ),
        ];
        (ctx, StreamSet::new(vec![s0, s1]))
    }

    #[test]
    fn finds_the_obvious_match_in_one_batch() {
        let (ctx, streams) = scenario();
        let mut e = ShardedTerIdsEngine::new(
            &ctx,
            Params::default(),
            PruningMode::Full,
            ExecConfig::new(4, 2),
        );
        let outs = e.step_batch(&streams.arrivals());
        let all: Vec<(u64, u64)> = outs.iter().flat_map(|o| o.new_matches.clone()).collect();
        assert_eq!(all, vec![(1, 2)]);
        assert!(e.results().contains(1, 2));
        assert_eq!(e.window_len(), 4);
    }

    #[test]
    fn agrees_with_sequential_engine_across_batch_sizes() {
        let (ctx, streams) = scenario();
        let mut seq = TerIdsEngine::new(&ctx, Params::default(), PruningMode::Full);
        let mut seq_steps = Vec::new();
        for a in streams.arrivals() {
            let mut m = seq.process(&a).new_matches;
            m.sort_unstable();
            seq_steps.push(m);
        }
        for batch in 1..=5 {
            for threads in [1usize, 2] {
                for pooled_session in [false, true] {
                    let exec = ExecConfig::new(3, threads);
                    let mut par =
                        ShardedTerIdsEngine::new(&ctx, Params::default(), PruningMode::Full, exec);
                    let par_steps: Vec<Vec<(u64, u64)>> = if pooled_session {
                        par.with_pool(|pe| {
                            streams
                                .arrival_batches(batch)
                                .iter()
                                .flat_map(|chunk| pe.step_batch(chunk))
                                .map(|o| o.new_matches)
                                .collect()
                        })
                    } else {
                        streams
                            .arrival_batches(batch)
                            .iter()
                            .flat_map(|chunk| par.step_batch(chunk))
                            .map(|o| o.new_matches)
                            .collect()
                    };
                    let tag = format!(
                        "batch {batch}, threads {threads}, pooled session {pooled_session}"
                    );
                    assert_eq!(par_steps, seq_steps, "{tag}");
                    assert_eq!(par.prune_stats(), seq.prune_stats(), "{tag}");
                    assert_eq!(par.live_ids(), seq.live_ids(), "{tag}");
                }
            }
        }
    }

    /// A persistent pool session across several batches must be
    /// bit-identical to per-batch transient sessions, and must actually
    /// run pooled (the metrics say so).
    #[test]
    fn persistent_session_agrees_with_transient_batches() {
        let (ctx, streams) = scenario();
        let exec = ExecConfig::new(4, 2);
        let arrivals = streams.arrivals();

        let mut transient =
            ShardedTerIdsEngine::new(&ctx, Params::default(), PruningMode::Full, exec);
        let mut t_steps = Vec::new();
        for chunk in arrivals.chunks(2) {
            t_steps.extend(
                transient
                    .step_batch(chunk)
                    .into_iter()
                    .map(|o| o.new_matches),
            );
        }

        let mut pooled = ShardedTerIdsEngine::new(&ctx, Params::default(), PruningMode::Full, exec);
        let p_steps = pooled.with_pool(|pe| {
            let mut steps = Vec::new();
            for chunk in arrivals.chunks(2) {
                steps.extend(pe.step_batch(chunk).into_iter().map(|o| o.new_matches));
            }
            // State is fully materialized between batches mid-session.
            assert_eq!(pe.export_state(), pe.engine().export_state());
            steps
        });
        assert_eq!(p_steps, t_steps);
        assert_eq!(pooled.prune_stats(), transient.prune_stats());
        assert_eq!(pooled.export_state(), transient.export_state());
        assert_eq!(pooled.stage_metrics().pooled_batches, 2);
    }

    /// The instrumented barrier bound: with every refine forced onto the
    /// pool, the pooled drive waits at most once per arrival plus one
    /// prologue per batch.
    #[test]
    fn pooled_drive_pays_one_barrier_per_arrival() {
        let (ctx, streams) = scenario();
        let arrivals = streams.arrivals();
        let exec = ExecConfig {
            shards: 4,
            threads: 2,
            refine_fanout_min: 0, // always fan out (when candidates exist)
        };
        let mut e = ShardedTerIdsEngine::new(&ctx, Params::default(), PruningMode::Full, exec);
        e.step_batch(&arrivals);
        let m = e.stage_metrics();
        let (n, batches) = (arrivals.len() as u64, 1);
        assert!(m.fanned_refines > 0, "scenario exercises fanned refines");
        assert!(
            m.er_barriers <= n + batches,
            "at most one barrier per arrival plus one prologue per batch \
             (got {} for {n} arrivals)",
            m.er_barriers
        );
    }

    #[test]
    fn expiry_matches_sequential_semantics() {
        let (ctx, streams) = scenario();
        let params = Params {
            window: 2,
            ..Params::default()
        };
        let mut e =
            ShardedTerIdsEngine::new(&ctx, params, PruningMode::Full, ExecConfig::new(2, 2));
        let arrivals = streams.arrivals();
        e.step_batch(&arrivals[..2]);
        assert!(e.results().contains(1, 2));
        e.step_batch(&arrivals[2..3]);
        assert!(!e.results().contains(1, 2), "pair must expire with tuple 1");
        assert!(e.reported().contains(&(1, 2)));
        assert_eq!(e.window_len(), 2);
    }

    /// A window smaller than the batch forces in-batch arrivals to expire
    /// before the batch ends — the pooled drive's eviction schedule must
    /// resolve their metadata from the batch itself, and the inline drive
    /// must agree.
    #[test]
    fn in_batch_expiry_is_bit_identical_across_drives() {
        let (ctx, streams) = scenario();
        let params = Params {
            window: 1,
            ..Params::default()
        };
        let arrivals = streams.arrivals();
        let mut seq = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        for a in &arrivals {
            seq.process(a);
        }
        for threads in [1, 2] {
            let exec = ExecConfig::new(3, threads);
            let mut par = ShardedTerIdsEngine::new(&ctx, params, PruningMode::Full, exec);
            par.step_batch(&arrivals);
            assert_eq!(par.export_state(), seq.export_state(), "threads {threads}");
        }
    }

    #[test]
    fn timing_is_recorded() {
        let (ctx, streams) = scenario();
        let mut e = ShardedTerIdsEngine::new(
            &ctx,
            Params::default(),
            PruningMode::Full,
            ExecConfig::new(2, 2),
        );
        e.step_batch(&streams.arrivals());
        let t = e.timing();
        assert_eq!(t.arrivals, 4);
        assert!(t.total().as_nanos() > 0);
    }

    /// The sharded engine's exported state must be byte-for-byte the
    /// sequential engine's (same canonical representation, same per-cell
    /// entry order), and checkpoints must restore across engine kinds.
    #[test]
    fn state_is_engine_agnostic() {
        let (ctx, streams) = scenario();
        let params = Params {
            window: 3, // forces an eviction across the 4 arrivals
            ..Params::default()
        };
        let arrivals = streams.arrivals();
        let mut seq = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        for a in &arrivals {
            seq.process(a);
        }
        let mut par =
            ShardedTerIdsEngine::new(&ctx, params, PruningMode::Full, ExecConfig::new(4, 2));
        par.step_batch(&arrivals);
        let state = seq.export_state();
        assert_eq!(par.export_state(), state, "export representations differ");

        // Sequential checkpoint → sharded engine (different shard count).
        let mut restored =
            ShardedTerIdsEngine::new(&ctx, params, PruningMode::Full, ExecConfig::new(3, 1));
        restored.import_state(&state).unwrap();
        assert_eq!(restored.export_state(), state);
        assert_eq!(restored.live_ids(), seq.live_ids());

        // Sharded checkpoint → sequential engine.
        let mut back = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        back.import_state(&par.export_state()).unwrap();
        assert_eq!(back.export_state(), state);
    }

    #[test]
    fn import_rejects_mismatched_window() {
        let (ctx, streams) = scenario();
        let exec = ExecConfig::new(2, 1);
        let mut e = ShardedTerIdsEngine::new(&ctx, Params::default(), PruningMode::Full, exec);
        e.step_batch(&streams.arrivals());
        let state = e.export_state();
        let mut other = ShardedTerIdsEngine::new(
            &ctx,
            Params {
                window: 9,
                ..Params::default()
            },
            PruningMode::Full,
            exec,
        );
        assert!(other.import_state(&state).is_err());
        assert_eq!(other.window_len(), 0);
    }

    #[test]
    fn grid_load_is_spread_across_shards() {
        let (ctx, streams) = scenario();
        let mut e = ShardedTerIdsEngine::new(
            &ctx,
            Params::default(),
            PruningMode::Full,
            ExecConfig::new(8, 2),
        );
        e.step_batch(&streams.arrivals());
        let counts = e.shard_entry_counts();
        assert_eq!(counts.len(), 8);
        assert!(counts.iter().sum::<usize>() > 0);
    }
}
