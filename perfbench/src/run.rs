//! One benchmark run of one workload: set-up, warm-up, `kill -9`, the
//! measured phase on the restarted daemon with timed restarts between its
//! sub-phases, the correctness gate, and the metrics.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ter_ids::{ErProcessor, PruningMode, TerContext, TerIdsEngine};
use ter_repo::{DrIndex, PivotConfig, PivotTable};
use ter_rules::{detect_cdds, detect_dds, detect_editing_rules, CddIndex, DiscoveryConfig};
use ter_serve::{Reply, Request, ServeOptions};
use ter_store::{context_fingerprint, TerStore};
use ter_stream::Arrival;

use crate::daemon::Daemon;
use crate::driver::{Driver, Phase};
use crate::layers::{Scrape, Spans};
use crate::session::Session;
use crate::workload::{Inputs, Workload, ONESHOT_PATTERNS, PATTERNS};

/// Timed daemon starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Timed restarts after each measured sub-phase, each from a fresh copy
/// of the killed daemon's directory. `recovery_s` is the median of the
/// `RESTARTS_PER_SUBPHASE * SUBPHASES` least stolen: a restart is CPU
/// bound and its speed follows the host's, which drifts over seconds, so
/// restarts spread over the measured phase give a steadier figure than
/// the same number made back to back.
const RESTARTS_PER_SUBPHASE: usize = 3;
/// The daemon is killed once its acked batch count is this far past a
/// checkpoint stamp, so every recovery replays the same WAL suffix.
const KILL_AFTER_STAMP: usize = 4;
/// The measured phase runs as equal sub-phases, and each end-to-end
/// rate, latency and CPU figure is the median of its values over this
/// many of them, so one stretch of host CPU steal does not set a run's
/// figures.
const SUBPHASES: u32 = 5;
/// In a timed run, a sub-phase in which the hypervisor stole more than
/// this share of the host's CPU time is measured again, while arrivals
/// last, up to `EXTRA_SUBPHASES` times; the figures then come from the
/// `SUBPHASES` with the least steal. On the 2-vCPU host the benchmark
/// was sized on, steal sits at 0-2.5% and comes in spells of 20-60 s at
/// 5-30%, which cut closed-loop throughput by up to half and quadruple
/// paced ack latency.
const MAX_STEAL: f64 = 0.03;
/// After a stolen sub-phase the generator waits, at most this long in a
/// run, for a second with no more than `MAX_STEAL` stolen.
const MAX_PAUSE: Duration = Duration::from_secs(30);
const EXTRA_SUBPHASES: usize = 3;
/// Tail latencies are reported at p95: burst400's bursts are every tenth
/// batch, so p90 would sit on the edge between quiet and burst batches.
const TAIL_Q: f64 = 0.95;
/// A paced p99 send lag above one batch interval means the generator fell
/// behind its schedule, and the run is invalid.
const MAX_LAG_SHARE: f64 = 1.0;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub report: String,
}

/// Nearest-rank quantile.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// FNV-1a over the per-arrival match lists, in arrival order.
fn digest<'m>(lists: impl Iterator<Item = &'m Vec<(u64, u64)>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for list in lists {
        eat(list.len() as u64);
        for &(a, b) in list {
            eat(a);
            eat(b);
        }
    }
    h
}

fn newest_checkpoint_bytes(dir: &Path) -> f64 {
    let newest = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let seq: u64 = name
                .strip_prefix("ckpt-")?
                .strip_suffix(".bin")?
                .parse()
                .ok()?;
            Some((seq, e.metadata().ok()?.len()))
        })
        .max();
    newest.map_or(0.0, |(_, len)| len as f64)
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`: time the
/// hypervisor gave to other guests, which shows as slowness no change
/// to the program explains.
fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of the host's CPU time the hypervisor stole since `from` (0
/// where `/proc/stat` cannot be read).
fn steal_since(from: Option<(u64, u64)>) -> f64 {
    match (from, host_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) => {
            s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64
        }
        _ => 0.0,
    }
}

/// Waits in one-second steps, while `budget` lasts, for a second with at
/// most `MAX_STEAL` stolen.
fn wait_for_calm(budget: &mut Duration) {
    while !budget.is_zero() {
        let (t, from) = (Instant::now(), host_ticks());
        std::thread::sleep(Duration::from_secs(1).min(*budget));
        *budget = budget.saturating_sub(t.elapsed());
        if steal_since(from) <= MAX_STEAL {
            break;
        }
    }
}

/// Copies a store directory's files and syncs them, so a daemon that
/// recovers from the copy does not pay for writing it back.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    for e in std::fs::read_dir(from).map_err(|e| format!("read_dir: {e}"))? {
        let e = e.map_err(|e| format!("read_dir: {e}"))?;
        if e.file_type().map_err(|e| format!("stat: {e}"))?.is_file() {
            let dst = to.join(e.file_name());
            std::fs::copy(e.path(), &dst)
                .and_then(|_| std::fs::File::open(&dst)?.sync_all())
                .map_err(|e| format!("copy {}: {e}", dst.display()))?;
        }
    }
    Ok(())
}

/// Starts daemons one after another, each serving the directory
/// `dir_for` prepares, times each from spawn to its first served request
/// and kills it, and appends `(host steal, seconds)` to `starts` until it
/// holds `reps` of them. A start during which the hypervisor stole more
/// than `MAX_STEAL` of the host's CPU is made again, after a wait for
/// calm, while `starts` holds fewer than `most`.
fn timed_starts(
    starts: &mut Vec<(f64, f64)>,
    (reps, most): (usize, usize),
    (workload, inputs): (&str, &Path),
    pause: &mut Duration,
    spans: &mut Spans,
    name: &'static str,
    dir_for: &mut dyn FnMut(usize) -> Result<PathBuf, String>,
) -> Result<(), String> {
    while starts.len() < reps
        || (starts.iter().filter(|s| s.0 <= MAX_STEAL).count() < reps && starts.len() < most)
    {
        if starts.last().is_some_and(|s| s.0 > MAX_STEAL) {
            wait_for_calm(pause);
        }
        let dir = dir_for(starts.len())?;
        let host0 = host_ticks();
        let d = Daemon::spawn(workload, inputs, &dir)?;
        let t = d.until_served()?;
        let steal = steal_since(host0);
        spans.rec(name, starts.len() as u64, d.spawned, d.spawned + t);
        d.kill();
        let _ = std::fs::remove_dir_all(&dir);
        starts.push((steal, t.as_secs_f64()));
    }
    Ok(())
}

/// The times of the `n` least stolen starts.
fn least_stolen(starts: &[(f64, f64)], n: usize) -> Vec<f64> {
    let mut v = starts.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    v.into_iter().take(n).map(|s| s.1).collect()
}

/// The in-process sequential engine the daemon is checked against,
/// stepped over the same batches in the same order.
struct Reference<'c> {
    engine: TerIdsEngine<'c>,
    lists: Vec<Vec<(u64, u64)>>,
    done: usize,
}

/// What the reference measured over the measured phase's batches.
struct RefPhase {
    seq_tps: f64,
    pairs: f64,
    topic_pruned: f64,
    matches: f64,
    impute_s: f64,
    live_tuples: f64,
    cells: f64,
    max_cell_entries: f64,
}

impl<'c> Reference<'c> {
    fn new(ctx: &'c TerContext, w: &Workload) -> Self {
        Reference {
            engine: TerIdsEngine::new(ctx, w.params(), PruningMode::Full),
            lists: Vec::new(),
            done: 0,
        }
    }

    fn step(&mut self, batches: &[Vec<Arrival>]) {
        let outs = self.engine.step_batch(&batches[self.done]);
        self.lists.extend(outs.into_iter().map(|o| o.new_matches));
        self.done += 1;
    }

    fn step_to(&mut self, batches: &[Vec<Arrival>], end: usize) {
        while self.done < end {
            self.step(batches);
        }
    }

    /// Steps through the phase's batches, timing them.
    fn measure(&mut self, batches: &[Vec<Arrival>], phase: &Phase) -> RefPhase {
        self.step_to(batches, phase.first);
        let (s0, t0) = (self.engine.prune_stats(), self.engine.timing());
        let clock = Instant::now();
        self.step_to(batches, phase.last);
        let secs = clock.elapsed().as_secs_f64();
        let (s, t) = (self.engine.prune_stats(), self.engine.timing());
        let cells = self.engine.cell_entry_counts();
        let impute = |t: &ter_ids::PhaseTiming| (t.rule_selection + t.imputation).as_secs_f64();
        RefPhase {
            seq_tps: phase.arrivals(batches) as f64 / secs,
            pairs: (s.total_pairs - s0.total_pairs) as f64,
            topic_pruned: (s.topic - s0.topic) as f64,
            matches: (s.matches - s0.matches) as f64,
            impute_s: impute(&t) - impute(&t0),
            live_tuples: self.engine.window_len() as f64,
            cells: cells.len() as f64,
            max_cell_entries: cells.iter().copied().max().unwrap_or(0) as f64,
        }
    }
}

/// The offline phase's sub-steps, timed in `TerContext::build`'s order.
fn time_context_steps(inputs: &Inputs, fanout: usize, spans: &mut Spans) -> [f64; 4] {
    let repo = &inputs.repo;
    let t = Instant::now();
    let pivots = PivotTable::select(repo, &PivotConfig::default());
    let t1 = Instant::now();
    let cfg = DiscoveryConfig::default();
    let cdds = detect_cdds(repo, &cfg);
    std::hint::black_box((detect_dds(repo, &cfg), detect_editing_rules(repo, &cfg)));
    let t2 = Instant::now();
    let idx: Vec<CddIndex> = (0..repo.schema().arity())
        .map(|j| CddIndex::build(j, &cdds, &pivots))
        .collect();
    std::hint::black_box(idx);
    let t3 = Instant::now();
    std::hint::black_box(DrIndex::build(repo, &pivots, &inputs.keywords, fanout));
    let t4 = Instant::now();
    spans.rec("setup.pivots", 0, t, t1);
    spans.rec("setup.rule_discovery", 0, t1, t2);
    spans.rec("setup.cdd_index", 0, t2, t3);
    spans.rec("setup.dr_index", 0, t3, t4);
    [t1 - t, t2 - t1, t3 - t2, t4 - t3].map(|d| d.as_secs_f64())
}

pub fn run(
    w: &Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    root: &Path,
) -> Result<Outcome, String> {
    let work: PathBuf = root.join(format!("{}-{seed}-{}", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("mkdir {}: {e}", work.display()))?;
    let result = run_in(w, seed, seconds, trace, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(
    w: &Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let mut inputs = Inputs::generate(w, seed);
    let params = w.params();
    let inputs_path = work.join("inputs.bin");
    std::fs::write(&inputs_path, inputs.encode_context_inputs())
        .map_err(|e| format!("write inputs: {e}"))?;
    let ctx = TerContext::build(
        inputs.repo.clone(),
        inputs.keywords.clone(),
        &PivotConfig::default(),
        &DiscoveryConfig::default(),
        params.fanout,
    );
    let mut rf = Reference::new(&ctx, w);
    let dur = Duration::from_secs(seconds);
    let mut spans = Spans::new(trace);

    // ---- set-up: SETUP_REPS timed daemon starts, then the one that serves ----
    let mut pause = MAX_PAUSE;
    let mut setup_starts = Vec::new();
    timed_starts(
        &mut setup_starts,
        (SETUP_REPS, if trace { SETUP_REPS } else { 2 * SETUP_REPS }),
        (w.name, &inputs_path),
        &mut pause,
        &mut spans,
        "setup.daemon_start",
        &mut |r| Ok(work.join(format!("setup{r}"))),
    )?;
    let setup = least_stolen(&setup_starts, SETUP_REPS);
    let store_dir = work.join("store");
    let daemon = Daemon::spawn(w.name, &inputs_path, &store_dir)?;
    daemon.until_served()?;
    let fill_end = 1 + inputs
        .batches
        .iter()
        .scan(0, |acc, b| {
            *acc += b.len();
            Some(*acc)
        })
        .position(|acc| acc >= w.profile.window)
        .ok_or("the inputs do not fill the window")?;
    let mut driver = Driver::new(std::mem::take(&mut inputs.batches), spans);
    driver.attach(Session::open(daemon.addr)?);

    // ---- warm-up: fill the window (the reference steps the same batches
    // while replies are outstanding), then go on to a fixed distance past
    // a checkpoint stamp ----
    driver.feed_to(fill_end, 4, &mut |batches| {
        let busy = rf.done < fill_end;
        if busy {
            rf.step(batches);
        }
        busy
    })?;
    let every = ServeOptions::default().checkpoint_every as usize;
    driver.feed_while(|acked| acked % every != KILL_AFTER_STAMP)?;

    // ---- kill -9; the rest of the run is served by a daemon restarted
    // from a copy of the killed directory, and the timed restarts between
    // sub-phases start from copies of it too ----
    let ckpt_bytes = newest_checkpoint_bytes(&store_dir);
    driver.detach();
    daemon.kill();
    let killed = work.join("killed");
    copy_dir(&store_dir, &killed)?;
    let fresh_copy = |name: String| {
        let dir = work.join(name);
        copy_dir(&killed, &dir).map(|_| dir)
    };
    let daemon = Daemon::spawn(w.name, &inputs_path, &fresh_copy("recovered".into())?)?;
    daemon.until_served()?;
    driver.attach(Session::open(daemon.addr)?);
    for (k, &p) in w.subscriptions.iter().enumerate() {
        driver.subscribe(k as u64 + 1, p, PATTERNS[p])?;
    }
    let queries = w
        .query_every
        .map(|mean| (mean, &ONESHOT_PATTERNS[..], seed));

    // ---- measured phase (a traced run first measures an untraced one) ----
    let mut untraced_tps = f64::NAN;
    if trace {
        driver.spans.on = false;
        let p = driver.phase(w.offer, w.batch, dur / 2, queries)?;
        untraced_tps = p.tps;
        driver.spans.on = true;
    }
    let scrape0 = if trace {
        Some(Scrape::take(&mut driver)?)
    } else {
        None
    };
    let mut parts = Vec::new();
    let mut subs: Vec<[f64; 5]> = Vec::new();
    let want = SUBPHASES as usize;
    let mut restarts = Vec::new();
    let mut most = 0usize;
    while subs.len() < want
        || (subs.iter().filter(|s| s[4] <= MAX_STEAL).count() < want
            && subs.len() < want + if trace { 0 } else { EXTRA_SUBPHASES }
            && driver.arrivals_left() > most + most / 2)
    {
        if subs.last().is_some_and(|s| s[4] > MAX_STEAL) {
            wait_for_calm(&mut pause);
        }
        let (cpu0, host0) = (daemon.cpu_ms()?, host_ticks());
        let p = driver.phase(w.offer, w.batch, dur / SUBPHASES, queries)?;
        let cpu_ms = daemon.cpu_ms()? - cpu0;
        let steal = steal_since(host0);
        most = most.max(p.arrivals(driver.batches()));
        let arrivals = p.arrivals(driver.batches()) as f64;
        subs.push([
            p.tps,
            quantile(&p.ack_ms, 0.5),
            quantile(&p.ack_ms, TAIL_Q),
            cpu_ms / (arrivals / 1e3),
            steal,
        ]);
        parts.push(p);
        let reps = restarts.len() + RESTARTS_PER_SUBPHASE;
        timed_starts(
            &mut restarts,
            (reps, reps),
            (w.name, &inputs_path),
            &mut pause,
            &mut driver.spans,
            "recovery.restart",
            &mut |r| fresh_copy(format!("recover{r}")),
        )?;
    }
    let recovery = least_stolen(&restarts, RESTARTS_PER_SUBPHASE * want);
    let rss_peak_mb = daemon.rss_peak_mb()?;
    let phase = Phase::merge(parts);
    let mut calm = subs.clone();
    calm.sort_by(|a, b| a[4].total_cmp(&b[4]));
    calm.truncate(want);
    let sub_median = |k: usize| quantile(&calm.iter().map(|s| s[k]).collect::<Vec<_>>(), 0.5);
    let scrape1 = if trace {
        Some(Scrape::take(&mut driver)?)
    } else {
        None
    };
    let interval_ms = w.offer.interval(w.batch).map(|d| d.as_secs_f64() * 1e3);
    let lag_p99 = quantile(&phase.lag_ms, 0.99);
    if let Some(iv) = interval_ms {
        if lag_p99 > MAX_LAG_SHARE * iv {
            return Err(format!(
                "invalid run: the generator fell behind its schedule (p99 lag {lag_p99:.2} ms, batch interval {iv:.2} ms)"
            ));
        }
    }

    // ---- herd: every fold must equal a one-shot query of its pattern ----
    let mut mismatches = 0u64;
    let mut patterns: Vec<usize> = w.subscriptions.to_vec();
    patterns.dedup();
    for p in patterns {
        match driver.query(PATTERNS[p])? {
            Some((_, _, rows)) => {
                for (pat, fold) in driver.folds.values() {
                    if *pat == p && (fold.lagged.is_some() || fold.rows() != rows) {
                        mismatches += 1;
                    }
                }
            }
            None => mismatches += 1,
        }
    }

    // ---- correctness gate: the sequential reference engine ----
    let batches = driver.batches();
    let rp = rf.measure(batches, &phase);
    rf.step_to(batches, driver.acked_batches());
    let daemon_digest = digest(driver.matches.iter().flatten());
    let stats = match driver.call(&Request::Stats)? {
        Reply::Stats(s) => s,
        _ => return Err("unexpected reply to stats".into()),
    };
    let mut report = String::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            let _ = writeln!(report, "CORRECTNESS FAILED: {what}");
        }
        ok
    };
    let correct = check(
        daemon_digest == digest(rf.lists.iter()),
        "daemon match digest differs from the sequential engine",
    ) & check(
        mismatches == 0,
        "a standing-query fold differs from its one-shot query",
    ) & check(
        stats.stats == rf.engine.prune_stats() && stats.window_len == rf.engine.window_len(),
        "recovered daemon's counters differ from the sequential engine",
    );
    driver.detach();
    daemon.kill();
    if !correct {
        driver.failed += 1;
    }
    let _ = writeln!(
        report,
        "{}: host_cpus {}; samples per run: ack {} over {} sub-phases (figures from the {want} with least steal), notify {}, query {}, setup {} (least stolen of {} starts), recovery {} (of {} restarts)",
        w.name,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        phase.ack_ms.len(),
        subs.len(),
        phase.notify_ms.len(),
        phase.query_ms.len(),
        setup.len(),
        setup_starts.len(),
        recovery.len(),
        restarts.len()
    );
    let row = |k: usize, scale: f64| {
        subs.iter()
            .map(|s| format!("{:.2}", s[k] * scale))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(
        report,
        "  sub-phases: tps [{}] | ack p50 ms [{}] | cpu ms/ktuple [{}] | host steal % [{}]",
        row(0, 1.0),
        row(1, 1.0),
        row(3, 1.0),
        row(4, 100.0)
    );
    let ms = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(
        report,
        "  setup ms [{}] | recovery ms [{}]",
        ms(&setup),
        ms(&recovery)
    );

    let mut metrics = Vec::new();
    let mut put = |name: &'static str, unit: &'static str, value: f64| {
        metrics.push(Metric { name, unit, value })
    };
    let phase_arrivals = phase.arrivals(driver.batches()) as f64;
    let phase_batches = (phase.last - phase.first) as f64;
    let ok_frac = 1.0 - driver.failed as f64 / driver.attempted.max(1) as f64;
    if !trace {
        put("setup_s", "s", quantile(&setup, 0.5));
        put("ingest_tps", "1/s", sub_median(0));
        put("ack_p50_ms", "ms", sub_median(1));
        put("ack_p95_ms", "ms", sub_median(2));
        put("recovery_s", "s", quantile(&recovery, 0.5));
        put("rss_peak_mb", "MiB", rss_peak_mb);
        put("cpu_ms_per_ktuple", "ms", sub_median(3));
        put("ok_frac", "ratio", ok_frac);
    } else {
        let (s0, s1) = (scrape0.expect("traced"), scrape1.expect("traced"));
        let cp = s1.cp.delta(&s0.cp);
        let traces = cp.traces.max(1) as f64;
        let per_batch = |name: &str| s1.delta(&s0, name).1 / phase_batches;
        let per_arrival = |name: &str| s1.delta(&s0, name).1 / phase_arrivals;
        let step_us = s1.delta(&s0, "ter_serve_step_micros").1;
        let incomplete = driver.batches()[phase.first..phase.last]
            .iter()
            .flatten()
            .filter(|a| !a.record.is_complete())
            .count() as f64;
        let client_ack_us = driver
            .spans
            .mean_us("ingest.batch", phase.first as u64..phase.last as u64);
        let fp = context_fingerprint(&ctx, &params);
        let t = Instant::now();
        let recovered = TerStore::open(&killed, fp).and_then(|s| s.recover());
        let recover_s = t.elapsed().as_secs_f64();
        driver
            .spans
            .rec("recovery.store_open_recover", 0, t, Instant::now());
        recovered.map_err(|e| format!("store recover on the copy: {e}"))?;
        let setup_steps = time_context_steps(&inputs, params.fanout, &mut driver.spans);
        let (evals, eval_us) = s1.delta(&s0, "ter_query_eval_micros");
        let (ckpts, ckpt_us) = s1.delta(&s0, "ter_store_checkpoint_micros");

        put(
            "serve.read_parse_us",
            "us",
            per_batch("ter_serve_read_parse_micros"),
        );
        put(
            "serve.write_back_us",
            "us",
            cp.write_back_micros as f64 / traces,
        );
        put(
            "serve.queue_wait_us",
            "us",
            cp.queue_wait_micros as f64 / traces,
        );
        put(
            "serve.wire_us",
            "us",
            client_ack_us - cp.total_micros as f64 / traces,
        );
        put(
            "serve.busy_per_kbatch",
            "count",
            1e3 * s1.delta(&s0, "ter_serve_busy_total").0 / phase_batches,
        );
        put(
            "store.wal_append_us",
            "us",
            per_batch("ter_store_wal_append_micros"),
        );
        put(
            "store.fsync_exposed_us",
            "us",
            cp.fsync_exposed_micros as f64 / traces,
        );
        put(
            "store.fsyncs_per_batch",
            "count",
            s1.delta(&s0, "ter_store_fsyncs_total").0 / phase_batches,
        );
        put("store.checkpoint_ms", "ms", ckpt_us / ckpts.max(1.0) / 1e3);
        put("store.checkpoint_bytes", "bytes", ckpt_bytes);
        put("store.recover_s", "s", recover_s);
        put(
            "exec.barrier_wait_us",
            "us",
            per_batch("ter_engine_barrier_wait_micros"),
        );
        put(
            "exec.speedup_vs_seq",
            "ratio",
            phase_arrivals / (step_us / 1e6).max(1e-9) / rp.seq_tps,
        );
        put("core.seq_tps", "1/s", rp.seq_tps);
        put("core.step_us", "us", per_arrival("ter_serve_step_micros"));
        put(
            "core.traverse_us",
            "us",
            per_arrival("ter_engine_traverse_micros"),
        );
        put(
            "core.refine_us",
            "us",
            per_arrival("ter_engine_refine_micros"),
        );
        put("core.pairs_per_arrival", "count", rp.pairs / phase_arrivals);
        put(
            "core.match_yield",
            "ratio",
            rp.matches / (rp.pairs - rp.topic_pruned).max(1.0),
        );
        put("core.live_tuples", "count", rp.live_tuples);
        put(
            "core.state_bytes_per_tuple",
            "bytes",
            ckpt_bytes / rp.live_tuples.max(1.0),
        );
        put(
            "impute.us_per_incomplete",
            "us",
            1e6 * rp.impute_s / incomplete.max(1.0),
        );
        put(
            "impute.daemon_us",
            "us",
            per_arrival("ter_engine_impute_micros"),
        );
        put("index.cells", "count", rp.cells);
        put("index.max_cell_entries", "count", rp.max_cell_entries);
        put("query.notify_us", "us", cp.notify_micros as f64 / traces);
        put(
            "query.notify_rows",
            "count",
            s1.delta(&s0, "ter_query_notify_rows_total").0 / phase_batches,
        );
        put(
            "query.notify_bytes",
            "bytes",
            s1.delta(&s0, "ter_query_notify_bytes_total").0 / phase_batches,
        );
        put("query.eval_us", "us", eval_us / evals.max(1.0));
        let q = |v: &[f64], q: f64| if v.is_empty() { 0.0 } else { quantile(v, q) };
        put("query.notify_p50_ms", "ms", q(&phase.notify_ms, 0.5));
        put("query.notify_p95_ms", "ms", q(&phase.notify_ms, TAIL_Q));
        put("query.oneshot_p50_ms", "ms", q(&phase.query_ms, 0.5));
        put("query.oneshot_p95_ms", "ms", q(&phase.query_ms, TAIL_Q));
        put(
            "query.backlog_high_water",
            "bytes",
            s1.gauge("ter_query_backlog_high_water"),
        );
        put(
            "query.sheds",
            "count",
            s1.delta(&s0, "ter_query_shed_total").0,
        );
        put("repo.pivots_s", "s", setup_steps[0]);
        put("rules.discovery_s", "s", setup_steps[1]);
        put("rules.cdd_index_s", "s", setup_steps[2]);
        put("repo.dr_index_s", "s", setup_steps[3]);
        put("obs.overhead_frac", "ratio", 1.0 - phase.tps / untraced_tps);
        put(
            "datasets.gen_lag_p99_ms",
            "ms",
            if interval_ms.is_some() { lag_p99 } else { 0.0 },
        );
        for (seg, us) in cp.segments() {
            put(segment_metric(seg), "us", us as f64 / traces);
        }
        put("cp.total_us", "us", cp.total_micros as f64 / traces);

        let _ = writeln!(
            report,
            "critical path over {} traced batches (mean per batch):",
            cp.traces
        );
        for (seg, us) in cp.segments() {
            let _ = writeln!(
                report,
                "  {seg:<14} {:>10.1} us  {:>5.1}%",
                us as f64 / traces,
                100.0 * us as f64 / cp.total_micros.max(1) as f64
            );
        }
        let _ = writeln!(
            report,
            "  segments sum to {} us of {} us total: {}",
            cp.segment_sum(),
            cp.total_micros,
            if cp.segment_sum() == cp.total_micros {
                "exact"
            } else {
                "MISMATCH"
            }
        );
        // Shares of the client-observed ack latency. Engine stage timers
        // are summed over worker threads, so they can exceed wall time.
        let client_us = client_ack_us * traces;
        let share = |us: f64| 100.0 * us / client_us.max(1.0);
        let tr = s1.delta(&s0, "ter_engine_traverse_micros").1
            + s1.delta(&s0, "ter_engine_refine_micros").1;
        let imp = s1.delta(&s0, "ter_engine_impute_micros").1;
        let wire = client_us - cp.total_micros as f64;
        let serve =
            (cp.frontend_micros + cp.gate_micros + cp.queue_wait_micros + cp.write_back_micros)
                as f64;
        let store = (cp.wal_micros + cp.fsync_exposed_micros) as f64;
        let service = (cp.total_micros - cp.queue_wait_micros).max(1) as f64;
        let _ = writeln!(
            report,
            "  of the client-observed ack ({:.1} us): wire {:.1}% | serve {:.1}% (queue wait {:.1}%) | store {:.1}% | \
             engine compute + barrier {:.1}% | notify {:.1}%",
            client_ack_us,
            share(wire),
            share(serve),
            share(cp.queue_wait_micros as f64),
            share(store),
            share((cp.compute_micros + cp.barrier_micros) as f64),
            share(cp.notify_micros as f64),
        );
        let _ = writeln!(
            report,
            "  engine stage timers: traverse + refine {:.1}%, impute {:.1}% of the client-observed ack; \
             engine compute + barrier is {:.1}% of daemon service time (queue wait excluded)",
            share(tr),
            share(imp),
            100.0 * (cp.compute_micros + cp.barrier_micros) as f64 / service,
        );
        let _ = writeln!(
            report,
            "  not exported by the daemon yet, so not estimated: expire, insert, surfaced candidates"
        );
        if let Some(iv) = interval_ms {
            let _ = writeln!(
                report,
                "  open loop: batch interval {iv:.2} ms, generator p99 lag {lag_p99:.3} ms"
            );
        }
        let _ = writeln!(report, "  spans recorded: {}", driver.spans.list.len());
        let spans_path = work
            .parent()
            .unwrap_or(work)
            .join(format!("spans-{}-{seed}.jsonl", w.name));
        driver
            .spans
            .write(&spans_path)
            .map_err(|e| format!("write spans: {e}"))?;
        let _ = writeln!(report, "  spans written to {}", spans_path.display());
    }
    if !correct {
        metrics.clear();
    }
    Ok(Outcome {
        correct,
        attempted: driver.attempted,
        failed: driver.failed,
        metrics,
        report,
    })
}

fn segment_metric(seg: &str) -> &'static str {
    match seg {
        "frontend" => "cp.frontend_us",
        "gate" => "cp.gate_us",
        "queue_wait" => "cp.queue_wait_us",
        "compute" => "cp.compute_us",
        "barrier" => "cp.barrier_us",
        "wal" => "cp.wal_us",
        "fsync_exposed" => "cp.fsync_exposed_us",
        "notify" => "cp.notify_us",
        "write_back" => "cp.write_back_us",
        _ => "cp.other_us",
    }
}
