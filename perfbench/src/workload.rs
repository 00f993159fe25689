//! The benchmark's workloads and the inputs generated for them.
//!
//! Every workload is a `(dataset preset, generator scale, window, batch
//! shape, offered load)` tuple. Its inputs are a pure function of the seed
//! passed on the command line: the generator builds the dataset with
//! `ter_datasets::preset`, and the daemon receives only the repository
//! (as an inputs file) and the arrivals (over the wire).

use std::time::Duration;

use ter_datasets::{preset, GenOptions, Preset, ScaleProfile, ScaleShape};
use ter_ids::Params;
use ter_repo::{Record, Repository, Schema};
use ter_store::{Codec, CodecError, Decoder, Encoder};
use ter_stream::Arrival;
use ter_text::{KeywordSet, TokenSet};

/// How batches are offered to the daemon.
#[derive(Debug, Clone, Copy)]
pub enum Offer {
    /// One batch due every `mean batch / rate_tps` seconds, with at most
    /// one unacked: a batch due while its predecessor is unacked goes out
    /// when that ack arrives. Latency counts from the due time, so a slow
    /// batch delays the ones queued behind it. (A schedule with several
    /// batches unacked runs into the daemon's missing TCP_NODELAY: each
    /// ack then waits for the client's next segment, and latency reads
    /// as whole multiples of the batch interval.)
    Paced { rate_tps: f64 },
    /// Closed loop: keep `window` batches unacked on the wire.
    Closed { window: usize },
}

impl Offer {
    /// Time between due times of consecutive batches of `batch` arrivals.
    pub fn interval(&self, batch: usize) -> Option<Duration> {
        match *self {
            Offer::Paced { rate_tps } => Some(Duration::from_secs_f64(batch as f64 / rate_tps)),
            Offer::Closed { .. } => None,
        }
    }
}

/// Standing-query patterns: fig21's `pairs` and `chain`, and the live
/// window. fig21's `join` (`match(a, b), live(c) where topical(a)`) is
/// left out: its size is the handful of live topical matches times the
/// window, so its cost and memory swing by a third between seeds, and two
/// of them outgrow the daemon's default notify buffer at window 2000.
/// `live(a)` keeps a window-sized standing result that changes with
/// every batch.
pub const PATTERNS: [&str; 3] = ["match(a, b)", "match(a, b), match(b, c) -> a", "live(a)"];

/// Patterns of the one-shot queries, taken in turn; each reply stays
/// small next to the subscriber's notifications.
pub const ONESHOT_PATTERNS: [&str; 3] = [PATTERNS[0], PATTERNS[1], "live(a) where topical(a)"];

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub profile: ScaleProfile,
    /// Mean arrivals per batch.
    pub batch: usize,
    pub offer: Offer,
    /// Standing queries held open through the measured phase, as indices
    /// into [`PATTERNS`].
    pub subscriptions: &'static [usize],
    /// Mean gap between one-shot pattern queries during the measured
    /// phase (Poisson arrivals).
    pub query_every: Option<Duration>,
}

impl Workload {
    pub fn all() -> [Workload; 2] {
        [
            Workload {
                name: "burst400",
                profile: ScaleProfile {
                    name: "burst400",
                    preset: Preset::EBooks,
                    scale: 30.0,
                    window: 400,
                    shape: ScaleProfile::burst100().shape,
                },
                batch: 16,
                offer: Offer::Paced { rate_tps: 600.0 },
                subscriptions: &[],
                query_every: None,
            },
            Workload {
                name: "herd2k",
                profile: ScaleProfile {
                    name: "herd2k",
                    preset: Preset::EBooks,
                    scale: 60.0,
                    window: 2000,
                    shape: ScaleShape::Uniform,
                },
                batch: 16,
                offer: Offer::Closed { window: 1 },
                subscriptions: &[0, 0, 1, 1, 2, 2],
                query_every: Some(Duration::from_millis(100)),
            },
        ]
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Self::all().into_iter().find(|w| w.name == name)
    }

    /// Engine parameters: the library defaults at this workload's window.
    pub fn params(&self) -> Params {
        Params {
            window: self.profile.window,
            ..Params::default()
        }
    }
}

/// What the generator produced for one `(workload, seed)`.
pub struct Inputs {
    pub repo: Repository,
    pub keywords: KeywordSet,
    pub batches: Vec<Vec<Arrival>>,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let opts = w.profile.gen_options(GenOptions {
            seed,
            ..GenOptions::default()
        });
        let ds = preset(w.profile.preset, &opts);
        let keywords = ds.keywords();
        // The streams arrive round-robin and differ in length. Once the
        // shorter one ends, an arrival has no other stream's tuples to
        // pair with and costs a fraction of one before, so a run that
        // reached that tail would measure another workload. The inputs
        // stop where the first stream runs out.
        let streams = ds.streams.stream_count();
        let shortest = (0..streams).map(|i| ds.streams.stream(i).len()).min();
        let mut arrivals = ds.streams.arrivals();
        arrivals.truncate(streams * shortest.unwrap_or(0));
        let mut rest = arrivals.as_slice();
        let batches = w
            .profile
            .batch_sizes(arrivals.len(), w.batch)
            .into_iter()
            .map(|n| {
                let (head, tail) = rest.split_at(n);
                rest = tail;
                head.to_vec()
            })
            .collect();
        Inputs {
            repo: ds.repo,
            keywords,
            batches,
        }
    }

    /// The daemon's inputs file: schema, topic keywords and repository.
    pub fn encode_context_inputs(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        let names = self.repo.schema().attr_names();
        enc.usize(names.len());
        for n in names {
            enc.str(n);
        }
        enc.bool(self.keywords.is_universe());
        self.keywords.tokens().encode(&mut enc);
        self.repo.samples().to_vec().encode(&mut enc);
        enc.into_bytes()
    }
}

/// Decodes [`Inputs::encode_context_inputs`] back into the repository and
/// keywords the daemon builds its context from.
pub fn decode_context_inputs(buf: &[u8]) -> Result<(Repository, KeywordSet), CodecError> {
    let mut dec = Decoder::new(buf);
    let arity = dec.len_capped(1)?;
    let names = (0..arity)
        .map(|_| dec.str())
        .collect::<Result<Vec<_>, _>>()?;
    let universe = dec.bool()?;
    let tokens = TokenSet::decode(&mut dec)?;
    let records: Vec<Record> = Vec::decode(&mut dec)?;
    let keywords = if universe {
        KeywordSet::universe()
    } else {
        KeywordSet::new(tokens)
    };
    Ok((
        Repository::from_records(Schema::new(names), records),
        keywords,
    ))
}
