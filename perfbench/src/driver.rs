//! The load generator: offers batches to the daemon paced or closed-loop
//! and records when each batch was due, sent and acked.
//!
//! Ingest uses the daemon's sequence-tagged pipelined protocol with the
//! same go-back-N rule as `Client::ingest_pipelined`: on an
//! `IngestBusy`, stop sending, collect the reply owed for every frame in
//! flight, then resend from the lowest unacked batch. Unlike that
//! client, it keeps per-batch timestamps and never lets a refusal slow
//! the open-loop schedule. Every refusal counts as a failed operation.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

use ter_serve::wire::{encode_ingest_seq, encode_request};
use ter_serve::{BatchMatches, Reply, Request, SubAckInfo, SubEvent, SubscriptionFold};
use ter_stream::Arrival;

use crate::layers::Spans;
use crate::session::{Ev, Session, CONTROL, INGEST};
use crate::workload::Offer;

/// Backoff before resending after a refusal (as `Client` does).
const REFUSAL_BACKOFF: Duration = Duration::from_millis(2);

/// A one-shot query's latency, engine position and rows.
type QueryResult = (Duration, u64, Vec<Vec<u64>>);

/// What one measured phase produced.
pub struct Phase {
    /// Batch indices `first..last` were offered in the phase.
    pub first: usize,
    pub last: usize,
    /// Per-batch ack latency (from due time in open loop, from send time
    /// in closed loop), milliseconds.
    pub ack_ms: Vec<f64>,
    /// Per-batch send minus due time (open loop only), milliseconds.
    pub lag_ms: Vec<f64>,
    /// Arrivals of the phase's batches over the time from the phase
    /// start to the last of their acks: the achieved ingest rate.
    pub tps: f64,
    /// Due time to the subscriber's last notification of the batch.
    pub notify_ms: Vec<f64>,
    /// One-shot pattern query latencies.
    pub query_ms: Vec<f64>,
}

impl Phase {
    pub fn arrivals(&self, batches: &[Vec<Arrival>]) -> usize {
        batches[self.first..self.last].iter().map(Vec::len).sum()
    }

    /// Joins consecutive phases into one; its rate is their median rate.
    pub fn merge(parts: Vec<Phase>) -> Phase {
        let rates: Vec<f64> = parts.iter().map(|p| p.tps).collect();
        let mut out = Phase {
            first: parts.first().map_or(0, |p| p.first),
            last: parts.last().map_or(0, |p| p.last),
            ack_ms: Vec::new(),
            lag_ms: Vec::new(),
            tps: crate::run::quantile(&rates, 0.5),
            notify_ms: Vec::new(),
            query_ms: Vec::new(),
        };
        for p in parts {
            out.ack_ms.extend(p.ack_ms);
            out.lag_ms.extend(p.lag_ms);
            out.notify_ms.extend(p.notify_ms);
            out.query_ms.extend(p.query_ms);
        }
        out
    }
}

pub struct Driver {
    sess: Option<Session>,
    batches: Vec<Vec<Arrival>>,
    next_send: usize,
    next_ack: usize,
    max_sent: usize,
    in_flight: usize,
    rewinding: bool,
    resume_at: Instant,
    due: Vec<Option<Instant>>,
    sent: Vec<Option<Instant>>,
    acked: Vec<Option<Instant>>,
    /// Per-arrival match lists of every acked batch, in batch order.
    pub matches: Vec<BatchMatches>,
    control: VecDeque<Reply>,
    pending_query: Option<Instant>,
    query_done: Option<QueryResult>,
    /// Latencies of the one-shot queries answered so far, milliseconds.
    pub query_ms: Vec<f64>,
    pub folds: BTreeMap<u64, (usize, SubscriptionFold)>,
    /// Engine position -> arrival time of its last notification.
    notify_at: HashMap<u64, Instant>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Spans,
}

impl Driver {
    pub fn new(batches: Vec<Vec<Arrival>>, spans: Spans) -> Self {
        let n = batches.len();
        Driver {
            sess: None,
            batches,
            next_send: 0,
            next_ack: 0,
            max_sent: 0,
            in_flight: 0,
            rewinding: false,
            resume_at: Instant::now(),
            due: vec![None; n],
            sent: vec![None; n],
            acked: vec![None; n],
            matches: Vec::new(),
            control: VecDeque::new(),
            pending_query: None,
            query_done: None,
            query_ms: Vec::new(),
            folds: BTreeMap::new(),
            notify_at: HashMap::new(),
            attempted: 0,
            failed: 0,
            spans,
        }
    }

    /// Attaches a fresh session (after a daemon start or restart).
    pub fn attach(&mut self, sess: Session) {
        assert_eq!(self.in_flight, 0, "attach with batches in flight");
        self.sess = Some(sess);
    }

    /// Closes the session; every sent batch must have been acked.
    pub fn detach(&mut self) {
        if let Some(s) = self.sess.take() {
            s.close();
        }
        self.control.clear();
    }

    /// Batches acked so far (the daemon's engine position, since every
    /// batch it ever committed came through this driver).
    pub fn acked_batches(&self) -> usize {
        self.next_ack
    }

    /// Arrivals not yet sent.
    pub fn arrivals_left(&self) -> usize {
        self.batches[self.max_sent..].iter().map(Vec::len).sum()
    }

    fn sess(&mut self) -> &mut Session {
        self.sess.as_mut().expect("driver has no session")
    }

    fn sendable(&self, now: Instant) -> bool {
        !self.rewinding && now >= self.resume_at && self.next_send < self.batches.len()
    }

    fn send_next(&mut self, due: Instant) -> Result<(), String> {
        let i = self.next_send;
        let now = Instant::now();
        if self.sent[i].is_none() {
            self.sent[i] = Some(now);
            self.due[i] = Some(due);
            self.attempted += 1;
        }
        let payload = encode_ingest_seq(i as u64, &self.batches[i]);
        self.sess().send(INGEST, &payload)?;
        self.next_send += 1;
        self.max_sent = self.max_sent.max(self.next_send);
        self.in_flight += 1;
        Ok(())
    }

    /// Waits until `until` for one event and applies it; false if none
    /// came.
    fn pump(&mut self, until: Instant) -> Result<bool, String> {
        let wait = until.saturating_duration_since(Instant::now());
        let ev = match self.sess().recv(wait)? {
            Some(ev) => ev,
            None => return Ok(false),
        };
        match ev {
            Ev::Closed { conn, why } => Err(format!("connection {conn} closed: {why}")),
            Ev::Reply { conn, at, reply } if conn == INGEST => self.on_ingest(at, reply),
            Ev::Reply { at, reply, .. } => self.on_control(at, reply),
        }
        .map(|()| true)
    }

    fn on_ingest(&mut self, at: Instant, reply: Reply) -> Result<(), String> {
        match reply {
            Reply::IngestAck { seq, per_arrival } => {
                self.in_flight -= 1;
                let i = seq as usize;
                if i != self.next_ack {
                    return Err(format!("ack for batch {i}, expected {}", self.next_ack));
                }
                if per_arrival.len() != self.batches[i].len() {
                    return Err(format!("batch {i}: ack lists do not match its arrivals"));
                }
                self.acked[i] = Some(at);
                self.matches.push(per_arrival);
                self.next_ack += 1;
                let sent = self.sent[i].expect("acked batch was sent");
                self.spans.rec("ingest.batch", seq, sent, at);
            }
            Reply::IngestBusy { .. } => {
                self.in_flight -= 1;
                self.failed += 1;
                self.rewinding = true;
            }
            Reply::Error(e) => return Err(format!("ingest error: {e}")),
            _ => return Err("unexpected reply on the ingest connection".into()),
        }
        if self.rewinding && self.in_flight == 0 {
            self.rewinding = false;
            self.next_send = self.next_ack;
            self.resume_at = Instant::now() + REFUSAL_BACKOFF;
        }
        Ok(())
    }

    fn on_control(&mut self, at: Instant, reply: Reply) -> Result<(), String> {
        match reply {
            Reply::Notify {
                sub_id,
                seq,
                added,
                retracted,
            } => {
                self.notify_at.insert(seq, at);
                self.spans.rec("query.notify", seq, at, at);
                let ev = SubEvent::Notify {
                    sub_id,
                    seq,
                    added,
                    retracted,
                };
                match self.folds.get_mut(&sub_id) {
                    Some((_, fold)) => fold.apply(&ev),
                    None => return Err(format!("notify for unknown subscription {sub_id}")),
                }
            }
            Reply::Lagged { sub_id, resync_seq } => {
                self.failed += 1;
                if let Some((_, fold)) = self.folds.get_mut(&sub_id) {
                    fold.apply(&SubEvent::Lagged { sub_id, resync_seq });
                }
            }
            Reply::Rows { seq, rows } if self.pending_query.is_some() => {
                let sent = self.pending_query.take().expect("checked above");
                self.spans.rec("query.oneshot", seq, sent, at);
                self.query_ms.push(ms(at - sent));
                self.query_done = Some((at - sent, seq, rows));
            }
            Reply::Busy if self.pending_query.is_some() => {
                self.pending_query = None;
                self.failed += 1;
            }
            Reply::Error(e) => return Err(format!("control error: {e}")),
            other => self.control.push_back(other),
        }
        Ok(())
    }

    /// A strict request/reply call on the control connection. Ingest acks
    /// and notifications that arrive meanwhile are applied as usual.
    pub fn call(&mut self, req: &Request) -> Result<Reply, String> {
        let payload = encode_request(req);
        loop {
            self.sess().send(CONTROL, &payload)?;
            let reply = loop {
                if let Some(r) = self.control.pop_front() {
                    break r;
                }
                self.pump(Instant::now() + Duration::from_millis(50))?;
            };
            match reply {
                Reply::Busy => {
                    self.failed += 1;
                    std::thread::sleep(REFUSAL_BACKOFF);
                }
                reply => return Ok(reply),
            }
        }
    }

    fn send_query(&mut self, pattern: &str) -> Result<(), String> {
        self.attempted += 1;
        self.query_done = None;
        self.pending_query = Some(Instant::now());
        let payload = encode_request(&Request::PatternQuery(pattern.to_string()));
        self.sess().send(CONTROL, &payload)
    }

    /// One blocking one-shot pattern query: latency, engine position and
    /// rows (`None` when the daemon refused it).
    pub fn query(&mut self, pattern: &str) -> Result<Option<QueryResult>, String> {
        self.send_query(pattern)?;
        while self.pending_query.is_some() {
            self.pump(Instant::now() + Duration::from_millis(50))?;
        }
        Ok(self.query_done.take())
    }

    /// Registers a standing query and starts its fold.
    pub fn subscribe(
        &mut self,
        sub_id: u64,
        pattern_idx: usize,
        pattern: &str,
    ) -> Result<(), String> {
        self.attempted += 1;
        let t = Instant::now();
        let req = Request::Subscribe {
            sub_id,
            resync_seq: 0,
            pattern: pattern.to_string(),
        };
        match self.call(&req)? {
            Reply::SubAck { sub_id, seq, rows } => {
                if seq != self.next_ack as u64 {
                    return Err(format!(
                        "subscription at position {seq}, expected {}",
                        self.next_ack
                    ));
                }
                self.spans.rec("query.subscribe", sub_id, t, Instant::now());
                let fold = SubscriptionFold::start(&SubAckInfo { sub_id, seq, rows });
                self.folds.insert(sub_id, (pattern_idx, fold));
                Ok(())
            }
            _ => Err("unexpected reply to subscribe".into()),
        }
    }

    /// Waits until every notification for the batches stepped so far has
    /// arrived: a control reply is written after them on the same
    /// connection.
    pub fn barrier(&mut self) -> Result<(), String> {
        match self.call(&Request::Stats)? {
            Reply::Stats(_) => Ok(()),
            _ => Err("unexpected reply to stats".into()),
        }
    }

    /// All batches, in send order.
    pub fn batches(&self) -> &[Vec<Arrival>] {
        &self.batches
    }

    /// Closed loop with up to `window` batches in flight until batches
    /// `..end` are acked (an untimed warm-up or positioning step). While
    /// no reply is ready, `idle` may do one unit of other work; it
    /// returns false when it has none.
    pub fn feed_to(
        &mut self,
        end: usize,
        window: usize,
        idle: &mut dyn FnMut(&[Vec<Arrival>]) -> bool,
    ) -> Result<(), String> {
        if end > self.batches.len() {
            return Err("arrivals exhausted".into());
        }
        while self.next_ack < end {
            let now = Instant::now();
            while self.in_flight < window && self.sendable(now) && self.next_send < end {
                self.send_next(Instant::now())?;
            }
            let wake = self.resume_at.max(now);
            if !self.pump(wake)? && !idle(&self.batches) {
                self.pump(wake + Duration::from_millis(50))?;
            }
        }
        Ok(())
    }

    /// Sends one batch at a time until `pred(acked batches)` is false.
    pub fn feed_while(&mut self, mut pred: impl FnMut(usize) -> bool) -> Result<(), String> {
        while pred(self.next_ack) {
            self.feed_to(self.next_ack + 1, 1, &mut |_| false)?;
        }
        Ok(())
    }

    /// Waits until every batch sent so far is acked (resending refused
    /// ones) and any one-shot query has answered.
    fn drain(&mut self) -> Result<(), String> {
        while self.next_ack < self.max_sent || self.pending_query.is_some() {
            let now = Instant::now();
            while self.sendable(now) && self.next_send < self.max_sent {
                let due = self.due[self.next_send].unwrap_or(now);
                self.send_next(due)?;
            }
            self.pump(self.resume_at.max(now) + Duration::from_millis(50))?;
        }
        Ok(())
    }

    /// One measured phase of `dur` at the workload's offered load.
    pub fn phase(
        &mut self,
        offer: Offer,
        batch_mean: usize,
        dur: Duration,
        queries: Option<(Duration, &[&str], u64)>,
    ) -> Result<Phase, String> {
        self.drain()?;
        self.query_ms.clear();
        let first = self.next_send;
        let start = Instant::now();
        let end = start + dur;
        let interval = offer.interval(batch_mean).unwrap_or(Duration::ZERO);
        let due_of = |i: usize| start + interval * (i - first) as u32;
        // One-shot queries arrive as a Poisson process (seeded), so they
        // sample the engine's busy and idle periods without locking onto
        // the batch schedule.
        let mut rng = queries.map_or(0, |(_, _, seed)| seed) | 1;
        let mut gap = move |mean: Duration| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let u = (rng >> 11) as f64 / (1u64 << 53) as f64;
            mean.mul_f64(-(1.0 - u).ln())
        };
        let mut next_query = queries.map(|(mean, _, _)| start + gap(mean));
        let mut query_n = 0usize;
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            if self.next_send >= self.batches.len() && self.in_flight == 0 {
                return Err("arrivals exhausted before the phase ended".into());
            }
            match offer {
                Offer::Paced { .. } => {
                    if self.in_flight == 0 && self.sendable(now) && due_of(self.next_send) <= now {
                        let due = self.due[self.next_send].unwrap_or(due_of(self.next_send));
                        self.send_next(due)?;
                    }
                }
                Offer::Closed { window } => {
                    while self.in_flight < window && self.sendable(now) {
                        self.send_next(now)?;
                    }
                }
            }
            if let (Some(at), Some((mean, patterns, _))) = (next_query, queries) {
                if now >= at {
                    if self.pending_query.is_none() {
                        self.send_query(patterns[query_n % patterns.len()])?;
                        query_n += 1;
                    }
                    next_query = Some(at + gap(mean));
                }
            }
            let mut wake = end;
            if let Some(at) = next_query {
                wake = wake.min(at);
            }
            if !self.rewinding {
                if self.resume_at > now {
                    wake = wake.min(self.resume_at);
                } else if matches!(offer, Offer::Paced { .. })
                    && self.in_flight == 0
                    && self.next_send < self.batches.len()
                {
                    wake = wake.min(due_of(self.next_send));
                }
            }
            self.pump(wake)?;
        }
        let last = self.max_sent;
        self.drain()?;
        if !self.folds.is_empty() {
            self.barrier()?;
        }
        let mut out = Phase {
            first,
            last,
            ack_ms: Vec::new(),
            lag_ms: Vec::new(),
            tps: 0.0,
            notify_ms: Vec::new(),
            query_ms: std::mem::take(&mut self.query_ms),
        };
        let mut last_ack = start;
        for i in first..last {
            let due = self.due[i].expect("phase batch was sent");
            let acked = self.acked[i].expect("phase batch was acked");
            out.ack_ms.push(ms(acked.saturating_duration_since(due)));
            if let Offer::Paced { .. } = offer {
                // The generator is late only past the later of the due
                // time and the predecessor's ack.
                let release = self.acked[i - 1].map_or(due, |a| a.max(due));
                out.lag_ms.push(ms(self.sent[i]
                    .expect("sent")
                    .saturating_duration_since(release)));
            }
            last_ack = last_ack.max(acked);
            if let Some(at) = self.notify_at.get(&(i as u64 + 1)) {
                out.notify_ms.push(ms(at.saturating_duration_since(due)));
            }
        }
        out.tps = out.arrivals(&self.batches) as f64 / (last_ack - start).as_secs_f64();
        Ok(out)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
