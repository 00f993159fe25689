//! Tracing for the traced run: the benchmark's own spans around each
//! public call it makes, plus scrapes of the daemon's metric and
//! critical-path exports taken at the phase boundaries.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use ter_obs::trace::CriticalPath;
use ter_obs::MetricRow;
use ter_serve::{Reply, Request};

use crate::driver::Driver;

/// One recorded span: a named interval; spans of one batch or query
/// share its id.
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub start_us: u64,
    pub dur_us: u64,
}

/// In-memory span log, written out when the run ends. Off in timed runs.
pub struct Spans {
    pub on: bool,
    t0: Instant,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            t0: Instant::now(),
            list: Vec::new(),
        }
    }

    pub fn rec(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if self.on {
            self.list.push(Span {
                name,
                id,
                start_us: start.saturating_duration_since(self.t0).as_micros() as u64,
                dur_us: end.saturating_duration_since(start).as_micros() as u64,
            });
        }
    }

    /// Mean duration of the spans named `name` whose id is in `ids`,
    /// microseconds.
    pub fn mean_us(&self, name: &str, ids: std::ops::Range<u64>) -> f64 {
        let durs: Vec<u64> = self
            .list
            .iter()
            .filter(|s| s.name == name && ids.contains(&s.id))
            .map(|s| s.dur_us)
            .collect();
        durs.iter().sum::<u64>() as f64 / durs.len().max(1) as f64
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.list {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"start_us\":{},\"dur_us\":{}}}",
                s.name, s.id, s.start_us, s.dur_us
            );
        }
        std::fs::write(path, out)
    }
}

/// One scrape of the daemon's exports.
pub struct Scrape {
    rows: Vec<MetricRow>,
    pub cp: CriticalPath,
}

impl Scrape {
    pub fn take(driver: &mut Driver) -> Result<Scrape, String> {
        let rows = match driver.call(&Request::MetricsDump)? {
            Reply::Metrics { rows, .. } => rows,
            _ => return Err("unexpected reply to metrics dump".into()),
        };
        let cp = match driver.call(&Request::TraceDump)? {
            Reply::Traces { critical_path, .. } => critical_path,
            _ => return Err("unexpected reply to trace dump".into()),
        };
        Ok(Scrape { rows, cp })
    }

    fn row(&self, name: &str) -> Option<&MetricRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Counter increase, or histogram `(count, sum)` increase, since `prev`.
    pub fn delta(&self, prev: &Scrape, name: &str) -> (f64, f64) {
        match (self.row(name), prev.row(name)) {
            (Some(n), Some(p)) => (
                n.value.saturating_sub(p.value) as f64,
                n.sum.saturating_sub(p.sum) as f64,
            ),
            (Some(n), None) => (n.value as f64, n.sum as f64),
            _ => (0.0, 0.0),
        }
    }

    /// A gauge's current reading.
    pub fn gauge(&self, name: &str) -> f64 {
        self.row(name).map_or(0.0, |r| r.value as f64)
    }
}
