//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each public call it makes
//! into a layer; nothing inside the program is instrumented. Spans stay
//! in memory and are written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use ecco_serve::ServeMetrics;

/// `ServeMetrics` counters captured around a store call, in the order
/// of [`COUNTER_NAMES`].
pub type Counters = [u64; 5];

/// Names of the [`Counters`] slots.
pub const COUNTER_NAMES: [&str; 5] = [
    "hot_hits",
    "cold_reads",
    "evictions",
    "recompressions",
    "clean_drops",
];

/// Index of each counter in [`Counters`].
pub const HOT_HITS: usize = 0;
pub const COLD_READS: usize = 1;
pub const EVICTIONS: usize = 2;
pub const RECOMPRESSIONS: usize = 3;
pub const CLEAN_DROPS: usize = 4;

/// Reads the store's operation counters (no latency samples).
pub fn counters(m: &ServeMetrics) -> Counters {
    [
        m.hot_hits,
        m.cold_reads,
        m.evictions,
        m.recompressions,
        m.clean_drops,
    ]
}

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// 1-based; 0 is "no span" for [`Span::parent`].
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    /// Request the call served: the session index for store calls, the
    /// step, replay or cold-start index for the spans grouping them.
    pub request: u64,
    pub start: Duration,
    pub end: Duration,
    /// Counter deltas across the call, for store calls.
    pub deltas: Option<Counters>,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

/// Collects spans when enabled; every method is a no-op otherwise, so
/// the untraced run pays one branch per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished call that started at `t0` and took `dt`.
    /// Returns the span's id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        t0: Instant,
        dt: Duration,
        deltas: Option<Counters>,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let start = t0.saturating_duration_since(self.origin);
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start,
            end: start + dt,
            deltas,
        });
        id
    }

    /// Opens a parent span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        self.record(name, parent, request, Instant::now(), Duration::ZERO, None)
    }

    /// Sets a parent span's end to now.
    pub fn close(&mut self, id: u32) {
        if id == 0 {
            return;
        }
        let now = self.origin.elapsed();
        self.spans[id as usize - 1].end = now;
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 128);
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_us\":{:.3},\"end_us\":{:.3}",
                s.id,
                s.parent,
                s.name,
                s.request,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            );
            if let Some(d) = s.deltas {
                out.push_str(",\"deltas\":{");
                for (i, (k, v)) in COUNTER_NAMES.iter().zip(d).enumerate() {
                    let sep = if i == 0 { "" } else { "," };
                    let _ = write!(out, "{sep}\"{k}\":{v}");
                }
                out.push('}');
            }
            out.push_str("}\n");
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

/// Element-wise `after - before`.
pub fn delta(before: Counters, after: Counters) -> Counters {
    std::array::from_fn(|i| after[i] - before[i])
}
