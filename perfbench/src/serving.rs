//! Closed-loop replay of a `TrafficMix` trace through `PagedKvStore`.
//!
//! One client drives the store the way an engine's step loop does: each
//! call waits for the previous one. The trace is expanded into
//! operations before anything is timed, and the rows each append
//! carries are copied out of the synthetic KV stream outside the timed
//! region, so only store calls are on the clock.

use std::time::{Duration, Instant};

use ecco_core::CompressedTensor;
use ecco_llm::{TrafficEvent, TrafficMix};
use ecco_serve::{Admission, PageTier, PagedKvStore, ServeConfig, SessionId, SessionRead};
use ecco_tensor::Tensor;

use crate::trace::{self, Counters, Tracer};

/// NMSE bound of the correctness gate: the KV codec's own documented
/// bound for a K-cache tensor (`KvCodec` docs). Each page is compressed
/// as a tensor of its own, so every page a read serves from the cold
/// tier must meet it, and so must the whole read.
pub const READ_NMSE_BOUND: f64 = 0.05;

/// Cold pages captured (traced run only) for the codec timings.
pub const CAPTURE_PAGES: usize = 32;

/// One engine operation.
pub enum Op {
    Open(usize),
    /// A prompt burst of this many rows.
    Prefill(usize, usize),
    /// One round-robin decode turn: a row for each listed session, then
    /// an optional whole-session read.
    Step {
        decodes: Vec<usize>,
        read: Option<usize>,
    },
    Close(usize),
}

/// How a workload drives the store.
pub struct ServingSpec {
    pub admission: Admission,
    /// Every this many steps, one session of the step is re-read whole.
    pub read_every_steps: usize,
}

impl ServingSpec {
    /// The store configuration (16-row pages, salvage on corruption).
    pub fn config(&self) -> ServeConfig {
        ServeConfig {
            page_tokens: 16,
            hot_capacity_pages: crate::HOT_CAPACITY_PAGES,
            admission: self.admission,
            ..ServeConfig::default()
        }
    }
}

/// SplitMix64, for the seeded choice of which session a step re-reads.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Groups a trace into engine operations. Consecutive decodes form one
/// step until a session repeats (the next round-robin turn) or another
/// event intervenes.
pub fn program(events: &[TrafficEvent], read_every_steps: usize, seed: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut rng = seed ^ 0x5EED_4EAD;
    let mut steps = 0usize;
    let mut turn: Vec<usize> = Vec::new();
    let mut flush = |turn: &mut Vec<usize>, ops: &mut Vec<Op>| {
        if turn.is_empty() {
            return;
        }
        steps += 1;
        let read = steps
            .is_multiple_of(read_every_steps)
            .then(|| turn[(splitmix64(&mut rng) % turn.len() as u64) as usize]);
        ops.push(Op::Step {
            decodes: std::mem::take(turn),
            read,
        });
    };
    for ev in events {
        match *ev {
            TrafficEvent::Decode { session } => {
                if turn.contains(&session) {
                    flush(&mut turn, &mut ops);
                }
                turn.push(session);
            }
            TrafficEvent::Open { session } => {
                flush(&mut turn, &mut ops);
                ops.push(Op::Open(session));
            }
            TrafficEvent::Prefill { session, tokens } => {
                flush(&mut turn, &mut ops);
                ops.push(Op::Prefill(session, tokens));
            }
            TrafficEvent::Close { session } => {
                flush(&mut turn, &mut ops);
                ops.push(Op::Close(session));
            }
        }
    }
    flush(&mut turn, &mut ops);
    ops
}

/// Counters of replay 0, which always runs to its end. Its trace and
/// the store are deterministic, so these repeat exactly for a seed.
#[derive(Default)]
pub struct FirstReplay {
    pub counters: Counters,
    pub tokens: u64,
    pub peak_resident_bytes: usize,
    /// Time spent inside `append` during replay 0.
    pub append_time: Duration,
}

/// Everything one serving phase measured.
#[derive(Default)]
pub struct ServingResult {
    pub step_ms: Vec<f64>,
    pub prefill_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    /// Rows appended, over all replays.
    pub tokens: u64,
    /// Time spent inside store calls, over all replays.
    pub store_time: Duration,
    /// Per completed replay: FP16 bytes over resident hot + cold bytes,
    /// at the point of the replay with the most live FP16 bytes.
    pub capacity_ratios: Vec<f64>,
    /// NMSE of each page a read served from the cold tier, against the
    /// rows appended to it.
    pub cold_page_nmse: Vec<f64>,
    pub first: FirstReplay,
    pub replays_started: usize,
    pub replays_completed: usize,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Cold pages captured through `PagedKvStore::cold_page` (traced
    /// run only).
    pub captured: Vec<CompressedTensor>,
}

/// Rows appended to one session, as runs of the KV stream's rows.
#[derive(Default, Clone)]
struct Ledger {
    runs: Vec<(usize, usize)>,
    tokens: usize,
}

/// One replay: its store, session handles and KV stream cursor.
struct Replay<'a> {
    /// Replay index; replay 0 is the one whose counts are reported.
    k: usize,
    /// Most live FP16 bytes so far, and the capacity ratio at that point.
    peak_fp16: usize,
    capacity_ratio: f64,
    store: PagedKvStore,
    handles: Vec<Option<SessionId>>,
    ledgers: Vec<Ledger>,
    stream: &'a Tensor,
    cursor: usize,
    rows: Vec<f32>,
    out: Vec<f32>,
    /// Whether each page of the session being read was cold before the
    /// read.
    cold: Vec<bool>,
}

impl Replay<'_> {
    /// Copies the next `n` stream rows into the append buffer and notes
    /// them in the session's ledger. Not timed.
    fn stage(&mut self, session: usize, n: usize) {
        let kv_dim = self.stream.cols();
        let total = self.stream.rows();
        self.rows.clear();
        let mut left = n;
        while left > 0 {
            let take = left.min(total - self.cursor);
            let lo = self.cursor * kv_dim;
            self.rows
                .extend_from_slice(&self.stream.data()[lo..lo + take * kv_dim]);
            self.ledgers[session].runs.push((self.cursor, take));
            self.cursor = (self.cursor + take) % total;
            left -= take;
        }
        self.ledgers[session].tokens += n;
    }

    /// Checks a whole-session read against the appended rows, the read
    /// as a whole and each page that was cold before it; returns the
    /// NMSE of each such page.
    fn check_read(&self, session: usize, report: &SessionRead) -> Result<Vec<f64>, String> {
        let kv_dim = self.stream.cols();
        let page_values = self.store.config().page_tokens * kv_dim;
        let ledger = &self.ledgers[session];
        if self.out.len() != ledger.tokens * kv_dim {
            return Err(format!(
                "session {session}: read {} values, appended {} rows x {kv_dim}",
                self.out.len(),
                ledger.tokens
            ));
        }
        if !report.corruptions.is_empty() {
            return Err(format!(
                "session {session}: {} corrupt pages reported",
                report.corruptions.len()
            ));
        }
        // Squared error and squared reference per page.
        let mut pages = vec![(0.0f64, 0.0f64); self.cold.len()];
        let mut at = 0;
        for &(start, len) in &ledger.runs {
            let raw = &self.stream.data()[start * kv_dim..(start + len) * kv_dim];
            for (i, (&r, &o)) in raw.iter().zip(&self.out[at..at + raw.len()]).enumerate() {
                let d = f64::from(o) - f64::from(r);
                let page = &mut pages[(at + i) / page_values];
                page.0 += d * d;
                page.1 += f64::from(r) * f64::from(r);
            }
            at += raw.len();
        }
        let (err, reference) = pages
            .iter()
            .fold((0.0, 0.0), |(e, r), p| (e + p.0, r + p.1));
        let nmse = err / reference.max(f64::MIN_POSITIVE);
        if !nmse.is_finite() || nmse > READ_NMSE_BOUND {
            return Err(format!(
                "session {session}: read NMSE {nmse:.4e} above bound {READ_NMSE_BOUND}"
            ));
        }
        let mut cold = Vec::new();
        for (page, (p, _)) in pages
            .iter()
            .zip(&self.cold)
            .enumerate()
            .filter(|(_, (_, &c))| c)
        {
            let nmse = p.0 / p.1.max(f64::MIN_POSITIVE);
            if !nmse.is_finite() || nmse > READ_NMSE_BOUND {
                return Err(format!(
                    "session {session}: cold page {page} NMSE {nmse:.4e} above bound {READ_NMSE_BOUND}"
                ));
            }
            cold.push(nmse);
        }
        Ok(cold)
    }
}

/// Seed of replay `k`: replay 0 uses the workload seed itself, later
/// replays fresh traces derived from it.
fn replay_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The traffic phase: replays traces until `deadline`, replay `k`
/// expanding `traffic(replay_seed(seed, k))` (not timed) on a fresh store
/// from `new_store`, and calls `between` after each completed replay,
/// once its store is dropped. Replay 0 always runs to its end; a later
/// replay the deadline cuts short is dropped.
#[allow(clippy::too_many_arguments)]
pub fn run(
    spec: &ServingSpec,
    new_store: impl Fn() -> PagedKvStore,
    stream: &Tensor,
    traffic: impl Fn(u64) -> TrafficMix,
    seed: u64,
    deadline: Instant,
    tracer: &mut Tracer,
    mut between: impl FnMut(&mut Tracer),
) -> ServingResult {
    let mut res = ServingResult::default();
    for k in 0.. {
        let replay_seed = replay_seed(seed, k);
        let mix = traffic(replay_seed);
        let ops = program(&mix.events(), spec.read_every_steps, replay_seed);
        let mut r = Replay {
            k,
            peak_fp16: 0,
            capacity_ratio: 0.0,
            store: new_store(),
            handles: vec![None; mix.sessions],
            ledgers: vec![Ledger::default(); mix.sessions],
            stream,
            cursor: 0,
            rows: Vec::new(),
            out: Vec::new(),
            cold: Vec::new(),
        };
        res.replays_started += 1;
        let span = tracer.open("bench.replay", 0, k as u64);
        let ended = r.run(&ops, (k > 0).then_some(deadline), span, tracer, &mut res);
        tracer.close(span);
        if !ended {
            break;
        }
        res.replays_completed += 1;
        res.capacity_ratios.push(r.capacity_ratio);
        if k == 0 {
            res.first.counters = trace::counters(r.store.metrics());
        }
        drop(r);
        between(tracer);
        if Instant::now() >= deadline {
            break;
        }
    }
    res
}

impl Replay<'_> {
    /// Runs `ops` under the parent span until `deadline` passes or they
    /// end; returns whether they ended.
    fn run(
        &mut self,
        ops: &[Op],
        deadline: Option<Instant>,
        parent: u32,
        tracer: &mut Tracer,
        res: &mut ServingResult,
    ) -> bool {
        let tracing = tracer.enabled();
        // Counters are read around a call only when tracing.
        let snap = |store: &PagedKvStore| {
            if tracing {
                trace::counters(store.metrics())
            } else {
                [0; 5]
            }
        };
        let first = self.k == 0;
        for (step_no, op) in ops.iter().enumerate() {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return false;
            }
            match op {
                &Op::Open(s) => {
                    res.attempted += 1;
                    let t0 = Instant::now();
                    let sid = self.store.open_session();
                    let dt = t0.elapsed();
                    res.store_time += dt;
                    tracer.record("serve.open_session", parent, s as u64, t0, dt, None);
                    self.handles[s] = Some(sid);
                    self.ledgers[s] = Ledger::default();
                }
                &Op::Prefill(s, tokens) => {
                    self.stage(s, tokens);
                    let dt = append(self, s, parent, tracer, res, &snap);
                    res.prefill_ms.push(dt.as_secs_f64() * 1e3);
                }
                Op::Step { decodes, read } => {
                    let step_span = tracer.open("engine.step", parent, step_no as u64);
                    let mut step = Duration::ZERO;
                    for &s in decodes {
                        self.stage(s, 1);
                        step += append(self, s, step_span, tracer, res, &snap);
                    }
                    if let Some(s) = *read {
                        let dt = read_session(self, s, step_span, tracer, res, &snap);
                        res.read_ms.push(dt.as_secs_f64() * 1e3);
                        step += dt;
                    }
                    tracer.close(step_span);
                    res.step_ms.push(step.as_secs_f64() * 1e3);
                }
                &Op::Close(s) => {
                    res.attempted += 1;
                    let Some(sid) = self.handles[s].take() else {
                        res.failures.push(format!("close of unopened session {s}"));
                        continue;
                    };
                    let t0 = Instant::now();
                    let out = self.store.close_session(sid);
                    let dt = t0.elapsed();
                    res.store_time += dt;
                    tracer.record("serve.close_session", parent, s as u64, t0, dt, None);
                    if let Err(e) = out {
                        res.failures.push(format!("close session {s}: {e}"));
                    }
                }
            }
            let fp16 = self.store.fp16_bytes();
            if fp16 > self.peak_fp16 {
                self.peak_fp16 = fp16;
                self.capacity_ratio =
                    fp16 as f64 / self.store.resident_bytes().total().max(1) as f64;
            }
            if first {
                let resident = self.store.resident_bytes().total();
                res.first.peak_resident_bytes = res.first.peak_resident_bytes.max(resident);
            }
        }
        true
    }
}

/// Appends the staged rows to a session; returns the call's time.
fn append(
    r: &mut Replay<'_>,
    s: usize,
    parent: u32,
    tracer: &mut Tracer,
    res: &mut ServingResult,
    snap: &impl Fn(&PagedKvStore) -> Counters,
) -> Duration {
    res.attempted += 1;
    let Some(sid) = r.handles[s] else {
        res.failures.push(format!("append to unopened session {s}"));
        return Duration::ZERO;
    };
    let c0 = snap(&r.store);
    let t0 = Instant::now();
    let out = r.store.append(sid, &r.rows);
    let dt = t0.elapsed();
    let d = trace::delta(c0, snap(&r.store));
    tracer.record("serve.append", parent, s as u64, t0, dt, Some(d));
    let rows = (r.rows.len() / r.stream.cols()) as u64;
    res.store_time += dt;
    res.tokens += rows;
    if r.k == 0 {
        res.first.append_time += dt;
        res.first.tokens += rows;
    }
    if let Err(e) = out {
        res.failures.push(format!("append to session {s}: {e}"));
    }
    dt
}

/// Reads a whole session and checks it; returns the call's time.
fn read_session(
    r: &mut Replay<'_>,
    s: usize,
    parent: u32,
    tracer: &mut Tracer,
    res: &mut ServingResult,
    snap: &impl Fn(&PagedKvStore) -> Counters,
) -> Duration {
    res.attempted += 1;
    let Some(sid) = r.handles[s] else {
        res.failures.push(format!("read of unopened session {s}"));
        return Duration::ZERO;
    };
    let pages = r.store.session_pages(sid).unwrap_or(0);
    r.cold.clear();
    for p in 0..pages {
        let cold = r.store.page_tier(sid, p).is_ok_and(|t| t == PageTier::Cold);
        r.cold.push(cold);
        if cold && tracer.enabled() && r.k == 0 && res.captured.len() < CAPTURE_PAGES {
            if let Ok(Some(ct)) = r.store.cold_page(sid, p) {
                res.captured.push(ct.clone());
            }
        }
    }
    r.out.clear();
    let c0 = snap(&r.store);
    let t0 = Instant::now();
    let out = r.store.read_session_into(sid, &mut r.out);
    let dt = t0.elapsed();
    let d = trace::delta(c0, snap(&r.store));
    tracer.record("serve.read_session", parent, s as u64, t0, dt, Some(d));
    res.store_time += dt;
    match out {
        Ok(report) => match r.check_read(s, &report) {
            Ok(nmse) => res.cold_page_nmse.extend(nmse),
            Err(msg) => res.failures.push(msg),
        },
        Err(e) => res.failures.push(format!("read session {s}: {e}")),
    }
    dt
}
