//! End-to-end benchmark of the Ecco serving, codec and container layers.
//!
//! One process plays one engine lifetime for one workload: it sets up
//! the codecs and the store, compresses and writes an ECCF model, then
//! spends `--seconds` replaying `TrafficMix` traces through
//! `PagedKvStore` in a closed loop, with model cycles (compress, write,
//! cold start from a fresh container) between the replays. Every public call is timed on its own by the benchmark; the
//! store's amortized `ServeMetrics` latencies are never reported.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chat_evict --seed 1 --seconds 50 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` also records
//! a span around each call, writes them to `perfbench/out/`, and prints
//! the per-layer metrics derived from them. The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Any failed check makes the exit code nonzero.

mod model;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ecco_core::{wire, EccoConfig, KvCodec, RecoveryPolicy, WeightCodec};
use ecco_llm::{ModelSpec, TrafficMix};
use ecco_pool::{with_pool, PoolBuilder};
use ecco_serve::{Admission, PagedKvStore};
use ecco_tensor::{synth::SynthSpec, Tensor, TensorKind};

use serving::ServingSpec;
use stats::{median, tail};
use trace::{Tracer, CLEAN_DROPS, COLD_READS, EVICTIONS, HOT_HITS, RECOMPRESSIONS};

/// Times set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 9;

/// Layers of the synthetic weight model and the shape of each, and how
/// many layers the weight codec is calibrated on.
const MODEL_LAYERS: usize = 8;
const MODEL_ROWS: usize = 8;
const MODEL_COLS: usize = 1024;
const CALIB_LAYERS: usize = 4;

/// The synthetic K-cache stream appends are cut from: a ring of
/// `STREAM_CHUNKS` independently seeded chunks (each with its own
/// channel statistics, like the heads and layers of a real cache) of
/// `CHUNK_ROWS` rows, longer than the longest prompt.
const STREAM_CHUNKS: usize = 32;
const CHUNK_ROWS: usize = 64;

/// Chunks of the KV codec's calibration capture (drawn like the stream,
/// from another seed).
const CALIB_CHUNKS: usize = 8;

/// Model cycles every run makes, however slow they are.
const MIN_MODEL_CYCLES: usize = 5;

/// Timed repetitions of each codec call in the traced run.
const CODEC_REPS: usize = 7;

/// Share of `--seconds` spent on model cycles (compress, write, cold
/// start); the rest replays traffic.
const MODEL_SHARE: f64 = 0.3;

/// Pages the store's hot tier holds, in every workload.
const HOT_CAPACITY_PAGES: usize = 96;

struct Workload {
    name: &'static str,
    /// `TrafficMix` preset, its session count and live cap.
    traffic: fn(usize, usize, u64) -> TrafficMix,
    sessions: usize,
    live: usize,
    serving: ServingSpec,
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        // Decode-dominated chat traffic on a hot tier far smaller than the
        // working set (1.5 pages per live session); every fourth step
        // re-reads one session.
        "chat_evict" => Workload {
            name: "chat_evict",
            traffic: TrafficMix::chat,
            sessions: 240,
            live: 64,
            serving: ServingSpec {
                admission: Admission::PromoteOnRead,
                read_every_steps: 4,
            },
        },
        // Long prompts, short decodes, streamed cold reads every step.
        "summarize_stream" => Workload {
            name: "summarize_stream",
            traffic: TrafficMix::summarize,
            sessions: 24,
            live: 8,
            serving: ServingSpec {
                admission: Admission::StreamCold,
                read_every_steps: 1,
            },
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: ecco-perfbench --workload <chat_evict|summarize_stream> \
     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 50.0f64, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

impl Metric {
    fn with_note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// A tail metric, noting which percentile it is and over how many
/// samples.
fn tail_metric(name: &'static str, xs: &[f64], unit: &'static str) -> Metric {
    let (p, v) = tail(xs);
    metric(name, v, unit).with_note(format!("p{p:.1} of n={}", xs.len()))
}

fn p50_metric(name: &'static str, xs: &[f64], unit: &'static str) -> Metric {
    metric(name, median(xs), unit).with_note(format!("n={}", xs.len()))
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `chunks` independently seeded K-cache chunks of [`CHUNK_ROWS`] rows.
fn kv_stream(seed: u64, kv_dim: usize, chunks: usize) -> Tensor {
    let mut data = Vec::with_capacity(chunks * CHUNK_ROWS * kv_dim);
    for c in 0..chunks {
        let chunk = SynthSpec::for_kind(TensorKind::KCache, CHUNK_ROWS, kv_dim)
            .seeded(seed.wrapping_mul(0x1000).wrapping_add(c as u64))
            .generate();
        data.extend_from_slice(chunk.data());
    }
    Tensor::from_vec(chunks * CHUNK_ROWS, kv_dim, data)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workload(&args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = PoolBuilder::new()
        .threads(ecco_pool::threads_from_env().min(nproc))
        .build();
    with_pool(&pool, || run(&args, &wl, nproc, pool.executors()))
}

fn run(args: &Args, wl: &Workload, nproc: usize, executors: usize) -> ExitCode {
    let seed = args.seed;
    let force_scalar = std::env::var("ECCO_FORCE_SCALAR").unwrap_or_default();
    println!(
        "# perfbench workload={} seed={seed} seconds={} trace={} nproc={nproc} pool_executors={executors} \
         window_dispatch={:?} ECCO_FORCE_SCALAR={:?}",
        wl.name,
        args.seconds,
        u8::from(args.trace),
        ecco_bits::window_dispatch(),
        force_scalar,
    );
    let mut tracer = Tracer::new(args.trace);
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }

    // ---- Inputs: all generated from the seed, none of it timed. ----
    let llm = ModelSpec::llama31_8b();
    let kv_dim = llm.kv_dim();
    let mix = (wl.traffic)(wl.sessions, wl.live, seed);
    let stream = kv_stream(seed, kv_dim, STREAM_CHUNKS);
    let kv_calib = kv_stream(seed ^ 0xCA1B, kv_dim, CALIB_CHUNKS);
    let weights: Vec<Tensor> = (0..MODEL_LAYERS)
        .map(|i| {
            SynthSpec::for_kind(TensorKind::Weight, MODEL_ROWS, MODEL_COLS)
                .seeded(seed.wrapping_mul(0x100).wrapping_add(i as u64))
                .generate()
        })
        .collect();
    let weight_refs: Vec<&Tensor> = weights.iter().collect();
    println!(
        "# traffic per replay: {} sessions, {} live, prompts {:?}, decodes {:?}, {} tokens (first replay); \
         hot tier {} pages of 16 rows x {kv_dim}, {:?}, re-read every {} steps",
        mix.sessions,
        mix.live,
        mix.prompt_tokens,
        mix.decode_tokens,
        mix.total_tokens(),
        HOT_CAPACITY_PAGES,
        wl.serving.admission,
        wl.serving.read_every_steps,
    );
    println!(
        "# model: {MODEL_LAYERS} layers of {MODEL_ROWS}x{MODEL_COLS} weights; partial load = every 4th layer; \
         {:.0}% model cycles between replays, {:.0}% traffic",
        MODEL_SHARE * 100.0,
        (1.0 - MODEL_SHARE) * 100.0
    );

    // ---- Set-up: codec calibration + store construction. ----
    let kv_cfg = EccoConfig {
        max_calibration_groups: 512,
        ..EccoConfig::default()
    };
    let mut setup_s = Vec::new();
    let mut codecs = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let kv = KvCodec::calibrate(&[&kv_calib], &kv_cfg);
        let kv_t = t0.elapsed();
        tracer.record("codec.kv_calibrate", 0, rep as u64, t0, kv_t, None);
        let t1 = Instant::now();
        let w = WeightCodec::calibrate(&weight_refs[..CALIB_LAYERS], &EccoConfig::default());
        let w_t = t1.elapsed();
        tracer.record("codec.weight_calibrate", 0, rep as u64, t1, w_t, None);
        let for_store = kv.clone();
        let t2 = Instant::now();
        let store = PagedKvStore::new(&llm, for_store, wl.serving.config());
        let s_t = t2.elapsed();
        tracer.record("serve.new", 0, rep as u64, t2, s_t, None);
        drop(store);
        setup_s.push((kv_t + w_t + s_t).as_secs_f64());
        codecs = Some((kv, w));
    }
    let (kv_codec, weight_codec) = codecs.expect("SETUP_REPS > 0");

    // ---- Write side: compress + write the ECCF model once. ----
    let model_path = out_dir.join(format!("model-{}.eccf", wl.name));
    let mut model = model::build(&weight_codec, &weights, &model_path, &mut tracer);
    if tracer.enabled() {
        let bytes = wire::encode_metadata(weight_codec.metadata());
        for rep in 0..CODEC_REPS {
            model.attempted += 1;
            let t0 = Instant::now();
            let decoded = std::hint::black_box(wire::decode_metadata(&bytes));
            let dt = t0.elapsed();
            tracer.record("wire.decode_metadata", 0, rep as u64, t0, dt, None);
            if let Err(e) = decoded {
                model.failures.push(format!("wire::decode_metadata: {e}"));
            }
        }
    }

    // ---- Measured phase: traffic replays, with model cycles between
    // them taking MODEL_SHARE of the time so far. Spread over the whole
    // run rather than run in one block, the cycles average the host's
    // drift over as long a time as the traffic does. ----
    let t_start = Instant::now();
    let deadline = t_start + Duration::from_secs_f64(args.seconds);
    let mut cycles = model::ModelCycles::default();
    let model_ok = model.failures.is_empty();
    let serve = serving::run(
        &wl.serving,
        || PagedKvStore::new(&llm, kv_codec.clone(), wl.serving.config()),
        &stream,
        |s| (wl.traffic)(wl.sessions, wl.live, s),
        seed,
        deadline,
        &mut tracer,
        |tracer| {
            if model_ok {
                let behind = t_start
                    .elapsed()
                    .mul_f64(MODEL_SHARE)
                    .saturating_sub(cycles.time);
                let until = Instant::now() + behind.div_f64(1.0 - MODEL_SHARE);
                cycles.run_until(&model, until.min(deadline), tracer);
            }
        },
    );
    while model_ok && cycles.compress_write_s.len() < MIN_MODEL_CYCLES {
        cycles.cycle(&model, &mut tracer);
    }

    // ---- Traced run only: codec calls on captured pages, pool scaling. ----
    let mut batch_speedup = 0.0;
    if tracer.enabled() && !serve.captured.is_empty() {
        batch_speedup = codec_probes(&kv_codec, &serve.captured, &mut tracer);
    }
    std::fs::remove_file(&model_path).ok();

    // ---- End-to-end metrics. ----
    let fp16_mb = model.fp16_bytes as f64 / 1e6;
    let e2e = vec![
        metric(
            "tokens_per_s",
            serve.tokens as f64 / serve.store_time.as_secs_f64().max(1e-9),
            "1/s",
        )
        .with_note(format!(
            "{} rows over {:.3} s inside store calls",
            serve.tokens,
            serve.store_time.as_secs_f64()
        )),
        p50_metric("step_ms_p50", &serve.step_ms, "ms"),
        tail_metric("step_ms_tail", &serve.step_ms, "ms"),
        p50_metric("prefill_ms_p50", &serve.prefill_ms, "ms"),
        tail_metric("prefill_ms_tail", &serve.prefill_ms, "ms"),
        p50_metric("read_ms_p50", &serve.read_ms, "ms"),
        tail_metric("read_ms_tail", &serve.read_ms, "ms"),
        p50_metric("capacity_ratio", &serve.capacity_ratios, "x").with_note(format!(
            "median over {} completed replays, each at its peak live FP16 bytes",
            serve.capacity_ratios.len()
        )),
        p50_metric("read_nmse", &serve.cold_page_nmse, "ratio").with_note(format!(
            "median over {} pages read from the cold tier (max {:.3e}); gate: each such page and each whole read <= {}",
            serve.cold_page_nmse.len(),
            serve.cold_page_nmse.iter().copied().fold(0.0, f64::max),
            serving::READ_NMSE_BOUND
        )),
        p50_metric("cold_start_ms_p50", &cycles.cold_start_ms, "ms"),
        tail_metric("cold_start_ms_tail", &cycles.cold_start_ms, "ms"),
        p50_metric("partial_load_ms_p50", &cycles.partial_ms, "ms"),
        metric(
            "compress_mb_per_s",
            fp16_mb / median(&cycles.compress_write_s).max(1e-12),
            "MB/s",
        )
        .with_note("FP16 MB per second of compress_batch + write_model"),
        metric(
            "file_ratio",
            model.fp16_bytes as f64 / model.file_bytes().max(1) as f64,
            "x",
        ),
        p50_metric("setup_s", &setup_s, "s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
    ];

    let per_layer = if tracer.enabled() {
        per_layer_metrics(&tracer, &serve, &model, executors, batch_speedup)
    } else {
        Vec::new()
    };

    // ---- Report. ----
    println!(
        "# serving: {} replays started, {} completed; {} steps, {} prefills, {} reads",
        serve.replays_started,
        serve.replays_completed,
        serve.step_ms.len(),
        serve.prefill_ms.len(),
        serve.read_ms.len()
    );
    let counts: Vec<String> = trace::COUNTER_NAMES
        .iter()
        .zip(serve.first.counters)
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("# replay 0 counters: {}", counts.join(" "));
    println!("# model cycles: {}", cycles.compress_write_s.len());
    for m in &e2e {
        println!(
            "e2e {:<22} {:>14.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for m in &per_layer {
        println!(
            "layer {:<40} {:>14.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }

    let failures: Vec<&String> = model
        .failures
        .iter()
        .chain(&cycles.failures)
        .chain(&serve.failures)
        .collect();
    let attempted = model.attempted + cycles.attempted + serve.attempted;
    println!(
        "# ops: attempted={attempted} failed={} (failed/attempted: model build {}/{}, model cycles {}/{}, serving {}/{})",
        failures.len(),
        model.failures.len(),
        model.attempted,
        cycles.failures.len(),
        cycles.attempted,
        serve.failures.len(),
        serve.attempted,
    );
    for f in failures.iter().take(10) {
        eprintln!("FAILED: {f}");
    }
    if tracer.enabled() {
        let path = out_dir.join(format!("trace-{}.jsonl", wl.name));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "# trace: {} spans written to {}",
                tracer.len(),
                path.display()
            ),
            Err(e) => eprintln!("trace not written to {}: {e}", path.display()),
        }
    }

    let reported = if tracer.enabled() { &per_layer } else { &e2e };
    let body: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        failures.len(),
        body.join(", ")
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// JSON has no NaN or infinity; a non-finite figure is reported as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Traced run: times the KV codec on the captured cold pages, one page
/// at a time and as one batch, and the batch read on a 1-executor pool
/// against the configured one. Returns that batch-read speedup.
fn codec_probes(
    codec: &KvCodec,
    pages: &[ecco_core::CompressedTensor],
    tracer: &mut Tracer,
) -> f64 {
    let decoded: Vec<Tensor> = pages.iter().map(|ct| codec.decompress(ct)).collect();
    let decoded_refs: Vec<&Tensor> = decoded.iter().collect();
    let page_refs: Vec<&ecco_core::CompressedTensor> = pages.iter().collect();
    let n = pages.len() as u64;
    // One page is a batch of one, as the store evicts and reads it.
    for (i, (ct, t)) in pages.iter().zip(&decoded).enumerate() {
        let t0 = Instant::now();
        std::hint::black_box(codec.compress_batch(&[t]));
        tracer.record("codec.kv_compress", 0, i as u64, t0, t0.elapsed(), None);
        let t0 = Instant::now();
        std::hint::black_box(codec.decompress_batch_report(&[ct], RecoveryPolicy::SalvageBlocks));
        tracer.record("codec.kv_decompress", 0, i as u64, t0, t0.elapsed(), None);
    }
    let one = PoolBuilder::new().threads(1).build();
    for _ in 0..CODEC_REPS {
        let t0 = Instant::now();
        std::hint::black_box(codec.compress_batch(&decoded_refs));
        tracer.record("codec.kv_compress_batch", 0, n, t0, t0.elapsed(), None);
        let t0 = Instant::now();
        std::hint::black_box(
            codec.decompress_batch_report(&page_refs, RecoveryPolicy::SalvageBlocks),
        );
        tracer.record(
            "codec.kv_decompress_batch_report",
            0,
            n,
            t0,
            t0.elapsed(),
            None,
        );
        let t0 = Instant::now();
        with_pool(&one, || {
            std::hint::black_box(
                codec.decompress_batch_report(&page_refs, RecoveryPolicy::SalvageBlocks),
            )
        });
        tracer.record(
            "pool1.kv_decompress_batch_report",
            0,
            n,
            t0,
            t0.elapsed(),
            None,
        );
    }
    let us = |name: &str| median(&tracer.named(name).map(trace::Span::us).collect::<Vec<_>>());
    us("pool1.kv_decompress_batch_report") / us("codec.kv_decompress_batch_report").max(1e-9)
}

fn per_layer_metrics(
    tracer: &Tracer,
    serve: &serving::ServingResult,
    model: &model::Model,
    executors: usize,
    batch_speedup: f64,
) -> Vec<Metric> {
    let us = |name: &str| -> Vec<f64> { tracer.named(name).map(trace::Span::us).collect() };
    let appends: Vec<&trace::Span> = tracer.named("serve.append").collect();
    let deltas = |s: &trace::Span| s.deltas.unwrap_or_default();
    let append_hot: Vec<f64> = appends
        .iter()
        .filter(|s| deltas(s)[EVICTIONS] == 0)
        .map(|s| s.us())
        .collect();
    let append_evict: Vec<f64> = appends
        .iter()
        .filter(|s| deltas(s)[EVICTIONS] > 0)
        .map(|s| s.us())
        .collect();
    let reads: Vec<&trace::Span> = tracer.named("serve.read_session").collect();
    let read_hot: Vec<f64> = reads
        .iter()
        .filter(|s| deltas(s)[COLD_READS] == 0)
        .map(|s| s.us())
        .collect();
    let read_cold_per_page: Vec<f64> = reads
        .iter()
        .filter(|s| deltas(s)[COLD_READS] > 0)
        .map(|s| s.us() / deltas(s)[COLD_READS] as f64)
        .collect();

    let c = serve.first.counters;
    let captured = serve.captured.len().max(1) as f64;
    let compress_page_us = median(&us("codec.kv_compress"));
    let fp16_mb = model.fp16_bytes as f64 / 1e6;
    // Bare kernel time of one whole-model pass: its decompress calls only.
    let kernel_s = median(
        &tracer
            .named("codec.weight_decompress_model")
            .map(|pass| {
                tracer
                    .named("codec.weight_decompress")
                    .filter(|s| s.parent == pass.id)
                    .map(trace::Span::us)
                    .sum::<f64>()
            })
            .collect::<Vec<_>>(),
    ) / 1e6;
    let load_s = median(&us("container.load")) / 1e6;
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;

    let batch_note = format!("{} captured cold pages per batch", serve.captured.len());
    let page_note = format!("n={}, one page as a batch of one", serve.captured.len());
    vec![
        p50_metric("serve.append_hot_us_p50", &append_hot, "us"),
        p50_metric("serve.append_evict_us_p50", &append_evict, "us"),
        tail_metric("serve.append_evict_us_tail", &append_evict, "us"),
        p50_metric("serve.read_hot_us_p50", &read_hot, "us"),
        p50_metric("serve.read_cold_us_per_page", &read_cold_per_page, "us"),
        metric("serve.evictions", c[EVICTIONS] as f64, "count"),
        metric("serve.recompressions", c[RECOMPRESSIONS] as f64, "count"),
        metric("serve.clean_drops", c[CLEAN_DROPS] as f64, "count"),
        metric("serve.cold_reads", c[COLD_READS] as f64, "count"),
        metric("serve.hot_hits", c[HOT_HITS] as f64, "count"),
        metric(
            "serve.peak_resident_bytes",
            serve.first.peak_resident_bytes as f64,
            "bytes",
        ),
        metric(
            "serve.hit_ratio",
            ratio(c[HOT_HITS], c[HOT_HITS] + c[COLD_READS]),
            "ratio",
        ),
        metric(
            "serve.dirty_evict_share",
            ratio(c[RECOMPRESSIONS], c[EVICTIONS]),
            "ratio",
        ),
        metric(
            "serve.recompressed_pages_per_ktoken",
            1e3 * ratio(c[RECOMPRESSIONS], serve.first.tokens),
            "count",
        ),
        metric("codec.kv_compress_page_us", compress_page_us, "us").with_note(page_note.clone()),
        metric(
            "codec.kv_compress_batch_us_per_page",
            median(&us("codec.kv_compress_batch")) / captured,
            "us",
        )
        .with_note(batch_note.clone()),
        p50_metric("codec.kv_decompress_page_us", &us("codec.kv_decompress"), "us")
            .with_note(page_note),
        metric(
            "codec.kv_decompress_batch_us_per_page",
            median(&us("codec.kv_decompress_batch_report")) / captured,
            "us",
        )
        .with_note(batch_note),
        metric(
            "codec.append_codec_share",
            c[RECOMPRESSIONS] as f64 * compress_page_us
                / (serve.first.append_time.as_secs_f64() * 1e6).max(1e-9),
            "ratio",
        )
        .with_note(
            "attributed estimate: replay-0 recompressions x codec.kv_compress_page_us / append time",
        ),
        metric(
            "codec.weight_compress_mb_s",
            fp16_mb / (median(&us("codec.weight_compress_batch")) / 1e6).max(1e-12),
            "MB/s",
        ),
        metric(
            "codec.weight_decompress_mb_s",
            fp16_mb / kernel_s.max(1e-12),
            "MB/s",
        ),
        metric(
            "codec.kv_calibrate_s",
            median(&us("codec.kv_calibrate")) / 1e6,
            "s",
        ),
        metric(
            "codec.weight_calibrate_s",
            median(&us("codec.weight_calibrate")) / 1e6,
            "s",
        ),
        p50_metric("container.open_us", &us("container.open"), "us"),
        p50_metric(
            "container.read_compressed_us_per_tensor",
            &us("container.read_compressed"),
            "us",
        ),
        metric("container.load_vs_kernel", load_s / kernel_s.max(1e-12), "x")
            .with_note("full load (no open) / WeightCodec::decompress of the same tensors"),
        metric(
            "container.write_ms",
            median(&us("container.write_model")) / 1e3,
            "ms",
        ),
        p50_metric("wire.decode_metadata_us", &us("wire.decode_metadata"), "us"),
        metric("pool.executors", executors as f64, "count"),
        metric("pool.batch_speedup", batch_speedup, "x")
            .with_note("1-executor pool / configured pool, captured-page batch read"),
    ]
}
