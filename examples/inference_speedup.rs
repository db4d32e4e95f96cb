//! End-to-end decode speedup: simulate LLaMA-13B serving under every
//! compared scheme on the A100-class timing model.
//!
//! Run with `cargo run --release --example inference_speedup`.

use ecco::prelude::*;

fn main() {
    let engine = SimEngine::new(GpuSpec::a100());
    let model = ModelSpec::llama_13b();

    println!(
        "{} | {} layers, hidden {}, {} heads | {:.1}B params",
        model.name,
        model.layers,
        model.hidden,
        model.heads,
        model.params() as f64 / 1e9
    );

    for (batch, seq) in [(1usize, 2048usize), (8, 2048), (32, 4096)] {
        let wl = DecodeWorkload::new(model.clone(), batch, seq);
        let fp16 = wl.step_time(&engine, &ExecScheme::fp16_trt());
        println!(
            "\nbatch {batch}, seq {seq}: FP16 decode step {:.2} ms \
             ({} kernels, attention {:.0}%)",
            fp16.total * 1e3,
            fp16.kernels,
            fp16.attention / fp16.total * 100.0
        );
        for scheme in ExecScheme::figure11_set() {
            let t = wl.step_time(&engine, &scheme);
            println!(
                "  {:12} {:8.2} ms   {:.2}x vs FP16",
                scheme.name,
                t.total * 1e3,
                fp16.total / t.total
            );
        }
    }

    // What the decompressor hardware must sustain for this to work:
    let d = DecompressorModel::shipped();
    println!(
        "\ndecompressor: {} cycle pipeline, {:.0}% of L2 bandwidth \
         (20 replicas x 256 B/clk — see `ecco::hw` for the models)",
        d.latency_cycles,
        d.throughput_frac * 100.0
    );

    // And the software pipeline actually moving blocks: compress one
    // weight tensor through the multi-block codec pipeline, then decode
    // it back through the pooled decode pipeline.
    let t = SynthSpec::for_kind(TensorKind::Weight, 128, 1024)
        .seeded(42)
        .generate();
    let cfg = EccoConfig {
        num_patterns: 16,
        max_calibration_groups: 256,
        ..EccoConfig::default()
    };
    let codec = WeightCodec::calibrate(&[&t], &cfg);

    let t0 = std::time::Instant::now();
    let (ct, stats) = codec.compress_parallel(&t);
    let enc = t0.elapsed();
    let t0 = std::time::Instant::now();
    let decoded = codec.decompress_parallel(&ct);
    let dec = t0.elapsed();
    assert_eq!(decoded.len(), t.len());

    let syms = t.len() as f64;
    println!(
        "\ncodec pipeline ({} threads): {} blocks | encode {:.1} Msym/s | \
         decode {:.1} Msym/s | NMSE {:.2e}",
        ecco::codec::parallel::worker_threads(),
        ct.blocks().len(),
        syms / enc.as_secs_f64() / 1e6,
        syms / dec.as_secs_f64() / 1e6,
        stats.nmse(),
    );
}
