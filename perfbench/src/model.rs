//! The ECCF model side: compress and write a synthetic multi-layer
//! weight model, then cycle it: compress and write again, and
//! cold-start it from a fresh `Container::open`.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ecco_container::{write_model, Container};
use ecco_core::{CompressedTensor, WeightCodec};
use ecco_tensor::Tensor;

use crate::trace::Tracer;

/// Times the bare decode kernel is run over the whole model.
const KERNEL_REPS: usize = 9;

/// The written model and its reference decode.
pub struct Model<'a> {
    codec: &'a WeightCodec,
    tensors: Vec<&'a Tensor>,
    pub names: Vec<String>,
    pub compressed: Vec<CompressedTensor>,
    /// `WeightCodec::decompress` of each compressed tensor: what every
    /// container load must reproduce bit for bit.
    pub reference: Vec<Tensor>,
    /// The first ECCF image written; every later write must match it.
    image: Vec<u8>,
    pub path: PathBuf,
    pub fp16_bytes: usize,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Compresses and writes `tensors` once, then times the bare decode
/// kernel on the result.
pub fn build<'a>(
    codec: &'a WeightCodec,
    tensors: &'a [Tensor],
    path: &Path,
    tracer: &mut Tracer,
) -> Model<'a> {
    let tensors: Vec<&Tensor> = tensors.iter().collect();
    let mut model = Model {
        codec,
        names: (0..tensors.len()).map(|i| format!("blk.{i}.w")).collect(),
        fp16_bytes: tensors.iter().map(|t| t.len() * 2).sum(),
        tensors,
        compressed: Vec::new(),
        reference: Vec::new(),
        image: Vec::new(),
        path: path.to_path_buf(),
        attempted: 1,
        failures: Vec::new(),
    };
    model.compressed = codec
        .compress_batch(&model.tensors)
        .into_iter()
        .map(|(ct, _)| ct)
        .collect();
    let pairs: Vec<(&str, &CompressedTensor)> = model
        .names
        .iter()
        .map(String::as_str)
        .zip(&model.compressed)
        .collect();
    match write_model(path, codec.metadata(), &pairs).and_then(|()| std::fs::read(path)) {
        Ok(image) => model.image = image,
        Err(e) => model.failures.push(format!("write_model: {e}")),
    }

    for rep in 0..KERNEL_REPS {
        let parent = tracer.open("codec.weight_decompress_model", 0, rep as u64);
        let mut decoded = Vec::with_capacity(model.compressed.len());
        for (i, ct) in model.compressed.iter().enumerate() {
            let t0 = Instant::now();
            let t = std::hint::black_box(codec.decompress(ct));
            let dt = t0.elapsed();
            tracer.record("codec.weight_decompress", parent, i as u64, t0, dt, None);
            decoded.push(t);
        }
        tracer.close(parent);
        if rep == 0 {
            model.reference = decoded;
        }
    }
    model
}

impl Model<'_> {
    /// Bytes of the ECCF file.
    pub fn file_bytes(&self) -> usize {
        self.image.len()
    }
}

/// Samples of the model cycles.
#[derive(Default)]
pub struct ModelCycles {
    /// `compress_batch` + `write_model`, seconds.
    pub compress_write_s: Vec<f64>,
    /// Fresh open + full load, ms.
    pub cold_start_ms: Vec<f64>,
    /// 25% partial load on the just-opened container, ms.
    pub partial_ms: Vec<f64>,
    /// Wall time spent in cycles.
    pub time: Duration,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Bitwise equality of a load against the reference decode.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn check_load(
    what: &str,
    loaded: Result<Vec<Tensor>, ecco_container::ContainerError>,
    want: &[usize],
    model: &Model,
    failures: &mut Vec<String>,
) {
    match loaded {
        Ok(ts) if ts.len() == want.len() => {
            for (t, &i) in ts.iter().zip(want) {
                if !same_bits(t.data(), model.reference[i].data()) {
                    failures.push(format!(
                        "{what}: tensor {} differs from decompress",
                        model.names[i]
                    ));
                }
            }
        }
        Ok(ts) => failures.push(format!(
            "{what}: {} tensors for {} names",
            ts.len(),
            want.len()
        )),
        Err(e) => failures.push(format!("{what}: {e}")),
    }
}

impl ModelCycles {
    /// Runs cycles until `deadline`.
    pub fn run_until(&mut self, model: &Model, deadline: Instant, tracer: &mut Tracer) {
        while Instant::now() < deadline {
            self.cycle(model, tracer);
        }
    }

    /// One cycle: compress the model and write it over its file (the
    /// image must not change), then cold-start it.
    pub fn cycle(&mut self, model: &Model, tracer: &mut Tracer) {
        let t_cycle = Instant::now();
        self.write(model, tracer);
        self.cold_start(model, tracer);
        self.time += t_cycle.elapsed();
    }

    fn write(&mut self, model: &Model, tracer: &mut Tracer) {
        let n = self.compress_write_s.len() as u64;
        self.attempted += 1;
        let t0 = Instant::now();
        let compressed: Vec<CompressedTensor> = model
            .codec
            .compress_batch(&model.tensors)
            .into_iter()
            .map(|(ct, _)| ct)
            .collect();
        let compress = t0.elapsed();
        tracer.record("codec.weight_compress_batch", 0, n, t0, compress, None);
        let pairs: Vec<(&str, &CompressedTensor)> = model
            .names
            .iter()
            .map(String::as_str)
            .zip(&compressed)
            .collect();
        let t1 = Instant::now();
        let written = write_model(&model.path, model.codec.metadata(), &pairs);
        let write = t1.elapsed();
        tracer.record("container.write_model", 0, n, t1, write, None);
        self.compress_write_s.push((compress + write).as_secs_f64());
        match written.and_then(|()| std::fs::read(&model.path)) {
            Ok(image) if image == model.image => {}
            Ok(_) => self.failures.push(format!(
                "write {n}: ECCF image differs from the first write"
            )),
            Err(e) => self.failures.push(format!("write {n}: {e}")),
        }
    }

    /// A fresh open and a full load, then a partial load of every fourth
    /// tensor. The traced run also times `read_compressed` of every
    /// tensor on one more fresh open.
    fn cold_start(&mut self, model: &Model, tracer: &mut Tracer) {
        let n = self.cold_start_ms.len() as u64;
        let all: Vec<&str> = model.names.iter().map(String::as_str).collect();
        let all_idx: Vec<usize> = (0..all.len()).collect();
        let part_idx: Vec<usize> = (0..all.len()).step_by(4).collect();
        let part: Vec<&str> = part_idx.iter().map(|&i| all[i]).collect();
        self.attempted += 2;
        let parent = tracer.open("bench.cold_start", 0, n);
        let t0 = Instant::now();
        let opened = Container::open(&model.path);
        let open = t0.elapsed();
        tracer.record("container.open", parent, n, t0, open, None);
        let c = match opened {
            Ok(c) => c,
            Err(e) => {
                self.failures.push(format!("open: {e}"));
                tracer.close(parent);
                return;
            }
        };
        let t1 = Instant::now();
        let full = c.load(&all);
        let load = t1.elapsed();
        tracer.record("container.load", parent, n, t1, load, None);
        self.cold_start_ms.push((open + load).as_secs_f64() * 1e3);
        check_load("full load", full, &all_idx, model, &mut self.failures);

        let t2 = Instant::now();
        let partial = c.load(&part);
        let dt = t2.elapsed();
        tracer.record("container.load_partial", parent, n, t2, dt, None);
        self.partial_ms.push(dt.as_secs_f64() * 1e3);
        check_load(
            "partial load",
            partial,
            &part_idx,
            model,
            &mut self.failures,
        );
        drop(c);
        tracer.close(parent);

        if tracer.enabled() {
            read_compressed_each(model, n, tracer, self);
        }
    }
}

/// Traced run: `read_compressed` (I/O + CRC + wire revival) of every
/// tensor on a fresh container.
fn read_compressed_each(model: &Model, n: u64, tracer: &mut Tracer, cs: &mut ModelCycles) {
    let Ok(c) = Container::open(&model.path) else {
        cs.failures.push("open for read_compressed".into());
        return;
    };
    let parent = tracer.open("bench.read_compressed_all", 0, n);
    for name in &model.names {
        cs.attempted += 1;
        let t0 = Instant::now();
        let r = c.read_compressed(name);
        let dt = t0.elapsed();
        tracer.record("container.read_compressed", parent, n, t0, dt, None);
        if let Err(e) = r {
            cs.failures.push(format!("read_compressed {name}: {e}"));
        }
    }
    tracer.close(parent);
}
