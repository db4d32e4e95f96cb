//! Cycle-accurate functional models of the Ecco hardware (Sections 4.2
//! and 4.3 of the paper): the differential oracles and the hardware-cost
//! model, not a production decode path.
//!
//! Production decoding (the codecs, the ECCF container, the serving
//! store) runs `ecco-core`'s sequential fused decoder, which is the
//! faster one in software. These models prove the paper's parallel
//! decode algorithm correct against it and provide the
//! latency/area/power numbers the evaluation reports:
//!
//! * [`bitonic`] — the 128-lane bitonic sorting network the compressor
//!   uses to extract the scale factor, top-16 outliers and group min/max,
//! * [`lut`] — the per-codebook sub-decoder chain tables (256 KiB each)
//!   the parallel decoder probes, built on first use and cached here, so
//!   no production path ever builds one,
//! * [`paradec`] — the 64-decoder × 8-sub-decoder speculative parallel
//!   Huffman decoder with its 6-stage concatenation tree and per-block
//!   work accounting ([`DecodeStats`]), proven equivalent to sequential
//!   decoding (property-tested) and kept beside the seed implementation
//!   ([`paradec::seed_port`]) it replaced,
//! * [`compressor`] — the hardware compression pipeline (min/max pattern
//!   selector over 16 patterns, 4 parallel Huffman encoders, clip),
//!   proven equivalent to the reference codec,
//! * [`pipeline`] — stage/latency accounting (28-cycle decompression,
//!   62-cycle compression, 20 replicas matching 5120 B/clk L2 peak),
//! * [`area`] — the gate-count area/power model behind Table 3.
//!
//! # Examples
//!
//! Decode a compressed tensor block by block through the hardware
//! decoder model and check it agrees with the production codec bit for
//! bit:
//!
//! ```
//! use ecco_core::{EccoConfig, WeightCodec};
//! use ecco_tensor::{synth::SynthSpec, TensorKind};
//!
//! let t = SynthSpec::for_kind(TensorKind::Weight, 8, 256).generate();
//! let codec = WeightCodec::calibrate(&[&t], &EccoConfig::default());
//! let (ct, _) = codec.compress_parallel(&t);
//!
//! let mut hw_values = Vec::new();
//! for block in ct.blocks() {
//!     let (values, trace) =
//!         ecco_hw::decode_block_parallel(block, codec.metadata(), ct.tensor_scale()).unwrap();
//!     assert_eq!(trace.merge_stages, 6); // the 6-stage concatenation tree
//!     hw_values.extend(values);
//! }
//! assert_eq!(hw_values, codec.decompress_parallel(&ct).data());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod bitonic;
pub mod compressor;
pub mod lut;
pub mod paradec;
pub mod pipeline;

pub use area::{AreaPowerModel, ComponentArea};
pub use bitonic::BitonicSorter;
pub use compressor::HwCompressor;
pub use lut::{segment_lut, SegmentLut};
pub use paradec::{decode_block_parallel, DecodeStats, ParallelDecoder};
pub use pipeline::{PipelineSpec, StreamSim, StreamStats};
