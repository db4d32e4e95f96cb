//! The codec's scheduler surface: re-exports of the persistent
//! [`ecco_pool`] worker pool plus the block-granularity chunk policy the
//! multi-block pipelines share.
//!
//! Every parallel path in this crate — calibration's stage maps
//! ([`par_map_indexed`](crate::parallel::par_map_indexed)), the
//! whole-tensor encode/decode pipelines, and the batched multi-tensor
//! submission APIs ([`WeightCodec::compress_batch`](crate::WeightCodec::compress_batch),
//! [`WeightCodec::decompress_batch`](crate::WeightCodec::decompress_batch))
//! — submits to the *current* pool:
//! the innermost [`with_pool`] binding on the calling thread, or the
//! lazily-started global pool sized by `ECCO_THREADS` (then
//! `RAYON_NUM_THREADS`, then the core count) — calibration's per-group
//! k-means fits included, so every parallel path shares one set of
//! long-lived workers.
//!
//! # Determinism
//!
//! Chunk claiming is racy by design (that is where the load balancing
//! comes from), but every pipeline reassembles per-chunk results in
//! chunk order, and per-group work is independent, so outputs are
//! **bit-identical** across pool sizes and chunk sizes — pinned by the
//! differential proptests in [`crate::parallel`] and the root
//! `pool_scaling` test.

pub use ecco_pool::{
    quick_from_env, threads_from_env, with_pool, JobPanic, Pool, PoolBuilder, CHUNKS_PER_EXECUTOR,
};

/// Minimum groups/blocks per chunk for the codec pipelines. A chunk is
/// the unit workers claim; below this size the claiming and wake-up
/// overhead (~µs) rivals the work itself (~100 ns/block region), and a
/// whole job under this size takes the pool's inline fast path — tiny
/// tensors never touch the queue.
pub const MIN_BLOCK_CHUNK: usize = 32;

/// Chunk size (in groups/blocks) for a codec job of `total` items on
/// `pool`: the pool's pinned override if any, else about
/// [`CHUNKS_PER_EXECUTOR`] chunks per executor, floored at
/// [`MIN_BLOCK_CHUNK`].
pub fn block_chunk(pool: &Pool, total: usize) -> usize {
    pool.chunk_override().unwrap_or_else(|| {
        total
            .div_ceil(pool.executors() * CHUNKS_PER_EXECUTOR)
            .max(MIN_BLOCK_CHUNK)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_chunk_floors_small_jobs_into_one_chunk() {
        let pool = Pool::builder().threads(4).build();
        // 4 blocks -> one >= MIN_BLOCK_CHUNK chunk -> inline fast path.
        assert!(block_chunk(&pool, 4) >= 4);
        assert!(block_chunk(&pool, 4) >= MIN_BLOCK_CHUNK);
        // Large jobs split into about CHUNKS_PER_EXECUTOR per executor.
        let c = block_chunk(&pool, 4096);
        assert_eq!(
            c,
            4096usize
                .div_ceil(4 * CHUNKS_PER_EXECUTOR)
                .max(MIN_BLOCK_CHUNK)
        );
    }

    #[test]
    fn chunk_override_wins() {
        let pool = Pool::builder().threads(2).chunk(5).build();
        assert_eq!(block_chunk(&pool, 4096), 5);
    }
}
