#ifndef EOS_RUNTIME_PARALLEL_FOR_H_
#define EOS_RUNTIME_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>

/// \file
/// Deterministic chunked parallel loops. The contract every caller relies on:
///
///  * Chunk boundaries depend ONLY on the iteration count and the grain —
///    never on the thread count. A loop that accumulates into chunk-local
///    state and reduces across chunks in ascending chunk order therefore
///    produces bitwise-identical results at 1, 2, or N threads.
///  * Float reductions must never go through shared atomics: give each chunk
///    its own accumulator (tile / partial sum) and combine the chunk results
///    serially, chunk 0 first.
///  * Nested parallelism is banned: a ParallelFor issued from inside a chunk
///    runs serially on the calling thread (same chunking, same order), so
///    composing parallel kernels can never deadlock or oversubscribe.
///  * Grain sizing: pick a grain so one chunk is at least a few microseconds
///    of work (e.g. 16k floats of element-wise math, 8 GEMM output rows, a
///    handful of kNN queries). Too-fine grains pay one atomic claim per tiny
///    chunk; too-coarse grains starve the pool.
///
/// Exceptions thrown by a chunk abort the remaining chunks (already-claimed
/// chunks finish) and the first exception is rethrown on the calling thread.

namespace eos::runtime {

/// Grain for element-wise loops (tensor ops, ReLU training). They are
/// memory-bound, so a chunk must amortize the per-chunk claim and the grain
/// is large. Writes are disjoint per chunk, making every element-wise loop
/// bitwise-deterministic at any thread count.
inline constexpr int64_t kElementGrain = 1 << 14;

/// Number of chunks a range of `total` iterations splits into at the given
/// grain: ceil(total / grain). Requires grain > 0; returns 0 for empty
/// ranges. Exposed so callers that keep per-chunk state (GEMM k-partition
/// tiles, conv dW tiles, partial sums) can size and reduce their buffers.
int64_t NumChunks(int64_t total, int64_t grain);

/// Runs fn(chunk_index) for every index in [0, num_chunks) on the global
/// pool; the calling thread participates. Blocks until every chunk retired.
void ParallelForChunks(int64_t num_chunks,
                       const std::function<void(int64_t)>& fn);

/// Chunked parallel loop over [begin, end): fn(chunk_begin, chunk_end) with
/// chunk_end - chunk_begin <= grain. Chunks are contiguous, in-order slices
/// of the range; fn must treat its slice as exclusively owned.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

/// True while the calling thread is executing a chunk (used by the nested-
/// parallelism ban; exposed for tests and asserts).
bool InParallelRegion();

}  // namespace eos::runtime

#endif  // EOS_RUNTIME_PARALLEL_FOR_H_
