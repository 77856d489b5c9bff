// Minimal fork-join parallel_for used where full task-graph machinery
// (runtime/) would be overkill: embarrassingly parallel loops over time
// slots, grid points, or coefficient indices.
//
// Work is executed on the process-wide persistent WorkerTeam — the same
// thread team the task-graph scheduler drafts from, so a process never runs
// two competing pools. No threads are spawned per call, the callable is
// dispatched through a monomorphic trampoline (no std::function, no
// allocation), and nested or concurrent parallel_for calls (including
// parallel_for inside a DAG task) safely degrade to inline serial execution.
#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace exaclim::common {

/// Number of worker threads to use by default: the worker team's actual
/// width (which honors --threads / EXACLIM_THREADS overrides), so chunk
/// sizing matches the participants that will really run. >= 1.
inline unsigned default_thread_count() {
  return WorkerTeam::instance().max_participants();
}

/// Runs body(i) for i in [begin, end) across up to `threads` workers with
/// dynamic chunked scheduling. Exceptions from the body propagate to the
/// caller (first one wins). With threads <= 1 the loop runs inline. The
/// effective parallelism is capped by the pool size (hardware concurrency).
/// `grain` > 0 fixes how many consecutive indices a worker claims at a time
/// (1 hands out items one by one in index order, for ranges that put their
/// largest items first); 0 picks it from the range and worker count.
template <typename F>
void parallel_for(index_t begin, index_t end, F&& body,
                  unsigned threads = default_thread_count(),
                  index_t grain = 0) {
  const index_t n = end - begin;
  if (n <= 0) return;
  if (threads <= 1 || n == 1 || WorkerTeam::in_parallel_region()) {
    for (index_t i = begin; i < end; ++i) body(i);
    return;
  }
  const unsigned workers =
      static_cast<unsigned>(std::min<index_t>(threads, n));
  // Chunked dynamic scheduling: keep chunks big enough to amortize the
  // atomic fetch, small enough to balance uneven iterations.
  const index_t chunk =
      grain > 0 ? grain : std::max<index_t>(1, n / (workers * 8));

  using Body = std::remove_reference_t<F>;
  struct Ctx {
    Body* body = nullptr;
    std::atomic<index_t> next{0};
    index_t end = 0;
    index_t chunk = 1;
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mu;
  } ctx;
  ctx.body = &body;
  ctx.next.store(begin, std::memory_order_relaxed);
  ctx.end = end;
  ctx.chunk = chunk;

  constexpr WorkerTeam::JobFn work = [](void* p, unsigned /*rank*/) {
    Ctx& c = *static_cast<Ctx*>(p);
    for (;;) {
      // Short-circuit before claiming a chunk: a throwing body elsewhere
      // must stop the whole region promptly, and a drained counter must not
      // keep being advanced by late-arriving workers.
      if (c.failed.load(std::memory_order_acquire)) return;
      if (c.next.load(std::memory_order_relaxed) >= c.end) return;
      const index_t lo = c.next.fetch_add(c.chunk, std::memory_order_relaxed);
      if (lo >= c.end) return;
      const index_t hi = std::min(lo + c.chunk, c.end);
      try {
        for (index_t i = lo; i < hi; ++i) (*c.body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(c.error_mu);
        if (!c.failed.exchange(true)) c.error = std::current_exception();
        return;
      }
    }
  };

  WorkerTeam::instance().run(workers, work, &ctx);
  if (ctx.failed.load() && ctx.error) std::rethrow_exception(ctx.error);
}

/// Chunk count used by parallel_reduce. A function of the range size only —
/// never of the thread count — so the floating-point combine tree is fixed
/// for a given problem size no matter how many workers execute it.
inline index_t reduce_chunk_count(index_t n) {
  constexpr index_t kMaxChunks = 256;
  return std::min<index_t>(n, kMaxChunks);
}

/// Deterministic parallel reduction over [begin, end).
///
/// The range is split into reduce_chunk_count(n) contiguous chunks whose
/// boundaries depend only on (begin, end). Each chunk accumulates into its
/// own partial via body(acc, i) in ascending index order, and the partials
/// are merged on the calling thread with an ordered pairwise tree of
/// combine(into, from) calls. Both the decomposition and the combine order
/// are independent of `threads`, so the result is bit-identical at any
/// thread count — including the inline-serial path taken for threads <= 1 or
/// nested regions, which runs the very same chunk/combine structure.
///
/// T must be copy-constructible (each chunk's partial starts as a copy of
/// `identity`). combine receives its right operand by rvalue reference so
/// vector-valued accumulators can be absorbed without copying.
template <typename T, typename Body, typename Combine>
T parallel_reduce(index_t begin, index_t end, const T& identity, Body&& body,
                  Combine&& combine, unsigned threads = default_thread_count()) {
  const index_t n = end - begin;
  if (n <= 0) return identity;
  const index_t nchunks = reduce_chunk_count(n);
  const index_t q = n / nchunks;
  const index_t r = n % nchunks;
  std::vector<T> partials(static_cast<std::size_t>(nchunks), identity);
  parallel_for(
      0, nchunks,
      [&](index_t c) {
        // Chunk c covers q iterations, plus one extra for the first r chunks.
        const index_t lo = begin + c * q + std::min(c, r);
        const index_t hi = lo + q + (c < r ? 1 : 0);
        T& acc = partials[static_cast<std::size_t>(c)];
        for (index_t i = lo; i < hi; ++i) body(acc, i);
      },
      threads);
  // Ordered pairwise tree: partials[i] absorbs partials[i + stride]. The
  // iteration order is a pure function of nchunks, hence of n alone.
  for (index_t stride = 1; stride < nchunks; stride *= 2) {
    for (index_t i = 0; i + stride < nchunks; i += 2 * stride) {
      combine(partials[static_cast<std::size_t>(i)],
              std::move(partials[static_cast<std::size_t>(i + stride)]));
    }
  }
  return std::move(partials[0]);
}

}  // namespace exaclim::common
