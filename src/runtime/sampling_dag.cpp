#include "runtime/sampling_dag.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace exaclim::runtime {

namespace {

EffectPrec storage_effect_prec(linalg::PackedStorage storage) {
  switch (storage) {
    case linalg::PackedStorage::F64: return EffectPrec::F64;
    case linalg::PackedStorage::F32: return EffectPrec::F32;
    case linalg::PackedStorage::F16Scaled: return EffectPrec::F16;
  }
  return EffectPrec::Unspecified;
}

}  // namespace

std::uint64_t BatchControl::poll(std::chrono::steady_clock::time_point now) {
  std::uint64_t expired = 0;
  const auto k = static_cast<index_t>(deadlines.size());
  for (index_t i = 0; i < k; ++i) {
    const auto& d = deadlines[static_cast<std::size_t>(i)];
    if (d != std::chrono::steady_clock::time_point::max() && now >= d) {
      expired |= std::uint64_t{1} << i;
    }
  }
  std::uint64_t prev = cancelled.load(std::memory_order_acquire);
  if ((expired & ~prev) != 0) {
    prev = cancelled.fetch_or(expired, std::memory_order_acq_rel);
  }
  return prev | expired;
}

TaskGraph build_sampling_dag(const linalg::PackedFactorView& factor,
                             const double* z, double* x, index_t k_cols,
                             BatchControl* control,
                             const SamplingDagOptions& options) {
  EXACLIM_CHECK(factor.n > 0, "sampling DAG needs a non-empty factor");
  EXACLIM_CHECK(k_cols >= 1 && k_cols <= BatchControl::kMaxBatch,
                "sampling batch width must be in [1, 64]");
  EXACLIM_CHECK(options.tile > 0, "sampling tile must be positive");
  EXACLIM_CHECK(control == nullptr ||
                    static_cast<index_t>(control->deadlines.size()) == k_cols,
                "BatchControl deadlines must be sized to the batch width");

  const index_t n = factor.n;
  const index_t tile = options.tile;
  const index_t nb = (n + tile - 1) / tile;
  const EffectPrec l_prec = storage_effect_prec(factor.storage);

  TaskGraph graph;

  // One logical tile grid holds all three operands: factor block (bi, bj) at
  // its own coordinates, Z block row j in column nb, X block row i in column
  // nb + 1. The coordinates never collide (bj <= bi < nb), every handle
  // lives on the Storage plane (the data is caller-owned panels and the
  // mapped factor — nothing is a CONVERT-produced copy), so the static
  // verifier's conflict/ordering and effect-matching rules apply verbatim.
  std::vector<DataHandle> l_handles(
      static_cast<std::size_t>(nb * (nb + 1) / 2));
  std::vector<DataHandle> z_handles(static_cast<std::size_t>(nb));
  std::vector<DataHandle> x_handles(static_cast<std::size_t>(nb));
  auto l_handle = [&](index_t bi, index_t bj) -> DataHandle& {
    return l_handles[static_cast<std::size_t>(bi * (bi + 1) / 2 + bj)];
  };
  for (index_t b = 0; b < nb; ++b) {
    z_handles[static_cast<std::size_t>(b)] = graph.create_handle(
        "z(" + std::to_string(b) + ")",
        TileCoord{b, nb, TilePlane::Storage, EffectPrec::F64});
    x_handles[static_cast<std::size_t>(b)] = graph.create_handle(
        "x(" + std::to_string(b) + ")",
        TileCoord{b, nb + 1, TilePlane::Storage, EffectPrec::F64});
    for (index_t bj = 0; bj <= b; ++bj) {
      l_handle(b, bj) = graph.create_handle(
          "L(" + std::to_string(b) + "," + std::to_string(bj) + ")",
          TileCoord{b, bj, TilePlane::Storage, l_prec});
    }
  }

  // Submission order: X block rows outer, factor block columns inner
  // ascending. The ReadWrite accesses on x(bi) make the dependence inference
  // chain the bj passes of one block row in that exact order, so each output
  // column accumulates its sum over c strictly ascending — the fixed order
  // that makes a request's draw bit-identical for any batch width, co-batch
  // set, or thread count. Distinct block rows share no writable handle and
  // run in parallel.
  for (index_t bi = 0; bi < nb; ++bi) {
    const index_t r0 = bi * tile;
    const index_t r1 = std::min(n, r0 + tile);
    for (index_t bj = 0; bj <= bi; ++bj) {
      const index_t c0 = bj * tile;
      const index_t c1 = std::min(n, c0 + tile);
      Task task;
      task.name = "sample(" + std::to_string(bi) + "," + std::to_string(bj) +
                  ")";
      task.kind = TaskKind::Sample;
      task.home_row = bi;
      task.home_col = bj;
      // Diagonal blocks are triangular: roughly half the multiply-adds.
      const double block =
          static_cast<double>(r1 - r0) * static_cast<double>(c1 - c0);
      task.weight = (bi == bj ? block : 2.0 * block) *
                    static_cast<double>(k_cols);
      const std::uint64_t slow_key =
          options.batch_key * 0x9E3779B97F4A7C15ull +
          static_cast<std::uint64_t>(bi * nb + bj);
      // The view is captured by value: the graph may outlive the caller's
      // view object (e.g. one built from model.factor()), never its bytes.
      task.fn = [factor, z, x, k_cols, control, r0, r1, c0, c1, slow_key] {
        // Cooperative cancellation boundary: a column whose deadline has
        // passed is masked out of this and every later block pass. Injected
        // serve latency (slow-task) fires here, inside the task body, after
        // the deadline poll — exactly where a slow kernel would stall.
        std::uint64_t skip = 0;
        if (control != nullptr) {
          skip = control->poll(std::chrono::steady_clock::now());
        }
        common::FaultInjector::instance().maybe_slow_task(slow_key);
        linalg::sample_apply_packed(factor, r0, r1, c0, c1, z, x, k_cols,
                                    skip);
      };
      task.accesses = {{l_handle(bi, bj), Access::Read},
                       {z_handles[static_cast<std::size_t>(bj)], Access::Read},
                       {x_handles[static_cast<std::size_t>(bi)],
                        Access::ReadWrite}};
      task.effects = {
          {bi, bj, Access::Read, TilePlane::Storage, l_prec},
          {bj, nb, Access::Read, TilePlane::Storage, EffectPrec::F64},
          {bi, nb + 1, Access::ReadWrite, TilePlane::Storage,
           EffectPrec::F64}};
      graph.submit(std::move(task));
    }
  }
  return graph;
}

RunStats sample_panel(const linalg::PackedFactorView& factor,
                      std::uint64_t seed,
                      std::span<const std::uint64_t> stream_ids,
                      SamplePanel& panel, BatchControl* control,
                      const SamplingDagOptions& dag_options,
                      const SchedulerOptions& scheduler_options) {
  const auto k_cols = static_cast<index_t>(stream_ids.size());
  const index_t n = factor.n;
  panel.width = k_cols;
  panel.z.resize(static_cast<std::size_t>(n * k_cols));
  // Eight columns are one 64-byte line of a z row, so column groups of 8
  // fill in parallel without sharing a line; each column's stream still
  // runs sequentially over c, so the bytes do not depend on the split.
  constexpr index_t kFillGroup = 8;
  const common::Rng master(seed);
  double* z = panel.z.data();
  common::parallel_for(
      0, (k_cols + kFillGroup - 1) / kFillGroup,
      [&](index_t g) {
        const index_t k1 = std::min(k_cols, (g + 1) * kFillGroup);
        for (index_t k = g * kFillGroup; k < k1; ++k) {
          common::Rng stream =
              master.split(stream_ids[static_cast<std::size_t>(k)]);
          for (index_t c = 0; c < n; ++c) z[c * k_cols + k] = stream.normal();
        }
      },
      scheduler_options.threads == 0 ? common::default_thread_count()
                                     : scheduler_options.threads);
  panel.x.assign(static_cast<std::size_t>(n * k_cols), 0.0);
  const TaskGraph graph = build_sampling_dag(
      factor, panel.z.data(), panel.x.data(), k_cols, control, dag_options);
  return execute(graph, scheduler_options);
}

std::uint64_t emulation_stream_id(EmulationStream kind, index_t member,
                                  index_t step) {
  EXACLIM_CHECK(member >= 0 && member < (index_t{1} << 30) && step >= 0 &&
                    step < (index_t{1} << 32),
                "emulation stream ids need member < 2^30 and step < 2^32");
  return (static_cast<std::uint64_t>(kind) << 62) |
         (static_cast<std::uint64_t>(member) << 32) |
         static_cast<std::uint64_t>(step);
}

}  // namespace exaclim::runtime
