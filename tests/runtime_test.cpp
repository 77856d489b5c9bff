// Tests for runtime/: dependence inference, scheduler, tracing, and the
// runtime-parallel mixed-precision Cholesky.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "common/error.hpp"

#include "common/rng.hpp"
#include "linalg/precision_policy.hpp"
#include "runtime/failure.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/tiled_cholesky_rt.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::runtime;

Task make_task(std::function<void()> fn, std::vector<DataAccess> accesses,
               int priority = 0) {
  Task t;
  t.fn = std::move(fn);
  t.accesses = std::move(accesses);
  t.priority = priority;
  return t;
}

// ---------- dependence inference ----------------------------------------------

TEST(TaskGraph, ReadAfterWriteEdge) {
  TaskGraph g;
  const auto h = g.create_handle("x");
  const TaskId w = g.submit(make_task(nullptr, {{h, Access::Write}}));
  const TaskId r = g.submit(make_task(nullptr, {{h, Access::Read}}));
  ASSERT_EQ(g.task(w).successors.size(), 1u);
  EXPECT_EQ(g.task(w).successors[0], r);
  EXPECT_EQ(g.task(r).num_predecessors, 1);
}

TEST(TaskGraph, WriteAfterReadEdges) {
  TaskGraph g;
  const auto h = g.create_handle("x");
  g.submit(make_task(nullptr, {{h, Access::Write}}));
  const TaskId r1 = g.submit(make_task(nullptr, {{h, Access::Read}}));
  const TaskId r2 = g.submit(make_task(nullptr, {{h, Access::Read}}));
  const TaskId w2 = g.submit(make_task(nullptr, {{h, Access::Write}}));
  // Both readers precede the second writer, plus the (transitively
  // redundant but harmless) write-after-write edge from the first writer.
  EXPECT_EQ(g.task(w2).num_predecessors, 3);
  EXPECT_EQ(g.task(r1).successors.size(), 1u);
  EXPECT_EQ(g.task(r2).successors[0], w2);
}

TEST(TaskGraph, WriteAfterWriteEdge) {
  TaskGraph g;
  const auto h = g.create_handle("x");
  const TaskId w1 = g.submit(make_task(nullptr, {{h, Access::Write}}));
  const TaskId w2 = g.submit(make_task(nullptr, {{h, Access::Write}}));
  ASSERT_EQ(g.task(w1).successors.size(), 1u);
  EXPECT_EQ(g.task(w1).successors[0], w2);
}

TEST(TaskGraph, ConcurrentReadersShareNoEdges) {
  TaskGraph g;
  const auto h = g.create_handle("x");
  g.submit(make_task(nullptr, {{h, Access::Write}}));
  const TaskId r1 = g.submit(make_task(nullptr, {{h, Access::Read}}));
  const TaskId r2 = g.submit(make_task(nullptr, {{h, Access::Read}}));
  EXPECT_TRUE(g.task(r1).successors.empty());
  EXPECT_TRUE(g.task(r2).successors.empty());
}

TEST(TaskGraph, ReadWriteActsAsBoth) {
  TaskGraph g;
  const auto h = g.create_handle("x");
  const TaskId a = g.submit(make_task(nullptr, {{h, Access::ReadWrite}}));
  const TaskId b = g.submit(make_task(nullptr, {{h, Access::ReadWrite}}));
  ASSERT_EQ(g.task(a).successors.size(), 1u);
  EXPECT_EQ(g.task(a).successors[0], b);
}

TEST(TaskGraph, IndependentHandlesIndependentTasks) {
  TaskGraph g;
  const auto h1 = g.create_handle("a");
  const auto h2 = g.create_handle("b");
  const TaskId t1 = g.submit(make_task(nullptr, {{h1, Access::Write}}));
  const TaskId t2 = g.submit(make_task(nullptr, {{h2, Access::Write}}));
  EXPECT_TRUE(g.task(t1).successors.empty());
  EXPECT_EQ(g.task(t2).num_predecessors, 0);
}

TEST(TaskGraph, CriticalPathOfChainAndDiamond) {
  TaskGraph g;
  const auto h = g.create_handle("x");
  for (int i = 0; i < 5; ++i) {
    g.submit(make_task(nullptr, {{h, Access::ReadWrite}}));
  }
  EXPECT_EQ(g.critical_path_tasks(), 5);

  TaskGraph d;
  const auto a = d.create_handle("a");
  const auto b = d.create_handle("b");
  const auto c = d.create_handle("c");
  d.submit(make_task(nullptr, {{a, Access::Write}}));           // root
  d.submit(make_task(nullptr, {{a, Access::Read}, {b, Access::Write}}));
  d.submit(make_task(nullptr, {{a, Access::Read}, {c, Access::Write}}));
  d.submit(make_task(nullptr, {{b, Access::Read}, {c, Access::Read}}));
  EXPECT_EQ(d.critical_path_tasks(), 3);
  EXPECT_TRUE(d.validate());
}

TEST(TaskGraph, WeightedCriticalPath) {
  TaskGraph g;
  const auto h = g.create_handle("x");
  Task t1 = make_task(nullptr, {{h, Access::ReadWrite}});
  t1.weight = 10.0;
  Task t2 = make_task(nullptr, {{h, Access::ReadWrite}});
  t2.weight = 5.0;
  g.submit(std::move(t1));
  g.submit(std::move(t2));
  EXPECT_DOUBLE_EQ(g.critical_path_weight(), 15.0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 15.0);
}

TEST(TaskGraph, RejectsUnknownHandle) {
  TaskGraph g;
  DataHandle bogus{42};
  EXPECT_THROW(g.submit(make_task(nullptr, {{bogus, Access::Read}})),
               InvalidArgument);
}

// ---------- scheduler -------------------------------------------------------------

class SchedulerThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(SchedulerThreads, ExecutesChainInOrder) {
  TaskGraph g;
  const auto h = g.create_handle("x");
  std::vector<int> order;
  std::mutex mu;
  for (int i = 0; i < 50; ++i) {
    g.submit(make_task(
        [&order, &mu, i] {
          std::lock_guard<std::mutex> lock(mu);
          order.push_back(i);
        },
        {{h, Access::ReadWrite}}));
  }
  SchedulerOptions opt;
  opt.threads = GetParam();
  const RunStats stats = execute(g, opt);
  EXPECT_EQ(stats.tasks_executed, 50);
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST_P(SchedulerThreads, FanOutFanInRespectsBarrier) {
  TaskGraph g;
  const auto root = g.create_handle("root");
  std::vector<DataHandle> mids;
  std::atomic<int> mid_done{0};
  std::atomic<bool> sink_saw_all{false};
  g.submit(make_task([] {}, {{root, Access::Write}}));
  std::vector<DataAccess> sink_accesses;
  for (int i = 0; i < 32; ++i) {
    mids.push_back(g.create_handle("m" + std::to_string(i)));
    g.submit(make_task([&mid_done] { ++mid_done; },
                       {{root, Access::Read}, {mids.back(), Access::Write}}));
    sink_accesses.push_back({mids.back(), Access::Read});
  }
  g.submit(make_task([&] { sink_saw_all = (mid_done.load() == 32); },
                     std::move(sink_accesses)));
  SchedulerOptions opt;
  opt.threads = GetParam();
  execute(g, opt);
  EXPECT_TRUE(sink_saw_all.load());
}

INSTANTIATE_TEST_SUITE_P(Sweep, SchedulerThreads,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

TEST(Scheduler, PropagatesTaskExceptions) {
  TaskGraph g;
  const auto h = g.create_handle("x");
  g.submit(make_task([] { throw NumericalError("bad pivot"); },
                     {{h, Access::Write}}));
  g.submit(make_task([] {}, {{h, Access::Read}}));
  SchedulerOptions opt;
  opt.threads = 4;
  // Unrecoverable task errors surface as a structured TaskFailure that keeps
  // the original message as the cause.
  try {
    execute(g, opt);
    FAIL() << "expected TaskFailure";
  } catch (const TaskFailure& e) {
    EXPECT_NE(std::string(e.what()).find("bad pivot"), std::string::npos);
    EXPECT_EQ(e.attempts(), 1);
  }
}

TEST(Scheduler, EmptyGraphIsFine) {
  TaskGraph g;
  const RunStats stats = execute(g);
  EXPECT_EQ(stats.tasks_executed, 0);
}

TEST(Scheduler, ReportsBusyAndEfficiency) {
  TaskGraph g;
  for (int i = 0; i < 64; ++i) {
    const auto h = g.create_handle("");
    g.submit(make_task(
        [] {
          volatile double x = 0.0;
          for (int j = 0; j < 20000; ++j) x = x + 1.0;
        },
        {{h, Access::Write}}));
  }
  SchedulerOptions opt;
  opt.threads = 4;
  const RunStats stats = execute(g, opt);
  EXPECT_GT(stats.busy_seconds, 0.0);
  EXPECT_GT(stats.parallel_efficiency(), 0.0);
  EXPECT_LE(stats.parallel_efficiency(), 1.01);
}

TEST(Scheduler, CollectsTraceEvents) {
  TaskGraph g;
  const auto h = g.create_handle("x");
  Task t = make_task([] {}, {{h, Access::Write}});
  t.name = "MYTASK";
  g.submit(std::move(t));
  Trace trace;
  SchedulerOptions opt;
  opt.threads = 2;
  opt.collect_trace = true;
  execute(g, opt, &trace);
  ASSERT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.events()[0].name, "MYTASK");

  const std::string path = ::testing::TempDir() + "/exaclim_trace.json";
  trace.write_chrome_json(path);
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("MYTASK"), std::string::npos);
  std::filesystem::remove(path);
}

// ---------- runtime Cholesky ---------------------------------------------------------

linalg::Matrix decaying_spd(index_t n) {
  linalg::Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = std::exp(-std::abs(static_cast<double>(i - j)) / 25.0);
    }
    a(i, i) += 1e-3;
  }
  return a;
}

struct RtCase {
  linalg::PrecisionVariant variant;
  linalg::ConversionPlacement placement;
  unsigned threads;
  double tolerance;
};

class RtCholesky : public ::testing::TestWithParam<RtCase> {};

TEST_P(RtCholesky, FactorsCorrectly) {
  const auto [variant, placement, threads, tol] = GetParam();
  const index_t n = 256;
  const index_t nb = 64;
  const index_t nt = (n + nb - 1) / nb;
  linalg::Matrix a = decaying_spd(n);
  auto tiled = linalg::TiledSymmetricMatrix::from_dense(
      a, nb, linalg::make_band_policy(nt, variant));
  RtCholeskyOptions opt;
  opt.placement = placement;
  opt.threads = threads;
  const RtCholeskyResult result = cholesky_tiled_parallel(tiled, opt);
  EXPECT_EQ(result.run.tasks_executed, result.total_tasks);
  const linalg::Matrix l = tiled.to_dense(true);
  EXPECT_LT(linalg::cholesky_residual(a, l), tol);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RtCholesky,
    ::testing::Values(
        RtCase{linalg::PrecisionVariant::DP,
               linalg::ConversionPlacement::Sender, 1, 1e-13},
        RtCase{linalg::PrecisionVariant::DP,
               linalg::ConversionPlacement::Sender, 8, 1e-13},
        RtCase{linalg::PrecisionVariant::DP_SP,
               linalg::ConversionPlacement::Sender, 8, 1e-6},
        RtCase{linalg::PrecisionVariant::DP_SP,
               linalg::ConversionPlacement::Receiver, 8, 1e-6},
        RtCase{linalg::PrecisionVariant::DP_SP_HP,
               linalg::ConversionPlacement::Sender, 8, 5e-3},
        RtCase{linalg::PrecisionVariant::DP_HP,
               linalg::ConversionPlacement::Sender, 8, 5e-3},
        RtCase{linalg::PrecisionVariant::DP_HP,
               linalg::ConversionPlacement::Receiver, 8, 5e-3},
        RtCase{linalg::PrecisionVariant::DP_HP,
               linalg::ConversionPlacement::Sender, 24, 5e-3}));

TEST(RtCholesky, OneThreadMatchesEightThreadsExactly) {
  // threads = 1 is the sequential schedule; eight threads must reproduce its
  // factor bit for bit (same kernels, same update order per tile).
  const index_t n = 192;
  const index_t nb = 48;
  const index_t nt = (n + nb - 1) / nb;
  linalg::Matrix a = decaying_spd(n);
  auto factor = [&](unsigned threads) {
    auto t = linalg::TiledSymmetricMatrix::from_dense(
        a, nb, linalg::make_band_policy(nt, linalg::PrecisionVariant::DP_HP));
    RtCholeskyOptions opt;
    opt.threads = threads;
    cholesky_tiled_parallel(t, opt);
    return t.to_dense(true);
  };
  const linalg::Matrix l1 = factor(1);
  const linalg::Matrix l2 = factor(8);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      EXPECT_EQ(l1(i, j), l2(i, j)) << i << "," << j;
    }
  }
}

TEST(RtCholesky, SenderCreatesConvertTasks) {
  const index_t n = 256;
  const index_t nb = 64;
  const index_t nt = (n + nb - 1) / nb;
  linalg::Matrix a = decaying_spd(n);
  auto tiled = linalg::TiledSymmetricMatrix::from_dense(
      a, nb, linalg::make_band_policy(nt, linalg::PrecisionVariant::DP_HP));
  RtCholeskyOptions opt;
  opt.placement = linalg::ConversionPlacement::Sender;
  const auto sender = cholesky_tiled_parallel(tiled, opt);
  EXPECT_GT(sender.convert_tasks, 0);

  auto tiled2 = linalg::TiledSymmetricMatrix::from_dense(
      a, nb, linalg::make_band_policy(nt, linalg::PrecisionVariant::DP_HP));
  opt.placement = linalg::ConversionPlacement::Receiver;
  const auto receiver = cholesky_tiled_parallel(tiled2, opt);
  EXPECT_EQ(receiver.convert_tasks, 0);
  EXPECT_GT(receiver.element_conversions, sender.element_conversions);
}

TEST(RtCholesky, GraphValidatesAndHasExpectedShape) {
  const index_t n = 320;
  const index_t nb = 64;
  const index_t nt = 5;
  linalg::Matrix a = decaying_spd(n);
  auto tiled = linalg::TiledSymmetricMatrix::from_dense(
      a, nb, linalg::make_band_policy(nt, linalg::PrecisionVariant::DP));
  CholeskyGraph builder(tiled, linalg::ConversionPlacement::Sender);
  EXPECT_TRUE(builder.graph().validate());
  // nt + nt(nt-1) + nt(nt-1)(nt-2)/6 kernel tasks, no converts for DP.
  EXPECT_EQ(builder.graph().num_tasks(), 5 + 20 + 10);
  EXPECT_EQ(builder.convert_tasks(), 0);
  // Critical path of tile Cholesky is ~3(nt-1)+1 tasks for DP.
  EXPECT_GE(builder.graph().critical_path_tasks(), nt);
}

TEST(RtCholesky, PropagatesNonPdFailure) {
  const index_t n = 128;
  linalg::Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) a(i, i) = -1.0;
  auto tiled = linalg::TiledSymmetricMatrix::from_dense(
      a, 32, linalg::make_band_policy(4, linalg::PrecisionVariant::DP));
  RtCholeskyOptions opt;
  opt.threads = 4;
  try {
    cholesky_tiled_parallel(tiled, opt);
    FAIL() << "expected TaskFailure";
  } catch (const TaskFailure& e) {
    EXPECT_EQ(e.kind(), "POTRF");
    EXPECT_EQ(e.row(), 0);
    EXPECT_EQ(e.col(), 0);
  }
}

}  // namespace
