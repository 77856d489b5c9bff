// Serving robustness contract: per-request bit-reproducibility regardless
// of batching and concurrency, deadline misses as structured errors (never
// hangs), deterministic load shedding under burst injection, clean drain,
// and lazy CRC validation of the mmap'd frozen model (a flipped bit throws
// IoError naming the byte offset on first touch, not at open).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "climate/synthetic_esm.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/framing.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "core/emulator.hpp"
#include "core/serialize.hpp"
#include "serve/sampler.hpp"
#include "serve/service.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::serve;

constexpr std::uint32_t kFactorSection = 4;  // serialize.cpp kSectionFactor

/// One trained-and-frozen fp64 model shared by every case.
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    climate::SyntheticEsmConfig data_cfg;
    data_cfg.band_limit = 6;
    data_cfg.grid = {7, 12};
    data_cfg.num_years = 2;
    data_cfg.steps_per_year = 32;
    data_cfg.num_ensembles = 2;
    const auto esm = climate::generate_synthetic_esm(data_cfg);
    core::EmulatorConfig cfg;
    cfg.band_limit = 6;
    cfg.ar_order = 2;
    cfg.harmonics = 2;
    cfg.steps_per_year = 32;
    cfg.tile_size = 25;
    core::ClimateEmulator emulator(cfg);
    emulator.train(esm.data, esm.forcing);
    path_ = ::testing::TempDir() + "/exaclim_serve_model.bin";
    core::save_emulator(emulator, path_, core::FactorStorage::FP64);
    model_ = new core::FrozenModel(path_);
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    std::filesystem::remove(path_);
  }
  void TearDown() override { common::FaultInjector::instance().disarm(); }

  static std::vector<double> draw(BatchSampler& sampler,
                                  const std::vector<std::uint64_t>& ids,
                                  std::uint64_t want_id,
                                  bool degraded = false) {
    std::vector<SampleRequest> requests;
    index_t want_col = -1;
    for (std::uint64_t id : ids) {
      if (id == want_id) want_col = static_cast<index_t>(requests.size());
      SampleRequest r;
      r.request_id = id;
      requests.push_back(r);
    }
    const BatchOutcome outcome = sampler.run_batch(requests, degraded, 1);
    EXPECT_EQ(outcome.cancelled_mask, 0u);
    std::vector<double> out(static_cast<std::size_t>(sampler.dim()));
    sampler.extract_column(want_col, out.data());
    return out;
  }

  static std::string path_;
  static core::FrozenModel* model_;
};

std::string ServeTest::path_;
core::FrozenModel* ServeTest::model_ = nullptr;

// --- frozen artifact ---------------------------------------------------

TEST_F(ServeTest, FrozenModelHeaderMatchesSave) {
  EXPECT_EQ(model_->band_limit(), 6);
  EXPECT_EQ(model_->ar_order(), 2);
  EXPECT_EQ(model_->harmonics(), 2);
  EXPECT_EQ(model_->factor_storage(), core::FactorStorage::FP64);
  EXPECT_EQ(model_->factor_dim(), 36);  // band_limit^2 coefficients
  const linalg::PackedFactorView factor = model_->factor();
  EXPECT_EQ(factor.n, 36);
  EXPECT_EQ(factor.storage, linalg::PackedStorage::F64);
  EXPECT_EQ(factor.size_bytes,
            linalg::packed_factor_bytes(linalg::PackedStorage::F64, 36));
}

TEST_F(ServeTest, FrozenModelAgreesWithLoadEmulator) {
  // The zero-copy mmap view and the eager loader must expose the same
  // trend/AR/nugget state — same file, two readers.
  const core::ClimateEmulator loaded = core::load_emulator(path_);
  EXPECT_EQ(model_->trend_models().size(), loaded.trend_models().size());
  EXPECT_EQ(model_->ar_models().size(), loaded.ar_models().size());
  ASSERT_EQ(model_->nugget_variance().size(),
            loaded.nugget_variance().size());
  for (std::size_t i = 0; i < model_->nugget_variance().size(); ++i) {
    EXPECT_EQ(model_->nugget_variance()[i], loaded.nugget_variance()[i]);
  }
}

TEST_F(ServeTest, FlippedBitThrowsIoErrorWithByteOffsetOnFirstTouch) {
  auto bytes = common::read_file_bytes(path_);
  std::size_t factor_offset = 0;
  {
    const common::MappedFramedFile clean(path_, "EXACMDL4", "model file");
    factor_offset = clean.section_offset(kFactorSection);
  }
  bytes[factor_offset + 128] ^= 0x10;  // one bit, inside the factor payload
  const std::string p = ::testing::TempDir() + "/exaclim_serve_flip.bin";
  common::atomic_write_file(p, bytes.data(), bytes.size());

  // Open succeeds — frame structure is intact; only the payload is dirty.
  core::FrozenModel corrupt(p);
  EXPECT_EQ(corrupt.factor_dim(), 36);
  // First touch of the factor section CRC-validates and throws an IoError
  // naming the absolute byte offset; every later touch fails the same way.
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      (void)corrupt.factor();
      FAIL() << "corrupt factor section accepted";
    } catch (const IoError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(factor_offset)), std::string::npos)
          << what;
    }
  }
  std::filesystem::remove(p);
}

// --- RNG isolation -----------------------------------------------------

TEST_F(ServeTest, SameRequestIdSameBytesAcrossBatchCompositions) {
  SamplerOptions options;
  options.seed = 42;
  options.tile = 16;
  BatchSampler sampler(*model_, options);

  const auto alone = draw(sampler, {7}, 7);
  const auto batched = draw(sampler, {3, 7, 11, 19}, 7);
  const auto wide = draw(sampler, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 7);
  EXPECT_EQ(alone, batched);
  EXPECT_EQ(alone, wide);

  // Draws are non-trivial (the factor actually correlates the stream).
  double norm = 0.0;
  for (double v : alone) norm += v * v;
  EXPECT_GT(norm, 0.0);
}

TEST_F(ServeTest, SameRequestIdSameBytesAcrossThreadsAndTiles) {
  SamplerOptions base;
  base.seed = 42;
  base.tile = 16;
  BatchSampler reference(*model_, base);
  const auto expected = draw(reference, {5, 7}, 7);

  for (const index_t tile : {8, 32, 256}) {
    for (const unsigned threads : {1u, 2u}) {
      SamplerOptions options = base;
      options.tile = tile;
      options.threads = threads;
      BatchSampler sampler(*model_, options);
      EXPECT_EQ(draw(sampler, {7, 9, 13}, 7), expected)
          << "tile=" << tile << " threads=" << threads;
    }
  }
}

TEST_F(ServeTest, SamplingDagBuiltFromTemporaryViewMatchesNamedView) {
  // The graph keeps its own copy of the factor view, so one built straight
  // from model.factor() stays valid after the temporary dies (ASan reports
  // stack-use-after-scope if the view is captured by reference).
  const index_t n = model_->factor_dim();
  const index_t k = 3;
  std::vector<double> z(static_cast<std::size_t>(n * k));
  common::Rng rng(5);
  for (double& v : z) v = rng.normal();
  runtime::SamplingDagOptions options;
  options.tile = 8;

  std::vector<double> x_named(z.size(), 0.0);
  const linalg::PackedFactorView named = model_->factor();
  runtime::execute(runtime::build_sampling_dag(named, z.data(), x_named.data(),
                                               k, nullptr, options));

  std::vector<double> x_temp(z.size(), 0.0);
  const runtime::TaskGraph graph = runtime::build_sampling_dag(
      model_->factor(), z.data(), x_temp.data(), k, nullptr, options);
  runtime::execute(graph);
  EXPECT_EQ(x_temp, x_named);
}

TEST_F(ServeTest, ServiceDrawMatchesSamplerDraw) {
  SamplerOptions sampler_options;
  sampler_options.seed = 42;
  sampler_options.tile = 16;
  BatchSampler sampler(*model_, sampler_options);
  const auto expected = draw(sampler, {7}, 7);

  ServiceOptions options;
  options.sampler = sampler_options;
  SamplingService service(*model_, options);
  SampleRequest req;
  req.request_id = 7;
  const SampleResult result = service.submit(req).get();
  EXPECT_EQ(result.request_id, 7u);
  EXPECT_EQ(result.values, expected);
}

// --- deadlines ---------------------------------------------------------

TEST_F(ServeTest, ExpiredDeadlineIsStructuredErrorNotHang) {
  ServiceOptions options;
  options.sampler.tile = 16;
  SamplingService service(*model_, options);
  SampleRequest req;
  req.request_id = 21;
  req.deadline = std::chrono::steady_clock::now() -
                 std::chrono::milliseconds(10);  // already expired
  auto future = service.submit(req);
  EXPECT_THROW(future.get(), DeadlineError);
  const auto counters = service.counters();
  EXPECT_EQ(counters.deadline_missed, 1);
  EXPECT_EQ(counters.completed, 0);
}

TEST_F(ServeTest, SlowTaskDeadlineMissResolvesWithDeadlineError) {
  // Every task sleeps ~80 ms; a 5 ms budget cannot finish. The request
  // must resolve (structured error), not hang.
  common::FaultInjector::instance().arm(
      common::FaultPlan::parse("seed=3;slow-task=1.0;slow-ms=80"));
  ServiceOptions options;
  options.deadline_ms = 5.0;
  options.sampler.tile = 16;
  SamplingService service(*model_, options);
  SampleRequest req;
  req.request_id = 22;
  auto future = service.submit(req);
  try {
    (void)future.get();
    FAIL() << "deadline miss delivered a result";
  } catch (const DeadlineError& e) {
    EXPECT_EQ(e.request_id(), 22u);
    EXPECT_DOUBLE_EQ(e.budget_ms(), 5.0);
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
  EXPECT_GT(common::FaultInjector::instance().counts().slow_tasks, 0);
}

// --- admission control and burst shedding ------------------------------

TEST_F(ServeTest, QueueFullShedsDeterministicallyUnderBurst) {
  // burst=8 is the request-storm multiplier drivers read off the injector;
  // slow-task pins the engine inside batch 1 so admission is the only
  // moving part: with the queue pre-filled to depth, exactly the burst
  // overflow sheds, each with a structured OverloadError naming depth/limit.
  common::FaultInjector::instance().arm(
      common::FaultPlan::parse("seed=3;burst=8;slow-task=1.0;slow-ms=150"));
  const index_t burst =
      common::FaultInjector::instance().burst_factor();
  ASSERT_EQ(burst, 8);

  ServiceOptions options;
  options.queue_depth = 4;
  options.max_batch = 1;
  // tile 64 > factor dim: one tile task per batch, so each batch holds the
  // engine for exactly one slow-task sleep while admission is probed.
  options.sampler.tile = 64;
  SamplingService service(*model_, options);

  std::vector<std::future<SampleResult>> futures;
  SampleRequest first;
  first.request_id = 100;
  futures.push_back(service.submit(first));
  while (service.counters().in_flight == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Engine is pinned inside the slow batch: fill the queue, then burst.
  int shed = 0;
  for (index_t i = 0; i < options.queue_depth + burst; ++i) {
    SampleRequest req;
    req.request_id = 200 + static_cast<std::uint64_t>(i);
    try {
      futures.push_back(service.submit(req));
    } catch (const OverloadError& e) {
      ++shed;
      EXPECT_EQ(e.limit(), options.queue_depth);
      EXPECT_EQ(e.queued(), options.queue_depth);
    }
  }
  EXPECT_EQ(shed, burst);
  EXPECT_EQ(service.counters().shed, burst);

  for (auto& f : futures) EXPECT_NO_THROW((void)f.get());
  service.drain();
  const auto counters = service.counters();
  EXPECT_EQ(counters.completed + counters.shed, counters.submitted);
}

TEST_F(ServeTest, CountersAccountForEveryRequestUnderConcurrentClients) {
  common::FaultInjector::instance().arm(
      common::FaultPlan::parse("seed=5;slow-task=0.3;slow-ms=5"));
  ServiceOptions options;
  options.queue_depth = 8;
  options.max_batch = 4;
  options.deadline_ms = 30.0;
  options.sampler.tile = 16;
  SamplingService service(*model_, options);

  constexpr int kClients = 4;
  constexpr int kPerClient = 16;
  std::atomic<int> terminal{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        SampleRequest req;
        req.request_id = static_cast<std::uint64_t>(c) * 1000ull +
                         static_cast<std::uint64_t>(i);
        try {
          (void)service.submit(req).get();
        } catch (const Error&) {
        }
        terminal.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();
  service.drain();

  const auto counters = service.counters();
  EXPECT_EQ(terminal.load(), kClients * kPerClient);
  EXPECT_EQ(counters.submitted, kClients * kPerClient);
  EXPECT_EQ(counters.completed + counters.shed + counters.deadline_missed +
                counters.failed,
            counters.submitted);
  EXPECT_EQ(counters.queued, 0);
  EXPECT_EQ(counters.in_flight, 0);
}

// --- degradation ladder ------------------------------------------------

TEST_F(ServeTest, DegradedPlaneDrawStaysCloseToNative) {
  SamplerOptions options;
  options.seed = 42;
  options.tile = 16;
  BatchSampler sampler(*model_, options);
  const auto native = draw(sampler, {7}, 7, /*degraded=*/false);
  const auto degraded = draw(sampler, {7}, 7, /*degraded=*/true);
  EXPECT_TRUE(model_->degraded_plane_materialized());
  ASSERT_EQ(native.size(), degraded.size());
  double max_rel = 0.0;
  for (std::size_t i = 0; i < native.size(); ++i) {
    const double denom = std::max(1.0, std::abs(native[i]));
    max_rel = std::max(max_rel, std::abs(native[i] - degraded[i]) / denom);
  }
  EXPECT_GT(max_rel, 0.0);     // genuinely the fp32 plane
  EXPECT_LT(max_rel, 1e-4);    // but only fp32 rounding away
}

TEST_F(ServeTest, QueuePressureEngagesDegradationRungs) {
  common::FaultInjector::instance().arm(
      common::FaultPlan::parse("seed=3;slow-task=1.0;slow-ms=150"));
  ServiceOptions options;
  options.queue_depth = 4;
  options.max_batch = 4;
  options.degrade_batch_at = 0.5;
  options.degrade_plane_at = 0.75;
  options.sampler.tile = 64;  // one tile task per batch
  SamplingService service(*model_, options);

  std::vector<std::future<SampleResult>> futures;
  SampleRequest first;
  first.request_id = 300;
  futures.push_back(service.submit(first));
  while (service.counters().in_flight == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 4; ++i) {  // queue to full occupancy
    SampleRequest req;
    req.request_id = 301 + static_cast<std::uint64_t>(i);
    futures.push_back(service.submit(req));
  }
  for (auto& f : futures) EXPECT_NO_THROW((void)f.get());
  service.drain();
  const auto counters = service.counters();
  // The batch formed from the full queue must have engaged both rungs.
  EXPECT_GT(counters.shrunk_batches, 0);
  EXPECT_GT(counters.degraded_batches, 0);
  EXPECT_EQ(counters.completed, counters.submitted);
}

// --- drain -------------------------------------------------------------

TEST_F(ServeTest, DrainCompletesInFlightAndShedsNew) {
  ServiceOptions options;
  options.sampler.tile = 16;
  SamplingService service(*model_, options);
  SampleRequest req;
  req.request_id = 400;
  auto future = service.submit(req);
  service.drain();
  EXPECT_EQ(service.health(), Health::Stopped);
  EXPECT_EQ(future.get().values.size(),
            static_cast<std::size_t>(model_->factor_dim()));
  try {
    (void)service.submit(req);
    FAIL() << "post-drain submit accepted";
  } catch (const OverloadError& e) {
    EXPECT_NE(std::string(e.what()).find("draining"), std::string::npos);
  }
  service.drain();  // idempotent
}

// --- fault-injector serve kinds ----------------------------------------

TEST_F(ServeTest, FaultPlanParsesServeKinds) {
  const auto plan =
      common::FaultPlan::parse("burst=8;slow-task=0.5;slow-ms=20");
  EXPECT_EQ(plan.burst, 8);
  EXPECT_DOUBLE_EQ(plan.slow_p, 0.5);
  EXPECT_EQ(plan.slow_ms, 20);
  EXPECT_TRUE(plan.any());

  EXPECT_THROW(common::FaultPlan::parse("slow-task=1.5"), InvalidArgument);
  EXPECT_THROW(common::FaultPlan::parse("slow-ms=0"), InvalidArgument);
  EXPECT_THROW(common::FaultPlan::parse("burst=-1"), InvalidArgument);
  EXPECT_THROW(common::FaultPlan::parse("storm=2"), InvalidArgument);
}

TEST_F(ServeTest, BurstFactorZeroWhenDisarmed) {
  EXPECT_EQ(common::FaultInjector::instance().burst_factor(), 0);
}

}  // namespace
