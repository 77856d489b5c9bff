// Determinism guarantees: chunk-stable parallel reductions make training
// bit-reproducible across thread counts, and checkpoint/resume replays to
// the same bytes. Labelled `determinism` in CTest; the tier-1 acceptance
// check is the byte comparison of EXACMDL4 model artifacts below.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "climate/synthetic_esm.hpp"
#include "common/io.hpp"
#include "common/parallel.hpp"
#include "core/emulator.hpp"
#include "core/multivariate.hpp"
#include "core/serialize.hpp"

namespace {

using namespace exaclim;

// ---------- parallel_reduce ---------------------------------------------------

TEST(ParallelReduce, BitIdenticalAcrossThreadCounts) {
  // FP addition is not associative, so a reduction that partitions by thread
  // count gives different bits at --threads 1 vs 4. parallel_reduce chunks by
  // a fixed decomposition and combines in a fixed order instead: every width
  // must produce the exact same double.
  const index_t n = 100000;
  std::vector<double> values(static_cast<std::size_t>(n));
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (auto& v : values) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v = static_cast<double>(state >> 11) * 0x1.0p-53 - 0.5;
  }
  auto sum_with = [&](unsigned threads) {
    return common::parallel_reduce(
        index_t{0}, n, 0.0,
        [&](double& acc, index_t i) {
          acc += values[static_cast<std::size_t>(i)];
        },
        [](double& into, double from) { into += from; }, threads);
  };
  const double s1 = sum_with(1);
  for (unsigned t : {2u, 3u, 4u, 8u, 16u}) {
    EXPECT_EQ(s1, sum_with(t)) << "threads=" << t;
  }
  // And it is not trivially zero.
  EXPECT_NE(s1, 0.0);
}

TEST(ParallelReduce, EmptyAndSingleElementRanges) {
  auto body = [](index_t& acc, index_t i) { acc += i; };
  auto comb = [](index_t& into, index_t from) { into += from; };
  EXPECT_EQ(common::parallel_reduce(index_t{5}, index_t{5}, index_t{-7}, body,
                                    comb, 4),
            -7);
  EXPECT_EQ(common::parallel_reduce(index_t{3}, index_t{4}, index_t{0}, body,
                                    comb, 4),
            3);
}

TEST(ParallelReduce, OrderedCombineSeesChunksInIndexOrder) {
  // Record which chunk produced the first element: after the pairwise tree,
  // partial 0 must still be the accumulator (its value merged left-to-right
  // pairs), so reducing "first index seen" yields chunk 0's first index.
  const index_t n = 4096;
  const index_t first = common::parallel_reduce(
      index_t{0}, n, index_t{-1},
      [](index_t& acc, index_t i) {
        if (acc < 0) acc = i;
      },
      [](index_t& into, index_t from) {
        if (into < 0) into = from;
      },
      8);
  EXPECT_EQ(first, 0);
}

// ---------- end-to-end training -----------------------------------------------

struct TempFile {
  explicit TempFile(const std::string& name)
      : path(::testing::TempDir() + name) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

climate::SyntheticEsmConfig tiny_esm(sht::GridShape grid = {9, 16}) {
  climate::SyntheticEsmConfig cfg;
  cfg.band_limit = 8;
  cfg.grid = grid;
  cfg.num_years = 4;
  cfg.steps_per_year = 48;
  cfg.num_ensembles = 2;
  cfg.weather_scale = 2.0;
  return cfg;
}

core::EmulatorConfig tiny_config() {
  core::EmulatorConfig cfg;
  cfg.band_limit = 8;
  cfg.ar_order = 2;
  cfg.harmonics = 2;
  cfg.steps_per_year = 48;
  cfg.tile_size = 16;
  return cfg;
}

std::vector<unsigned char> train_model_bytes(core::EmulatorConfig cfg,
                                             const std::string& tag,
                                             sht::GridShape grid = {9, 16}) {
  const auto esm = climate::generate_synthetic_esm(tiny_esm(grid));
  core::ClimateEmulator emulator(cfg);
  emulator.train(esm.data, esm.forcing);
  TempFile model("determinism_" + tag + ".bin");
  core::save_emulator(emulator, model.path, core::FactorStorage::FP64);
  return common::read_file_bytes(model.path);
}

TEST(TrainDeterminism, ModelBytesIdenticalAcrossThreadCounts) {
  // The acceptance criterion of the deterministic-reduction work: two train
  // runs at different --threads produce byte-identical EXACMDL4 artifacts.
  // The grids cover every FFT path: 16-point rings (radix 4), 30 = 2*3*5
  // longitudes with 28 = 4*7 colatitude rings (radices 2, 3, 4, 5, 7), and
  // 22 = 2*11 longitudes (Bluestein), each reusing per-thread FFT scratch.
  for (const sht::GridShape grid : {sht::GridShape{9, 16},
                                    sht::GridShape{15, 30},
                                    sht::GridShape{9, 22}}) {
    SCOPED_TRACE("grid " + std::to_string(grid.nlat) + "x" +
                 std::to_string(grid.nlon));
    core::EmulatorConfig cfg = tiny_config();
    cfg.threads = 1;
    const auto bytes1 = train_model_bytes(cfg, "t1", grid);
    cfg.threads = 4;
    const auto bytes4 = train_model_bytes(cfg, "t4", grid);
    ASSERT_EQ(bytes1.size(), bytes4.size());
    EXPECT_TRUE(bytes1 == bytes4)
        << "model artifact differs between --threads 1 and --threads 4";
  }
}

TEST(TrainDeterminism, RepeatedRunsIdentical) {
  core::EmulatorConfig cfg = tiny_config();
  cfg.threads = 4;
  const auto a = train_model_bytes(cfg, "rep_a");
  const auto b = train_model_bytes(cfg, "rep_b");
  EXPECT_TRUE(a == b);
}

TEST(TrainDeterminism, CheckpointedAndResumedRunsMatchPlain) {
  // Kill-and-resume determinism: a run that checkpoints every few kernel
  // tasks, and a second run resumed from its final snapshot, must both
  // reproduce the uninterrupted artifact bit for bit.
  const auto plain = train_model_bytes(tiny_config(), "plain");

  TempFile ckpt("determinism_snapshot.bin");
  core::EmulatorConfig cfg = tiny_config();
  cfg.threads = 4;
  cfg.checkpoint_path = ckpt.path;
  cfg.checkpoint_every = 4;
  const auto checkpointed = train_model_bytes(cfg, "ckpt");
  EXPECT_TRUE(plain == checkpointed)
      << "periodic checkpointing perturbed the trained model";

  core::EmulatorConfig rcfg = tiny_config();
  rcfg.threads = 2;
  rcfg.resume_path = ckpt.path;
  const auto resumed = train_model_bytes(rcfg, "resume");
  EXPECT_TRUE(plain == resumed)
      << "resume from the final checkpoint diverged from the plain run";
}

// ---------- emulation -----------------------------------------------------------

// Innovations come from per-(member, step) streams through the panel engine,
// whose accumulation order is fixed, and the nugget streams are per
// (member, step) too: neither the thread count nor the sampling tile may
// move a bit of the emulation.

TEST(EmulateDeterminism, UnivariateBytesIdenticalAcrossThreadsAndTiles) {
  // tile_size also sets the training Cholesky's blocking, which changes the
  // factor's low-order bits, so every configuration emulates one trained
  // state installed through restore().
  const auto esm = climate::generate_synthetic_esm(tiny_esm());
  core::ClimateEmulator trained(tiny_config());
  trained.train(esm.data, esm.forcing);
  const auto reference = trained.emulate(100, 2, esm.forcing, 11).raw();
  for (const unsigned threads : {1u, 4u}) {
    for (const index_t tile : {16, 64}) {
      core::EmulatorConfig cfg = tiny_config();
      cfg.threads = threads;
      cfg.tile_size = tile;
      core::ClimateEmulator emulator(cfg);
      emulator.restore(trained.grid(), trained.trend_models(),
                       trained.ar_models(), trained.cholesky_factor(),
                       trained.nugget_variance());
      EXPECT_TRUE(emulator.emulate(100, 2, esm.forcing, 11).raw() == reference)
          << "threads=" << threads << " tile=" << tile;
    }
  }
}

TEST(EmulateDeterminism, MultivariateBytesIdenticalAcrossThreadsAndTiles) {
  // MultiVariateEmulator has no restore(); training is bit-reproducible
  // across threads, so each tile size trains once per thread count and the
  // two emulations must agree. At V = 1 it must also equal the univariate
  // emulator, which covers the tile axis through the test above.
  const auto data = climate::generate_bivariate_esm(tiny_esm(), 0.6);
  for (const index_t tile : {16, 64}) {
    std::vector<std::vector<double>> runs;
    for (const unsigned threads : {1u, 4u}) {
      core::EmulatorConfig cfg = tiny_config();
      cfg.threads = threads;
      cfg.tile_size = tile;
      core::MultiVariateEmulator joint(cfg);
      joint.train({&data.primary, &data.secondary}, data.forcing);
      const auto emu = joint.emulate(100, 2, data.forcing, 11);
      std::vector<double> bytes = emu[0].raw();
      bytes.insert(bytes.end(), emu[1].raw().begin(), emu[1].raw().end());
      runs.push_back(std::move(bytes));

      core::MultiVariateEmulator single(cfg);
      single.train({&data.primary}, data.forcing);
      core::ClimateEmulator univariate(cfg);
      univariate.train(data.primary, data.forcing);
      EXPECT_TRUE(single.emulate(100, 2, data.forcing, 11)[0].raw() ==
                  univariate.emulate(100, 2, data.forcing, 11).raw())
          << "threads=" << threads << " tile=" << tile;
    }
    EXPECT_TRUE(runs[0] == runs[1]) << "tile=" << tile;
  }
}

}  // namespace
