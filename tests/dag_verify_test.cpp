// Static DAG race/ordering verifier + dynamic shadow checker. Labelled
// `analysis` in CTest. Green cases cover the real Cholesky builder DAGs
// (several tile grids, precision variants, both conversion placements, and
// checkpoint-resume pruned bitmaps); red cases are seeded mutants — deleted
// dependency edges and misdeclared effects — every one of which the verifier
// must diagnose. The last section proves a dynamic (shadow-checked) train
// run produces bit-identical artifacts to a static one.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/dag_verify.hpp"
#include "analysis/shadow_check.hpp"
#include "climate/synthetic_esm.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "core/emulator.hpp"
#include "core/serialize.hpp"
#include "linalg/precision_policy.hpp"
#include "runtime/failure.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/tiled_cholesky_rt.hpp"
#include "runtime/verify_mode.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::runtime;
using analysis::IssueKind;
using analysis::VerifyLimits;
using analysis::VerifyReport;
using linalg::ConversionPlacement;
using linalg::PrecisionVariant;

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

/// Builds the real mixed-precision Cholesky DAG for an nt x nt tile grid.
struct BuiltGraph {
  linalg::TiledSymmetricMatrix tiles;
  std::unique_ptr<CholeskyGraph> builder;

  BuiltGraph(index_t nt, PrecisionVariant variant,
             ConversionPlacement placement)
      : tiles(linalg::TiledSymmetricMatrix::from_dense(
            decaying_spd(nt * 16), 16,
            linalg::make_band_policy(nt, variant))) {
    builder = std::make_unique<CholeskyGraph>(tiles, placement);
  }

  TaskGraph& graph() { return builder->graph(); }
};

bool has_issue(const VerifyReport& report, IssueKind kind) {
  for (const auto& issue : report.issues) {
    if (issue.kind == kind) return true;
  }
  return false;
}

// ---------- green: real builder DAGs -----------------------------------------

TEST(DagVerify, GreenOnRealCholeskyDags) {
  for (const index_t nt : {index_t{1}, index_t{2}, index_t{4}, index_t{8}}) {
    for (const auto variant :
         {PrecisionVariant::DP, PrecisionVariant::DP_SP,
          PrecisionVariant::DP_SP_HP, PrecisionVariant::DP_HP}) {
      for (const auto placement :
           {ConversionPlacement::Sender, ConversionPlacement::Receiver}) {
        BuiltGraph built(nt, variant, placement);
        const VerifyReport report = analysis::verify_dag(built.graph());
        EXPECT_TRUE(report.ok())
            << "nt=" << nt << " variant=" << static_cast<int>(variant)
            << " placement=" << static_cast<int>(placement) << "\n"
            << report.summary();
        EXPECT_TRUE(report.exhaustive);
        EXPECT_EQ(report.tasks, built.graph().num_tasks());
        EXPECT_GT(report.cells, 0);
        if (nt > 1) {
          EXPECT_GT(report.ordered_pairs_checked, 0);
        }
      }
    }
  }
}

TEST(DagVerify, GreenOnResumePrunedBitmaps) {
  // A checkpoint frontier prunes only kernel tasks, in submission order —
  // every prefix of the kernel-id sequence is a valid downward-closed
  // frontier with all CONVERTs left to re-run. Check several depths under
  // full checkpoint semantics.
  BuiltGraph built(4, PrecisionVariant::DP_HP, ConversionPlacement::Sender);
  const auto& kernel_ids = built.builder->kernel_task_ids();
  VerifyLimits limits;
  limits.checkpoint_semantics = true;
  for (const std::size_t depth :
       {std::size_t{0}, std::size_t{1}, kernel_ids.size() / 2,
        kernel_ids.size()}) {
    std::vector<std::uint8_t> done(
        static_cast<std::size_t>(built.graph().num_tasks()), 0);
    for (std::size_t s = 0; s < depth; ++s) {
      done[static_cast<std::size_t>(kernel_ids[s])] = 1;
    }
    const VerifyReport report =
        analysis::verify_dag(built.graph(), &done, limits);
    EXPECT_TRUE(report.ok()) << "depth=" << depth << "\n" << report.summary();
  }
}

// ---------- red: pruning mutants ---------------------------------------------

TEST(DagVerify, RedOnConvertMarkedDoneInCheckpoint) {
  // The PR 6 resume segfault class: a restored bitmap claiming a CONVERT
  // already ran would leave consumers reading an empty in-memory buffer.
  BuiltGraph built(4, PrecisionVariant::DP_HP, ConversionPlacement::Sender);
  TaskGraph& g = built.graph();
  std::vector<std::uint8_t> done(static_cast<std::size_t>(g.num_tasks()), 0);
  TaskId convert = -1;
  for (TaskId i = 0; i < g.num_tasks(); ++i) {
    if (g.task(i).kind == TaskKind::Convert) { convert = i; break; }
  }
  ASSERT_GE(convert, 0) << "DP_HP sender graph must contain CONVERT tasks";
  // Close the bitmap downward (the CONVERT plus all its ancestors) so the
  // only violation left is the checkpoint-only "CONVERT marked done" rule.
  const analysis::Reachability reach(g);
  ASSERT_TRUE(reach.available());
  done[static_cast<std::size_t>(convert)] = 1;
  for (TaskId i = 0; i < convert; ++i) {
    if (reach.reaches(i, convert)) done[static_cast<std::size_t>(i)] = 1;
  }
  VerifyLimits limits;
  limits.checkpoint_semantics = true;
  const VerifyReport report = analysis::verify_dag(g, &done, limits);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, IssueKind::PruneInconsistent))
      << report.summary();
  // In-process continuation semantics (budgeted rounds) must accept the same
  // bitmap: the buffers are still alive.
  EXPECT_TRUE(analysis::verify_dag(g, &done).ok());
}

TEST(DagVerify, RedOnNonDownwardClosedBitmap) {
  // Marking the final kernel task done while its predecessors are not breaks
  // the resume frontier invariant in any semantics.
  BuiltGraph built(4, PrecisionVariant::DP, ConversionPlacement::Sender);
  TaskGraph& g = built.graph();
  const auto& kernel_ids = built.builder->kernel_task_ids();
  std::vector<std::uint8_t> done(static_cast<std::size_t>(g.num_tasks()), 0);
  done[static_cast<std::size_t>(kernel_ids.back())] = 1;
  const VerifyReport report = analysis::verify_dag(g, &done);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, IssueKind::PruneInconsistent))
      << report.summary();
}

TEST(DagVerify, PruningOnlyEntryRejectsWhatTheFullVerifierRejects) {
  // A budgeted run verifies its graph once and then only each round's
  // bitmap (check (e)); that entry must reject a planted frontier exactly as
  // the full verifier does.
  BuiltGraph built(4, PrecisionVariant::DP_SP_HP, ConversionPlacement::Sender);
  TaskGraph& g = built.graph();
  const auto& kernel_ids = built.builder->kernel_task_ids();
  std::vector<std::uint8_t> done(static_cast<std::size_t>(g.num_tasks()), 0);
  done[static_cast<std::size_t>(kernel_ids.back())] = 1;
  const VerifyReport full = analysis::verify_dag(g, &done);
  const VerifyReport pruning = analysis::verify_pruning(g, done);
  ASSERT_FALSE(pruning.ok());
  ASSERT_EQ(pruning.issues.size(), full.issues.size()) << pruning.summary();
  for (std::size_t i = 0; i < full.issues.size(); ++i) {
    EXPECT_EQ(pruning.issues[i].kind, IssueKind::PruneInconsistent);
    EXPECT_EQ(pruning.issues[i].kind, full.issues[i].kind);
    EXPECT_EQ(pruning.issues[i].a, full.issues[i].a);
    EXPECT_EQ(pruning.issues[i].b, full.issues[i].b);
  }
  EXPECT_THROW(analysis::verify_pruning_or_throw(g, done),
               analysis::DagVerifyError);

  // A size mismatch is a pruning issue too; a kernel prefix is clean.
  EXPECT_TRUE(has_issue(analysis::verify_pruning(g, {1, 0}),
                        IssueKind::PruneInconsistent));
  std::fill(done.begin(), done.end(), 0);
  for (std::size_t s = 0; s < kernel_ids.size() / 2; ++s) {
    done[static_cast<std::size_t>(kernel_ids[s])] = 1;
  }
  EXPECT_TRUE(analysis::verify_pruning(g, done).ok());
}

TEST(DagVerify, VerifiedGraphRoundsCheckOnlyTheirBitmaps) {
  // graph_verified tells execute() that checks (a)-(d) already passed: a
  // misdeclared effect (which does not change what the bodies do) then goes
  // unchecked, while a planted bitmap is still refused.
  BuiltGraph built(2, PrecisionVariant::DP, ConversionPlacement::Sender);
  TaskGraph& g = built.graph();
  const TaskId potrf0 = built.builder->kernel_task_ids()[0];
  g.task(potrf0).effects[0].mode = Access::Read;
  SchedulerOptions opt;
  opt.threads = 2;
  opt.verify = VerifyMode::Static;
  EXPECT_THROW(execute(g, opt), analysis::DagVerifyError);
  std::vector<std::uint8_t> done(static_cast<std::size_t>(g.num_tasks()), 0);
  done[static_cast<std::size_t>(built.builder->kernel_task_ids().back())] = 1;
  opt.graph_verified = true;
  opt.already_done = &done;
  EXPECT_THROW(execute(g, opt), analysis::DagVerifyError);
  opt.already_done = nullptr;
  EXPECT_TRUE(execute(g, opt).finished_all);
}

// ---------- red: seeded edge-deletion mutants --------------------------------

TEST(DagVerify, DetectsDeletedCriticalEdge) {
  // POTRF(0) -> TRSM(1,0) is the unique ordering between the factorization
  // of tile (0,0) and its first consumer: deleting it is a guaranteed race,
  // and the diagnosis must name the tile.
  BuiltGraph built(2, PrecisionVariant::DP, ConversionPlacement::Sender);
  TaskGraph& g = built.graph();
  const auto& kernel_ids = built.builder->kernel_task_ids();
  const TaskId potrf0 = kernel_ids[0];
  ASSERT_EQ(g.task(potrf0).kind, TaskKind::Potrf);
  ASSERT_FALSE(g.task(potrf0).successors.empty());
  const TaskId consumer = g.task(potrf0).successors.front();
  ASSERT_TRUE(g.remove_edge_for_test(potrf0, consumer));
  const VerifyReport report = analysis::verify_dag(g);
  ASSERT_FALSE(report.ok());
  ASSERT_TRUE(has_issue(report, IssueKind::MissingOrder)) << report.summary();
  bool names_tile = false;
  for (const auto& issue : report.issues) {
    if (issue.kind == IssueKind::MissingOrder &&
        issue.message.find("tile(0,0)") != std::string::npos) {
      names_tile = true;
    }
  }
  EXPECT_TRUE(names_tile) << report.summary();
}

TEST(DagVerify, SeededRandomEdgeDeletionMutants) {
  // The ISSUE's mutation self-test: delete a random (seeded) dependency edge
  // and assert the verifier reports it. Deleting a transitively-redundant
  // edge leaves the pair provably ordered, so the exact contract is: after
  // deleting edge (a,b), either the verifier goes red, or (a,b) is still
  // ordered through the remaining graph. At least one mutant per
  // configuration must actually go red.
  common::Rng rng(0x5eed5eedULL);
  int detected = 0;
  int trials = 0;
  for (const auto variant : {PrecisionVariant::DP, PrecisionVariant::DP_HP}) {
    for (int trial = 0; trial < 12; ++trial) {
      BuiltGraph built(4, variant, ConversionPlacement::Sender);
      TaskGraph& g = built.graph();
      std::vector<std::pair<TaskId, TaskId>> edges;
      for (TaskId i = 0; i < g.num_tasks(); ++i) {
        for (TaskId s : g.task(i).successors) edges.emplace_back(i, s);
      }
      ASSERT_FALSE(edges.empty());
      const auto [from, to] = edges[static_cast<std::size_t>(
          rng.uniform_u64(static_cast<std::uint64_t>(edges.size())))];
      ASSERT_TRUE(g.remove_edge_for_test(from, to));
      ++trials;
      const VerifyReport report = analysis::verify_dag(g);
      if (!report.ok()) {
        EXPECT_TRUE(has_issue(report, IssueKind::MissingOrder) ||
                    has_issue(report, IssueKind::ConvertPlacement))
            << report.summary();
        ++detected;
      } else {
        // Sound silence: the deleted edge must have been redundant — the
        // pair is still transitively ordered without it.
        const analysis::Reachability reach(g);
        ASSERT_TRUE(reach.available());
        EXPECT_TRUE(reach.reaches(from, to))
            << "verifier stayed green after deleting a non-redundant edge "
            << from << "->" << to;
      }
    }
  }
  EXPECT_GT(detected, 0) << "no mutant detected across " << trials
                         << " seeded trials";
}

TEST(DagVerify, SchedulerRefusesToExecuteMutatedGraph) {
  // End to end: the scheduler's default (static) gate must throw before any
  // task of a mutated graph runs. The mutation here is a misdeclared effect
  // (POTRF claiming it only reads its tile) — it does not change the task
  // bodies, so --verify off must still execute the graph to completion,
  // proving the gate (not the mutation) is what stops the run.
  BuiltGraph built(2, PrecisionVariant::DP, ConversionPlacement::Sender);
  TaskGraph& g = built.graph();
  const TaskId potrf0 = built.builder->kernel_task_ids()[0];
  g.task(potrf0).effects[0].mode = Access::Read;
  SchedulerOptions opt;
  opt.threads = 2;
  EXPECT_THROW(execute(g, opt), analysis::DagVerifyError);
  opt.verify = VerifyMode::Off;
  const RunStats stats = execute(g, opt);
  EXPECT_TRUE(stats.finished_all);
}

// ---------- red: effect-misdeclaration mutants -------------------------------

TEST(DagVerify, RedOnWriteDeclaredAsRead) {
  BuiltGraph built(2, PrecisionVariant::DP, ConversionPlacement::Sender);
  TaskGraph& g = built.graph();
  const TaskId potrf0 = built.builder->kernel_task_ids()[0];
  ASSERT_FALSE(g.task(potrf0).effects.empty());
  g.task(potrf0).effects[0].mode = Access::Read;  // POTRF claims it only reads
  const VerifyReport report = analysis::verify_dag(g);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, IssueKind::EffectMismatch))
      << report.summary();
}

TEST(DagVerify, RedOnDroppedWriteEffect) {
  BuiltGraph built(2, PrecisionVariant::DP, ConversionPlacement::Sender);
  TaskGraph& g = built.graph();
  const TaskId potrf0 = built.builder->kernel_task_ids()[0];
  g.task(potrf0).effects.clear();  // writes tile (0,0) but declares nothing
  const VerifyReport report = analysis::verify_dag(g);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, IssueKind::EffectMismatch))
      << report.summary();
}

TEST(DagVerify, RedOnPhantomEffect) {
  BuiltGraph built(2, PrecisionVariant::DP, ConversionPlacement::Sender);
  TaskGraph& g = built.graph();
  const TaskId potrf0 = built.builder->kernel_task_ids()[0];
  // Declare an extra effect on a tile the task never accesses.
  g.task(potrf0).effects.push_back(
      {1, 1, Access::Write, TilePlane::Storage, EffectPrec::F64});
  const VerifyReport report = analysis::verify_dag(g);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, IssueKind::EffectMismatch))
      << report.summary();
}

TEST(DagVerify, RedOnWrongDeclaredPrecision) {
  BuiltGraph built(2, PrecisionVariant::DP, ConversionPlacement::Sender);
  TaskGraph& g = built.graph();
  const TaskId potrf0 = built.builder->kernel_task_ids()[0];
  g.task(potrf0).effects[0].precision = EffectPrec::F16;  // tile is f64
  const VerifyReport report = analysis::verify_dag(g);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, IssueKind::PrecisionMismatch))
      << report.summary();
}

// ---------- structure / placement checks on hand-built graphs ----------------

TEST(DagVerify, RedOnBackwardEdge) {
  TaskGraph g;
  const auto h = g.create_handle("x");
  Task t1;
  t1.accesses = {{h, Access::Write}};
  const TaskId a = g.submit(std::move(t1));
  Task t2;
  t2.accesses = {{h, Access::Write}};
  const TaskId b = g.submit(std::move(t2));
  g.task(b).successors.push_back(a);  // cycle: b -> a -> (inferred) b
  ++g.task(a).num_predecessors;
  const VerifyReport report = analysis::verify_dag(g);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, IssueKind::Structure)) << report.summary();
}

TEST(DagVerify, RedOnKernelTaskWithoutData) {
  TaskGraph g;
  Task t;
  t.kind = TaskKind::Gemm;  // kernel kind, no declared accesses: unorderable
  g.submit(std::move(t));
  const VerifyReport report = analysis::verify_dag(g);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, IssueKind::Orphan)) << report.summary();
}

TEST(DagVerify, RedOnCopyPlaneWithoutConvertProducer) {
  TaskGraph g;
  const auto copy = g.create_handle(
      "copy(0,0)", TileCoord{0, 0, TilePlane::CopyF32, EffectPrec::F32});
  Task reader;
  reader.kind = TaskKind::Gemm;
  reader.accesses = {{copy, Access::Read}};
  reader.effects = {{0, 0, Access::Read, TilePlane::CopyF32, EffectPrec::F32}};
  g.submit(std::move(reader));
  const VerifyReport report = analysis::verify_dag(g);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, IssueKind::ConvertPlacement))
      << report.summary();
}

TEST(DagVerify, RedOnConvertWritingStorage) {
  TaskGraph g;
  const auto tile = g.create_handle(
      "tile(0,0)", TileCoord{0, 0, TilePlane::Storage, EffectPrec::F64});
  const auto copy = g.create_handle(
      "copy(0,0)", TileCoord{0, 0, TilePlane::CopyF32, EffectPrec::F32});
  Task conv;
  conv.kind = TaskKind::Convert;
  conv.accesses = {{tile, Access::ReadWrite}, {copy, Access::Write}};
  conv.effects = {
      {0, 0, Access::ReadWrite, TilePlane::Storage, EffectPrec::F64},
      {0, 0, Access::Write, TilePlane::CopyF32, EffectPrec::F32}};
  const TaskId c = g.submit(std::move(conv));
  Task reader;
  reader.kind = TaskKind::Gemm;
  reader.accesses = {{copy, Access::Read}};
  reader.effects = {{0, 0, Access::Read, TilePlane::CopyF32, EffectPrec::F32}};
  g.submit(std::move(reader));
  (void)c;
  const VerifyReport report = analysis::verify_dag(g);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, IssueKind::ConvertPlacement))
      << report.summary();
}

// ---------- verify-mode plumbing ---------------------------------------------

TEST(VerifyMode, ParseAndResolve) {
  EXPECT_EQ(parse_verify_mode("off"), VerifyMode::Off);
  EXPECT_EQ(parse_verify_mode("static"), VerifyMode::Static);
  EXPECT_EQ(parse_verify_mode("dynamic"), VerifyMode::Dynamic);
  EXPECT_THROW(parse_verify_mode("bogus"), InvalidArgument);
  EXPECT_EQ(resolve_verify_mode(VerifyMode::Off), VerifyMode::Off);
  EXPECT_EQ(resolve_verify_mode(VerifyMode::Dynamic), VerifyMode::Dynamic);
  // Default resolves via EXACLIM_VERIFY; fall back is Static.
  const char* env = std::getenv("EXACLIM_VERIFY");
  if (env == nullptr || env[0] == '\0') {
    EXPECT_EQ(resolve_verify_mode(VerifyMode::Default), VerifyMode::Static);
  }
}

// ---------- dynamic shadow checker -------------------------------------------

TEST(ShadowChecker, CleanExecutionPasses) {
  BuiltGraph built(4, PrecisionVariant::DP_HP, ConversionPlacement::Sender);
  SchedulerOptions opt;
  opt.threads = 4;
  opt.verify = VerifyMode::Dynamic;
  const RunStats stats = execute(built.graph(), opt);
  EXPECT_TRUE(stats.finished_all);
}

TEST(ShadowChecker, DetectsOutOfOrderExecution) {
  // Drive the checker by hand: starting a reader before its writer-ancestor
  // has bumped the epoch is exactly the interleaving an unsound scheduler
  // would produce, and must throw a structured VERIFY TaskFailure.
  TaskGraph g;
  const auto tile = g.create_handle(
      "tile(0,0)", TileCoord{0, 0, TilePlane::Storage, EffectPrec::F64});
  Task writer;
  writer.kind = TaskKind::Potrf;
  writer.accesses = {{tile, Access::ReadWrite}};
  writer.effects = {
      {0, 0, Access::ReadWrite, TilePlane::Storage, EffectPrec::F64}};
  const TaskId w = g.submit(std::move(writer));
  Task reader;
  reader.kind = TaskKind::Trsm;
  reader.accesses = {{tile, Access::Read}};
  reader.effects = {{0, 0, Access::Read, TilePlane::Storage, EffectPrec::F64}};
  const TaskId r = g.submit(std::move(reader));

  analysis::ShadowChecker good(g);
  ASSERT_TRUE(good.epochs_checked());
  good.on_task_start(w);
  good.on_task_finish(w);
  good.on_task_start(r);
  good.on_task_finish(r);  // legal schedule: no throw

  analysis::ShadowChecker bad(g);
  try {
    bad.on_task_start(r);  // reader first: epoch 0, expected 1
    FAIL() << "shadow checker accepted an out-of-order start";
  } catch (const TaskFailure& f) {
    EXPECT_EQ(f.kind(), "VERIFY");
    EXPECT_EQ(f.row(), 0);
    EXPECT_EQ(f.col(), 0);
  }
}

TEST(ShadowChecker, DetectsConcurrentWriters) {
  TaskGraph g;
  const auto h = g.create_handle("x");
  Task t1;
  t1.accesses = {{h, Access::Write}};
  const TaskId a = g.submit(std::move(t1));
  Task t2;
  t2.accesses = {{h, Access::Write}};
  const TaskId b = g.submit(std::move(t2));
  // Sever the inferred WAW edge so both writers claim epoch 0, then overlap
  // them: the occupancy check must catch the second writer.
  ASSERT_TRUE(g.remove_edge_for_test(a, b));
  analysis::ShadowChecker checker(g);
  checker.on_task_start(a);
  EXPECT_THROW(checker.on_task_start(b), TaskFailure);
}

TEST(ShadowChecker, ResumedRoundsCarryEpochs) {
  // A second budgeted round constructs a fresh checker over the done bitmap:
  // pre-done writers must count toward the epochs later tasks expect.
  BuiltGraph built(4, PrecisionVariant::DP, ConversionPlacement::Sender);
  SchedulerOptions opt;
  opt.threads = 2;
  opt.verify = VerifyMode::Dynamic;
  opt.task_budget = 3;
  RunStats round = execute(built.graph(), opt);
  std::vector<std::uint8_t> done = round.done;
  while (!round.finished_all) {
    opt.already_done = &done;
    round = execute(built.graph(), opt);
    done = round.done;
  }
  EXPECT_TRUE(round.finished_all);
}

// ---------- dynamic parity on a full train run -------------------------------

struct TempFile {
  explicit TempFile(const std::string& name)
      : path(::testing::TempDir() + name) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(ShadowChecker, DynamicTrainMatchesStaticBitForBit) {
  // The shadow checker must be an observer: a full train run under --verify
  // dynamic produces the same EXACMDL4 bytes as under --verify static.
  climate::SyntheticEsmConfig esm_cfg;
  esm_cfg.band_limit = 8;
  esm_cfg.grid = {9, 16};
  esm_cfg.num_years = 4;
  esm_cfg.steps_per_year = 48;
  esm_cfg.num_ensembles = 2;
  const auto esm = climate::generate_synthetic_esm(esm_cfg);

  auto train_bytes = [&](VerifyMode mode, const std::string& tag) {
    core::EmulatorConfig cfg;
    cfg.band_limit = 8;
    cfg.ar_order = 2;
    cfg.harmonics = 2;
    cfg.steps_per_year = 48;
    cfg.tile_size = 16;
    cfg.verify_mode = mode;
    core::ClimateEmulator emulator(cfg);
    emulator.train(esm.data, esm.forcing);
    TempFile model("dag_verify_" + tag + ".bin");
    core::save_emulator(emulator, model.path, core::FactorStorage::FP64);
    return common::read_file_bytes(model.path);
  };

  const auto bytes_static = train_bytes(VerifyMode::Static, "static");
  const auto bytes_dynamic = train_bytes(VerifyMode::Dynamic, "dynamic");
  EXPECT_EQ(bytes_static, bytes_dynamic);
}

}  // namespace
