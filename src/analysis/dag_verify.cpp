#include "analysis/dag_verify.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

namespace exaclim::analysis {

using runtime::Access;
using runtime::DataAccess;
using runtime::EffectPrec;
using runtime::Task;
using runtime::TaskGraph;
using runtime::TaskId;
using runtime::TaskKind;
using runtime::TileCoord;
using runtime::TileEffect;
using runtime::TilePlane;

namespace {

bool access_reads(Access m) { return m != Access::Write; }
bool access_writes(Access m) { return m != Access::Read; }

/// "TRSM(2,0)" when the builder named the task, "GEMM#17" otherwise.
std::string task_label(const TaskGraph& g, TaskId id) {
  const Task& t = g.task(id);
  if (!t.name.empty()) return t.name;
  return std::string(runtime::task_kind_name(t.kind)) + "#" +
         std::to_string(id);
}

/// One datum the verifier tracks: a (tile, plane) cell when the handle (or
/// effect) carries tile metadata, else the raw handle. Tile keying is what
/// catches aliasing bugs where two handles name the same tile plane.
using CellKey = std::tuple<index_t, index_t, int, index_t>;

CellKey tile_key(index_t row, index_t col, TilePlane plane) {
  return {row, col, static_cast<int>(plane), -1};
}
CellKey handle_key(index_t handle_id) {
  return {-1, -1, static_cast<int>(TilePlane::None), handle_id};
}

std::string cell_label(const TaskGraph& g, const CellKey& key) {
  const auto& [row, col, plane, handle] = key;
  if (handle >= 0) {
    const std::string& name = g.handles().name({handle});
    return name.empty() ? "handle#" + std::to_string(handle) : name;
  }
  std::ostringstream os;
  os << "tile(" << row << "," << col << ")["
     << runtime::tile_plane_name(static_cast<TilePlane>(plane)) << "]";
  return os.str();
}

struct CellAccess {
  TaskId task;
  Access mode;
};

/// Verification pass state: the report under construction plus the shared
/// ordering oracle.
struct Verifier {
  const TaskGraph& graph;
  const VerifyLimits& limits;
  VerifyReport report;
  Reachability reach;
  bool use_closure;

  Verifier(const TaskGraph& g, const VerifyLimits& lim)
      : graph(g), limits(lim), reach(g, lim.max_closure_tasks) {
    use_closure = reach.available();
    report.exhaustive = use_closure;
  }

  bool full() const { return report.issues.size() >= limits.max_issues; }

  void add(IssueKind kind, TaskId a, TaskId b, std::string message) {
    if (full()) return;
    report.issues.push_back({kind, a, b, std::move(message)});
  }

  /// Does `from` precede `to`? Closure when available; direct-edge fallback
  /// above the cap (sufficient for builder-inferred graphs, whose inference
  /// adds a direct edge for every adjacent conflict).
  bool ordered(TaskId from, TaskId to) const {
    if (use_closure) return reach.reaches(from, to);
    const auto& succ = graph.task(from).successors;
    return std::find(succ.begin(), succ.end(), to) != succ.end();
  }

  void check_structure();
  void check_conflicts();
  void check_effects();
  void check_converts();
  void check_pruning(const std::vector<std::uint8_t>& done);
};

void Verifier::check_structure() {
  const index_t n = graph.num_tasks();
  std::vector<index_t> preds(static_cast<std::size_t>(n), 0);
  for (TaskId i = 0; i < n; ++i) {
    const Task& t = graph.task(i);
    std::vector<TaskId> seen;
    for (TaskId succ : t.successors) {
      ++report.edges;
      if (succ < 0 || succ >= n) {
        add(IssueKind::Structure, i, succ,
            task_label(graph, i) + " has an edge to out-of-range task " +
                std::to_string(succ));
        continue;
      }
      if (succ <= i) {
        // Submission order is a topological order by construction, so a
        // backward (or self) edge is a cycle or graph corruption.
        add(IssueKind::Structure, i, succ,
            "edge " + task_label(graph, i) + " -> " + task_label(graph, succ) +
                " points backward in submission order (cycle or corruption)");
        continue;
      }
      if (std::find(seen.begin(), seen.end(), succ) != seen.end()) {
        add(IssueKind::Structure, i, succ,
            "duplicate edge " + task_label(graph, i) + " -> " +
                task_label(graph, succ));
        continue;
      }
      seen.push_back(succ);
      ++preds[static_cast<std::size_t>(succ)];
    }
  }
  for (TaskId i = 0; i < n; ++i) {
    if (preds[static_cast<std::size_t>(i)] != graph.task(i).num_predecessors) {
      add(IssueKind::Structure, i, -1,
          task_label(graph, i) + " declares " +
              std::to_string(graph.task(i).num_predecessors) +
              " predecessors but " +
              std::to_string(preds[static_cast<std::size_t>(i)]) +
              " edges point at it");
    }
  }
}

void Verifier::check_conflicts() {
  // Group every access by datum. A task touching one cell through several
  // accesses (or an effect list echoing an access) contributes a single
  // merged entry, so a task never "conflicts" with itself.
  std::map<CellKey, std::vector<CellAccess>> cells;
  const index_t n = graph.num_tasks();
  for (TaskId i = 0; i < n; ++i) {
    for (const DataAccess& a : graph.task(i).accesses) {
      const TileCoord& c = graph.handles().tile(a.handle);
      const CellKey key =
          c.valid() ? tile_key(c.row, c.col, c.plane) : handle_key(a.handle.id);
      auto& list = cells[key];
      if (!list.empty() && list.back().task == i) {
        const bool reads = access_reads(list.back().mode) || access_reads(a.mode);
        const bool writes =
            access_writes(list.back().mode) || access_writes(a.mode);
        list.back().mode = writes ? (reads ? Access::ReadWrite : Access::Write)
                                  : Access::Read;
      } else {
        list.push_back({i, a.mode});
      }
    }
  }
  report.cells = static_cast<index_t>(cells.size());

  // Covering-pair check: with accesses in submission (= program) order, all
  // conflicting pairs are transitively ordered iff every writer reaches each
  // access up to and including the next writer, and every reader reaches the
  // next writer. Checking only those pairs keeps the pass linear in accesses
  // while still proving the full pairwise property.
  for (const auto& [key, list] : cells) {
    if (full()) return;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const CellAccess& from = list[i];
      for (std::size_t j = i + 1; j < list.size(); ++j) {
        const CellAccess& to = list[j];
        const bool conflict =
            access_writes(from.mode) || access_writes(to.mode);
        if (conflict) {
          ++report.ordered_pairs_checked;
          if (!ordered(from.task, to.task)) {
            add(IssueKind::MissingOrder, from.task, to.task,
                "race on " + cell_label(graph, key) + ": " +
                    task_label(graph, from.task) + " (" +
                    (access_writes(from.mode) ? "write" : "read") + ") and " +
                    task_label(graph, to.task) + " (" +
                    (access_writes(to.mode) ? "write" : "read") +
                    ") have no dependency path ordering them");
          }
        }
        // Stop at the covering frontier: a writer must be checked against
        // everything up to and including the next writer; a reader only
        // against the next writer.
        if (access_writes(to.mode)) break;
        if (!access_writes(from.mode)) continue;
      }
      if (full()) return;
    }
  }
}

void Verifier::check_effects() {
  const index_t n = graph.num_tasks();
  for (TaskId i = 0; i < n; ++i) {
    const Task& t = graph.task(i);
    const bool kernel_kind = t.kind != TaskKind::Generic;
    if (kernel_kind && t.accesses.empty()) {
      add(IssueKind::Orphan, i, -1,
          task_label(graph, i) +
              " declares no data accesses at all: it can never be ordered "
              "against any other task");
      continue;
    }
    // Generic tasks may skip the effect layer entirely; once they (or any
    // kernel task) declare effects, the two declarations must agree.
    if (!kernel_kind && t.effects.empty()) continue;
    if (kernel_kind && t.effects.empty()) {
      bool tile_backed = false;
      for (const DataAccess& a : t.accesses) {
        tile_backed = tile_backed || graph.handles().tile(a.handle).valid();
      }
      if (tile_backed) {
        add(IssueKind::EffectMismatch, i, -1,
            task_label(graph, i) +
                " touches tile-backed data but declares no tile effects");
      }
      continue;
    }

    // Each tile-backed access must be covered by exactly one declared effect
    // with the same coordinates, plane, mode and precision — and vice versa.
    std::vector<bool> effect_used(t.effects.size(), false);
    for (const DataAccess& a : t.accesses) {
      const TileCoord& c = graph.handles().tile(a.handle);
      if (!c.valid()) continue;
      const TileEffect* match = nullptr;
      for (std::size_t e = 0; e < t.effects.size(); ++e) {
        const TileEffect& eff = t.effects[e];
        if (eff.row == c.row && eff.col == c.col && eff.plane == c.plane &&
            !effect_used[e]) {
          effect_used[e] = true;
          match = &eff;
          break;
        }
      }
      if (match == nullptr) {
        add(IssueKind::EffectMismatch, i, -1,
            task_label(graph, i) + (access_writes(a.mode) ? " writes " : " reads ") +
                cell_label(graph, tile_key(c.row, c.col, c.plane)) +
                " without declaring a matching tile effect");
        continue;
      }
      if (match->mode != a.mode) {
        add(IssueKind::EffectMismatch, i, -1,
            task_label(graph, i) + " declares tile(" + std::to_string(c.row) +
                "," + std::to_string(c.col) + ") as " +
                (access_writes(match->mode)
                     ? (access_reads(match->mode) ? "readwrite" : "write")
                     : "read") +
                " but accesses it as " +
                (access_writes(a.mode)
                     ? (access_reads(a.mode) ? "readwrite" : "write")
                     : "read"));
      }
      if (match->precision != c.precision) {
        add(IssueKind::PrecisionMismatch, i, -1,
            task_label(graph, i) + " declares tile(" + std::to_string(c.row) +
                "," + std::to_string(c.col) + ")[" +
                runtime::tile_plane_name(c.plane) + "] at " +
                runtime::effect_prec_name(match->precision) +
                " but the datum carries " +
                runtime::effect_prec_name(c.precision));
      }
    }
    for (std::size_t e = 0; e < t.effects.size(); ++e) {
      if (!effect_used[e]) {
        const TileEffect& eff = t.effects[e];
        add(IssueKind::EffectMismatch, i, -1,
            task_label(graph, i) + " declares an effect on tile(" +
                std::to_string(eff.row) + "," + std::to_string(eff.col) +
                ")[" + runtime::tile_plane_name(eff.plane) +
                "] with no matching data access (phantom declaration)");
      }
    }
  }
}

void Verifier::check_converts() {
  // Copy-plane bookkeeping: writers per copy cell, plus whether each CONVERT
  // is shaped correctly (storage read + one copy write in plane precision).
  std::map<CellKey, std::vector<TaskId>> copy_writers;
  std::map<CellKey, std::vector<TaskId>> copy_readers;
  const index_t n = graph.num_tasks();
  for (TaskId i = 0; i < n; ++i) {
    const Task& t = graph.task(i);
    for (const DataAccess& a : t.accesses) {
      const TileCoord& c = graph.handles().tile(a.handle);
      if (!c.valid() || c.plane == TilePlane::Storage) continue;
      const CellKey key = tile_key(c.row, c.col, c.plane);
      if (access_writes(a.mode)) copy_writers[key].push_back(i);
      if (access_reads(a.mode)) copy_readers[key].push_back(i);
      if (access_writes(a.mode) &&
          c.precision != runtime::plane_precision(c.plane)) {
        add(IssueKind::PrecisionMismatch, i, -1,
            task_label(graph, i) + " writes " + cell_label(graph, key) +
                " carrying " + runtime::effect_prec_name(c.precision) +
                " where the plane demands " +
                runtime::effect_prec_name(runtime::plane_precision(c.plane)));
      }
    }
    if (t.kind == TaskKind::Convert) {
      bool reads_storage = false;
      bool writes_storage = false;
      index_t copy_writes = 0;
      for (const DataAccess& a : t.accesses) {
        const TileCoord& c = graph.handles().tile(a.handle);
        if (!c.valid()) continue;
        if (c.plane == TilePlane::Storage) {
          reads_storage = reads_storage || access_reads(a.mode);
          writes_storage = writes_storage || access_writes(a.mode);
        } else if (access_writes(a.mode)) {
          ++copy_writes;
        }
      }
      if (!reads_storage || copy_writes != 1) {
        add(IssueKind::ConvertPlacement, i, -1,
            task_label(graph, i) +
                " must read its tile's storage plane and write exactly one "
                "converted copy; it declares " +
                std::to_string(copy_writes) + " copy write(s)");
      }
      if (writes_storage) {
        add(IssueKind::ConvertPlacement, i, -1,
            task_label(graph, i) +
                " writes the storage plane: CONVERT tasks must never mutate "
                "the tile they convert");
      }
      if (t.successors.empty()) {
        add(IssueKind::Orphan, i, -1,
            task_label(graph, i) +
                " produces a converted copy no task consumes");
      }
    }
  }
  for (const auto& [key, readers] : copy_readers) {
    auto it = copy_writers.find(key);
    if (it == copy_writers.end() || it->second.empty()) {
      add(IssueKind::ConvertPlacement, readers.front(), -1,
          task_label(graph, readers.front()) + " reads " +
              cell_label(graph, key) +
              " but no CONVERT task ever produces that representation");
      continue;
    }
    for (TaskId w : it->second) {
      if (graph.task(w).kind != TaskKind::Convert) {
        add(IssueKind::ConvertPlacement, w, -1,
            task_label(graph, w) + " writes " + cell_label(graph, key) +
                " but is not a CONVERT task");
      }
    }
    // The producing CONVERT must strictly precede every consumer; the
    // conflict pass also sees this, but diagnosing it as a placement error
    // names the failure the way an operator debugging mixed precision needs.
    const TaskId producer = it->second.front();
    for (TaskId r : readers) {
      if (r != producer && !ordered(producer, r)) {
        add(IssueKind::ConvertPlacement, producer, r,
            cell_label(graph, key) + " is read by " + task_label(graph, r) +
                " without the producing " + task_label(graph, producer) +
                " ordered before it (use-before-CONVERT)");
      }
    }
  }
  for (const auto& [key, writers] : copy_writers) {
    if (writers.size() > 1) {
      add(IssueKind::ConvertPlacement, writers[0], writers[1],
          cell_label(graph, key) + " has " + std::to_string(writers.size()) +
              " producers; converted copies must have exactly one CONVERT");
    }
  }
}

void Verifier::check_pruning(const std::vector<std::uint8_t>& done) {
  const index_t n = graph.num_tasks();
  if (static_cast<index_t>(done.size()) != n) {
    add(IssueKind::PruneInconsistent, -1, -1,
        "already_done bitmap covers " + std::to_string(done.size()) +
            " tasks but the graph has " + std::to_string(n));
    return;
  }
  // Predecessor lists, rebuilt locally (the graph only stores successors).
  std::vector<std::vector<TaskId>> preds(static_cast<std::size_t>(n));
  for (TaskId i = 0; i < n; ++i) {
    for (TaskId succ : graph.task(i).successors) {
      if (succ > i && succ < n) {
        preds[static_cast<std::size_t>(succ)].push_back(i);
      }
    }
  }
  for (TaskId i = 0; i < n; ++i) {
    if (done[static_cast<std::size_t>(i)] == 0) continue;
    const Task& t = graph.task(i);
    if (t.kind == TaskKind::Convert && limits.checkpoint_semantics) {
      // Converted copies live only in memory: pruning a CONVERT on resume
      // leaves every consumer reading an empty buffer (the PR 6 segfault).
      // Only an error for restored bitmaps — in-process budgeted rounds keep
      // completed CONVERTs done, with their buffers still alive.
      add(IssueKind::PruneInconsistent, i, -1,
          task_label(graph, i) +
              " is marked already-done, but CONVERT outputs are not "
              "persisted and must re-run after a resume");
      continue;
    }
    for (TaskId p : preds[static_cast<std::size_t>(i)]) {
      if (done[static_cast<std::size_t>(p)] == 0 &&
          graph.task(p).kind != TaskKind::Convert) {
        add(IssueKind::PruneInconsistent, i, p,
            task_label(graph, i) + " is marked already-done but depends on " +
                task_label(graph, p) +
                ", which is not: the resume frontier is not downward-closed");
      }
    }
  }
}

}  // namespace

Reachability::Reachability(const TaskGraph& graph, index_t max_tasks) {
  n_ = graph.num_tasks();
  if (n_ == 0 || n_ > max_tasks) return;
  words_ = (static_cast<std::size_t>(n_) + 63) / 64;
  bits_.assign(static_cast<std::size_t>(n_) * words_, 0);
  // Submission order is topological: by the time task i's row is built, every
  // predecessor's ancestor row is complete.
  for (TaskId i = 0; i < n_; ++i) {
    for (TaskId succ : graph.task(i).successors) {
      if (succ <= i || succ >= n_) continue;  // structural issue; reported elsewhere
      std::uint64_t* dst = &bits_[static_cast<std::size_t>(succ) * words_];
      const std::uint64_t* src = &bits_[static_cast<std::size_t>(i) * words_];
      for (std::size_t w = 0; w < words_; ++w) dst[w] |= src[w];
      dst[static_cast<std::size_t>(i) / 64] |=
          std::uint64_t{1} << (static_cast<std::size_t>(i) % 64);
    }
  }
}

const char* issue_kind_name(IssueKind kind) {
  switch (kind) {
    case IssueKind::Structure: return "structure";
    case IssueKind::MissingOrder: return "missing-order";
    case IssueKind::Orphan: return "orphan";
    case IssueKind::EffectMismatch: return "effect-mismatch";
    case IssueKind::PrecisionMismatch: return "precision-mismatch";
    case IssueKind::ConvertPlacement: return "convert-placement";
    case IssueKind::PruneInconsistent: return "prune-inconsistent";
  }
  return "unknown";
}

std::string VerifyReport::summary(std::size_t max_issues) const {
  std::ostringstream os;
  if (ok()) {
    os << "DAG verified: " << tasks << " tasks, " << edges << " edges, "
       << cells << " data cells, " << ordered_pairs_checked
       << " conflict pairs ordered" << (exhaustive ? "" : " (bounded check)");
    return os.str();
  }
  os << issues.size() << " issue(s) over " << tasks << " tasks";
  const std::size_t shown = std::min(issues.size(), max_issues);
  for (std::size_t i = 0; i < shown; ++i) {
    os << "\n  [" << issue_kind_name(issues[i].kind) << "] "
       << issues[i].message;
  }
  if (shown < issues.size()) {
    os << "\n  ... and " << issues.size() - shown << " more";
  }
  return os.str();
}

VerifyReport verify_dag(const TaskGraph& graph,
                        const std::vector<std::uint8_t>* already_done,
                        const VerifyLimits& limits) {
  Verifier v(graph, limits);
  v.report.tasks = graph.num_tasks();
  v.check_structure();
  if (!v.report.issues.empty()) {
    // A structurally broken graph (cycles, bad counts) makes the ordering
    // passes meaningless; report the structure first.
    return std::move(v.report);
  }
  v.check_conflicts();
  v.check_effects();
  v.check_converts();
  if (already_done != nullptr && !already_done->empty()) {
    v.check_pruning(*already_done);
  }
  return std::move(v.report);
}

void verify_dag_or_throw(const TaskGraph& graph,
                         const std::vector<std::uint8_t>* already_done,
                         const VerifyLimits& limits) {
  VerifyReport report = verify_dag(graph, already_done, limits);
  if (!report.ok()) throw DagVerifyError(std::move(report));
}

VerifyReport verify_pruning(const TaskGraph& graph,
                            const std::vector<std::uint8_t>& already_done,
                            const VerifyLimits& limits) {
  // Check (e) reads only the successor lists: a zero cap skips the O(V^2)
  // closure that checks (a) and (d) need.
  VerifyLimits no_closure = limits;
  no_closure.max_closure_tasks = 0;
  Verifier v(graph, no_closure);
  v.report.tasks = graph.num_tasks();
  v.report.exhaustive = true;
  v.check_pruning(already_done);
  return std::move(v.report);
}

void verify_pruning_or_throw(const TaskGraph& graph,
                             const std::vector<std::uint8_t>& already_done,
                             const VerifyLimits& limits) {
  VerifyReport report = verify_pruning(graph, already_done, limits);
  if (!report.ok()) throw DagVerifyError(std::move(report));
}

}  // namespace exaclim::analysis
