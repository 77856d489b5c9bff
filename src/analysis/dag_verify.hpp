// Static DAG race/ordering verifier.
//
// Runs on a constructed runtime::TaskGraph BEFORE execution and proves, in
// the spirit of effect-checked task runtimes (StarPU access modes, PaRSEC
// dataflow), that the graph is safe to run on any schedule:
//
//   (a) every pair of conflicting accesses to the same datum — two accesses
//       to one tile plane (or one handle) where at least one writes — is
//       ordered by the transitive dependency relation. A missing edge is
//       diagnosed as a race naming both task kinds and the tile;
//   (b) the graph is structurally sound: acyclic (all edges point forward in
//       submission order), predecessor counts consistent, no self/duplicate
//       edges, no orphan tasks (kernel tasks without any declared data);
//   (c) each task's declared TileEffects agree with the DataAccess list the
//       dependence inference consumed: same tiles, same planes, same modes,
//       same precisions — so a task can neither write a tile it never
//       declared nor misdeclare a write as a read;
//   (d) precision/CONVERT placement is consistent: every copy-plane read has
//       exactly one CONVERT producer ordered before it, CONVERT tasks read
//       the storage plane of the tile they convert and write a copy plane in
//       that plane's precision, and no CONVERT output goes unconsumed;
//   (e) a checkpoint-resume pruning bitmap, when given, is downward-closed
//       over kernel tasks; with VerifyLimits::checkpoint_semantics set it
//       must also never mark a CONVERT done (converted copies are in-memory
//       only and must re-run — the exact bug class behind the PR 6 resume
//       segfault).
//
// What static verification cannot prove (see docs/ANALYSIS.md): that task
// BODIES touch only what they declare (the dynamic shadow checker and TSan
// cover executed schedules), or anything about data values.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "runtime/task_graph.hpp"

namespace exaclim::analysis {

/// Ancestor-set reachability over a task graph, exploiting that submission
/// order is a topological order. O(V^2/64) bits; shared by the static
/// verifier and the dynamic shadow checker's epoch expectations.
class Reachability {
 public:
  /// `max_tasks` caps the closure: graphs larger than the cap get no
  /// closure (available() == false) and callers must degrade to direct-edge
  /// checks. 16384 tasks ~= 33 MB transient, far above any real tile grid.
  explicit Reachability(const runtime::TaskGraph& graph,
                        index_t max_tasks = 16384);

  bool available() const { return words_ > 0 || n_ == 0; }

  /// True when `from` strictly precedes `to` through the dependency
  /// relation (transitively). False for from == to.
  bool reaches(runtime::TaskId from, runtime::TaskId to) const {
    if (from < 0 || to < 0 || from >= n_ || to >= n_ || from == to) {
      return false;
    }
    if (words_ == 0) return false;
    const std::size_t word = static_cast<std::size_t>(to) * words_ +
                             static_cast<std::size_t>(from) / 64;
    return (bits_[word] >> (static_cast<std::size_t>(from) % 64)) & 1u;
  }

 private:
  index_t n_ = 0;
  std::size_t words_ = 0;           ///< 64-bit words per ancestor row
  std::vector<std::uint64_t> bits_; ///< row-major ancestor bitsets
};

enum class IssueKind : std::uint8_t {
  Structure,         ///< cycle, bad edge, predecessor-count mismatch
  MissingOrder,      ///< conflicting accesses with no dependency path
  Orphan,            ///< kernel task with no data, or unconsumed CONVERT
  EffectMismatch,    ///< declared effects disagree with inferred accesses
  PrecisionMismatch, ///< effect precision inconsistent with its plane/handle
  ConvertPlacement,  ///< copy-plane read without an ordered CONVERT producer
  PruneInconsistent, ///< already_done bitmap violates resume invariants
};

const char* issue_kind_name(IssueKind kind);

struct VerifyIssue {
  IssueKind kind = IssueKind::Structure;
  runtime::TaskId a = -1;  ///< primary offending task (-1 if none)
  runtime::TaskId b = -1;  ///< secondary task (e.g. the other racer)
  std::string message;     ///< rendered with task names and tile coords
};

struct VerifyReport {
  std::vector<VerifyIssue> issues;
  index_t tasks = 0;
  index_t edges = 0;
  index_t cells = 0;                  ///< distinct data (tile planes/handles)
  index_t ordered_pairs_checked = 0;  ///< covering conflict pairs verified
  /// False when the graph exceeded the reachability cap and ordering was
  /// only checked against direct edges (sufficient for builder-inferred
  /// graphs, stricter than necessary for hand-built ones).
  bool exhaustive = true;

  bool ok() const { return issues.empty(); }
  std::string summary(std::size_t max_issues = 8) const;
};

/// Thrown by verify_dag_or_throw (and the scheduler's --verify gate) when
/// verification finds issues; what() carries the rendered summary.
class DagVerifyError : public Error {
 public:
  explicit DagVerifyError(VerifyReport report)
      : Error("DAG verification failed: " + report.summary()),
        report_(std::move(report)) {}
  const VerifyReport& report() const { return report_; }

 private:
  VerifyReport report_;
};

struct VerifyLimits {
  index_t max_closure_tasks = 16384;  ///< Reachability cap (see above)
  std::size_t max_issues = 64;        ///< stop collecting past this many
  /// Treat `already_done` as a bitmap restored from an on-disk checkpoint:
  /// additionally require that no CONVERT task is marked done (converted
  /// copies are in-memory only and must re-run after a restart). Off by
  /// default because the scheduler also receives in-process continuation
  /// bitmaps from budgeted rounds, where completed CONVERTs legitimately
  /// stay done — their buffers are still alive in the same process.
  bool checkpoint_semantics = false;
};

/// Verifies the graph (checks (a)-(d) above); with `already_done` non-null,
/// also checks the resume-pruning invariants (e). Never throws on findings —
/// inspect the report.
VerifyReport verify_dag(const runtime::TaskGraph& graph,
                        const std::vector<std::uint8_t>* already_done = nullptr,
                        const VerifyLimits& limits = {});

/// verify_dag, throwing DagVerifyError unless the report is clean.
void verify_dag_or_throw(const runtime::TaskGraph& graph,
                         const std::vector<std::uint8_t>* already_done = nullptr,
                         const VerifyLimits& limits = {});

/// Check (e) alone, for a graph whose checks (a)-(d) already passed: checks
/// (a)-(d) depend only on the graph, so a budgeted run re-verifies each
/// later round's larger bitmap without rebuilding the reachability closure.
/// Reports the same PruneInconsistent issues as verify_dag.
VerifyReport verify_pruning(const runtime::TaskGraph& graph,
                            const std::vector<std::uint8_t>& already_done,
                            const VerifyLimits& limits = {});

/// verify_pruning, throwing DagVerifyError unless the report is clean.
void verify_pruning_or_throw(const runtime::TaskGraph& graph,
                             const std::vector<std::uint8_t>& already_done,
                             const VerifyLimits& limits = {});

}  // namespace exaclim::analysis
