// Machine topology map for the unified worker team: which CPUs the process
// may run on, which NUMA node and physical core each belongs to, and an
// ordering that places one worker per physical core (across all nodes)
// before doubling up on SMT siblings.
//
// Parsed once from /sys/devices/system/{node,cpu} on Linux, intersected with
// the process affinity mask so cgroup/cpuset-restricted containers never pin
// to a forbidden CPU. On other platforms (or if /sys is unreadable) the map
// degrades to a single node of hardware_concurrency anonymous CPUs and
// pinning becomes a no-op.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace exaclim::common {

/// One schedulable CPU the process is allowed to use.
struct CpuSlot {
  int cpu = 0;       ///< kernel CPU id (what sched_setaffinity takes)
  int node = 0;      ///< NUMA node id
  int core = 0;      ///< physical core id within the package
  int smt_rank = 0;  ///< 0 = first hyperthread of its core, 1 = second, ...
};

/// Per-core data-cache capacities in bytes, read from
/// /sys/devices/system/cpu/cpu<N>/cache/index*/ (level + type + size) on
/// Linux. A level that is missing or unparsable stays 0 = unknown. Reported
/// next to the kernels' fixed blocking (linalg::active_tuning), which they
/// do not change.
struct CacheSizes {
  std::size_t l1d = 0;  ///< level-1 data cache
  std::size_t l2 = 0;   ///< level-2 (unified) cache
  std::size_t l3 = 0;   ///< level-3 (unified, often shared) cache
};

class Topology {
 public:
  /// Process-wide topology, parsed on first use.
  static const Topology& instance();

  /// Allowed CPUs in pin order: smt_rank-major, then node, then core — so
  /// the first `physical cores` slots cover every physical core across all
  /// nodes, and hyperthread siblings come last.
  const std::vector<CpuSlot>& slots() const { return slots_; }

  unsigned num_cpus() const { return static_cast<unsigned>(slots_.size()); }
  unsigned num_nodes() const { return num_nodes_; }
  bool from_sysfs() const { return from_sysfs_; }

  /// Cache hierarchy of the first allowed CPU (cores are assumed homogeneous
  /// for sizing purposes). Sizes are 0 when /sys is unreadable.
  const CacheSizes& cache() const { return cache_; }

  /// NUMA node of pin-order slot i (wraps when i >= num_cpus).
  int node_of_slot(unsigned i) const {
    return slots_.empty() ? 0 : slots_[i % slots_.size()].node;
  }

  /// Pins the calling thread to the given kernel CPU id. Returns false when
  /// unsupported on this platform or rejected by the kernel (never throws:
  /// a failed pin just leaves the thread floating).
  static bool pin_current_thread(int cpu);

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

 private:
  Topology();

  std::vector<CpuSlot> slots_;
  unsigned num_nodes_ = 1;
  bool from_sysfs_ = false;
  CacheSizes cache_;
};

/// Parses a /sys cpulist string ("0-3,8,10-11") into CPU ids; returns an
/// empty vector on malformed input. Exposed for unit testing.
std::vector<int> parse_cpu_list(const std::string& list);

/// Parses a /sys cache size string ("48K", "2048K", "36M", plain bytes) into
/// bytes; returns 0 on malformed input. Exposed for unit testing.
std::size_t parse_cache_size(const std::string& text);

}  // namespace exaclim::common
