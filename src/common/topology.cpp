#include "common/topology.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace exaclim::common {

namespace {

/// Reads a small sysfs file into a string; empty on failure. `exists`
/// distinguishes an unreadable file from one that is present but empty
/// (a memory-only NUMA node's cpulist is present-but-empty).
std::string read_sys_file(const std::string& path, bool* exists = nullptr) {
  std::ifstream in(path);
  if (exists != nullptr) *exists = static_cast<bool>(in);
  if (!in) return {};
  std::string content;
  std::getline(in, content);
  return content;
}

int read_sys_int(const std::string& path, int fallback) {
  const std::string s = read_sys_file(path);
  if (s.empty()) return fallback;
  try {
    return std::stoi(s);
  } catch (...) {
    return fallback;
  }
}

/// CPUs the process is currently allowed to run on; empty = unrestricted or
/// unknown.
std::vector<int> allowed_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return {};
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
#else
  return {};
#endif
}

}  // namespace

std::size_t parse_cache_size(const std::string& text) {
  std::size_t pos = 0;
  long long v = 0;
  try {
    v = std::stoll(text, &pos);
  } catch (...) {
    return 0;
  }
  if (pos == 0 || v < 0) return 0;
  std::size_t scale = 1;
  if (pos < text.size()) {
    switch (text[pos]) {
      case 'K': case 'k': scale = 1ull << 10; ++pos; break;
      case 'M': case 'm': scale = 1ull << 20; ++pos; break;
      case 'G': case 'g': scale = 1ull << 30; ++pos; break;
      default: break;
    }
    // Tolerate only trailing whitespace after the size (getline already
    // stripped the newline); anything else is malformed.
    for (; pos < text.size(); ++pos) {
      if (!std::isspace(static_cast<unsigned char>(text[pos]))) return 0;
    }
  }
  return static_cast<std::size_t>(v) * scale;
}

std::vector<int> parse_cpu_list(const std::string& list) {
  std::vector<int> cpus;
  std::size_t i = 0;
  while (i < list.size()) {
    if (!std::isdigit(static_cast<unsigned char>(list[i]))) return {};
    std::size_t used = 0;
    int lo = 0;
    try {
      lo = std::stoi(list.substr(i), &used);
    } catch (...) {
      return {};
    }
    i += used;
    int hi = lo;
    if (i < list.size() && list[i] == '-') {
      ++i;
      if (i >= list.size() ||
          !std::isdigit(static_cast<unsigned char>(list[i]))) {
        return {};
      }
      try {
        hi = std::stoi(list.substr(i), &used);
      } catch (...) {
        return {};
      }
      i += used;
    }
    if (hi < lo) return {};
    for (int c = lo; c <= hi; ++c) cpus.push_back(c);
    if (i < list.size()) {
      if (list[i] != ',') break;  // trailing whitespace/newline: stop cleanly
      ++i;
    }
  }
  return cpus;
}

const Topology& Topology::instance() {
  static Topology topo;
  return topo;
}

Topology::Topology() {
  const auto allowed = allowed_cpus();
  auto is_allowed = [&](int cpu) {
    return allowed.empty() ||
           std::find(allowed.begin(), allowed.end(), cpu) != allowed.end();
  };

  // Node map: /sys/devices/system/node/node<N>/cpulist. Missing node dirs
  // (non-NUMA kernels) fall through to the single-node path below. A node
  // whose cpulist exists but is empty is a memory-only node (CXL expander,
  // persistent memory): skip it but keep scanning — CPU-bearing nodes can
  // follow it, and node ids may be sparse. Stop only after a run of
  // genuinely absent node dirs.
  std::vector<std::pair<int, std::vector<int>>> nodes;
  int missing_streak = 0;
  for (int n = 0; n < 1024 && missing_streak < 16; ++n) {
    bool exists = false;
    const std::string list = read_sys_file(
        "/sys/devices/system/node/node" + std::to_string(n) + "/cpulist",
        &exists);
    if (!exists) {
      ++missing_streak;
      continue;
    }
    missing_streak = 0;
    auto cpus = parse_cpu_list(list);
    if (cpus.empty()) continue;  // memory-only node
    nodes.emplace_back(n, std::move(cpus));
  }

  if (!nodes.empty()) {
    for (const auto& [node, cpus] : nodes) {
      for (int cpu : cpus) {
        if (!is_allowed(cpu)) continue;
        CpuSlot slot;
        slot.cpu = cpu;
        slot.node = node;
        slot.core = read_sys_int("/sys/devices/system/cpu/cpu" +
                                     std::to_string(cpu) + "/topology/core_id",
                                 cpu);
        // SMT rank: position of this CPU within its sibling list.
        const auto siblings = parse_cpu_list(read_sys_file(
            "/sys/devices/system/cpu/cpu" + std::to_string(cpu) +
            "/topology/thread_siblings_list"));
        const auto it = std::find(siblings.begin(), siblings.end(), cpu);
        slot.smt_rank = it == siblings.end()
                            ? 0
                            : static_cast<int>(it - siblings.begin());
        slots_.push_back(slot);
      }
    }
    from_sysfs_ = !slots_.empty();
  }

  if (slots_.empty()) {
    // Portable fallback: one node, anonymous CPUs (use the affinity mask's
    // CPU ids when known so pinning still works without /sys).
    const unsigned hc = std::max(1u, std::thread::hardware_concurrency());
    const unsigned n =
        allowed.empty() ? hc : static_cast<unsigned>(allowed.size());
    for (unsigned i = 0; i < n; ++i) {
      CpuSlot slot;
      slot.cpu = allowed.empty() ? static_cast<int>(i) : allowed[i];
      slot.core = static_cast<int>(i);
      slots_.push_back(slot);
    }
  }

  // Pin order: every physical core once (across nodes, low core ids first),
  // then second hyperthreads, and so on.
  std::stable_sort(slots_.begin(), slots_.end(),
                   [](const CpuSlot& a, const CpuSlot& b) {
                     if (a.smt_rank != b.smt_rank) return a.smt_rank < b.smt_rank;
                     if (a.node != b.node) return a.node < b.node;
                     return a.core < b.core;
                   });

  // Count distinct CPU-bearing nodes (node ids can be sparse when
  // memory-only nodes sit between them).
  std::vector<int> node_ids;
  for (const auto& s : slots_) node_ids.push_back(s.node);
  std::sort(node_ids.begin(), node_ids.end());
  node_ids.erase(std::unique(node_ids.begin(), node_ids.end()),
                 node_ids.end());
  num_nodes_ = std::max<unsigned>(1, static_cast<unsigned>(node_ids.size()));

  // Cache hierarchy of the first allowed CPU: level + type + size from
  // /sys/devices/system/cpu/cpu<N>/cache/index*/. Only reported (bench metas,
  // the trace's kernel_tuning row); a level left at 0 reads as unknown.
  const int probe_cpu = slots_.empty() ? 0 : slots_.front().cpu;
  const std::string cache_base = "/sys/devices/system/cpu/cpu" +
                                 std::to_string(probe_cpu) + "/cache/index";
  for (int idx = 0; idx < 10; ++idx) {
    bool exists = false;
    const std::string level_s =
        read_sys_file(cache_base + std::to_string(idx) + "/level", &exists);
    if (!exists) break;
    const std::string type =
        read_sys_file(cache_base + std::to_string(idx) + "/type");
    const std::size_t size =
        parse_cache_size(read_sys_file(cache_base + std::to_string(idx) + "/size"));
    int level = 0;
    try {
      level = std::stoi(level_s);
    } catch (...) {
      continue;
    }
    if (size == 0 || type == "Instruction") continue;
    if (level == 1 && type == "Data") {
      cache_.l1d = size;
    } else if (level == 2) {
      cache_.l2 = size;
    } else if (level == 3) {
      cache_.l3 = size;
    }
  }
}

bool Topology::pin_current_thread(int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

}  // namespace exaclim::common
