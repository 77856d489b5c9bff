// Lock-free Chase–Lev work-stealing deque.
//
// One owner thread pushes and pops at the bottom without contending with
// anyone on the fast path; any number of thief threads steal from the top
// with a single CAS. The implementation follows Lê, Pop, Cohen & Nardelli,
// "Correct and Efficient Work-Stealing for Weak Memory Models" (PPoPP'13):
// their proven C11 version, with push's release fence folded into a release
// store of bottom_. TSan does not model standalone fences, and the
// seq_cst fences left in pop and steal only order the take/steal race on
// the last element (published data always travels through that release
// store), so the deque stays clean under ThreadSanitizer (ctest -L runtime
// with the `tsan` preset stress-tests concurrent push/pop/steal).
//
// The ring buffer grows on owner pushes; retired rings are kept alive until
// the deque is destroyed, so a thief that loaded a stale ring pointer still
// reads valid (relaxed-atomic) cells. Elements must be trivially copyable —
// the runtime stores TaskIds.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace exaclim::common {

template <typename T>
class WorkStealDeque {
  static_assert(std::is_trivially_copyable_v<T>,
                "cells are relaxed atomics; elements must be trivially copyable");

 public:
  explicit WorkStealDeque(std::int64_t capacity = 64)
      : ring_(new Ring(round_up_pow2(capacity))) {
    retired_.emplace_back(ring_.load(std::memory_order_relaxed));
  }

  WorkStealDeque(const WorkStealDeque&) = delete;
  WorkStealDeque& operator=(const WorkStealDeque&) = delete;
  ~WorkStealDeque() = default;  // rings owned by retired_

  /// Owner only. Grows the ring when full.
  void push(T value) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Ring* ring = ring_.load(std::memory_order_relaxed);
    if (b - t > ring->capacity - 1) {
      ring = grow(ring, t, b);
    }
    ring->put(b, value);
    // The release store publishes the cell to a thief whose acquire load of
    // bottom_ reads b + 1. It is Lê et al.'s release fence + relaxed store
    // in the one form ThreadSanitizer models (same x86 code).
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only. LIFO: returns the most recently pushed element.
  bool pop(T& out) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Ring* ring = ring_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {  // already empty: restore
      bottom_.store(b + 1, std::memory_order_relaxed);
      return false;
    }
    out = ring->get(b);
    if (t == b) {
      // Last element: race the thieves for it.
      const bool won = top_.compare_exchange_strong(
          t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
      bottom_.store(b + 1, std::memory_order_relaxed);
      return won;
    }
    return true;
  }

  /// Any thread. FIFO: steals the oldest element.
  bool steal(T& out) {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return false;
    Ring* ring = ring_.load(std::memory_order_acquire);
    out = ring->get(t);
    return top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed);
  }

  /// Racy size estimate (monitoring only).
  std::int64_t size_estimate() const {
    return bottom_.load(std::memory_order_relaxed) -
           top_.load(std::memory_order_relaxed);
  }

  /// Bytes held by rings retired from past growth (monitoring only).
  std::size_t retired_bytes() const {
    const Ring* live = ring_.load(std::memory_order_relaxed);
    std::size_t total = 0;
    for (const auto& r : retired_) {
      if (r.get() != live) {
        total += static_cast<std::size_t>(r->capacity) * sizeof(std::atomic<T>);
      }
    }
    return total;
  }

  /// Frees every retired ring except the live one, returning the bytes
  /// released. QUIESCENT ONLY: rings are retained precisely so a thief that
  /// loaded a stale ring pointer can still read it, so this may only run
  /// when no concurrent steal can be in flight (the scheduler calls it at
  /// round boundaries, after all workers have joined). Memory-pressure
  /// ladder rung 1.
  std::size_t release_retired() {
    const Ring* live = ring_.load(std::memory_order_relaxed);
    std::size_t freed = 0;
    std::vector<std::unique_ptr<Ring>> keep;
    for (auto& r : retired_) {
      if (r.get() == live) {
        keep.push_back(std::move(r));
      } else {
        freed += static_cast<std::size_t>(r->capacity) * sizeof(std::atomic<T>);
      }
    }
    retired_ = std::move(keep);
    return freed;
  }

 private:
  struct Ring {
    explicit Ring(std::int64_t cap)
        : capacity(cap), mask(cap - 1),
          cells(std::make_unique<std::atomic<T>[]>(
              static_cast<std::size_t>(cap))) {}
    T get(std::int64_t i) const {
      return cells[static_cast<std::size_t>(i & mask)].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, T v) {
      cells[static_cast<std::size_t>(i & mask)].store(
          v, std::memory_order_relaxed);
    }
    const std::int64_t capacity;
    const std::int64_t mask;
    std::unique_ptr<std::atomic<T>[]> cells;
  };

  static std::int64_t round_up_pow2(std::int64_t v) {
    std::int64_t p = 8;
    while (p < v) p <<= 1;
    return p;
  }

  /// Owner only: doubles the ring, copying live entries [t, b).
  Ring* grow(Ring* old, std::int64_t t, std::int64_t b) {
    auto bigger = std::make_unique<Ring>(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    Ring* raw = bigger.get();
    retired_.push_back(std::move(bigger));
    ring_.store(raw, std::memory_order_release);
    return raw;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Ring*> ring_;
  std::vector<std::unique_ptr<Ring>> retired_;  // owner-mutated (push path)
};

}  // namespace exaclim::common
