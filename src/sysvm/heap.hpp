// "Storage management: general heap with variable size blocks" — the
// system programmer's VM storage manager, one per cluster shared memory.
//
// The heap manages a simulated address space; blocks carry simulated
// addresses (offsets) so fragmentation behaviour is modeled faithfully.
// Placement policy is pluggable (first-fit / best-fit / next-fit) — the
// bench_heap experiment ablates them under FEM-2-shaped allocation traces.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "support/check.hpp"

namespace fem2::sysvm {

enum class HeapPolicy { FirstFit, BestFit, NextFit };

std::string_view heap_policy_name(HeapPolicy p);

struct HeapStats {
  std::uint64_t allocations = 0;
  std::uint64_t frees = 0;
  std::uint64_t failed_allocations = 0;
  std::size_t in_use = 0;
  std::size_t high_water = 0;
  std::uint64_t search_steps = 0;  ///< free-list nodes visited (cost proxy)

  /// External fragmentation: 1 - largest_free / total_free (0 when empty).
  double external_fragmentation = 0.0;
};

class Heap {
 public:
  Heap(std::size_t capacity, HeapPolicy policy = HeapPolicy::FirstFit,
       std::size_t alignment = 8);

  static constexpr std::size_t kNullAddress = ~std::size_t{0};

  /// Returns simulated address, or kNullAddress when no block fits.
  std::size_t allocate(std::size_t bytes);

  /// Free a block previously returned by allocate (exact address).
  void free(std::size_t address);

  std::size_t capacity() const { return capacity_; }
  std::size_t in_use() const { return stats_.in_use; }
  std::size_t largest_free_block() const;
  std::size_t block_size(std::size_t address) const;
  std::size_t live_blocks() const { return allocated_.size(); }
  std::size_t free_list_length() const { return free_.size(); }
  HeapPolicy policy() const { return policy_; }

  const HeapStats& stats() const;

  /// Invariant check used by the property tests: free + allocated blocks
  /// tile the address space exactly, with no overlap and full coalescing.
  void check_invariants() const;

 private:
  std::map<std::size_t, std::size_t>::iterator find_fit(std::size_t bytes);

  std::size_t capacity_;
  HeapPolicy policy_;
  std::size_t alignment_;
  std::map<std::size_t, std::size_t> free_;       ///< address -> size
  std::map<std::size_t, std::size_t> allocated_;  ///< address -> size
  std::size_t next_fit_cursor_ = 0;
  mutable HeapStats stats_;
};

}  // namespace fem2::sysvm
