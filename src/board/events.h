// The board's PMU-style event-counter surface.
//
// The accounting hooks always computed these tallies internally (SDRAM
// row misses, cache hits/misses, branch direction, row-miss stall cycles);
// this header promotes them into a versioned, iterable export so estimation
// schemes beyond the paper's Eq. 1 — the event-counter model of *Video
// Decoding Energy Estimation Using Processor Events* (2023) in particular —
// can read them like a performance-monitoring unit.
//
// Every counter is a view of the board's integer cost ledger (sim/ledger.h,
// folded in board/hooks.h), so EventCounters is bit-identical across
// Dispatch::kStep, kBlock and kJit, and it round-trips through the
// versioned snapshot format unchanged (board/board.cpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "sim/json.h"

namespace nfp::board {

// Bumped whenever a counter is added, removed, or changes meaning, so
// downstream consumers (JSONL records, fitted coefficient vectors) can
// detect a stale counter layout.
inline constexpr std::uint32_t kEventCountersVersion = 1;

enum class Event : std::uint8_t {
  kRetired = 0,        // total retired instructions
  kLoads,              // retired load-class memory ops
  kStores,             // retired store-class memory ops
  kRowMisses,          // SDRAM accesses that had to open a new row
  kCacheHits,          // data-cache hits (0 unless the cache is enabled)
  kCacheMisses,        // data-cache misses (0 unless the cache is enabled)
  kBranchesTaken,      // resolved-taken conditional branches
  kBranchesUntaken,    // resolved-untaken conditional branches
  kStallCycles,        // extra cycles spent waiting on SDRAM row opens
  kFpuOps,             // retired floating-point ops (LEON-style FPU counter)
  kMulDivOps,          // retired integer multiply/divide ops
};

inline constexpr std::size_t kEventCount = 11;

constexpr std::string_view event_name(Event e) {
  switch (e) {
    case Event::kRetired: return "retired";
    case Event::kLoads: return "loads";
    case Event::kStores: return "stores";
    case Event::kRowMisses: return "row_misses";
    case Event::kCacheHits: return "cache_hits";
    case Event::kCacheMisses: return "cache_misses";
    case Event::kBranchesTaken: return "branches_taken";
    case Event::kBranchesUntaken: return "branches_untaken";
    case Event::kStallCycles: return "stall_cycles";
    case Event::kFpuOps: return "fpu_ops";
    case Event::kMulDivOps: return "muldiv_ops";
  }
  return "?";
}

struct EventCounters {
  std::array<std::uint64_t, kEventCount> v{};

  std::uint64_t& operator[](Event e) {
    return v[static_cast<std::size_t>(e)];
  }
  std::uint64_t operator[](Event e) const {
    return v[static_cast<std::size_t>(e)];
  }

  friend bool operator==(const EventCounters&, const EventCounters&) = default;
};

// {"version":kEventCountersVersion, then every event_name in Event order}.
inline void to_json(sim::JsonWriter& w, const EventCounters& ev) {
  w.begin_object().field("version", kEventCountersVersion);
  for (std::size_t i = 0; i < kEventCount; ++i) {
    const auto e = static_cast<Event>(i);
    w.field(event_name(e), ev[e]);
  }
  w.end_object();
}

}  // namespace nfp::board
