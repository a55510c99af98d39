// The counting instruction-set simulator (the paper's extended OVPsim):
// instruction-accurate functional execution plus per-op retire counters.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "asmkit/program.h"
#include "sim/executor.h"
#include "sim/hooks.h"
#include "sim/platform.h"
#include "sim/state_io.h"

namespace nfp::sim {

class Iss {
 public:
  // Default instruction budget: generous enough for every workload in the
  // repo; hitting it means a runaway kernel and yields halted == false.
  static constexpr std::uint64_t kDefaultMaxInsns = 20'000'000'000ull;

  void load(const asmkit::Program& program) {
    platform_.load(program);
    hooks_ = OpCountHooks{};  // counters belong to the loaded program
  }

  RunResult run(std::uint64_t max_insns = kDefaultMaxInsns,
                Dispatch dispatch = Dispatch::kBlock) {
    return run_platform(platform_, hooks_, max_insns, dispatch);
  }

  // Serializes the platform plus the retire-count vector; restore is
  // all-or-nothing (see sim/state_io.h) and the resumed run retires
  // bit-for-bit identically to the uninterrupted one in every dispatch mode.
  void save_state(std::ostream& out) const {
    StateWriter w;
    append_platform_chunks(w, platform_);
    w.begin_chunk(kChunkCounts);
    w.put_u32(static_cast<std::uint32_t>(hooks_.counts.size()));
    for (const std::uint64_t c : hooks_.counts) w.put_u64(c);
    w.end_chunk();
    w.finish(out);
  }

  void restore_state(std::istream& in) {
    auto tags = platform_chunk_tags();
    tags.push_back(kChunkCounts);
    const StateReader r(in, tags);
    OpCountHooks hooks;
    ChunkCursor c(r.payload(kChunkCounts));
    if (c.get_u32() != hooks.counts.size()) {
      throw StateError(StateErrorCode::kBadPayload,
                       "retire-count vector has the wrong arity");
    }
    for (std::uint64_t& count : hooks.counts) count = c.get_u64();
    c.done();
    apply_platform_chunks(r, platform_);
    hooks_ = hooks;
  }

  const OpCountHooks& counters() const { return hooks_; }
  Platform& platform() { return platform_; }
  const Platform& platform() const { return platform_; }
  Bus& bus() { return platform_.bus(); }
  CpuState& cpu() { return platform_.cpu(); }
  const CpuState& cpu() const { return platform_.cpu(); }

 private:
  Platform platform_;
  OpCountHooks hooks_;
};

// Functional-only simulator (fastest rung of the Fig. 1 ladder).
class FunctionalSim {
 public:
  void load(const asmkit::Program& program) { platform_.load(program); }

  RunResult run(std::uint64_t max_insns = Iss::kDefaultMaxInsns,
                Dispatch dispatch = Dispatch::kBlock) {
    NullHooks hooks;
    return run_platform(platform_, hooks, max_insns, dispatch);
  }

  Platform& platform() { return platform_; }
  Bus& bus() { return platform_.bus(); }

 private:
  Platform platform_;
};

}  // namespace nfp::sim
