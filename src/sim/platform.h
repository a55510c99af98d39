// Platform = bus + CPU state + loaded program (predecoded). Shared by the
// counting ISS (sim/iss.h) and the measurement board (board/board.h), which
// differ only in the retire hooks they attach (paper Fig. 1: same functional
// simulation, different non-functional instrumentation).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "asmkit/program.h"
#include "isa/decode.h"
#include "sim/block_cache.h"
#include "sim/bus.h"
#include "sim/cpu_state.h"

namespace nfp::sim {

struct RunResult {
  bool halted = false;
  std::uint64_t instret = 0;
  std::uint32_t exit_code = 0;
};

class Platform {
 public:
  Platform();

  // Copies the program into RAM, predecodes its text section, and resets
  // the CPU (pc = entry, %sp = kStackTop). Only [base, base + text_size())
  // is predecoded, so the decode cache, the block cache and the jit's store
  // guard cover code and not static data: stores to .data take the plain
  // store paths, and a pc outside the text single-steps with a fresh decode
  // from RAM. A program without a .data marker counts as all text. Any
  // previous machine state is discarded: RAM pages touched by an earlier
  // run are zeroed and the UART cleared. A program with the same base and
  // text size as the installed one keeps the decoded, morphed and compiled
  // code, and only the text words that differ are re-decoded and their
  // blocks flushed (see install()); any other program gets a new decode and
  // morph cache. Either way the cache counters restart and a reused
  // Platform runs bit-identically to a freshly constructed one.
  void load(const asmkit::Program& program);

  Bus& bus() { return bus_; }
  const Bus& bus() const { return bus_; }
  CpuState& cpu() { return cpu_; }
  const CpuState& cpu() const { return cpu_; }

  std::uint32_t code_base() const { return code_base_; }
  const std::vector<isa::DecodedInsn>& decode_cache() const { return dcache_; }

  // The installed program, as snapshots serialize it.
  const asmkit::Program& loaded_program() const { return program_; }

  // Superblock morph cache over the predecoded text (Dispatch::kBlock);
  // null until a program is loaded.
  BlockCache* block_cache() { return bcache_.get(); }

 private:
  // Snapshot restore (sim/state_io.cpp) installs its image through install().
  friend void apply_platform_chunks(const class StateReader& r, Platform& p);

  // The one image-install routine behind load() and snapshot restore: zeroes
  // the touched RAM, clears the UART, lets `write_ram` fill RAM, and makes
  // `program` the loaded image. The CPU is left to the caller. When the
  // image has the installed one's base and text size, the decode cache, the
  // block cache and its jit stay, and every text word that differs from
  // the word its decode cache entry was decoded from goes through
  // BlockCache::invalidate, the self-modifying-code path. Any other image
  // has its text decoded afresh into a new block cache.
  void install(asmkit::Program program,
               const std::function<void()>& write_ram);

  Bus bus_;
  CpuState cpu_;
  std::uint32_t code_base_ = 0;
  asmkit::Program program_;
  std::vector<isa::DecodedInsn> dcache_;
  std::unique_ptr<BlockCache> bcache_;
};

}  // namespace nfp::sim
