// Execution tracing: runs a program while capturing a disassembled
// instruction trace (debugging aid; also powers `nfpc --trace`).
#pragma once

#include <cstdio>
#include <string>

#include "asmkit/program.h"
#include "isa/disasm.h"
#include "sim/executor.h"
#include "sim/platform.h"

namespace nfp::sim {

struct TraceHooks {
  static constexpr bool kWantsDetail = true;
  // A trace is inherently per-instruction; block-batched retire would skip
  // the disassembly callback.
  static constexpr bool kBatchRetire = false;

  std::string* out = nullptr;
  std::size_t limit = 0;
  std::size_t emitted = 0;

  void on_retire(const isa::DecodedInsn& d, const RetireInfo& info) {
    if (emitted >= limit) return;
    ++emitted;
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", info.pc);
    *out += std::string(buf) + "  " + isa::disassemble(d, info.pc) + "\n";
    if (emitted == limit) *out += "... (trace limit reached)\n";
  }
};

class TraceSim {
 public:
  explicit TraceSim(std::size_t limit = 200) { hooks_.limit = limit; }

  void load(const asmkit::Program& program) { platform_.load(program); }

  // Runs to completion; returns the captured trace. TraceHooks never batch
  // (kBatchRetire == false), so the run steps instruction by instruction;
  // the attached morph cache keeps the predecode image coherent under
  // stores into code, matching the other simulators on self-modifying
  // programs.
  std::string run(std::uint64_t max_insns = 100'000'000ull) {
    std::string trace;
    hooks_.out = &trace;
    hooks_.emitted = 0;
    run_platform(platform_, hooks_, max_insns, Dispatch::kStep);
    hooks_.out = nullptr;
    return trace;
  }

  Platform& platform() { return platform_; }
  Bus& bus() { return platform_.bus(); }
  CpuState& cpu() { return platform_.cpu(); }

 private:
  Platform platform_;
  TraceHooks hooks_;
};

}  // namespace nfp::sim
