// Static CFG recovery over linked program images (the nfplint core).
//
// The analyzer rebuilds, without executing anything, the control-flow graph
// the superblock morph cache will discover dynamically: delay-slot-aware
// basic blocks (a control transfer and its delay slot always travel
// together), resolved branch/call edges, and terminators (static `ta 0`
// halts, register-indirect jmpl exits, illegal encodings). Along the way it
// lints exactly the constructs that would make the morph/chaining dispatch
// paths misbehave or fault:
//   errors   — CTI couples (a control transfer in a live delay slot),
//              illegal encodings on a reachable path, delay slots or
//              fall-throughs running off the image, static non-halt traps,
//              branch targets outside the image;
//   warnings — CTIs or illegal words in never-executed (annulled-always)
//              delay slots, reachable-looking code that no path reaches.
//
// Reachability is seeded at the program entry; call return sites (pc + 8)
// are assumed reachable, matching the simulator's flat call model.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "asmkit/program.h"

namespace nfp::analyze {

enum class Severity { kError, kWarning };

enum class LintCode {
  kEntryOffImage,
  kIllegalEncoding,
  kCtiInDelaySlot,
  kCtiInAnnulledSlot,
  kIllegalInAnnulledSlot,
  kDelaySlotOffImage,
  kFallThroughOffImage,
  kBranchTargetOffImage,
  kStaticTrapNotHalt,
  kUnreachableCode,
};

const char* to_string(LintCode code);

struct LintFinding {
  Severity severity = Severity::kError;
  LintCode code = LintCode::kIllegalEncoding;
  std::uint32_t pc = 0;
  std::string message;
};

struct CfgEdge {
  enum class Kind {
    kFallThrough,  // straight-line flow into the next leader
    kTaken,        // branch taken (includes unconditional)
    kUntaken,      // conditional branch not taken
    kCall,         // call edge to a static callee
  };
  Kind kind = Kind::kFallThrough;
  std::uint32_t target = 0;   // target block start address
  bool includes_slot = true;  // delay-slot insn retires along this edge
};

struct BasicBlock {
  std::uint32_t start = 0;
  std::uint32_t end = 0;  // exclusive; includes the delay slot if any
  std::uint32_t insn_count = 0;  // decoded insns, the delay slot included

  bool has_cti = false;
  bool has_slot = false;          // CTI couple: last insn is the delay slot
  bool indirect = false;          // jmpl exit: target unresolvable
  bool halt = false;              // static `ta 0`
  bool faults = false;            // ends at an illegal encoding / off image
  std::vector<CfgEdge> edges;
};

struct Cfg {
  std::uint32_t entry = 0;
  std::map<std::uint32_t, BasicBlock> blocks;  // keyed by start address
  std::vector<LintFinding> findings;

  bool has_errors() const {
    for (const auto& f : findings) {
      if (f.severity == Severity::kError) return true;
    }
    return false;
  }
  std::size_t error_count() const {
    std::size_t n = 0;
    for (const auto& f : findings) n += f.severity == Severity::kError;
    return n;
  }
};

// Recovers the CFG and runs the lints. Never throws on malformed images —
// every defect becomes a finding.
Cfg build_cfg(const asmkit::Program& program);

// Human-readable block/edge listing for nfplint --dump-cfg.
std::string dump(const Cfg& cfg);

// One line per finding: "error 0x40000010 cti-in-delay-slot: ...".
std::string render(const LintFinding& finding);

}  // namespace nfp::analyze
