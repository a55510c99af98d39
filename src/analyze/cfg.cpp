#include "analyze/cfg.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "isa/decode.h"
#include "isa/names.h"

namespace nfp::analyze {
namespace {

using isa::Op;

// CTIs with an architectural delay slot. Ticc has none: the simulator
// advances sequentially after a non-taken (or halting) trap.
bool has_delay_slot(Op op) {
  return op == Op::kBicc || op == Op::kFbfcc || op == Op::kCall ||
         op == Op::kJmpl;
}

// True when the delay slot can never execute: annul with an unconditional
// outcome (ba,a / fba,a skip always; bn,a / fbn,a annul always because the
// branch is never taken).
bool slot_never_executes(const isa::DecodedInsn& d) {
  if (!d.annul) return false;
  if (d.op != Op::kBicc && d.op != Op::kFbfcc) return false;
  return d.cond == 8 || d.cond == 0;
}

std::string hex(std::uint32_t value) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", value);
  return buf;
}

class Builder {
 public:
  explicit Builder(const asmkit::Program& program)
      : prog_(program),
        image_base_(program.base()),
        image_end_(program.end()),
        text_end_(program.text_end()) {
    cfg_.entry = program.entry();
  }

  Cfg run() {
    if ((cfg_.entry & 3) != 0 || !word_in_image(cfg_.entry)) {
      emit(Severity::kError, LintCode::kEntryOffImage, cfg_.entry,
           "entry point outside the image");
      return std::move(cfg_);
    }
    discover();
    for (const std::uint32_t leader : leaders_) {
      if (processed_.count(leader) != 0) build_block(leader);
    }
    report_unreachable();
    return std::move(cfg_);
  }

 private:
  bool word_in_image(std::uint32_t addr) const {
    return addr >= image_base_ && addr + 4 <= image_end_ &&
           addr + 4 > addr;
  }

  void emit(Severity severity, LintCode code, std::uint32_t pc,
            std::string message) {
    if (!emitted_.insert({static_cast<int>(code), pc}).second) return;
    cfg_.findings.push_back(
        LintFinding{severity, code, pc, std::move(message)});
  }

  // Phase 1: instruction-level reachability from the entry. Every address is
  // processed once as a sequential execution point; control-transfer couples
  // are handled atomically so successor sets respect delay-slot semantics.
  void discover() {
    push_leader(cfg_.entry);
    while (!worklist_.empty()) {
      const std::uint32_t pc = worklist_.back();
      worklist_.pop_back();
      if (!processed_.insert(pc).second) continue;
      step_discover(pc);
    }
  }

  void push_leader(std::uint32_t addr) {
    leaders_.insert(addr);
    if (processed_.count(addr) == 0) worklist_.push_back(addr);
  }

  // Sequential successor used by fall-throughs and call returns; checks that
  // another instruction can actually be fetched there.
  void push_fallthrough(std::uint32_t from, std::uint32_t addr) {
    if (!word_in_image(addr)) {
      emit(Severity::kError, LintCode::kFallThroughOffImage, from,
           "execution falls through the end of the image");
      return;
    }
    push_leader(addr);
  }

  void push_target(std::uint32_t from, std::uint32_t target) {
    if (!word_in_image(target)) {
      emit(Severity::kError, LintCode::kBranchTargetOffImage, from,
           "control transfer targets " + hex(target) + ", outside the image");
      return;
    }
    push_leader(target);
  }

  void step_discover(std::uint32_t pc) {
    reachable_.insert(pc);
    const isa::DecodedInsn d = isa::decode(prog_.word_at(pc));
    if (d.op == Op::kInvalid) {
      emit(Severity::kError, LintCode::kIllegalEncoding, pc,
           "illegal encoding " + hex(d.raw) + " on a reachable path");
      return;
    }
    if (has_delay_slot(d.op)) {
      couple_discover(pc, d);
      return;
    }
    if (d.op == Op::kTicc) {
      if (d.cond == 8) {
        // Trap-always: a static halt if the trap number is known to be 0.
        if (d.rs1 == 0 && d.has_imm && (d.imm & 0x7F) != 0) {
          emit(Severity::kError, LintCode::kStaticTrapNotHalt, pc,
               "trap-always with software trap " +
                   std::to_string(d.imm & 0x7F) +
                   " is a guaranteed simulator fault");
        }
        return;  // terminator either way
      }
      push_fallthrough(pc, pc + 4);  // conditional trap: block boundary
      return;
    }
    // Plain sequential instruction: the successor is not a leader.
    if (!word_in_image(pc + 4)) {
      emit(Severity::kError, LintCode::kFallThroughOffImage, pc,
           "execution falls through the end of the image");
      return;
    }
    worklist_.push_back(pc + 4);
  }

  void couple_discover(std::uint32_t pc, const isa::DecodedInsn& d) {
    const std::uint32_t slot_pc = pc + 4;
    if (!word_in_image(slot_pc)) {
      emit(Severity::kError, LintCode::kDelaySlotOffImage, pc,
           "delay slot runs off the image");
      return;
    }
    reachable_.insert(slot_pc);
    const isa::DecodedInsn slot = isa::decode(prog_.word_at(slot_pc));
    const bool never = slot_never_executes(d);
    if (slot.op == Op::kInvalid) {
      if (never) {
        emit(Severity::kWarning, LintCode::kIllegalInAnnulledSlot, slot_pc,
             "illegal encoding in an always-annulled delay slot");
      } else {
        emit(Severity::kError, LintCode::kIllegalEncoding, slot_pc,
             "illegal encoding " + hex(slot.raw) + " in a delay slot");
      }
    } else if (isa::is_control(slot.op)) {
      if (never) {
        emit(Severity::kWarning, LintCode::kCtiInAnnulledSlot, slot_pc,
             "control transfer in an always-annulled delay slot");
      } else {
        emit(Severity::kError, LintCode::kCtiInDelaySlot, slot_pc,
             "control transfer in the delay slot of the " +
                 std::string(isa::mnemonic(d.op)) + " at " + hex(pc));
      }
    }
    switch (d.op) {
      case Op::kBicc:
      case Op::kFbfcc: {
        const std::uint32_t target = pc + static_cast<std::uint32_t>(d.imm);
        if (d.cond != 0) push_target(pc, target);            // can be taken
        if (d.cond != 8) push_fallthrough(pc, pc + 8);       // can fall through
        break;
      }
      case Op::kCall:
        push_target(pc, pc + static_cast<std::uint32_t>(d.imm));
        // The simulator's flat call model: assume callees return.
        push_fallthrough(pc, pc + 8);
        break;
      default:  // jmpl: indirect; a link-register write implies a call site
        if (d.rd != 0) push_fallthrough(pc, pc + 8);
        break;
    }
  }

  // Phase 2: carve blocks out of the reachable instruction stream, one per
  // leader, each ending at the next leader, a CTI couple, or a terminator.
  void build_block(std::uint32_t leader) {
    BasicBlock block;
    block.start = leader;
    std::uint32_t pc = leader;
    for (;;) {
      if (!word_in_image(pc)) {
        block.faults = true;
        break;
      }
      const isa::DecodedInsn d = isa::decode(prog_.word_at(pc));
      if (d.op == Op::kInvalid) {
        block.faults = true;
        break;
      }
      ++block.insn_count;
      if (has_delay_slot(d.op)) {
        finish_couple(block, pc, d);
        pc += 8;
        break;
      }
      if (d.op == Op::kTicc) {
        block.has_cti = true;
        if (d.cond == 8) {
          block.halt = !(d.rs1 == 0 && d.has_imm && (d.imm & 0x7F) != 0);
          block.faults = !block.halt;
        } else if (word_in_image(pc + 4)) {
          block.edges.push_back(
              CfgEdge{CfgEdge::Kind::kUntaken, pc + 4, true});
        }
        pc += 4;
        break;
      }
      pc += 4;
      if (leaders_.count(pc) != 0) {
        block.edges.push_back(CfgEdge{CfgEdge::Kind::kFallThrough, pc, true});
        break;
      }
    }
    block.end = pc;
    cfg_.blocks.emplace(leader, std::move(block));
  }

  void finish_couple(BasicBlock& block, std::uint32_t pc,
                     const isa::DecodedInsn& d) {
    block.has_cti = true;
    const bool never = slot_never_executes(d);
    if (word_in_image(pc + 4)) {
      const isa::DecodedInsn slot = isa::decode(prog_.word_at(pc + 4));
      if (slot.op != Op::kInvalid) {
        block.has_slot = true;
        ++block.insn_count;
      } else {
        block.faults = !never;
      }
    } else {
      block.faults = true;
      return;
    }
    const auto add_edge = [&](CfgEdge::Kind kind, std::uint32_t target,
                              bool slot_runs) {
      if (leaders_.count(target) != 0) {
        block.edges.push_back(CfgEdge{kind, target, slot_runs});
      }
    };
    switch (d.op) {
      case Op::kBicc:
      case Op::kFbfcc: {
        const std::uint32_t target = pc + static_cast<std::uint32_t>(d.imm);
        // The annul bit skips the slot on the not-taken path (and always,
        // for unconditional branches).
        if (d.cond != 0) add_edge(CfgEdge::Kind::kTaken, target, !d.annul || d.cond != 8);
        if (d.cond != 8) add_edge(CfgEdge::Kind::kUntaken, pc + 8, !d.annul);
        break;
      }
      case Op::kCall:
        add_edge(CfgEdge::Kind::kCall, pc + static_cast<std::uint32_t>(d.imm),
                 true);
        break;
      default:
        block.indirect = true;
        break;
    }
  }

  // Warn about plausible code (valid-decoding word runs inside the text
  // section) that no reachable path covers.
  void report_unreachable() {
    constexpr std::size_t kMaxRuns = 16;
    std::size_t runs = 0;
    std::uint32_t run_start = 0, run_len = 0;
    const auto flush = [&] {
      if (run_len == 0) return;
      if (runs < kMaxRuns) {
        emit(Severity::kWarning, LintCode::kUnreachableCode, run_start,
             std::to_string(run_len) + " unreachable instruction(s)");
      }
      ++runs;
      run_len = 0;
    };
    for (std::uint32_t pc = image_base_; pc + 4 <= text_end_;
         pc += 4) {
      const bool code = reachable_.count(pc) == 0 &&
                        isa::decode(prog_.word_at(pc)).op != Op::kInvalid;
      if (code) {
        if (run_len == 0) run_start = pc;
        ++run_len;
      } else {
        flush();
      }
    }
    flush();
  }

  const asmkit::Program& prog_;
  const std::uint32_t image_base_, image_end_, text_end_;
  Cfg cfg_;
  std::vector<std::uint32_t> worklist_;
  std::set<std::uint32_t> processed_;
  std::set<std::uint32_t> reachable_;
  std::set<std::uint32_t> leaders_;
  std::set<std::pair<int, std::uint32_t>> emitted_;
};

}  // namespace

const char* to_string(LintCode code) {
  switch (code) {
    case LintCode::kEntryOffImage: return "entry-off-image";
    case LintCode::kIllegalEncoding: return "illegal-encoding";
    case LintCode::kCtiInDelaySlot: return "cti-in-delay-slot";
    case LintCode::kCtiInAnnulledSlot: return "cti-in-annulled-slot";
    case LintCode::kIllegalInAnnulledSlot: return "illegal-in-annulled-slot";
    case LintCode::kDelaySlotOffImage: return "delay-slot-off-image";
    case LintCode::kFallThroughOffImage: return "fall-through-off-image";
    case LintCode::kBranchTargetOffImage: return "branch-target-off-image";
    case LintCode::kStaticTrapNotHalt: return "static-trap-not-halt";
    case LintCode::kUnreachableCode: return "unreachable-code";
  }
  return "unknown";
}

Cfg build_cfg(const asmkit::Program& program) { return Builder(program).run(); }

std::string render(const LintFinding& f) {
  return std::string(f.severity == Severity::kError ? "error" : "warning") +
         " " + hex(f.pc) + " " + to_string(f.code) + ": " + f.message;
}

std::string dump(const Cfg& cfg) {
  std::string out;
  char buf[128];
  for (const auto& [start, b] : cfg.blocks) {
    std::snprintf(buf, sizeof buf, "block %08x..%08x  %u insn(s)%s%s%s%s\n",
                  b.start, b.end, b.insn_count,
                  b.has_cti ? "  cti" : "", b.halt ? "  halt" : "",
                  b.indirect ? "  indirect" : "", b.faults ? "  faults" : "");
    out += buf;
    for (const auto& e : b.edges) {
      const char* kind = e.kind == CfgEdge::Kind::kTaken      ? "taken"
                         : e.kind == CfgEdge::Kind::kUntaken  ? "untaken"
                         : e.kind == CfgEdge::Kind::kCall     ? "call"
                                                              : "fall";
      std::snprintf(buf, sizeof buf, "  -> %08x  %s%s\n", e.target, kind,
                    e.includes_slot ? "" : "  (slot annulled)");
      out += buf;
    }
  }
  for (const auto& f : cfg.findings) out += render(f) + "\n";
  return out;
}

}  // namespace nfp::analyze
