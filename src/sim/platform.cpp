#include "sim/platform.h"

#include "sim/memmap.h"

namespace nfp::sim {

Platform::Platform() {
  bus_.set_instret_source([this] { return cpu_.instret; });
  // The target-visible timer advances with retired instructions on every
  // platform flavour so that a kernel's instruction stream is identical on
  // the ISS and on the board (a kernel reading the timer must not perturb
  // the counts the estimator consumes).
  bus_.set_time_source([this] { return cpu_.instret >> 10; });
}

void Platform::load(const asmkit::Program& program) {
  if (!bus_.in_ram(program.base()) ||
      program.base() + program.size() > kRamEnd) {
    throw SimError("program does not fit in RAM");
  }
  install(program, [&] {
    bus_.write_block(program.base(), program.bytes().data(),
                     program.bytes().size());
  });
  cpu_ = CpuState{};
  cpu_.pc = program.entry();
  cpu_.npc = program.entry() + 4;
  cpu_.r[isa::kRegSp] = kStackTop;
}

void Platform::install(asmkit::Program program,
                       const std::function<void()>& write_ram) {
  const std::size_t words = program.text_size() / 4;
  const bool warm = bcache_ != nullptr && program.base() == code_base_ &&
                    words == dcache_.size();
  // A cold install drops the morph cache before mutating the image it
  // indexes.
  if (!warm) bcache_.reset();
  bus_.reset_touched_ram();
  bus_.clear_uart();
  write_ram();
  code_base_ = program.base();
  program_ = std::move(program);

  if (warm) {
    const auto stale = [this](std::size_t w) {
      return bus_.load32(code_base_ + static_cast<std::uint32_t>(w) * 4) !=
             dcache_[w].raw;
    };
    // A run of stale words shares one invalidation, and so one block scan.
    for (std::size_t i = 0; i < words;) {
      if (!stale(i)) {
        ++i;
        continue;
      }
      std::size_t end = i + 1;
      while (end < words && stale(end)) ++end;
      bcache_->invalidate(code_base_ + static_cast<std::uint32_t>(i) * 4,
                          static_cast<std::uint32_t>(end - i) * 4);
      i = end;
    }
    bcache_->reset_stats();
    return;
  }
  dcache_.clear();
  dcache_.reserve(words);
  for (std::size_t i = 0; i < words; ++i) {
    dcache_.push_back(isa::decode(bus_.load32(
        code_base_ + static_cast<std::uint32_t>(i) * 4)));
  }
  bcache_ = std::make_unique<BlockCache>(bus_, code_base_, dcache_);
}

}  // namespace nfp::sim
