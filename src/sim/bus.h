// System bus: big-endian RAM plus memory-mapped peripherals (UART, timer).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/memmap.h"

namespace nfp::sim {

struct SimError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Bus {
 public:
  // RAM is one anonymous mapping, so pages the target never touches never
  // become resident. Throws std::bad_alloc when the mapping fails.
  Bus();
  ~Bus();
  Bus(const Bus&) = delete;
  Bus& operator=(const Bus&) = delete;

  // Time sources surfaced through the timer MMIO registers. The ISS reports
  // retired instructions; the board reports cycles.
  void set_time_source(std::function<std::uint64_t()> fn) {
    time_source_ = std::move(fn);
  }
  void set_instret_source(std::function<std::uint64_t()> fn) {
    instret_source_ = std::move(fn);
  }

  bool in_ram(std::uint32_t addr) const {
    return addr - kRamBase < kRamSize;
  }

  // Fast-path byte view of RAM for the executor.
  std::uint8_t* ram_data() { return ram_; }
  const std::uint8_t* ram_data() const { return ram_; }

  // Fast-path view of the dirty-page flags for the JIT's inlined store
  // templates, which must mark granules exactly like store8/16/32 do.
  std::uint8_t* touched_data() { return touched_.data(); }

  std::uint32_t load32(std::uint32_t addr) {
    if (in_ram(addr)) {
      const std::uint8_t* p = &ram_[addr - kRamBase];
      return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
             (std::uint32_t{p[2]} << 8) | p[3];
    }
    return mmio_load(addr);
  }

  std::uint16_t load16(std::uint32_t addr) {
    if (!in_ram(addr)) throw_bad(addr, "halfword load");
    const std::uint8_t* p = &ram_[addr - kRamBase];
    return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
  }

  std::uint8_t load8(std::uint32_t addr) {
    if (!in_ram(addr)) throw_bad(addr, "byte load");
    return ram_[addr - kRamBase];
  }

  void store32(std::uint32_t addr, std::uint32_t value) {
    if (in_ram(addr)) {
      std::uint8_t* p = &ram_[addr - kRamBase];
      p[0] = static_cast<std::uint8_t>(value >> 24);
      p[1] = static_cast<std::uint8_t>(value >> 16);
      p[2] = static_cast<std::uint8_t>(value >> 8);
      p[3] = static_cast<std::uint8_t>(value);
      touch(addr - kRamBase, 4);
      return;
    }
    mmio_store(addr, value);
  }

  void store16(std::uint32_t addr, std::uint16_t value) {
    if (!in_ram(addr)) throw_bad(addr, "halfword store");
    std::uint8_t* p = &ram_[addr - kRamBase];
    p[0] = static_cast<std::uint8_t>(value >> 8);
    p[1] = static_cast<std::uint8_t>(value);
    touch(addr - kRamBase, 2);
  }

  void store8(std::uint32_t addr, std::uint8_t value) {
    if (!in_ram(addr)) throw_bad(addr, "byte store");
    ram_[addr - kRamBase] = value;
    touch(addr - kRamBase, 1);
  }

  // Zeroes every page a store has dirtied since construction (or since the
  // last reset), restoring the fresh-RAM guarantee without the cost of
  // re-zeroing all 16 MiB. Lets campaign workers reuse one simulator arena
  // across a job queue.
  void reset_touched_ram() {
    for (std::size_t page = 0; page < touched_.size(); ++page) {
      if (touched_[page]) {
        std::fill_n(ram_ + (page << kPageShift),
                    std::size_t{1} << kPageShift, 0);
        touched_[page] = 0;
      }
    }
  }

  // ---- host-side bulk access (loader, workload data exchange) -------------
  void write_block(std::uint32_t addr, const std::uint8_t* data,
                   std::size_t size);
  std::vector<std::uint8_t> read_block(std::uint32_t addr,
                                       std::size_t size) const;
  void write_u32(std::uint32_t addr, std::uint32_t value) { store32(addr, value); }
  std::uint32_t read_u32(std::uint32_t addr) { return load32(addr); }
  void write_f64(std::uint32_t addr, double value);
  double read_f64(std::uint32_t addr);

  const std::string& uart_output() const { return uart_; }
  void clear_uart() { uart_.clear(); }
  // Reinstates a saved UART stream on restore (sim/state_io.h).
  void set_uart_output(std::string s) { uart_ = std::move(s); }

  // Dirty-page metadata, exposed for cheap architectural digests
  // (sim/digest.h): one flag per 4 KiB granule, set by every store and by
  // host-side block writes, cleared by reset_touched_ram().
  const std::vector<std::uint8_t>& touched_pages() const { return touched_; }
  std::uint32_t page_size() const { return 1u << kPageShift; }

 private:
  static constexpr std::uint32_t kPageShift = 12;  // 4 KiB dirty granules

  void touch(std::uint32_t offset, std::uint32_t bytes) {
    touched_[offset >> kPageShift] = 1;
    touched_[((offset + bytes - 1) & (kRamSize - 1)) >> kPageShift] = 1;
  }

  std::uint32_t mmio_load(std::uint32_t addr);
  void mmio_store(std::uint32_t addr, std::uint32_t value);
  [[noreturn]] static void throw_bad(std::uint32_t addr, const char* what);

  std::uint8_t* ram_ = nullptr;  // kRamSize bytes, mapped by the constructor
  std::vector<std::uint8_t> touched_;
  std::string uart_;
  std::function<std::uint64_t()> time_source_;
  std::function<std::uint64_t()> instret_source_;
};

}  // namespace nfp::sim
