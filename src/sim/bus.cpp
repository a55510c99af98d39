#include "sim/bus.h"

#include <sys/mman.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <new>

namespace nfp::sim {

Bus::Bus() : touched_(kRamSize >> kPageShift, 0) {
  void* p = ::mmap(nullptr, kRamSize, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  ram_ = static_cast<std::uint8_t*>(p);
}

Bus::~Bus() { ::munmap(ram_, kRamSize); }

void Bus::write_block(std::uint32_t addr, const std::uint8_t* data,
                      std::size_t size) {
  if (!in_ram(addr) || addr - kRamBase + size > kRamSize) {
    throw_bad(addr, "host block write");
  }
  std::memcpy(&ram_[addr - kRamBase], data, size);
  if (size != 0) {
    // A bulk write can span many pages; mark every one of them.
    for (std::uint32_t page = (addr - kRamBase) >> kPageShift;
         page <= (addr - kRamBase + size - 1) >> kPageShift; ++page) {
      touched_[page] = 1;
    }
  }
}

std::vector<std::uint8_t> Bus::read_block(std::uint32_t addr,
                                          std::size_t size) const {
  if (!in_ram(addr) || addr - kRamBase + size > kRamSize) {
    throw_bad(addr, "host block read");
  }
  return {ram_ + (addr - kRamBase), ram_ + (addr - kRamBase) + size};
}

void Bus::write_f64(std::uint32_t addr, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  store32(addr, static_cast<std::uint32_t>(bits >> 32));
  store32(addr + 4, static_cast<std::uint32_t>(bits));
}

double Bus::read_f64(std::uint32_t addr) {
  const std::uint64_t bits =
      (std::uint64_t{load32(addr)} << 32) | load32(addr + 4);
  return std::bit_cast<double>(bits);
}

std::uint32_t Bus::mmio_load(std::uint32_t addr) {
  switch (addr) {
    case kUartTx:
      return 0;
    case kTimerLo:
      return time_source_ ? static_cast<std::uint32_t>(time_source_()) : 0;
    case kTimerHi:
      return time_source_ ? static_cast<std::uint32_t>(time_source_() >> 32)
                          : 0;
    case kInstretLo:
      return instret_source_ ? static_cast<std::uint32_t>(instret_source_())
                             : 0;
    case kInstretHi:
      return instret_source_
                 ? static_cast<std::uint32_t>(instret_source_() >> 32)
                 : 0;
    default:
      throw_bad(addr, "MMIO load");
  }
}

void Bus::mmio_store(std::uint32_t addr, std::uint32_t value) {
  switch (addr) {
    case kUartTx:
      uart_.push_back(static_cast<char>(value & 0xFF));
      return;
    default:
      throw_bad(addr, "MMIO store");
  }
}

void Bus::throw_bad(std::uint32_t addr, const char* what) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "bus error: %s at 0x%08x", what, addr);
  throw SimError(buf);
}

}  // namespace nfp::sim
