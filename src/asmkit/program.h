// Linked program image: a flat byte blob at a base address plus a symbol
// table. This is what the assembler produces and what the simulator loads
// (the paper's "kernel" — a binary executable handed to OVPsim).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace nfp::asmkit {

class Program {
 public:
  Program() = default;
  Program(std::uint32_t base, std::vector<std::uint8_t> bytes)
      : base_(base), bytes_(std::move(bytes)) {}

  std::uint32_t base() const { return base_; }
  std::uint32_t size() const { return static_cast<std::uint32_t>(bytes_.size()); }
  std::uint32_t end() const { return base_ + size(); }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  // Size of the leading .text section in bytes; .data follows (8-byte
  // aligned). Producers that do not distinguish sections leave it unset, in
  // which case the whole image counts as text (static analyzers then decode
  // trailing data words too and rely on reachability to ignore them).
  std::uint32_t text_size() const {
    return text_size_ == kWholeImage || text_size_ > size() ? size()
                                                            : text_size_;
  }
  void set_text_size(std::uint32_t bytes) { text_size_ = bytes; }
  std::uint32_t text_end() const { return base_ + text_size(); }

  // Big-endian instruction word at `addr` (must be word-aligned, in-image).
  std::uint32_t word_at(std::uint32_t addr) const {
    const std::uint32_t off = addr - base_;
    if (addr < base_ || off + 4 > size()) {
      throw std::out_of_range("Program::word_at outside image");
    }
    return (std::uint32_t{bytes_[off]} << 24) |
           (std::uint32_t{bytes_[off + 1]} << 16) |
           (std::uint32_t{bytes_[off + 2]} << 8) | bytes_[off + 3];
  }

  std::uint32_t entry() const { return entry_; }
  void set_entry(std::uint32_t entry) { entry_ = entry; }

  // Defines or redefines `name`. Names defined in ascending order go in at
  // amortized constant cost (the table's end is the insertion hint).
  void define_symbol(std::string name, std::uint32_t addr) {
    symbols_.insert_or_assign(symbols_.end(), std::move(name), addr);
  }
  std::optional<std::uint32_t> find_symbol(const std::string& name) const {
    const auto it = symbols_.find(name);
    if (it == symbols_.end()) return std::nullopt;
    return it->second;
  }
  // Throwing lookup for symbols the caller knows must exist.
  std::uint32_t symbol(const std::string& name) const {
    const auto addr = find_symbol(name);
    if (!addr) throw std::runtime_error("undefined symbol: " + name);
    return *addr;
  }
  const std::map<std::string, std::uint32_t>& symbols() const {
    return symbols_;
  }

 private:
  static constexpr std::uint32_t kWholeImage = 0xFFFFFFFFu;

  std::uint32_t base_ = 0;
  std::uint32_t entry_ = 0;
  std::uint32_t text_size_ = kWholeImage;
  std::vector<std::uint8_t> bytes_;
  std::map<std::string, std::uint32_t> symbols_;
};

}  // namespace nfp::asmkit
