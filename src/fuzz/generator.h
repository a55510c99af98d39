// Constrained-random SPARC V8 program generator for differential fuzzing.
//
// A generated program is a sequence of independent "chunks" — short,
// self-contained assembly fragments drawn from a weighted mix of shapes
// (straight ALU runs, aligned loads/stores, forward branches, terminating
// counted loops, call/retl and jmpl-dense streams, single and double FPU
// arithmetic, conversions, loads and stores over a double pool, and
// store-to-code loops that patch their own instructions).
// Chunks use disjoint label namespaces and only chunk-private temporaries
// (%g5..%g7) for control, so ANY subset of chunks still assembles, runs and
// terminates — that property is what lets the shrinker minimise a failing
// program by deleting chunks (see shrink.h).
//
// Every program is guaranteed to terminate and to be fault-free by
// construction: loops count down fixed small constants, branches only jump
// forward or to their own loop head, memory accesses are width-aligned into
// a scratch window, divisors are forced odd-nonzero with %y cleared, and
// store-to-code patches write valid instruction words a CTI away from the
// storing block. Any observable difference between dispatch modes on a
// generated program is therefore a simulator bug, never a program quirk.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nfp::fuzz {

// Deterministic splitmix64; the sequence is part of the corpus contract
// (a stored seed must regenerate the same program on every host).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed + 0x9E3779B97F4A7C15ull) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint32_t below(std::uint32_t n) {
    return n == 0 ? 0 : static_cast<std::uint32_t>(next() % n);
  }
  bool chance(std::uint32_t percent) { return below(100) < percent; }

 private:
  std::uint64_t state_;
};

// Relative weights of the chunk shapes. Zero disables a shape.
struct Mix {
  std::uint32_t alu = 6;
  std::uint32_t mem = 4;
  std::uint32_t branch = 4;
  std::uint32_t loop = 3;
  std::uint32_t call = 2;
  std::uint32_t jmpl = 2;
  std::uint32_t fpu = 2;
  std::uint32_t selfmod = 1;
};

// Named presets for the CLI: "default", "alu", "mem", "cti", "jmpl",
// "fpu", "selfmod". Returns nullopt for unknown names.
std::optional<Mix> mix_from_name(std::string_view name);
const std::vector<std::string>& mix_names();

struct GenConfig {
  std::uint64_t seed = 1;
  std::uint32_t chunks = 24;
  Mix mix{};
  std::string mix_name = "default";
};

// One generated fragment. `body` runs in program order between prologue and
// halt; `tail` (template instruction words for store-to-code chunks) is
// placed after the halt where it is decoded but never executed.
struct Chunk {
  std::string body;
  std::string tail;
};

struct GenProgram {
  GenConfig config;
  std::vector<Chunk> chunks;
  // Candidate register inits ("mov imm, %rX"); render() emits only the ones
  // whose register appears in a kept chunk, so shrunk programs stay small.
  std::vector<std::pair<std::string, std::string>> reg_inits;  // (reg, line)
  // Helper functions callable from call/jmpl chunks, emitted on reference.
  std::vector<std::pair<std::string, std::string>> helpers;  // (label, text)
  std::vector<double> double_pool;
};

GenProgram generate(const GenConfig& config);

// Renders the full program (all chunks kept).
std::string render(const GenProgram& program);

// Renders only the chunks with keep[i] == true, dropping register inits,
// helpers and the double pool that no kept chunk references. The result is
// always a valid, terminating program.
std::string render_subset(const GenProgram& program,
                          const std::vector<bool>& keep);

// Number of machine instructions a rendered source assembles to (counts
// statements; `set` counts as 2). Used for shrink reporting and the
// "reproducer of <= N instructions" gate.
std::size_t count_instructions(std::string_view source);

}  // namespace nfp::fuzz
