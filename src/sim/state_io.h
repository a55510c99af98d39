// Versioned snapshot/restore of simulator state (see docs/snapshots.md).
//
// A snapshot is a flat chunked file: an 8-byte header (magic + format
// version) followed by tagged chunks, each carrying its payload size and a
// word-wise checksum of the payload (chunk_checksum), closed by a mandatory
// end marker. Every
// front end composes its snapshot from the shared platform chunks (CPU
// state, dirty RAM pages, UART stream, the loaded program image) plus its
// own: the counting ISS adds its retire-count vector, the measurement board
// adds its configuration fingerprint and accumulator state (the cost ledger
// with its SDRAM open row, cache tags and toggle history).
//
// Restore is strictly two-phase: the whole stream is parsed and validated —
// structure, version, checksums, chunk tags, payload shapes — and decoded
// into locals before a single byte of target state is mutated. Any error
// throws a StateError carrying a structured code and leaves the target
// exactly as it was. No derived cache is serialized. Applying a snapshot
// installs its image like Platform::load does: a target holding an image of
// the same base and size keeps its decode cache, morphed blocks and jit
// code, re-decoding (and flushing the blocks over) every word that differs;
// any other target decodes the restored RAM into a fresh block cache. A
// target whose installed program serializes to exactly the snapshot's
// program chunk keeps that Program object too. Either
// way the resumed run retires bit-for-bit identically to the uninterrupted
// run, which the fuzz oracle's snapshot leg and the directed resume and
// warm-resume batteries hold in place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace nfp::sim {

class Platform;

// Current snapshot format version. Bumped on any incompatible layout change;
// readers reject every version but their own (no silent best-effort decode
// of foreign state — see docs/snapshots.md for the policy).
// v2: the board-hooks chunk grew the store and stall-cycle event counters.
// v3: the board-hooks chunk carries the integer cost ledger (per-op toggle,
//     row-miss, cache-hit and untaken tallies) in place of the cycle, energy
//     and event accumulators, which are now derived from it.
// v4: chunks carry chunk_checksum() in place of a byte-serial FNV-1a, and
//     program symbols must appear in strictly ascending name order.
// v5: the board-config chunk lost its fidelity byte and the board-hooks
//     chunk its switching-activity LFSR and sum (the cycle-stepped
//     fidelity is gone).
inline constexpr std::uint32_t kStateVersion = 5;

// The chunk checksum: four 64-bit lanes of FNV-style xor-multiply (each step
// followed by a 32-bit xor-shift fold) over the payload's little-endian
// 8-byte words, word i feeding lane i % 4; then the lanes are folded
// together, the remaining 0-7 bytes are hashed one at a time, and the
// length is folded in. Every step is a bijection of the running state, so
// any change confined to one word always changes the checksum. The end
// marker carries chunk_checksum(nullptr, 0).
std::uint64_t chunk_checksum(const void* data, std::size_t size);

constexpr std::uint32_t chunk_tag(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24);
}

// Platform chunks (shared by every snapshot flavour).
inline constexpr std::uint32_t kChunkCpu = chunk_tag('C', 'P', 'U', '0');
inline constexpr std::uint32_t kChunkProgram = chunk_tag('P', 'R', 'O', 'G');
inline constexpr std::uint32_t kChunkRam = chunk_tag('R', 'A', 'M', 'D');
inline constexpr std::uint32_t kChunkUart = chunk_tag('U', 'A', 'R', 'T');
// Front-end chunks.
inline constexpr std::uint32_t kChunkCounts = chunk_tag('C', 'N', 'T', 'S');
inline constexpr std::uint32_t kChunkBoardConfig = chunk_tag('B', 'C', 'F', 'G');
inline constexpr std::uint32_t kChunkBoardHooks = chunk_tag('B', 'R', 'D', 'H');
// End marker: zero-size chunk closing the stream.
inline constexpr std::uint32_t kChunkEnd = chunk_tag('E', 'N', 'D', '!');

enum class StateErrorCode {
  kTruncated,       // stream ends inside a header/payload, or no end marker
  kBadMagic,        // not a snapshot file
  kBadVersion,      // snapshot written by an incompatible format version
  kBadChecksum,     // chunk payload does not match its stored checksum
  kUnknownChunk,    // tag this restore target does not accept
  kDuplicateChunk,  // same tag appears twice
  kTrailingData,    // bytes after the end marker
  kMissingChunk,    // a chunk the target requires is absent
  kBadPayload,      // chunk decoded to an impossible value/shape
  kConfigMismatch,  // snapshot taken under a different board configuration
  kIo,              // underlying stream write failed
};

const char* state_error_code_name(StateErrorCode code);

// Structured restore/save failure. Restore throws before mutating anything,
// so a caught StateError guarantees the target is bit-for-bit untouched.
struct StateError : std::runtime_error {
  StateError(StateErrorCode c, const std::string& what)
      : std::runtime_error("state error (" +
                           std::string(state_error_code_name(c)) +
                           "): " + what),
        code(c) {}
  StateErrorCode code;
};

// Serializer: buffers the whole snapshot in one buffer (header, chunks, end
// marker) and flushes once in finish(). Each chunk's payload is written in
// place after its header, whose size and checksum end_chunk() patches.
// Integers are little-endian on every host; doubles travel as their
// IEEE-754 bit pattern.
class StateWriter {
 public:
  StateWriter();

  void begin_chunk(std::uint32_t tag);
  void end_chunk();

  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_f64(double v);
  void put_bytes(const void* data, std::size_t size);
  void put_string(const std::string& s);  // u32 length + bytes

  // Appends the end marker and writes the whole buffer to `out`.
  void finish(std::ostream& out);

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t chunk_start_ = 0;  // offset of the open chunk's header
  bool in_chunk_ = false;
};

// Parsed-and-validated snapshot stream. Construction performs the entire
// structural validation pass: magic, version, per-chunk checksums, the end
// marker, duplicate detection, and the accepted-tag check (each restore
// entry point names exactly the tags it understands; anything else is a
// kUnknownChunk error, never silently skipped). The stream is read once
// into one buffer; payloads are spans into it, valid while the reader lives.
class StateReader {
 public:
  StateReader(std::istream& in, const std::vector<std::uint32_t>& accepted);
  // Payloads point into this reader's buffer; a copy would share it.
  StateReader(const StateReader&) = delete;
  StateReader& operator=(const StateReader&) = delete;

  bool has(std::uint32_t tag) const;
  // Payload of `tag`; throws kMissingChunk when absent.
  std::span<const std::uint8_t> payload(std::uint32_t tag) const;

 private:
  struct Chunk {
    std::uint32_t tag = 0;
    std::span<const std::uint8_t> payload;
  };
  std::vector<std::uint8_t> data_;
  std::vector<Chunk> chunks_;
};

// Bounds-checked decoder over one chunk payload; any overrun (or leftover
// bytes at done()) is a kBadPayload error. A copy is a saved position.
class ChunkCursor {
 public:
  explicit ChunkCursor(std::span<const std::uint8_t> payload)
      : p_(payload.data()), end_(payload.data() + payload.size()) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  double get_f64();
  // The next `size` payload bytes, in place.
  std::span<const std::uint8_t> take(std::size_t size);
  std::string get_string();

  // Asserts the payload was consumed exactly.
  void done() const;

 private:
  void need(std::size_t n) const;
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

// The four tags every platform snapshot carries; front ends append their own
// when constructing a StateReader.
std::vector<std::uint32_t> platform_chunk_tags();

// Serializes the platform: CPU state, the loaded program image (base, entry,
// text split, bytes, symbols), every dirty 4 KiB RAM page, and the UART
// stream. The snapshot is self-contained — restore needs no separate load().
void append_platform_chunks(StateWriter& w, const Platform& p);

// Applies a validated snapshot: decodes everything first, then installs the
// image through Platform's install routine (touched RAM reset, the dirty
// pages rewritten, the decode cache brought in line with the restored RAM so
// self-modified words stay modified, warm caches kept where the image has
// the same base and size) and reinstates CPU/UART state. A program chunk
// that is byte-for-byte what the installed program serializes to keeps the
// installed Program; any other is decoded into a new one, its symbols
// required in strictly ascending name order (kBadPayload otherwise).
void apply_platform_chunks(const StateReader& r, Platform& p);

// Whole-file convenience for a bare platform (functional sim).
void save_state(std::ostream& out, const Platform& p);
void restore_state(std::istream& in, Platform& p);

}  // namespace nfp::sim
