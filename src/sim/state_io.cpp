#include "sim/state_io.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <string_view>

#include "sim/digest.h"
#include "sim/memmap.h"
#include "sim/platform.h"

namespace nfp::sim {
namespace {

constexpr std::uint8_t kMagic[4] = {'N', 'F', 'P', 'S'};
constexpr std::size_t kChunkHeaderSize = 4 + 8 + 8;  // tag, size, checksum

std::string tag_name(std::uint32_t tag) {
  std::string s;
  for (int shift = 0; shift < 32; shift += 8) {
    const char c = static_cast<char>((tag >> shift) & 0xFF);
    s += (c >= 0x20 && c < 0x7F) ? c : '?';
  }
  return s;
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  append_u32(out, static_cast<std::uint32_t>(v));
  append_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t read_u32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

std::uint64_t read_u64(const std::uint8_t* p) {
  return std::uint64_t{read_u32(p)} | (std::uint64_t{read_u32(p + 4)} << 32);
}

void write_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// One checksum step: FNV-style xor-multiply, then a xor-shift that feeds
// the high half back into the low one (a bare multiply never moves a
// difference downwards). Both halves are bijections of `h`.
std::uint64_t mix(std::uint64_t h, std::uint64_t word) {
  h = (h ^ word) * kFnvPrime;
  return h ^ (h >> 32);
}

}  // namespace

std::uint64_t chunk_checksum(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t lane[4] = {kFnvOffset, kFnvOffset + 1, kFnvOffset + 2,
                           kFnvOffset + 3};
  const std::size_t words = size / 8;
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    lane[0] = mix(lane[0], read_u64(p + 8 * i));
    lane[1] = mix(lane[1], read_u64(p + 8 * i + 8));
    lane[2] = mix(lane[2], read_u64(p + 8 * i + 16));
    lane[3] = mix(lane[3], read_u64(p + 8 * i + 24));
  }
  for (; i < words; ++i) lane[i % 4] = mix(lane[i % 4], read_u64(p + 8 * i));
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t l : lane) h = mix(h, l);
  for (std::size_t b = 8 * words; b < size; ++b) h = (h ^ p[b]) * kFnvPrime;
  return mix(h, size);
}

const char* state_error_code_name(StateErrorCode code) {
  switch (code) {
    case StateErrorCode::kTruncated: return "truncated";
    case StateErrorCode::kBadMagic: return "bad-magic";
    case StateErrorCode::kBadVersion: return "bad-version";
    case StateErrorCode::kBadChecksum: return "bad-checksum";
    case StateErrorCode::kUnknownChunk: return "unknown-chunk";
    case StateErrorCode::kDuplicateChunk: return "duplicate-chunk";
    case StateErrorCode::kTrailingData: return "trailing-data";
    case StateErrorCode::kMissingChunk: return "missing-chunk";
    case StateErrorCode::kBadPayload: return "bad-payload";
    case StateErrorCode::kConfigMismatch: return "config-mismatch";
    case StateErrorCode::kIo: return "io";
  }
  return "unknown";
}

// ---- StateWriter -----------------------------------------------------------

StateWriter::StateWriter() {
  buf_.insert(buf_.end(), kMagic, kMagic + 4);
  append_u32(buf_, kStateVersion);
}

void StateWriter::begin_chunk(std::uint32_t tag) {
  if (in_chunk_) {
    throw StateError(StateErrorCode::kIo, "begin_chunk inside a chunk");
  }
  in_chunk_ = true;
  chunk_start_ = buf_.size();
  append_u32(buf_, tag);
  buf_.resize(buf_.size() + 16);  // size and checksum, patched by end_chunk
}

void StateWriter::end_chunk() {
  if (!in_chunk_) {
    throw StateError(StateErrorCode::kIo, "end_chunk outside a chunk");
  }
  std::uint8_t* header = buf_.data() + chunk_start_;
  const std::size_t size = buf_.size() - chunk_start_ - kChunkHeaderSize;
  write_u64(header + 4, size);
  write_u64(header + 12, chunk_checksum(header + kChunkHeaderSize, size));
  in_chunk_ = false;
}

void StateWriter::put_u8(std::uint8_t v) { buf_.push_back(v); }
void StateWriter::put_u32(std::uint32_t v) { append_u32(buf_, v); }
void StateWriter::put_u64(std::uint64_t v) { append_u64(buf_, v); }
void StateWriter::put_f64(double v) {
  append_u64(buf_, std::bit_cast<std::uint64_t>(v));
}

void StateWriter::put_bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + size);
}

void StateWriter::put_string(const std::string& s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  put_bytes(s.data(), s.size());
}

void StateWriter::finish(std::ostream& out) {
  if (in_chunk_) {
    throw StateError(StateErrorCode::kIo, "finish inside an open chunk");
  }
  append_u32(buf_, kChunkEnd);
  append_u64(buf_, 0);
  append_u64(buf_, chunk_checksum(nullptr, 0));
  out.write(reinterpret_cast<const char*>(buf_.data()),
            static_cast<std::streamsize>(buf_.size()));
  if (!out) {
    throw StateError(StateErrorCode::kIo, "stream write failed");
  }
}

// ---- StateReader -----------------------------------------------------------

StateReader::StateReader(std::istream& in,
                         const std::vector<std::uint32_t>& accepted) {
  // One read per buffered stretch of the stream: a string stream hands over
  // its whole contents at once.
  while (in.peek() != std::istream::traits_type::eof()) {
    const std::streamsize want =
        std::max<std::streamsize>(in.rdbuf()->in_avail(), 4096);
    const std::size_t have = data_.size();
    data_.resize(have + static_cast<std::size_t>(want));
    in.read(reinterpret_cast<char*>(data_.data() + have), want);
    data_.resize(have + static_cast<std::size_t>(in.gcount()));
  }
  if (data_.size() < 8) {
    throw StateError(StateErrorCode::kTruncated,
                     "file shorter than the 8-byte header");
  }
  if (std::memcmp(data_.data(), kMagic, 4) != 0) {
    throw StateError(StateErrorCode::kBadMagic, "not a snapshot file");
  }
  const std::uint32_t version = read_u32(data_.data() + 4);
  if (version != kStateVersion) {
    throw StateError(StateErrorCode::kBadVersion,
                     "snapshot version " + std::to_string(version) +
                         ", this build reads version " +
                         std::to_string(kStateVersion));
  }

  std::size_t pos = 8;
  bool saw_end = false;
  while (pos < data_.size()) {
    if (data_.size() - pos < kChunkHeaderSize) {
      throw StateError(StateErrorCode::kTruncated,
                       "stream ends inside a chunk header");
    }
    const std::uint32_t tag = read_u32(data_.data() + pos);
    const std::uint64_t size = read_u64(data_.data() + pos + 4);
    const std::uint64_t checksum = read_u64(data_.data() + pos + 12);
    pos += kChunkHeaderSize;
    if (tag == kChunkEnd) {
      if (size != 0 || checksum != chunk_checksum(nullptr, 0)) {
        throw StateError(StateErrorCode::kBadPayload,
                         "end marker carries a payload");
      }
      saw_end = true;
      if (pos != data_.size()) {
        throw StateError(StateErrorCode::kTrailingData,
                         std::to_string(data_.size() - pos) +
                             " bytes after the end marker");
      }
      break;
    }
    if (size > data_.size() - pos) {
      throw StateError(StateErrorCode::kTruncated,
                       "stream ends inside chunk " + tag_name(tag));
    }
    const std::uint8_t* payload = data_.data() + pos;
    pos += size;
    if (chunk_checksum(payload, size) != checksum) {
      throw StateError(StateErrorCode::kBadChecksum,
                       "chunk " + tag_name(tag) + " is corrupt");
    }
    bool known = false;
    for (const std::uint32_t a : accepted) known = known || a == tag;
    if (!known) {
      throw StateError(StateErrorCode::kUnknownChunk,
                       "this target does not accept chunk " + tag_name(tag));
    }
    for (const Chunk& c : chunks_) {
      if (c.tag == tag) {
        throw StateError(StateErrorCode::kDuplicateChunk,
                         "chunk " + tag_name(tag) + " appears twice");
      }
    }
    chunks_.push_back(Chunk{tag, {payload, static_cast<std::size_t>(size)}});
  }
  if (!saw_end) {
    throw StateError(StateErrorCode::kTruncated, "no end marker");
  }
}

bool StateReader::has(std::uint32_t tag) const {
  for (const Chunk& c : chunks_) {
    if (c.tag == tag) return true;
  }
  return false;
}

std::span<const std::uint8_t> StateReader::payload(std::uint32_t tag) const {
  for (const Chunk& c : chunks_) {
    if (c.tag == tag) return c.payload;
  }
  throw StateError(StateErrorCode::kMissingChunk,
                   "snapshot has no chunk " + tag_name(tag));
}

// ---- ChunkCursor -----------------------------------------------------------

void ChunkCursor::need(std::size_t n) const {
  if (static_cast<std::size_t>(end_ - p_) < n) {
    throw StateError(StateErrorCode::kBadPayload,
                     "chunk payload shorter than its contents claim");
  }
}

std::uint8_t ChunkCursor::get_u8() {
  need(1);
  return *p_++;
}

std::uint32_t ChunkCursor::get_u32() {
  need(4);
  const std::uint32_t v = read_u32(p_);
  p_ += 4;
  return v;
}

std::uint64_t ChunkCursor::get_u64() {
  need(8);
  const std::uint64_t v = read_u64(p_);
  p_ += 8;
  return v;
}

double ChunkCursor::get_f64() { return std::bit_cast<double>(get_u64()); }

std::span<const std::uint8_t> ChunkCursor::take(std::size_t size) {
  need(size);
  const std::span<const std::uint8_t> bytes(p_, size);
  p_ += size;
  return bytes;
}

std::string ChunkCursor::get_string() {
  const auto bytes = take(get_u32());
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

void ChunkCursor::done() const {
  if (p_ != end_) {
    throw StateError(StateErrorCode::kBadPayload,
                     "chunk payload has trailing bytes");
  }
}

// ---- platform chunks -------------------------------------------------------

namespace {

// Walks the symbol records at `c` against `symbols`; true when they are
// exactly the records `symbols` serializes to, in order.
bool symbols_match(ChunkCursor& c,
                   const std::map<std::string, std::uint32_t>& symbols) {
  for (const auto& [name, addr] : symbols) {
    const auto bytes = c.take(c.get_u32());
    if (std::string_view(reinterpret_cast<const char*>(bytes.data()),
                         bytes.size()) != name ||
        c.get_u32() != addr) {
      return false;
    }
  }
  return true;
}

// Decodes a PROG payload. Returns nullopt when the payload is byte-for-byte
// what `installed` serializes to, so the restore keeps it: a warm restore
// builds no Program. Otherwise decodes a new Program in one linear pass,
// each symbol inserted at the end of the table, which is why names must
// ascend strictly.
std::optional<asmkit::Program> decode_program(ChunkCursor c,
                                              const asmkit::Program& installed) {
  const std::uint32_t base = c.get_u32();
  const std::uint32_t entry = c.get_u32();
  const std::uint32_t text = c.get_u32();
  const std::uint32_t size = c.get_u32();
  if (base < kRamBase || std::uint64_t{base} + size > kRamEnd) {
    throw StateError(StateErrorCode::kBadPayload,
                     "program image does not fit in RAM");
  }
  if (text > size) {
    throw StateError(StateErrorCode::kBadPayload,
                     "text section larger than the image");
  }
  const auto image = c.take(size);
  const std::uint32_t nsyms = c.get_u32();
  const ChunkCursor symbols_at = c;
  if (base == installed.base() && entry == installed.entry() &&
      text == installed.text_size() &&
      nsyms == installed.symbols().size() &&
      std::ranges::equal(image, installed.bytes()) &&
      symbols_match(c, installed.symbols())) {
    c.done();
    return std::nullopt;
  }
  c = symbols_at;
  asmkit::Program prog(base, {image.begin(), image.end()});
  prog.set_entry(entry);
  prog.set_text_size(text);
  for (std::uint32_t i = 0; i < nsyms; ++i) {
    std::string name = c.get_string();
    if (!prog.symbols().empty() && name <= prog.symbols().rbegin()->first) {
      throw StateError(StateErrorCode::kBadPayload,
                       "program symbols out of order");
    }
    prog.define_symbol(std::move(name), c.get_u32());
  }
  c.done();
  return prog;
}

}  // namespace

std::vector<std::uint32_t> platform_chunk_tags() {
  return {kChunkCpu, kChunkProgram, kChunkRam, kChunkUart};
}

void append_platform_chunks(StateWriter& w, const Platform& p) {
  const CpuState& cpu = p.cpu();
  w.begin_chunk(kChunkCpu);
  for (const std::uint32_t r : cpu.r) w.put_u32(r);
  for (const std::uint32_t f : cpu.f) w.put_u32(f);
  w.put_u32(cpu.pc);
  w.put_u32(cpu.npc);
  w.put_u32(cpu.y);
  w.put_u8(static_cast<std::uint8_t>((cpu.icc_n << 3) | (cpu.icc_z << 2) |
                                     (cpu.icc_v << 1) |
                                     static_cast<int>(cpu.icc_c)));
  w.put_u8(cpu.fcc);
  w.put_u8(cpu.halted ? 1 : 0);
  w.put_u64(cpu.instret);
  w.put_u32(cpu.exit_code);
  w.end_chunk();

  const asmkit::Program& prog = p.loaded_program();
  w.begin_chunk(kChunkProgram);
  w.put_u32(prog.base());
  w.put_u32(prog.entry());
  w.put_u32(prog.text_size());
  w.put_u32(prog.size());
  w.put_bytes(prog.bytes().data(), prog.bytes().size());
  w.put_u32(static_cast<std::uint32_t>(prog.symbols().size()));
  for (const auto& [name, addr] : prog.symbols()) {
    w.put_string(name);
    w.put_u32(addr);
  }
  w.end_chunk();

  const Bus& bus = p.bus();
  const auto& touched = bus.touched_pages();
  const std::uint32_t page = bus.page_size();
  std::uint32_t dirty = 0;
  for (const std::uint8_t t : touched) dirty += t ? 1 : 0;
  w.begin_chunk(kChunkRam);
  w.put_u32(page);
  w.put_u32(dirty);
  for (std::uint32_t i = 0; i < touched.size(); ++i) {
    if (!touched[i]) continue;
    w.put_u32(i);
    w.put_bytes(bus.ram_data() + std::size_t{i} * page, page);
  }
  w.end_chunk();

  w.begin_chunk(kChunkUart);
  w.put_string(bus.uart_output());
  w.end_chunk();
}

void apply_platform_chunks(const StateReader& r, Platform& p) {
  // Decode phase: everything lands in locals; any throw leaves `p` untouched.
  CpuState cpu;
  {
    ChunkCursor c(r.payload(kChunkCpu));
    for (std::uint32_t& reg : cpu.r) reg = c.get_u32();
    for (std::uint32_t& reg : cpu.f) reg = c.get_u32();
    cpu.pc = c.get_u32();
    cpu.npc = c.get_u32();
    cpu.y = c.get_u32();
    const std::uint8_t icc = c.get_u8();
    if (icc & ~0x0Fu) {
      throw StateError(StateErrorCode::kBadPayload, "icc bits out of range");
    }
    cpu.icc_n = (icc & 8) != 0;
    cpu.icc_z = (icc & 4) != 0;
    cpu.icc_v = (icc & 2) != 0;
    cpu.icc_c = (icc & 1) != 0;
    cpu.fcc = c.get_u8();
    if (cpu.fcc > 3) {
      throw StateError(StateErrorCode::kBadPayload, "fcc out of range");
    }
    cpu.halted = c.get_u8() != 0;
    cpu.instret = c.get_u64();
    cpu.exit_code = c.get_u32();
    c.done();
  }

  std::optional<asmkit::Program> prog =
      decode_program(ChunkCursor(r.payload(kChunkProgram)),
                     p.loaded_program());

  struct Page {
    std::uint32_t index;
    std::span<const std::uint8_t> bytes;  // in the reader's buffer
  };
  std::vector<Page> pages;
  {
    ChunkCursor c(r.payload(kChunkRam));
    const std::uint32_t page = c.get_u32();
    if (page != p.bus().page_size()) {
      throw StateError(StateErrorCode::kBadPayload,
                       "dirty-page granule is " + std::to_string(page) +
                           " bytes, this build uses " +
                           std::to_string(p.bus().page_size()));
    }
    const std::uint32_t count = c.get_u32();
    const std::uint32_t npages = kRamSize / page;
    pages.reserve(std::min(count, npages));
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t index = c.get_u32();
      if (index >= npages ||
          (!pages.empty() && index <= pages.back().index)) {
        throw StateError(StateErrorCode::kBadPayload,
                         "dirty pages out of order or out of range");
      }
      pages.push_back(Page{index, c.take(page)});
    }
    c.done();
  }

  std::string uart;
  {
    ChunkCursor c(r.payload(kChunkUart));
    uart = c.get_string();
    c.done();
  }

  // Apply phase: the image comes from the snapshot's dirty pages, which
  // include every self-modified code word, so the installed image matches
  // the snapshot's RAM exactly. A program chunk that matched the installed
  // program hands that Program back to install() (a move, no copy).
  p.install(prog ? std::move(*prog) : std::move(p.program_), [&] {
    for (const Page& pg : pages) {
      p.bus_.write_block(kRamBase + pg.index * p.bus_.page_size(),
                         pg.bytes.data(), pg.bytes.size());
    }
  });
  p.bus_.set_uart_output(std::move(uart));
  p.cpu_ = cpu;
}

void save_state(std::ostream& out, const Platform& p) {
  StateWriter w;
  append_platform_chunks(w, p);
  w.finish(out);
}

void restore_state(std::istream& in, Platform& p) {
  const StateReader r(in, platform_chunk_tags());
  apply_platform_chunks(r, p);
}

}  // namespace nfp::sim
