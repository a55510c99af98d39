#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

namespace nfpbench {

std::vector<Span> Tracer::spans() const {
  std::vector<Span> all;
  for (const auto& b : buffers_) all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start < b.start;
  });
  return all;
}

std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, double> child_time;
  for (const Span& s : spans) {
    if (s.parent != 0) child_time[s.parent] += s.seconds();
  }
  std::map<std::string, double> by_layer;
  for (const Span& s : spans) {
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    const auto it = child_time.find(s.id);
    by_layer[layer] +=
        s.seconds() - (it == child_time.end() ? 0.0 : it->second);
  }
  return by_layer;
}

double total_seconds(const std::vector<Span>& spans, const std::string& name) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (name == s.name) total += s.seconds();
  }
  return total;
}

void write_trace(const std::string& path, const std::string& workload,
                 std::uint64_t seed, const std::vector<Span>& spans,
                 const std::map<std::string, double>& self_time) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const Clock::time_point origin =
      spans.empty() ? Clock::time_point{} : spans.front().start;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"self_time_s\":{",
               workload.c_str(), static_cast<unsigned long long>(seed));
  const char* sep = "";
  for (const auto& [layer, s] : self_time) {
    std::fprintf(f, "%s\"%s\":%.9g", sep, layer.c_str(), s);
    sep = ",";
  }
  std::fprintf(f, "},\"spans\":[\n");
  sep = "";
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%s{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"job\":%lld,"
                 "\"thread\":%u,\"start_us\":%.3f,\"end_us\":%.3f}",
                 sep, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<long long>(s.job), s.thread, us(s.start),
                 us(s.end));
    sep = ",\n";
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace nfpbench
