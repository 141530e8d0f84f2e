#include "trace/trace.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <set>

namespace dv::trace {

namespace {
constexpr char kMagic[4] = {'D', 'V', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void put(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T get(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  DV_REQUIRE(is.good(), "truncated trace file");
  return v;
}
}  // namespace

Trace record(const std::string& app, std::uint32_t ranks,
             std::vector<workload::RankMsg> messages) {
  Trace t{app, ranks, std::move(messages)};
  validate(t);
  return t;
}

void validate(const Trace& t) {
  DV_REQUIRE(t.ranks > 0, "trace has no ranks");
  for (const auto& m : t.messages) {
    DV_REQUIRE(m.src_rank < t.ranks && m.dst_rank < t.ranks,
               "trace message rank out of range");
    DV_REQUIRE(m.bytes > 0, "trace message with zero bytes");
    DV_REQUIRE(m.time >= 0.0, "trace message with negative time");
  }
}

void save_binary(const Trace& t, const std::string& path) {
  validate(t);
  std::ofstream os(path, std::ios::binary);
  DV_REQUIRE(os.good(), "cannot open trace for writing: " + path);
  os.write(kMagic, 4);
  put(os, kVersion);
  const auto name_len = static_cast<std::uint32_t>(t.app.size());
  put(os, name_len);
  os.write(t.app.data(), name_len);
  put(os, t.ranks);
  put(os, static_cast<std::uint64_t>(t.messages.size()));
  for (const auto& m : t.messages) {
    put(os, m.src_rank);
    put(os, m.dst_rank);
    put(os, m.bytes);
    put(os, m.time);
  }
  DV_REQUIRE(os.good(), "trace write failed: " + path);
}

Trace load_binary(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DV_REQUIRE(is.good(), "cannot open trace for reading: " + path);
  char magic[4];
  is.read(magic, 4);
  DV_REQUIRE(is.good() && std::memcmp(magic, kMagic, 4) == 0,
             "not a dragonviz trace file: " + path);
  const auto version = get<std::uint32_t>(is);
  DV_REQUIRE(version == kVersion, "unsupported trace version");
  const auto name_len = get<std::uint32_t>(is);
  DV_REQUIRE(name_len < 4096, "corrupt trace (app name too long)");
  std::string app(name_len, '\0');
  is.read(app.data(), name_len);
  Trace t;
  t.app = app;
  t.ranks = get<std::uint32_t>(is);
  const auto count = get<std::uint64_t>(is);
  t.messages.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    workload::RankMsg m;
    m.src_rank = get<std::uint32_t>(is);
    m.dst_rank = get<std::uint32_t>(is);
    m.bytes = get<std::uint64_t>(is);
    m.time = get<double>(is);
    t.messages.push_back(m);
  }
  validate(t);
  return t;
}

TraceSummary summarize(const Trace& t) {
  validate(t);
  TraceSummary s;
  s.messages = t.messages.size();
  std::vector<std::set<std::uint32_t>> partners(t.ranks);
  std::vector<std::uint64_t> sent(t.ranks, 0);
  bool first = true;
  for (const auto& m : t.messages) {
    s.bytes += m.bytes;
    sent[m.src_rank] += m.bytes;
    partners[m.src_rank].insert(m.dst_rank);
    if (first || m.time < s.t_first) s.t_first = m.time;
    if (first || m.time > s.t_last) s.t_last = m.time;
    first = false;
  }
  double degree_sum = 0.0;
  for (std::uint32_t r = 0; r < t.ranks; ++r) {
    if (partners[r].empty()) continue;
    ++s.active_ranks;
    degree_sum += static_cast<double>(partners[r].size());
    s.max_degree = std::max(s.max_degree,
                            static_cast<std::uint32_t>(partners[r].size()));
  }
  if (s.active_ranks) degree_sum /= s.active_ranks;
  s.avg_degree = degree_sum;
  if (s.bytes > 0) {
    std::sort(sent.begin(), sent.end(), std::greater<>());
    const std::size_t top = std::max<std::size_t>(1, t.ranks / 10);
    std::uint64_t top_bytes = 0;
    for (std::size_t i = 0; i < top; ++i) top_bytes += sent[i];
    s.top_decile_share =
        static_cast<double>(top_bytes) / static_cast<double>(s.bytes);
  }
  return s;
}

}  // namespace dv::trace
