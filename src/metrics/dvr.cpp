#include "metrics/dvr.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "metrics/run_schema.hpp"
#include "obs/obs.hpp"
#include "util/kernels.hpp"

namespace dv::metrics {

namespace {

constexpr char kMagic[4] = {'D', 'V', 'R', '1'};

constexpr DvrSection dvr_series_section(std::size_t id) {
  return static_cast<DvrSection>(
      static_cast<std::uint16_t>(DvrSection::kSeriesBase) + id);
}

struct Stats {
  std::atomic<std::uint64_t> opens{0};
  std::atomic<std::uint64_t> bytes_mapped{0};
  std::atomic<std::uint64_t> chunks_read{0};
  std::atomic<std::uint64_t> chunk_bytes_read{0};
};
Stats& stats() {
  static Stats s;
  return s;
}

// ----------------------------------------------------- byte-level helpers
// All multi-byte values are little-endian. The writer/reader memcpy
// through byte buffers (no packed-struct aliasing); dragonviz targets
// little-endian hosts, which keeps these memcpys copy-through.

/// Buffered sequential writer over an open file descriptor. Small pieces
/// (header fields, padding, the chunk directory) collect in a 64 KiB
/// buffer; a payload at least that large goes to write(2) straight from
/// the caller's memory, so a save never holds a whole-file image.
class FdWriter {
 public:
  explicit FdWriter(int fd) : fd_(fd) { buf_.reserve(kBuffer); }
  void raw(const void* p, std::size_t n) {
    if (buf_.size() + n > kBuffer) flush();
    if (n >= kBuffer) {
      write_all(p, n);
    } else {
      const auto* b = static_cast<const unsigned char*>(p);
      buf_.insert(buf_.end(), b, b + n);
    }
    at_ += n;
  }
  template <typename T>
  void pod(T v) {
    raw(&v, sizeof(v));
  }
  void str(const std::string& s) {
    pod(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  /// Zero-pads to the next 8-byte file offset.
  void align8() {
    static constexpr unsigned char kZeros[8] = {};
    raw(kZeros, (8 - at_ % 8) % 8);
  }
  std::uint64_t at() const { return at_; }
  /// Overwrites a POD written earlier (for values known only at the end).
  template <typename T>
  void patch(std::uint64_t at, T v) {
    DV_CHECK(at + sizeof(v) <= at_, "dvr patch out of range");
    flush();
    if (::pwrite(fd_, &v, sizeof(v), static_cast<off_t>(at)) !=
        static_cast<ssize_t>(sizeof(v))) {
      throw Error("write failed");
    }
  }
  void flush() {
    write_all(buf_.data(), buf_.size());
    buf_.clear();
  }

 private:
  static constexpr std::size_t kBuffer = 64 * 1024;

  void write_all(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    while (size > 0) {
      const ssize_t n = ::write(fd_, p, size);
      if (n < 0) throw Error("write failed");
      p += n;
      size -= static_cast<std::size_t>(n);
    }
  }

  int fd_;
  std::vector<unsigned char> buf_;
  std::uint64_t at_ = 0;
};

class ByteReader {
 public:
  ByteReader(const unsigned char* p, std::uint64_t n) : p_(p), n_(n) {}
  template <typename T>
  T pod() {
    T v;
    DV_REQUIRE(at_ + sizeof(v) <= n_, "truncated .dvr file");
    std::memcpy(&v, p_ + at_, sizeof(v));
    at_ += sizeof(v);
    return v;
  }
  std::string str() {
    const auto len = pod<std::uint32_t>();
    DV_REQUIRE(at_ + len <= n_, "truncated .dvr string");
    std::string s(reinterpret_cast<const char*>(p_ + at_), len);
    at_ += len;
    return s;
  }
  void seek(std::uint64_t at) {
    DV_REQUIRE(at <= n_, "bad .dvr offset");
    at_ = at;
  }
  std::uint64_t at() const { return at_; }

 private:
  const unsigned char* p_;
  std::uint64_t n_;
  std::uint64_t at_ = 0;
};

// -------------------------------------------------------------- column IO

template <typename T>
DvrType dvr_type_of() {
  if constexpr (std::is_same_v<T, double>) return DvrType::kF64;
  if constexpr (std::is_same_v<T, float>) return DvrType::kF32;
  if constexpr (std::is_same_v<T, std::uint32_t>) return DvrType::kU32;
  if constexpr (std::is_same_v<T, std::uint64_t>) return DvrType::kU64;
  return DvrType::kI32;
}

/// Bitmap words of a series chunk holding `values` floats.
constexpr std::uint64_t bitmap_words(std::uint64_t values) {
  return values / 64 + (values % 64 != 0);
}

/// Scatters a series chunk's stored values into `out` (c.rows zeroed
/// floats). The bitmap must set exactly c.nonzeros bits, none of them past
/// c.rows; every stored value is read only after that count is checked.
void decode_series_chunk(const unsigned char* p, const DvrChunk& c,
                         float* out) {
  const std::uint64_t words = bitmap_words(c.rows);
  const unsigned char* values = p + words * 8;
  if (c.rows % 64 != 0) {
    std::uint64_t last;
    std::memcpy(&last, p + (words - 1) * 8, sizeof(last));
    DV_REQUIRE(last >> (c.rows % 64) == 0,
               "bitmap bit set past the chunk's " + std::to_string(c.rows) +
                   " values");
  }
  std::uint64_t k = 0;
  for (std::uint64_t w = 0; w < words; ++w) {
    std::uint64_t bits;
    std::memcpy(&bits, p + w * 8, sizeof(bits));
    if (bits == 0) continue;
    DV_REQUIRE(k + static_cast<std::uint64_t>(std::popcount(bits)) <=
                   c.nonzeros,
               "bitmap sets more bits than the chunk's " +
                   std::to_string(c.nonzeros) + " stored values");
    for (; bits != 0; bits &= bits - 1) {
      std::memcpy(out + w * 64 + static_cast<std::uint64_t>(
                                     std::countr_zero(bits)),
                  values + k++ * sizeof(float), sizeof(float));
    }
  }
  DV_REQUIRE(k == c.nonzeros, "bitmap sets " + std::to_string(k) +
                                  " bits for the chunk's " +
                                  std::to_string(c.nonzeros) +
                                  " stored values");
}

/// Streams chunk payloads through an FdWriter and records their directory
/// entries. A field of a record vector is gathered into a staging buffer
/// reused across columns of its element type; contiguous columns (router
/// tallies) are written from the run's own memory, and a series chunk is
/// encoded on the way out (its bitmap staged, its values in 64 KiB
/// pieces).
class ChunkWriter {
 public:
  explicit ChunkWriter(FdWriter& w) : w_(w) {}

  template <typename T>
  void chunk(DvrSection section, std::uint16_t column, const T* values,
             std::size_t rows, std::uint64_t row0 = 0) {
    // 8-byte aligned so mmap'd doubles are naturally aligned for direct
    // memcpy-free reads.
    w_.align8();
    DvrChunk c;
    c.section = static_cast<std::uint16_t>(section);
    c.column = column;
    c.dtype = static_cast<std::uint16_t>(dvr_type_of<T>());
    c.offset = w_.at();
    c.bytes = rows * sizeof(T);
    c.rows = rows;
    c.row0 = row0;
    w_.raw(values, c.bytes);
    dir_.push_back(c);
  }

  /// A series frame-chunk of `rows` floats: the presence bitmap, then the
  /// present values in order.
  void series_chunk(DvrSection section, std::uint16_t column,
                    const float* values, std::size_t rows,
                    std::uint64_t row0) {
    w_.align8();
    DvrChunk c;
    c.section = static_cast<std::uint16_t>(section);
    c.column = column;
    c.dtype = static_cast<std::uint16_t>(DvrType::kF32);
    c.offset = w_.at();
    c.rows = rows;
    c.row0 = row0;
    bitmap_.resize(bitmap_words(rows));
    for (std::size_t w = 0; w < bitmap_.size(); ++w) {
      bitmap_[w] = kernels::nonzero_bits(
          values + w * 64, std::min<std::size_t>(64, rows - w * 64));
      c.nonzeros += static_cast<std::uint64_t>(std::popcount(bitmap_[w]));
    }
    w_.raw(bitmap_.data(), bitmap_.size() * sizeof(std::uint64_t));
    f32_.clear();
    for (std::size_t w = 0; w < bitmap_.size(); ++w) {
      for (std::uint64_t bits = bitmap_[w]; bits != 0; bits &= bits - 1) {
        f32_.push_back(values[w * 64 + static_cast<std::size_t>(
                                           std::countr_zero(bits))]);
      }
      if (f32_.size() >= kValuesPerWrite) {
        w_.raw(f32_.data(), f32_.size() * sizeof(float));
        f32_.clear();
      }
    }
    w_.raw(f32_.data(), f32_.size() * sizeof(float));
    c.bytes = bitmap_.size() * sizeof(std::uint64_t) +
              c.nonzeros * sizeof(float);
    dir_.push_back(c);
  }

  template <typename T>
  void chunk(DvrSection section, std::uint16_t column,
             const std::vector<T>& values) {
    chunk(section, column, values.data(), values.size());
  }

  /// One field of every record, as a column.
  template <typename Rec, typename T>
  void column(DvrSection section, std::uint16_t column,
              const std::vector<Rec>& recs, T Rec::*member) {
    std::vector<T>& buf = staging<T>();
    buf.resize(recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) buf[i] = recs[i].*member;
    chunk(section, column, buf);
  }

  const std::vector<DvrChunk>& directory() const { return dir_; }

 private:
  template <typename T>
  std::vector<T>& staging() {
    if constexpr (std::is_same_v<T, double>) return f64_;
    if constexpr (std::is_same_v<T, std::uint32_t>) return u32_;
    if constexpr (std::is_same_v<T, std::uint64_t>) return u64_;
    if constexpr (std::is_same_v<T, std::int32_t>) return i32_;
  }

  static constexpr std::size_t kValuesPerWrite = 16 * 1024;

  FdWriter& w_;
  std::vector<DvrChunk> dir_;
  std::vector<std::uint64_t> bitmap_;
  std::vector<float> f32_;
  std::vector<double> f64_;
  std::vector<std::uint32_t> u32_;
  std::vector<std::uint64_t> u64_;
  std::vector<std::int32_t> i32_;
};

void write_series(ChunkWriter& cw, std::size_t id, const SampledSeries& s) {
  const DvrSection section = dvr_series_section(id);
  const std::size_t entities = s.entities();
  const std::size_t frames = s.frames();
  std::uint16_t ordinal = 0;
  for (std::size_t f0 = 0; f0 < frames; f0 += kDvrSeriesChunkFrames) {
    const std::size_t nf = std::min(kDvrSeriesChunkFrames, frames - f0);
    cw.series_chunk(section, ordinal++, s.data() + f0 * entities,
                    nf * entities, f0);
  }
  // A sampled-but-empty series (entities > 0, no frames yet) still needs
  // its shape recorded; an explicit empty chunk does that.
  if (frames == 0 && entities > 0) cw.series_chunk(section, 0, nullptr, 0, 0);
}

/// Atomic durable publish: runs `body(fd)` to fill `path + ".tmp"`,
/// fsyncs, renames over `path`, then best-effort fsyncs the containing
/// directory. A failure removes the temporary file.
template <typename Body>
void publish_atomically(const std::string& path, Body&& body) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  DV_REQUIRE(fd >= 0, "cannot open for writing: " + tmp);
  try {
    body(fd);
    // Durability before visibility: without this fsync the rename below
    // can survive a power loss while the data does not, publishing a
    // truncated file under the final name on some filesystems.
    DV_OBS_PHASE("metrics.fsync");
    if (::fsync(fd) != 0) throw Error("fsync failed");
  } catch (const Error&) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw Error("write failed: " + tmp);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw Error("cannot rename " + tmp + " -> " + path);
  }
  // Best-effort: persist the directory entry too. Some filesystems refuse
  // to fsync a directory fd, so failures here are not fatal — the data
  // itself is already durable.
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace

std::size_t dvr_type_size(DvrType t) {
  switch (t) {
    case DvrType::kF64: return 8;
    case DvrType::kF32: return 4;
    case DvrType::kU32: return 4;
    case DvrType::kU64: return 8;
    case DvrType::kI32: return 4;
  }
  throw Error("unknown .dvr dtype");
}

// ----------------------------------------------------------- content uid

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// kZeroWordsPow[j] = prime^(8 * 2^j) (mod 2^64). FNV-1a over one zero
/// byte is `h *= prime`, so over 8k zero bytes it is `h *= prime^(8k)`,
/// the product of the entries for the set bits of k.
constexpr std::array<std::uint64_t, 64> kZeroWordsPow = [] {
  std::array<std::uint64_t, 64> t{};
  std::uint64_t x = 1;
  for (int i = 0; i < 8; ++i) x *= kFnvPrime;
  for (auto& e : t) {
    e = x;
    x *= x;
  }
  return t;
}();
/// prime^4: FNV-1a over four zero bytes is `h *= prime^4`.
constexpr std::uint64_t kPrimePow4 =
    kFnvPrime * kFnvPrime * kFnvPrime * kFnvPrime;

}  // namespace

std::uint64_t run_content_uid(const RunMetrics& run) {
  DV_OBS_PHASE("metrics.uid");
  // FNV-1a over a canonical byte stream: the header fields, then each
  // record section row by row (every column of a row, in schema order),
  // each router tally, sample_dt and each sampled series. The order is
  // not the .dvr file's (which is column-major), so a uid identifies
  // content whichever format holds it.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= kFnvPrime;
    }
  };
  // The same hash as mix, with each run of zero 8-byte words applied as
  // one multiplication (series are mostly zeros).
  auto mix_sparse = [&h, &mix](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    auto word = [b](std::size_t at) {
      std::uint64_t w;
      std::memcpy(&w, b + at, sizeof(w));
      return w;
    };
    std::size_t i = 0;
    while (i + 8 <= n) {
      if (word(i) != 0) {
        mix(b + i, 8);
        i += 8;
        continue;
      }
      std::uint64_t zeros = 1;
      for (i += 8; i + 8 <= n && word(i) == 0; i += 8) ++zeros;
      for (int j = 0; zeros != 0; ++j, zeros >>= 1) {
        if (zeros & 1) h *= kZeroWordsPow[j];
      }
    }
    mix(b + i, n - i);
  };
  // A zero field is sizeof(v) zero bytes: one multiplication too.
  auto pod = [&h, &mix](auto v) {
    static_assert(sizeof(v) == 4 || sizeof(v) == 8);
    using Bits =
        std::conditional_t<sizeof(v) == 8, std::uint64_t, std::uint32_t>;
    if (std::bit_cast<Bits>(v) != 0) {
      mix(&v, sizeof(v));
    } else {
      h *= sizeof(v) == 8 ? kZeroWordsPow[0] : kPrimePow4;
    }
  };
  auto str = [&](const std::string& s) {
    pod(static_cast<std::uint64_t>(s.size()));
    mix(s.data(), s.size());
  };
  pod(run.groups);
  pod(run.routers_per_group);
  pod(run.terminals_per_router);
  pod(run.global_per_router);
  str(run.workload);
  str(run.routing);
  str(run.placement);
  pod(run.seed);
  pod(run.end_time);
  pod(static_cast<std::uint64_t>(run.job_names.size()));
  for (const auto& n : run.job_names) str(n);
  schema::for_each_records(run, [&](const char*, DvrSection,
                                    const auto& recs) {
    using Rec = schema::record_t<decltype(recs)>;
    pod(static_cast<std::uint64_t>(recs.size()));
    for (const Rec& rec : recs) {
      schema::for_each(schema::Table<Rec>::kColumns,
                       [&](const auto& c, std::size_t) { pod(rec.*c.member); });
    }
  });
  schema::for_each(schema::kRouterTallies, [&](const auto& t, std::size_t) {
    const auto& tally = run.*t.member;
    pod(static_cast<std::uint64_t>(tally.size()));
    for (const auto v : tally) pod(v);
  });
  pod(run.sample_dt);
  for (const schema::Series& ts : schema::kSeries) {
    const SampledSeries& s = run.*ts.member;
    pod(static_cast<std::uint64_t>(s.entities()));
    pod(static_cast<std::uint64_t>(s.frames()));
    mix_sparse(s.data(), s.frames() * s.entities() * sizeof(float));
  }
  return h;
}

// ----------------------------------------------------------------- writer

std::uint64_t save_dvr(const RunMetrics& run, const std::string& path) {
  const std::uint64_t uid = run_content_uid(run);
  publish_atomically(path, [&](int fd) {
    DV_OBS_PHASE("metrics.write_chunks");
    FdWriter w(fd);
    w.raw(kMagic, sizeof(kMagic));
    w.pod(kDvrVersion);
    w.pod(uid);
    w.pod(run.groups);
    w.pod(run.routers_per_group);
    w.pod(run.terminals_per_router);
    w.pod(run.global_per_router);
    w.pod(run.seed);
    w.pod(run.end_time);
    w.pod(run.sample_dt);
    w.pod(static_cast<std::uint32_t>(run.local_links.size()));
    w.pod(static_cast<std::uint32_t>(run.global_links.size()));
    w.pod(static_cast<std::uint32_t>(run.terminals.size()));
    w.pod(static_cast<std::uint32_t>(run.router_downtime.size()));
    // Chunk count and directory offset are patched once the payloads are
    // out.
    const std::uint64_t count_at = w.at();
    w.pod(static_cast<std::uint32_t>(0));
    const std::uint64_t dir_offset_at = w.at();
    w.pod(static_cast<std::uint64_t>(0));
    w.str(run.workload);
    w.str(run.routing);
    w.str(run.placement);
    w.pod(static_cast<std::uint32_t>(run.job_names.size()));
    for (const auto& n : run.job_names) w.str(n);

    ChunkWriter cw(w);
    schema::for_each_records(run, [&cw](const char*, DvrSection s,
                                        const auto& recs) {
      using Rec = schema::record_t<decltype(recs)>;
      schema::for_each(schema::Table<Rec>::kColumns,
                       [&](const auto& c, std::size_t id) {
                         cw.column(s, static_cast<std::uint16_t>(id), recs,
                                   c.member);
                       });
    });
    schema::for_each(schema::kRouterTallies,
                     [&](const auto& t, std::size_t id) {
                       const auto& tally = run.*t.member;
                       if (tally.empty()) return;
                       cw.chunk(DvrSection::kRouterTallies,
                                static_cast<std::uint16_t>(id), tally);
                     });
    if (run.has_time_series()) {
      for (std::size_t id = 0; id < schema::kSeries.size(); ++id) {
        write_series(cw, id, run.*schema::kSeries[id].member);
      }
    }

    const std::uint64_t dir_offset = w.at();
    for (const DvrChunk& c : cw.directory()) {
      w.pod(c.section);
      w.pod(c.column);
      w.pod(c.dtype);
      w.pod(static_cast<std::uint16_t>(0));  // reserved
      w.pod(c.offset);
      w.pod(c.bytes);
      w.pod(c.rows);
      w.pod(c.row0);
    }
    w.patch(count_at, static_cast<std::uint32_t>(cw.directory().size()));
    w.patch(dir_offset_at, dir_offset);
  });
  return uid;
}

void atomic_write_file(const std::string& path, const void* data,
                       std::size_t size) {
  publish_atomically(path, [&](int fd) {
    FdWriter w(fd);
    w.raw(data, size);
    w.flush();
  });
}

bool is_dvr_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return false;
  char magic[4] = {};
  is.read(magic, sizeof(magic));
  return is.gcount() == sizeof(magic) &&
         std::memcmp(magic, kMagic, sizeof(magic)) == 0;
}

RunMetrics load_dvr(const std::string& path) {
  return DvrFile(path).load_all();
}

// ----------------------------------------------------------------- reader

DvrStats dvr_stats() {
  DvrStats out;
  Stats& s = stats();
  out.opens = s.opens.load(std::memory_order_relaxed);
  out.bytes_mapped = s.bytes_mapped.load(std::memory_order_relaxed);
  out.chunks_read = s.chunks_read.load(std::memory_order_relaxed);
  out.chunk_bytes_read = s.chunk_bytes_read.load(std::memory_order_relaxed);
  return out;
}

DvrFile::DvrFile(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  DV_REQUIRE(fd_ >= 0, "cannot open for reading: " + path);
  struct stat st = {};
  if (::fstat(fd_, &st) != 0 || st.st_size <= 0) {
    release();
    throw Error("cannot stat .dvr file: " + path);
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
  void* m = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd_, 0);
  if (m != MAP_FAILED) {
    map_ = static_cast<const unsigned char*>(m);
  } else {
    // mmap can fail on exotic filesystems; fall back to a full read so
    // the format stays usable (at the cost of laziness).
    fallback_.resize(size_);
    std::uint64_t got = 0;
    while (got < size_) {
      const ssize_t r = ::read(fd_, fallback_.data() + got, size_ - got);
      if (r <= 0) {
        release();
        throw Error("cannot read .dvr file: " + path);
      }
      got += static_cast<std::uint64_t>(r);
    }
    map_ = fallback_.data();
  }
  stats().opens.fetch_add(1, std::memory_order_relaxed);
  stats().bytes_mapped.fetch_add(size_, std::memory_order_relaxed);
  DV_OBS_COUNT("metrics.dvr.opens", 1);

  try {
    ByteReader r(map_, size_);
    char magic[4];
    std::memcpy(magic, map_, sizeof(magic));
    r.seek(sizeof(magic));
    DV_REQUIRE(std::memcmp(magic, kMagic, sizeof(magic)) == 0,
               "not a .dvr file");
    const auto version = r.pod<std::uint32_t>();
    DV_REQUIRE(version == kDvrVersion,
               "unsupported .dvr version " + std::to_string(version) +
                   " (reader supports " + std::to_string(kDvrVersion) + ")");
    run_uid_ = r.pod<std::uint64_t>();
    RunMetrics& h = header_;
    h.groups = r.pod<std::uint32_t>();
    h.routers_per_group = r.pod<std::uint32_t>();
    h.terminals_per_router = r.pod<std::uint32_t>();
    h.global_per_router = r.pod<std::uint32_t>();
    h.seed = r.pod<std::uint64_t>();
    h.end_time = r.pod<double>();
    h.sample_dt = r.pod<double>();
    for (auto& n : rows_) n = r.pod<std::uint32_t>();
    const auto n_chunks = r.pod<std::uint32_t>();
    const auto dir_offset = r.pod<std::uint64_t>();
    h.workload = r.str();
    h.routing = r.str();
    h.placement = r.str();
    const auto n_jobs = r.pod<std::uint32_t>();
    h.job_names.reserve(n_jobs);
    for (std::uint32_t i = 0; i < n_jobs; ++i) h.job_names.push_back(r.str());

    r.seek(dir_offset);
    chunks_.reserve(n_chunks);
    for (std::uint32_t i = 0; i < n_chunks; ++i) {
      DvrChunk c;
      c.section = r.pod<std::uint16_t>();
      c.column = r.pod<std::uint16_t>();
      c.dtype = r.pod<std::uint16_t>();
      r.pod<std::uint16_t>();  // reserved
      c.offset = r.pod<std::uint64_t>();
      c.bytes = r.pod<std::uint64_t>();
      c.rows = r.pod<std::uint64_t>();
      c.row0 = r.pod<std::uint64_t>();
      // Subtraction/division forms: the additive `offset + bytes <= size`
      // and multiplicative `bytes == rows * elem` checks both wrap on
      // crafted uint64 values and would admit out-of-range chunks.
      DV_REQUIRE(c.offset <= size_ && c.bytes <= size_ - c.offset,
                 "chunk past end of .dvr file");
      const auto series_base =
          static_cast<std::uint16_t>(DvrSection::kSeriesBase);
      if (c.section < series_base ||
          c.section >= series_base + schema::kSeries.size()) {
        const std::uint64_t elem =
            dvr_type_size(static_cast<DvrType>(c.dtype));
        DV_REQUIRE(c.bytes % elem == 0 && c.rows == c.bytes / elem,
                   "chunk size/dtype mismatch");
      } else {
        // A bitmap of `rows` bits in whole words, then the stored floats.
        DV_REQUIRE(static_cast<DvrType>(c.dtype) == DvrType::kF32,
                   "series chunk dtype mismatch");
        const std::uint64_t bitmap = bitmap_words(c.rows) * 8;
        DV_REQUIRE(c.bytes >= bitmap, "series chunk bitmap truncated");
        DV_REQUIRE((c.bytes - bitmap) % sizeof(float) == 0 &&
                       (c.bytes - bitmap) / sizeof(float) <= c.rows,
                   "series chunk size mismatch");
        c.nonzeros = (c.bytes - bitmap) / sizeof(float);
        // Series chunks address a frames x entities slab, so load_all can
        // only scatter safely if every chunk's [row0, row0 + rows/entities)
        // frame range is representable and consistent with the header's
        // entity count. A frame costs at least entities bits of bitmap, so
        // no genuine frame index can exceed 8 * size_ / entities — which
        // also keeps the frames * entities allocation arithmetic overflow-
        // free (and within 32x the file size) for everything the
        // directory admits.
        const std::uint64_t entities =
            rows(schema::kSeries[c.section - series_base].entities);
        if (c.rows > 0) {
          DV_REQUIRE(entities > 0, "series chunk for an empty entity class");
          DV_REQUIRE(c.rows % entities == 0,
                     "series chunk rows not a multiple of the entity count");
        }
        if (entities > 0) {
          const std::uint64_t max_frames = size_ * 8 / entities;
          const std::uint64_t chunk_frames = c.rows / entities;
          DV_REQUIRE(
              chunk_frames <= max_frames && c.row0 <= max_frames - chunk_frames,
              "series chunk frame range exceeds file");
        }
      }
      chunks_.push_back(c);
    }
  } catch (const Error& e) {
    release();
    throw Error(path + ": " + e.what());
  } catch (...) {
    release();
    throw;
  }
}

void DvrFile::release() {
  if (map_ != nullptr && fallback_.empty()) {
    ::munmap(const_cast<unsigned char*>(map_), size_);
  }
  map_ = nullptr;
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

DvrFile::~DvrFile() { release(); }

const unsigned char* DvrFile::payload(const DvrChunk& c) const {
  stats().chunks_read.fetch_add(1, std::memory_order_relaxed);
  stats().chunk_bytes_read.fetch_add(c.bytes, std::memory_order_relaxed);
  DV_OBS_COUNT("metrics.dvr.chunks_read", 1);
  return map_ + c.offset;
}

const DvrChunk& DvrFile::find_chunk(DvrSection s,
                                    std::uint16_t column) const {
  for (const auto& c : chunks_) {
    if (c.section == static_cast<std::uint16_t>(s) && c.column == column) {
      return c;
    }
  }
  throw Error(path_ + ": missing chunk (section " +
              std::to_string(static_cast<int>(s)) + ", column " +
              std::to_string(column) + ")");
}

RunMetrics DvrFile::load_all() const {
  DV_OBS_PHASE("metrics.decode");
  // The payload of a column chunk of `dtype` holding `n` rows, or an
  // error naming the column.
  auto column = [this](DvrSection s, std::size_t id, DvrType dtype,
                       std::size_t n, const char* name) {
    const DvrChunk& c = find_chunk(s, static_cast<std::uint16_t>(id));
    DV_REQUIRE(static_cast<DvrType>(c.dtype) == dtype,
               path_ + ": dtype mismatch in column " + name);
    DV_REQUIRE(c.rows == n, path_ + ": row count mismatch in column " + name);
    return payload(c);
  };
  RunMetrics m = header_;
  schema::for_each_records(m, [&](const char*, DvrSection s, auto& recs) {
    using Rec = schema::record_t<decltype(recs)>;
    const std::size_t n = rows(s);
    if (n == 0) return;
    // Scatter each column straight from the mapped payload. A column's
    // row count is checked before the first resize, and the constructor
    // bounded it by the file size, so a crafted header count cannot
    // force a huge allocation.
    schema::for_each(schema::Table<Rec>::kColumns,
                     [&](const auto& c, std::size_t id) {
      using T = schema::value_t<decltype(c)>;
      const unsigned char* p = column(s, id, dvr_type_of<T>(), n, c.name);
      recs.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        std::memcpy(&(recs[i].*c.member), p + i * sizeof(T), sizeof(T));
      }
    });
  });
  if (rows(DvrSection::kRouterTallies) > 0) {
    schema::for_each(schema::kRouterTallies,
                     [&](const auto& t, std::size_t id) {
      using T = schema::value_t<decltype(t)>;
      const DvrChunk& c = find_chunk(DvrSection::kRouterTallies,
                                     static_cast<std::uint16_t>(id));
      auto& tally = m.*t.member;
      tally.resize(c.rows);
      std::memcpy(tally.data(),
                  column(DvrSection::kRouterTallies, id, dvr_type_of<T>(),
                         c.rows, t.name),
                  c.bytes);
    });
  }
  if (m.has_time_series()) {
    // Each series is its frame-chunks scattered into one zeroed frames x
    // entities slab; the constructor admits only chunks whose frame range
    // fits the slab and whose payload holds the bitmap.
    for (std::size_t id = 0; id < schema::kSeries.size(); ++id) {
      const std::size_t entities = rows(schema::kSeries[id].entities);
      const auto section = static_cast<std::uint16_t>(dvr_series_section(id));
      std::size_t frames = 0;
      for (const auto& c : chunks_) {
        if (c.section != section || entities == 0) continue;
        frames = std::max<std::size_t>(frames, c.row0 + c.rows / entities);
      }
      std::vector<float> data(frames * entities);
      for (const auto& c : chunks_) {
        if (c.section != section || c.rows == 0) continue;
        DV_CHECK(c.row0 * entities + c.rows <= data.size(),
                 "series chunk outside slab in " + path_);
        try {
          decode_series_chunk(payload(c), c, data.data() + c.row0 * entities);
        } catch (const Error& e) {
          throw Error(path_ + ": " + schema::kSeries[id].name + " chunk " +
                      std::to_string(c.column) + ": " + e.what());
        }
      }
      m.*schema::kSeries[id].member =
          SampledSeries::adopt(entities, header_.sample_dt, std::move(data));
    }
  }
  try {
    m.validate();
  } catch (const Error& e) {
    throw Error(path_ + ": " + e.what());
  }
  return m;
}

}  // namespace dv::metrics
