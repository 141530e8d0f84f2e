// .dvr — the packed columnar on-disk run format.
//
// RunMetrics' text (JSON) format round-trips every metric through decimal
// strings; at sweep scale (hundreds of runs x sampled series) parsing
// dominates cold-open time. A .dvr file stores the same run as raw little-
// endian column chunks behind a fixed header and a chunk directory, so a
// reader can
//
//   * mmap the file and read only its header and chunk directory until the
//     run is materialized (lazy attach — the out-of-core half of this
//     layer), and
//   * identify the run stably across sessions via a content uid, the key
//     VAID-style persistent query artifacts index on.
//
// Byte-identity contract: RunMetrics -> save_dvr -> load_dvr -> RunMetrics
// is lossless (bit-exact doubles/floats), so DataTables, renders, and
// reports built from a packed run equal the text-loaded ones byte for
// byte. docs/RUN_FORMAT.md specifies the layout.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics/run_metrics.hpp"

namespace dv::metrics {

constexpr std::uint32_t kDvrVersion = 1;
/// Sampled series are split into frame-chunks of this many frames, each
/// with its own zone map (recorded and shown by `inspect`; no reader
/// prunes on it).
constexpr std::size_t kDvrSeriesChunkFrames = 256;

/// Sections a chunk can belong to. Series sections are kSeriesBase + id,
/// id the series' index in schema::kSeries (run_schema.hpp), which also
/// lists each section's columns.
enum class DvrSection : std::uint16_t {
  kLocalLinks = 1,
  kGlobalLinks = 2,
  kTerminals = 3,
  kRouterTallies = 4,
  kSeriesBase = 16,
};

enum class DvrType : std::uint16_t {
  kF64 = 1,
  kF32 = 2,
  kU32 = 3,
  kU64 = 4,
  kI32 = 5,
};
std::size_t dvr_type_size(DvrType t);

/// One chunk-directory entry: where a column (or series frame-chunk)
/// lives, its shape, and its min/max zone map.
struct DvrChunk {
  std::uint16_t section = 0;  ///< DvrSection
  std::uint16_t column = 0;   ///< column id (chunk ordinal for series)
  std::uint16_t dtype = 0;    ///< DvrType
  std::uint64_t offset = 0;   ///< byte offset of the payload
  std::uint64_t bytes = 0;    ///< payload length
  std::uint64_t rows = 0;     ///< element count
  std::uint64_t row0 = 0;     ///< first row / frame index in this chunk
  double zmin = 0.0, zmax = 0.0;  ///< zone map over the chunk's values
};

/// Stable identity of a run's *content*: FNV-1a over every configuration
/// field, metric column and sampled frame, independent of file format or
/// path. Text and packed copies of the same run hash identically, so
/// caches persisted across sessions can key on it.
std::uint64_t run_content_uid(const RunMetrics& run);

/// Writes `run` as a .dvr file (atomically and durably: tmp + fsync +
/// rename), streaming the column payloads from the run's own memory.
/// Returns the run's content uid, which the header embeds.
std::uint64_t save_dvr(const RunMetrics& run, const std::string& path);

/// Atomic durable file publish shared by the .dvr writer and the run-store
/// index: writes `size` bytes to `path + ".tmp"`, fsyncs, renames over
/// `path`, then best-effort fsyncs the containing directory. A crash or
/// power loss leaves either the old file or the complete new one — never a
/// torn or truncated file under the final name.
void atomic_write_file(const std::string& path, const void* data,
                       std::size_t size);

/// True when the file starts with the DVR1 magic (format dispatch sniffs
/// bytes, not extensions).
bool is_dvr_file(const std::string& path);

/// Full materialization: open, read every chunk, close.
RunMetrics load_dvr(const std::string& path);

/// Process-wide reader counters (mirrored into obs as metrics.dvr.*) —
/// how much of the mapped bytes readers actually touched.
struct DvrStats {
  std::uint64_t opens = 0;
  std::uint64_t bytes_mapped = 0;
  std::uint64_t chunks_read = 0;
  std::uint64_t chunk_bytes_read = 0;
  /// Always 0: no reader skips chunks. Kept because the analyst
  /// benchmark and the serve `stats` reply report it.
  std::uint64_t chunks_pruned = 0;
};
DvrStats dvr_stats();

/// An open .dvr file: header + chunk directory parsed eagerly (a few KB),
/// column payloads mapped but untouched until a query asks. Read-only and
/// immutable after construction, so concurrent readers need no locking.
class DvrFile {
 public:
  explicit DvrFile(const std::string& path);
  ~DvrFile();
  DvrFile(const DvrFile&) = delete;
  DvrFile& operator=(const DvrFile&) = delete;

  const std::string& path() const { return path_; }
  std::uint64_t run_uid() const { return run_uid_; }
  std::uint64_t file_bytes() const { return size_; }
  const std::vector<DvrChunk>& chunks() const { return chunks_; }

  /// The header as a run with no records: shape, labels, seed, end time
  /// and sample_dt — enough for catalogs and `inspect` without touching
  /// any column payload.
  const RunMetrics& header() const { return header_; }

  /// Reads every chunk, rebuilds the RunMetrics bit-exactly and checks it
  /// with RunMetrics::validate; errors start with the path.
  RunMetrics load_all() const;

 private:
  const unsigned char* payload(const DvrChunk& c) const;  // counts a read
  const DvrChunk& find_chunk(DvrSection s, std::uint16_t column) const;
  /// Header row count of a record or tally section.
  std::size_t rows(DvrSection s) const {
    return rows_[static_cast<std::size_t>(s) - 1];
  }
  void release();

  std::string path_;
  int fd_ = -1;
  const unsigned char* map_ = nullptr;
  std::uint64_t size_ = 0;
  std::vector<unsigned char> fallback_;  ///< used when mmap is unavailable

  std::uint64_t run_uid_ = 0;
  RunMetrics header_;
  /// Row counts of local links, global links, terminals and router
  /// tallies, in header order (index = DvrSection - 1).
  std::array<std::uint32_t, 4> rows_{};
  std::vector<DvrChunk> chunks_;
};

}  // namespace dv::metrics
