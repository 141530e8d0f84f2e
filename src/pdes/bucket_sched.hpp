// Bounded-horizon bucket scheduler — the engine's hot-path pending set.
//
// A calendar-style layer over EventHeap: events landing within a bounded
// time horizon ahead of the drain cursor go into fixed-width buckets;
// everything else (far-future events, or events pushed while the layer is
// unconfigured) falls back to the indexed d-ary heap. Buckets partition
// time, so the minimum bucketed event is always at the first non-empty
// bucket; each bucket is sorted lazily — descending by (time, pri, seq) —
// exactly once, when the cursor reaches it, and is then drained from the
// back. The common near-future push/pop pair is therefore O(1) amortized
// (an append plus a back-pop) instead of a full heap sift, and the lazy
// sort touches one contiguous vector instead of chasing 32-bit slot
// indices through a slab.
//
// Choosing the bucket width: any positive width is *correct* (pops always
// come out in strict (time, pri, seq) order; the fallback heap and the
// buckets are merged through the same comparator). The width is *fast*
// when it is at most the model's minimum scheduling delay — then only
// pushes with a shorter delay land in the bucket currently being drained
// and take the ordered-insert path. The netsim model uses its lookahead
// (min link/credit latency); its shorter serialization delays still take
// that path, as often as the load makes them. On the three-job Fig. 4
// DF(6) run (12.9 M events) 7.3% of bucketed pushes are ordered inserts,
// and its 18 k lazy sorts order 644 events each on average; on
// loop-df6-packet's UR run (1.45 M events) 0.35% are, and its 100 k sorts
// order 13.9 events each. stats() counts both per scheduler.
//
// Horizon advance: when every bucket has drained and the next event comes
// out of the fallback heap, the window re-anchors at that event's time, so
// the events its handler schedules land back in buckets. Sub-width or even
// zero delays are legal everywhere: a push into the already-sorted active
// bucket does an ordered insert (binary search + move), preserving the
// drain order.
//
// Bucket storage is recycled last-in first-out: when a bucket drains, its
// vector (capacity intact) goes onto a spare stack, and the next bucket to
// receive its first push takes the most recently freed one. Pushes
// therefore land in memory that was touched moments ago, not in a vector
// last used one horizon earlier, and only the buckets holding events (plus
// the spares) own storage.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "pdes/event_heap.hpp"
#include "util/common.hpp"

namespace dv::pdes {

template <typename EventT>
class BucketSched {
 public:
  static constexpr std::size_t kDefaultBuckets = 1024;

  /// Enables the bucket layer with the given bucket width (simulated time
  /// units); the horizon spans `buckets * width`. A width of 0 disables
  /// bucketing — every event goes through the fallback heap, which is the
  /// default state. Must be called while the scheduler is empty.
  void configure(double width, std::size_t buckets = kDefaultBuckets) {
    DV_REQUIRE(empty(), "configure() on a non-empty scheduler");
    DV_REQUIRE(width >= 0.0, "bucket width must be non-negative");
    DV_REQUIRE(buckets >= 2, "need at least two buckets");
    width_ = width;
    buckets_.clear();
    spare_.clear();
    if (width_ > 0.0) {
      inv_width_ = 1.0 / width_;
      buckets_.resize(buckets);
    }
    base_ = 0.0;
    cur_ = 0;
    sorted_ = false;
  }

  bool empty() const { return nbucketed_ == 0 && heap_.empty(); }
  std::size_t size() const { return nbucketed_ + heap_.size(); }

  void reserve(std::size_t n) { heap_.reserve(n); }

  void push(const EventT& ev) {
    if (width_ > 0.0) {
      const double off = ev.time - base_;
      if (off >= 0.0) {
        const double scaled = off * inv_width_;
        if (scaled < static_cast<double>(buckets_.size())) {
          push_bucket(static_cast<std::size_t>(scaled), ev);
          ++stats_.bucket_pushes;
          return;
        }
      }
    }
    heap_.push(ev);
    ++stats_.heap_pushes;
  }

  /// Reference to the minimum event. Non-const: reaching the minimum may
  /// lazily sort the bucket the cursor just arrived at. The reference is
  /// invalidated by the next push or pop.
  const EventT& top() {
    EventT* bm = bucket_min();
    if (bm == nullptr) return heap_.top();
    if (heap_.empty() || before(*bm, heap_.top())) return *bm;
    return heap_.top();
  }

  /// Removes the minimum event into caller-owned storage.
  void pop_into(EventT& out) {
    EventT* bm = bucket_min();
    if (bm != nullptr && (heap_.empty() || before(*bm, heap_.top()))) {
      out = *bm;
      std::vector<EventT>& vec = buckets_[cur_];
      vec.pop_back();
      --nbucketed_;
      // A moved-from vector is empty with no storage, which is how
      // push_bucket recognises a bucket that needs a spare.
      if (vec.empty()) spare_.push_back(std::move(vec));
      return;
    }
    heap_.pop_into(out);
    if (width_ > 0.0 && nbucketed_ == 0) {
      // Every bucket has drained and the minimum lived in the fallback
      // heap: re-anchor the horizon at that event so its handler's
      // near-future pushes land back in buckets. Guard the re-anchored
      // base at or below the event time despite floating-point rounding.
      base_ = std::floor(out.time * inv_width_) * width_;
      if (base_ > out.time) base_ -= width_;
      cur_ = 0;
      sorted_ = false;
    }
  }

  EventT pop() {
    EventT out;
    pop_into(out);
    return out;
  }

  /// Scheduler attribution for the observability layer (cumulative).
  struct Stats {
    std::uint64_t bucket_pushes = 0;    ///< pushes the bucket layer absorbed
    std::uint64_t heap_pushes = 0;      ///< pushes that fell to the heap
    std::uint64_t bucket_sorts = 0;     ///< lazy sorts of a reached bucket
    std::uint64_t sorted_events = 0;    ///< events those sorts ordered
    std::uint64_t ordered_inserts = 0;  ///< pushes into the sorted bucket
  };
  const Stats& stats() const { return stats_; }

 private:
  static bool before(const EventT& a, const EventT& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.pri != b.pri) return a.pri < b.pri;
    return a.seq < b.seq;
  }
  /// Descending comparator — buckets drain from the back. A function
  /// object, so std::sort and std::upper_bound inline the comparison.
  struct After {
    bool operator()(const EventT& a, const EventT& b) const {
      return before(b, a);
    }
  };

  void push_bucket(std::size_t b, const EventT& ev) {
    ++nbucketed_;
    std::vector<EventT>& vec = buckets_[b];
    if (vec.capacity() == 0 && !spare_.empty()) {
      vec = std::move(spare_.back());
      spare_.pop_back();
    }
    if (b < cur_) {
      // A pop from the fallback heap moved `now` behind the drain cursor
      // (an old far-future event re-entered the window); all buckets below
      // the cursor are empty, so rewinding it is cheap and safe.
      cur_ = b;
      sorted_ = false;
      vec.push_back(ev);
      return;
    }
    if (b == cur_ && sorted_) {
      // Sub-width delay into the bucket being drained: ordered insert
      // keeps it drainable from the back. Not rare under load: 7.3% of
      // the bucketed pushes of the Fig. 4 DF(6) packet run land here.
      vec.insert(std::upper_bound(vec.begin(), vec.end(), ev, After{}), ev);
      ++stats_.ordered_inserts;
      return;
    }
    vec.push_back(ev);
  }

  /// Minimum bucketed event (back of the first non-empty bucket), or
  /// nullptr when no events are bucketed. Advances the cursor over empty
  /// buckets and lazily sorts the one it lands on.
  EventT* bucket_min() {
    if (nbucketed_ == 0) return nullptr;
    while (buckets_[cur_].empty()) {
      ++cur_;
      sorted_ = false;
      DV_CHECK(cur_ < buckets_.size(), "bucket occupancy out of sync");
    }
    std::vector<EventT>& vec = buckets_[cur_];
    if (!sorted_) {
      std::sort(vec.begin(), vec.end(), After{});
      sorted_ = true;
      ++stats_.bucket_sorts;
      stats_.sorted_events += vec.size();
    }
    return &vec.back();
  }

  EventHeap<EventT> heap_;                   // far-future fallback
  std::vector<std::vector<EventT>> buckets_; // fixed-width time buckets
  std::vector<std::vector<EventT>> spare_;   // drained storage, LIFO
  double width_ = 0.0;                       // 0 = bucket layer disabled
  double inv_width_ = 0.0;
  double base_ = 0.0;        // time at the start of bucket 0
  std::size_t cur_ = 0;      // drain cursor; buckets below it are empty
  bool sorted_ = false;      // bucket `cur_` sorted descending?
  std::size_t nbucketed_ = 0;
  Stats stats_;
};

}  // namespace dv::pdes
