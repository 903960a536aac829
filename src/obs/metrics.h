#ifndef DCWS_OBS_METRICS_H_
#define DCWS_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/util/mutex.h"

namespace dcws::obs {

// Metrics registry: named, labeled instruments with lock-free hot-path
// updates.  A Registry hands out stable pointers at registration time;
// request paths keep the pointer and update through relaxed atomics, so
// instrumentation costs one atomic RMW per event and never takes a lock.
// The registry lock only serializes registration and Snapshot().
//
// Naming schema (see DESIGN.md "Observability"): metric names are
// snake_case with a dcws_ prefix and a unit or _total suffix
// (dcws_requests_total, dcws_request_latency_us); variants of one
// logical metric are labels, not name suffixes
// (dcws_requests_total{outcome="redirect"}).  Real (TCP) and
// simulated servers register the identical schema, so dashboards and
// bench JSON dumps are comparable across drivers.

// Sorted (name, value) pairs; order-insensitive equality is handled by
// the registry, which sorts on registration.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotonic event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Point-in-time value, settable from any thread.
class Gauge {
 public:
  void Set(double v) {
    bits_.store(std::bit_cast<uint64_t>(v), std::memory_order_relaxed);
  }
  double Value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<uint64_t> bits_{std::bit_cast<uint64_t>(0.0)};
};

// Log-bucketed histogram of non-negative integer observations
// (microseconds, bytes).  Bucket i holds values of bit-width i — bucket
// 0 is {0}, bucket i covers [2^(i-1), 2^i - 1] — so relative error is
// bounded by 2x at every scale from 1 us to ~1.2 hours without
// per-series configuration.  Observe is wait-free (three relaxed RMWs
// plus a CAS loop for the max); percentiles are computed on snapshots
// with linear interpolation inside the landing bucket, which makes
// Percentile(q) monotonic in q.
class Histogram {
 public:
  static constexpr int kBucketCount = 40;

  // Inclusive upper bound of bucket `i` (the Prometheus `le` value).
  // The last bucket is open-ended; its nominal bound still prints.
  static constexpr uint64_t BucketUpperBound(int i) {
    return i == 0 ? 0 : (uint64_t{1} << i) - 1;
  }
  static constexpr int BucketIndex(uint64_t value) {
    int width = std::bit_width(value);
    return width < kBucketCount ? width : kBucketCount - 1;
  }

  void Observe(uint64_t value);

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    std::array<uint64_t, kBucketCount> buckets{};

    // Value at quantile q in [0, 1]; 0 when empty.  Interpolated within
    // the landing bucket and capped at the observed max.
    double Percentile(double q) const;
    double Mean() const {
      return count == 0 ? 0
                        : static_cast<double>(sum) /
                              static_cast<double>(count);
    }
    void Merge(const Snapshot& other);
  };
  Snapshot Snap() const;

 private:
  std::array<std::atomic<uint64_t>, kBucketCount> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

// One instrument frozen at Snapshot() time — the unit exporters and
// merges operate on.
struct MetricSnapshot {
  std::string name;
  Labels labels;  // sorted by label name
  MetricType type = MetricType::kCounter;
  double value = 0;          // counter / gauge reading
  Histogram::Snapshot hist;  // histogram reading
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Create-or-get: the same (name, labels) pair always returns the same
  // instrument, regardless of label order, so every call site that names
  // a series shares one underlying cell.  Registering an existing name
  // with a different *type* is a programming error; it is logged and a
  // detached instrument is returned so the caller stays safe.
  Counter* GetCounter(std::string name, Labels labels = {})
      DCWS_EXCLUDES(mutex_);
  Gauge* GetGauge(std::string name, Labels labels = {})
      DCWS_EXCLUDES(mutex_);
  Histogram* GetHistogram(std::string name, Labels labels = {})
      DCWS_EXCLUDES(mutex_);

  // Gauge computed at snapshot time (table sizes, load metrics).  `fn`
  // runs on the exporting thread and must be internally thread-safe.
  void AddCallbackGauge(std::string name, Labels labels,
                        std::function<double()> fn) DCWS_EXCLUDES(mutex_);

  // Consistent-enough read of every instrument (individual reads are
  // atomic; the set is not a cross-metric snapshot).  Sorted by (name,
  // labels) so output formats are deterministic.
  std::vector<MetricSnapshot> Snapshot() const DCWS_EXCLUDES(mutex_);

  size_t size() const DCWS_EXCLUDES(mutex_);

 private:
  struct Instrument {
    std::string name;
    Labels labels;
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> callback;
    // Type-conflict fallbacks stay out of the index and of Snapshot().
    bool detached = false;
  };

  Instrument* FindOrCreate(std::string name, Labels labels,
                           MetricType type) DCWS_REQUIRES(mutex_);

  mutable Mutex mutex_;
  // Deque-of-unique_ptr gives pointer stability across registrations.
  std::vector<std::unique_ptr<Instrument>> instruments_
      DCWS_GUARDED_BY(mutex_);
  std::unordered_map<std::string, Instrument*> index_
      DCWS_GUARDED_BY(mutex_);
};

// Sums per-server snapshot sets into one cluster view keyed by (name,
// labels): counters and gauges add (gauges are sizes/rates here, where
// the cluster total is the meaningful aggregate), histograms merge
// bucket-wise.  Used by the simulator's cluster dump and bench
// --metrics-json.
std::vector<MetricSnapshot> MergeSnapshots(
    const std::vector<std::vector<MetricSnapshot>>& per_server);

}  // namespace dcws::obs

#endif  // DCWS_OBS_METRICS_H_
