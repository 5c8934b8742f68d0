// Process-wide metrics registry with Prometheus text exposition.
//
// Design contract, tuned for the serving hot path:
//   - Handles are pre-registered once (service/server construction) and
//     then incremented lock-free: Counter::Increment is a single relaxed
//     fetch_add, Histogram::Observe touches only atomics plus one short
//     mutex-guarded QuantileAccumulator append — and both run once per
//     query/request, never per element.
//   - Registration is idempotent: the same (name, labels) returns the
//     same stable handle, so independently-constructed components share
//     series instead of fighting over them. A name re-registered with a
//     different type or help string is a programming error and aborts.
//   - Components that keep their own internal counters (cache, service
//     aggregates) register a *scrape hook*: a callback run under the
//     registry lock at render time that mirrors those values into
//     registry series via Counter::Set / Gauge::Set. That makes the
//     registry the single source of truth every surface reads —
//     `!stats`, `/v1/stats`, and `/metrics` can never disagree.
//   - RenderPrometheusText is deterministic: families sorted by name,
//     series sorted by label signature, fixed number formatting.
#ifndef XSM_OBS_METRICS_H_
#define XSM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.h"

namespace xsm::obs {

/// Label key/value pairs identifying one series within a family.
/// Order-insensitive: the registry canonicalizes by sorting on key.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter. Increment is allocation-free and wait-free.
/// Set exists for scrape hooks that mirror an external tally; it must
/// only be called with monotonically non-decreasing values.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time value (inflight requests, cache entries, tenants).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Latency histogram: fixed explicit upper bounds (cumulative `le`
/// buckets in the exposition) plus a QuantileAccumulator backing that
/// keeps *exact* nearest-rank quantiles. It is the one copy of each
/// latency sample: `/v1/stats` reads its count and P50/P95/P99 here.
/// Exactness has a price: every observation is kept (8 bytes each, for
/// the registry's lifetime) and Observe takes a mutex. Observe is called
/// once per completed query/request, off the per-element path.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count of observations ≤ bounds()[i] (non-cumulative slot counts;
  /// the renderer accumulates). Index bounds().size() is the overflow
  /// (+Inf) slot.
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;

  /// Exact nearest-rank quantile over every observation so far.
  double Quantile(double q) const;

 private:
  std::vector<double> bounds_;  ///< strictly increasing upper bounds
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  ///< bounds+1 slots
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
  mutable std::mutex quantile_mu_;
  mutable xsm::QuantileAccumulator exact_;
};

/// Default bucket bounds for millisecond latencies (0.25ms .. 10s).
std::vector<double> DefaultLatencyBoundsMs();

/// The registry: families of named, labeled series.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Idempotent: same (name, labels) returns the same handle. The
  /// returned pointer is stable for the registry's lifetime.
  Counter* RegisterCounter(const std::string& name, const std::string& help,
                           LabelSet labels = {});
  Gauge* RegisterGauge(const std::string& name, const std::string& help,
                       LabelSet labels = {});
  Histogram* RegisterHistogram(const std::string& name,
                               const std::string& help,
                               std::vector<double> bounds,
                               LabelSet labels = {});

  /// Scrape hooks run (under the registry lock) at the start of every
  /// RenderPrometheusText, letting components mirror internal tallies
  /// into their registered series. Returns an id for RemoveScrapeHook;
  /// any component whose hook captures `this` must remove it before
  /// destruction.
  uint64_t AddScrapeHook(std::function<void()> hook);
  void RemoveScrapeHook(uint64_t id);

  /// Runs the scrape hooks, then renders the Prometheus text-format
  /// exposition (version 0.0.4): families sorted by name, series sorted
  /// by label signature, histograms as cumulative le-buckets + _sum +
  /// _count. Deterministic modulo the metric values themselves.
  std::string RenderPrometheusText();

  /// Value lookup for surfaces (stats JSON) that read single series.
  /// Returns 0 if the series does not exist.
  uint64_t CounterValue(const std::string& name,
                        const LabelSet& labels = {}) const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  struct Series {
    std::string label_signature;  ///< canonical `{k="v",...}` or ""
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    Type type = Type::kCounter;
    std::string help;
    /// Keyed by label signature — deterministic render order for free.
    std::map<std::string, Series> series;
  };

  Series* FindOrCreateSeries(const std::string& name,
                             const std::string& help, Type type,
                             const LabelSet& labels)
      /* requires mu_ held */;

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
  std::map<uint64_t, std::function<void()>> hooks_;
  uint64_t next_hook_id_ = 1;
};

}  // namespace xsm::obs

#endif  // XSM_OBS_METRICS_H_
