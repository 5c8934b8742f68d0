// Spans recorded by the benchmark around its calls into each layer's public
// functions. A span carries its name, the script op (request) it served, its
// parent span, and its start and end on one steady clock. Spans stay in
// memory and are written out as NDJSON when the run ends.
//
// Nesting comes in two kinds. Within one entry point, stage spans are real
// children of the op's root span (their intervals lie inside it). Across
// entry points, the same op is replayed one layer down on an identically
// built backend, and that replay's root span names the layer above as its
// parent: a layer's self time is then its span minus the replayed child.
#ifndef XSM_E2EBENCH_SPANS_H_
#define XSM_E2EBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace xsm::e2e {

struct Span {
  std::string name;
  int64_t request = -1;  ///< script op index; -1 for run-level work
  int64_t parent = -1;   ///< index of the parent span; -1 for none
  double start_ms = 0;   ///< since the log's epoch
  double end_ms = 0;

  double duration_ms() const { return end_ms - start_ms; }
};

class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  double NowMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Records one finished span; returns its index.
  int64_t Add(std::string name, int64_t request, int64_t parent,
              double start_ms, double end_ms);

  /// Index of the first span `name` recorded for `request`, or -1.
  int64_t Find(const std::string& name, int64_t request) const;

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;

  Status WriteNdjson(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::map<std::pair<std::string, int64_t>, int64_t> by_request_;
};

/// Nearest-rank quantile (the smallest sample with at least ceil(q·n)
/// samples at or below it); 0 for no samples.
double Quantile(std::vector<double> samples, double q);

}  // namespace xsm::e2e

#endif  // XSM_E2EBENCH_SPANS_H_
