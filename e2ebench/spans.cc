#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace xsm::e2e {

int64_t SpanLog::Add(std::string name, int64_t request, int64_t parent,
                     double start_ms, double end_ms) {
  const int64_t index = static_cast<int64_t>(spans_.size());
  if (request >= 0) by_request_.emplace(std::make_pair(name, request), index);
  spans_.push_back({std::move(name), request, parent, start_ms, end_ms});
  return index;
}

int64_t SpanLog::Find(const std::string& name, int64_t request) const {
  auto it = by_request_.find({name, request});
  return it == by_request_.end() ? -1 : it->second;
}

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.duration_ms());
  }
  return out;
}

Status SpanLog::WriteNdjson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot write " + path);
  char line[384];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"span\":%zu,\"name\":\"%s\",\"request\":%lld,"
                  "\"parent\":%lld,\"start_ms\":%.4f,\"end_ms\":%.4f}\n",
                  i, s.name.c_str(), static_cast<long long>(s.request),
                  static_cast<long long>(s.parent), s.start_ms, s.end_ms);
    out << line;
  }
  return out ? Status::OK() : Status::IOError("short write to " + path);
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

}  // namespace xsm::e2e
