#include "sim/string_similarity.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "util/string_util.h"

namespace xsm::sim {

namespace {

// Larger than any reachable cell value, small enough that +1 never wraps.
constexpr int kInfDistance = 1 << 29;

}  // namespace

int DamerauLevenshteinDistance(std::string_view a, std::string_view b) {
  return DamerauLevenshteinDistance(a, b, nullptr);
}

int DamerauLevenshteinDistance(std::string_view a, std::string_view b,
                               EditDistanceScratch* scratch) {
  const size_t la = a.size();
  const size_t lb = b.size();
  if (la == 0) return static_cast<int>(lb);
  if (lb == 0) return static_cast<int>(la);

  // Three rolling rows: i-2, i-1, i (the i-2 row is needed only for the
  // transposition case).
  EditDistanceScratch local;
  EditDistanceScratch& s = scratch != nullptr ? *scratch : local;
  if (s.prev2.size() < lb + 1) {
    s.prev2.resize(lb + 1);
    s.prev.resize(lb + 1);
    s.cur.resize(lb + 1);
  }
  std::vector<int>& prev2 = s.prev2;
  std::vector<int>& prev = s.prev;
  std::vector<int>& cur = s.cur;
  for (size_t j = 0; j <= lb; ++j) prev[j] = static_cast<int>(j);

  for (size_t i = 1; i <= la; ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= lb; ++j) {
      int cost = a[i - 1] == b[j - 1] ? 0 : 1;
      int best = std::min({prev[j] + 1,        // deletion (exclusion)
                           cur[j - 1] + 1,     // insertion
                           prev[j - 1] + cost  // substitution / match
      });
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        best = std::min(best, prev2[j - 2] + 1);  // transposition
      }
      cur[j] = best;
    }
    std::swap(prev2, prev);
    std::swap(prev, cur);
  }
  return prev[lb];
}

int BoundedDamerauLevenshteinDistance(std::string_view a, std::string_view b,
                                      int max_dist,
                                      EditDistanceScratch* scratch) {
  const int la = static_cast<int>(a.size());
  const int lb = static_cast<int>(b.size());
  // Every edit changes the length difference by at most 1, so the distance
  // is at least |la - lb|.
  const int diff = la > lb ? la - lb : lb - la;
  if (diff > max_dist) return max_dist + 1;
  if (la == 0 || lb == 0) {
    const int d = la + lb;  // one side is empty
    return d <= max_dist ? d : max_dist + 1;
  }
  if (max_dist == 0) return a == b ? 0 : 1;

  EditDistanceScratch local;
  EditDistanceScratch& s = scratch != nullptr ? *scratch : local;
  const size_t width = static_cast<size_t>(lb) + 1;
  if (s.prev2.size() < width) {
    s.prev2.resize(width);
    s.prev.resize(width);
    s.cur.resize(width);
  }
  std::vector<int>& prev2 = s.prev2;
  std::vector<int>& prev = s.prev;
  std::vector<int>& cur = s.cur;

  // Row 0, banded: cells with j > max_dist are unreachable within budget.
  const int init_hi = std::min(lb, max_dist);
  for (int j = 0; j <= init_hi; ++j) prev[j] = j;
  if (init_hi < lb) prev[init_hi + 1] = kInfDistance;

  int prev_row_min = 0;
  for (int i = 1; i <= la; ++i) {
    const int lo = std::max(1, i - max_dist);
    const int hi = std::min(lb, i + max_dist);
    cur[0] = i <= max_dist ? i : kInfDistance;
    if (lo > 1) cur[lo - 1] = kInfDistance;
    int row_min = kInfDistance;
    for (int j = lo; j <= hi; ++j) {
      int cost = a[i - 1] == b[j - 1] ? 0 : 1;
      int best = std::min({prev[j] + 1,        // deletion (exclusion)
                           cur[j - 1] + 1,     // insertion
                           prev[j - 1] + cost  // substitution / match
      });
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        best = std::min(best, prev2[j - 2] + 1);  // transposition
      }
      cur[j] = best;
      row_min = std::min(row_min, best);
    }
    if (hi < lb) cur[hi + 1] = kInfDistance;
    // Early abandon: every cell of row i derives (with non-negative cost)
    // from rows i-1 and i-2, so once two consecutive row minima exceed the
    // budget no later cell can come back under it.
    if (row_min > max_dist && prev_row_min > max_dist) return max_dist + 1;
    prev_row_min = row_min;
    std::swap(prev2, prev);
    std::swap(prev, cur);
  }
  const int d = prev[lb];
  return d <= max_dist ? d : max_dist + 1;
}

double FuzzyStringSimilarity(std::string_view a, std::string_view b) {
  size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  int d = DamerauLevenshteinDistance(a, b);
  return 1.0 - static_cast<double>(d) / static_cast<double>(longest);
}

double FuzzyStringSimilarityIgnoreCase(std::string_view a,
                                       std::string_view b) {
  std::string la = ToLower(a);
  std::string lb = ToLower(b);
  return FuzzyStringSimilarity(la, lb);
}

NameSignature NameSignature::Of(std::string_view lower) {
  NameSignature sig;
  for (char c : lower) {
    size_t bucket;
    if (c >= 'a' && c <= 'z') {
      bucket = static_cast<size_t>(c - 'a');
    } else if (c >= '0' && c <= '9') {
      bucket = 26;
    } else {
      bucket = 27;
    }
    if (sig.counts[bucket] != 255) ++sig.counts[bucket];
  }
  return sig;
}

int NameSignature::BagDistance(const NameSignature& other) const {
  int surplus = 0;
  int deficit = 0;
  for (size_t k = 0; k < kBuckets; ++k) {
    const int d = static_cast<int>(counts[k]) -
                  static_cast<int>(other.counts[k]);
    if (d > 0) {
      surplus += d;
    } else {
      deficit -= d;
    }
  }
  return surplus > deficit ? surplus : deficit;
}

double FuzzyStringSimilarityWithThreshold(std::string_view a,
                                          std::string_view b,
                                          double threshold,
                                          EditDistanceScratch* scratch) {
  return FuzzyStringSimilarityWithThreshold(a, b, threshold, scratch,
                                            nullptr, nullptr);
}

double FuzzyStringSimilarityWithThreshold(std::string_view a,
                                          std::string_view b,
                                          double threshold,
                                          EditDistanceScratch* scratch,
                                          const NameSignature* sig_a,
                                          const NameSignature* sig_b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  if (a == b) return 1.0;  // distance 0: 1 - 0/norm is exactly 1.0
  const double norm = static_cast<double>(longest);

  // Length pre-filter: the distance is at least the length difference, and
  // x/norm is monotone in x, so this upper bound is sound in floating point
  // too. Most non-matching pairs exit here, before the admissible-distance
  // derivation below.
  const size_t diff = longest - std::min(a.size(), b.size());
  if (1.0 - static_cast<double>(diff) / norm < threshold) return 0.0;

  // Largest admissible distance: the biggest d with 1 - d/norm >= threshold.
  // Found with the exact floating-point expression of the final similarity
  // (not algebra on the inequality), so the pruned path qualifies precisely
  // the pairs the full computation would.
  int max_d = static_cast<int>((1.0 - threshold) * norm);
  max_d = std::clamp(max_d, 0, static_cast<int>(longest));
  while (max_d > 0 &&
         1.0 - static_cast<double>(max_d) / norm < threshold) {
    --max_d;
  }
  while (max_d < static_cast<int>(longest) &&
         1.0 - static_cast<double>(max_d + 1) / norm >= threshold) {
    ++max_d;
  }

  // Bag filter: the multiset lower bound kills most of the pairs that
  // survive the length filter, for the price of one 28-bucket compare.
  if (sig_a != nullptr && sig_b != nullptr &&
      sig_a->BagDistance(*sig_b) > max_d) {
    return 0.0;
  }

  const int d = BoundedDamerauLevenshteinDistance(a, b, max_d, scratch);
  if (d > max_d) return 0.0;  // true similarity is < threshold
  return 1.0 - static_cast<double>(d) / norm;
}

}  // namespace xsm::sim
