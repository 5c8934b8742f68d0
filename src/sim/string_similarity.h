// String similarity kernels for element matching.
//
// Bellflower's single element matcher is CompareStringFuzzy from the
// proprietary FuzzySearch library: "a normalized string similarity based on
// character substitution, insertion, exclusion, and transposition". Those
// are exactly the Damerau–Levenshtein edit operations, so the reproduction
// uses normalized Damerau–Levenshtein (optimal string alignment variant) as
// the drop-in substitute.
//
// The matching engine scores every (personal node, distinct repository
// name) pair, so the hot kernels come in threshold-aware, scratch-reusing
// variants: length bounds and a banded DP with early abandon skip the bulk
// of the O(|a|·|b|) work for pairs that cannot reach the matcher threshold
// (the standard pruning toolkit of the approximate-string-join literature).
#ifndef XSM_SIM_STRING_SIMILARITY_H_
#define XSM_SIM_STRING_SIMILARITY_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace xsm::sim {

/// Reusable DP rows for the edit-distance kernels. Callers scoring many
/// pairs keep one scratch per thread so each call is allocation-free after
/// warm-up; the buffers grow to the longest string seen and stay there.
struct EditDistanceScratch {
  std::vector<int> prev2;
  std::vector<int> prev;
  std::vector<int> cur;
};

/// Compact character-class histogram of a (lowercased) name: 26 letter
/// buckets, one digit bucket, one other bucket, saturating at 255. The bag
/// distance between two signatures — the insertions/deletions needed to
/// equalize the multisets — lower-bounds the edit distance (every edit op
/// moves at most one character in or out of the bag; transpositions move
/// none), so signatures cached per dictionary entry reject most candidate
/// pairs without running any DP. Signatures over case-folded strings also
/// bound the case-sensitive distance: folding never increases it.
struct NameSignature {
  static constexpr size_t kBuckets = 28;
  uint8_t counts[kBuckets] = {};

  static NameSignature Of(std::string_view lower);

  /// max(surplus, deficit) across buckets; a lower bound on
  /// DamerauLevenshteinDistance of the underlying strings (saturated
  /// buckets only ever weaken the bound, never overstate it).
  int BagDistance(const NameSignature& other) const;
};

/// Damerau–Levenshtein distance (optimal string alignment: substitution,
/// insertion, deletion/"exclusion", adjacent transposition; a substring is
/// never edited twice). O(|a|·|b|) time, O(min) memory.
int DamerauLevenshteinDistance(std::string_view a, std::string_view b);

/// Scratch-reusing overload; `scratch` may be null (per-call buffers).
int DamerauLevenshteinDistance(std::string_view a, std::string_view b,
                               EditDistanceScratch* scratch);

/// Plain Levenshtein distance (no transpositions), for comparison/ablation.
int LevenshteinDistance(std::string_view a, std::string_view b);

/// Bounded Damerau–Levenshtein: returns the exact distance when it is
/// <= max_dist, and max_dist + 1 otherwise. Runs the DP banded to the
/// diagonal strip |i - j| <= max_dist and abandons early once two
/// consecutive row minima exceed the bound, so far-apart strings cost
/// O(max_dist · min(|a|,|b|)) instead of O(|a|·|b|). `max_dist` must be
/// >= 0; `scratch` may be null.
int BoundedDamerauLevenshteinDistance(std::string_view a, std::string_view b,
                                      int max_dist,
                                      EditDistanceScratch* scratch = nullptr);

/// Normalized similarity in [0,1]: 1 - dist / max(|a|,|b|); 1.0 for two
/// empty strings. This is the CompareStringFuzzy stand-in.
double FuzzyStringSimilarity(std::string_view a, std::string_view b);

/// Case-insensitive variant of FuzzyStringSimilarity (names on the web mix
/// conventions: "AuthorName" vs "authorname").
double FuzzyStringSimilarityIgnoreCase(std::string_view a,
                                       std::string_view b);

/// Threshold-aware FuzzyStringSimilarity: returns the exact similarity
/// whenever it is >= threshold, and some value < threshold (currently 0.0)
/// otherwise. The admissible edit distance implied by the threshold drives
/// a length-difference pre-filter and the banded bounded DP above, and is
/// derived with the same floating-point expressions the full computation
/// uses, so `result >= threshold` holds for exactly the same pairs as with
/// FuzzyStringSimilarity — this is what keeps the pruned matching engine
/// bit-identical to the exhaustive one. `threshold` must be in [0,1].
double FuzzyStringSimilarityWithThreshold(std::string_view a,
                                          std::string_view b,
                                          double threshold,
                                          EditDistanceScratch* scratch =
                                              nullptr);

/// Signature-assisted variant: `sig_a` / `sig_b` (either may be null) are
/// NameSignatures of case-folds of `a` / `b`; pairs whose bag distance
/// already exceeds the admissible edit distance are rejected before the
/// DP. Same exactness contract as the overload above.
double FuzzyStringSimilarityWithThreshold(std::string_view a,
                                          std::string_view b,
                                          double threshold,
                                          EditDistanceScratch* scratch,
                                          const NameSignature* sig_a,
                                          const NameSignature* sig_b);

}  // namespace xsm::sim

#endif  // XSM_SIM_STRING_SIMILARITY_H_
