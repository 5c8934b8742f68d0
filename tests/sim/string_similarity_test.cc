#include "sim/string_similarity.h"

#include <gtest/gtest.h>

#include <string>

#include "util/random.h"

namespace xsm::sim {
namespace {

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(DamerauLevenshteinDistance("kitten", "sitting"), 3);
  EXPECT_EQ(DamerauLevenshteinDistance("", ""), 0);
  EXPECT_EQ(DamerauLevenshteinDistance("abc", ""), 3);
  EXPECT_EQ(DamerauLevenshteinDistance("", "abc"), 3);
  EXPECT_EQ(DamerauLevenshteinDistance("abc", "abc"), 0);
  EXPECT_EQ(DamerauLevenshteinDistance("flaw", "lawn"), 2);
}

TEST(EditDistanceTest, TranspositionCostsOneInDamerau) {
  EXPECT_EQ(DamerauLevenshteinDistance("ab", "ba"), 1);
  EXPECT_EQ(DamerauLevenshteinDistance("author", "auhtor"), 1);
  EXPECT_EQ(DamerauLevenshteinDistance("ca", "abc"), 3);  // OSA variant
}

TEST(FuzzySimilarityTest, IdentityAndEmpty) {
  EXPECT_DOUBLE_EQ(FuzzyStringSimilarity("address", "address"), 1.0);
  EXPECT_DOUBLE_EQ(FuzzyStringSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(FuzzyStringSimilarity("abc", ""), 0.0);
}

TEST(FuzzySimilarityTest, KnownValues) {
  // dist("name","nam") = 1, max len 4 -> 0.75.
  EXPECT_DOUBLE_EQ(FuzzyStringSimilarity("name", "nam"), 0.75);
  // transposition: dist 1, len 4 -> 0.75.
  EXPECT_DOUBLE_EQ(FuzzyStringSimilarity("name", "nmae"), 0.75);
  // dist("email","mail") = 1 deletion, max len 5 -> 0.8.
  EXPECT_DOUBLE_EQ(FuzzyStringSimilarity("email", "mail"), 0.8);
}

TEST(FuzzySimilarityTest, CaseSensitivityVariants) {
  EXPECT_LT(FuzzyStringSimilarity("NAME", "name"), 1.0);
  EXPECT_DOUBLE_EQ(FuzzyStringSimilarityIgnoreCase("NAME", "name"), 1.0);
  EXPECT_DOUBLE_EQ(FuzzyStringSimilarityIgnoreCase("Name", "name"), 1.0);
  EXPECT_DOUBLE_EQ(FuzzyStringSimilarityIgnoreCase("AuthorName", "authorname"),
                   1.0);
}

class SimilarityRangeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimilarityRangeTest, AllKernelsInUnitRangeAndSymmetric) {
  Rng rng(GetParam());
  const std::string alphabet = "abcdefgh_-";
  for (int trial = 0; trial < 200; ++trial) {
    std::string a;
    std::string b;
    size_t la = rng.Uniform(14);
    size_t lb = rng.Uniform(14);
    for (size_t i = 0; i < la; ++i) a += alphabet[rng.Uniform(10)];
    for (size_t i = 0; i < lb; ++i) b += alphabet[rng.Uniform(10)];

    for (auto fn : {FuzzyStringSimilarity, FuzzyStringSimilarityIgnoreCase}) {
      double ab = fn(a, b);
      double ba = fn(b, a);
      EXPECT_GE(ab, 0.0) << a << "|" << b;
      EXPECT_LE(ab, 1.0) << a << "|" << b;
      EXPECT_DOUBLE_EQ(ab, ba) << a << "|" << b;
    }
    // Identity always scores 1.
    EXPECT_DOUBLE_EQ(FuzzyStringSimilarity(a, a), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimilarityRangeTest,
                         ::testing::Values(1u, 7u, 42u, 1234u));

TEST(FuzzySimilarityTest, SchemaNamePairs) {
  // The kinds of pairs the experiment relies on: close variants score above
  // a 0.5 matcher threshold, unrelated names below it.
  EXPECT_GT(FuzzyStringSimilarityIgnoreCase("authorName", "author_name"),
            0.5);
  EXPECT_GT(FuzzyStringSimilarityIgnoreCase("email", "e-mail"), 0.5);
  EXPECT_GT(FuzzyStringSimilarityIgnoreCase("address", "addr"), 0.5);
  EXPECT_LT(FuzzyStringSimilarityIgnoreCase("email", "shelf"), 0.5);
  EXPECT_LT(FuzzyStringSimilarityIgnoreCase("address", "book"), 0.5);
}

TEST(BoundedEditDistanceTest, KnownValues) {
  EXPECT_EQ(BoundedDamerauLevenshteinDistance("kitten", "sitting", 3), 3);
  EXPECT_EQ(BoundedDamerauLevenshteinDistance("kitten", "sitting", 2), 3);
  EXPECT_EQ(BoundedDamerauLevenshteinDistance("ab", "ba", 1), 1);
  EXPECT_EQ(BoundedDamerauLevenshteinDistance("ab", "ba", 0), 1);
  EXPECT_EQ(BoundedDamerauLevenshteinDistance("same", "same", 0), 0);
  EXPECT_EQ(BoundedDamerauLevenshteinDistance("", "abc", 3), 3);
  EXPECT_EQ(BoundedDamerauLevenshteinDistance("", "abc", 2), 3);
  // Length difference alone exceeds the bound: pruned before any DP.
  EXPECT_EQ(BoundedDamerauLevenshteinDistance("a", "abcdefgh", 3), 4);
}

// The property the engine's bit-identity rests on: whenever the bound
// admits the true distance the banded DP returns it exactly, and whenever
// it does not the result is pinned to max_dist + 1.
TEST(BoundedEditDistanceTest, MatchesFullDPForEveryBound) {
  Rng rng(271828);
  const std::string alphabet = "abc";  // small alphabet: many near-misses
  EditDistanceScratch scratch;
  for (int trial = 0; trial < 400; ++trial) {
    std::string a;
    std::string b;
    size_t la = rng.Uniform(13);
    size_t lb = rng.Uniform(13);
    for (size_t i = 0; i < la; ++i) a += alphabet[rng.Uniform(3)];
    for (size_t i = 0; i < lb; ++i) b += alphabet[rng.Uniform(3)];
    const int full = DamerauLevenshteinDistance(a, b);
    for (int bound = 0; bound <= 14; ++bound) {
      const int expected = full <= bound ? full : bound + 1;
      EXPECT_EQ(BoundedDamerauLevenshteinDistance(a, b, bound, &scratch),
                expected)
          << a << " vs " << b << " bound " << bound;
      // Null-scratch path agrees with the reused-scratch path.
      EXPECT_EQ(BoundedDamerauLevenshteinDistance(a, b, bound), expected);
    }
  }
}

TEST(BoundedEditDistanceTest, TranspositionHeavyStrings) {
  // Adjacent swaps are where OSA differs from plain Levenshtein; make sure
  // the band keeps the i-2 row reachable.
  EditDistanceScratch scratch;
  EXPECT_EQ(BoundedDamerauLevenshteinDistance("abcdef", "badcfe", 3, &scratch),
            3);
  EXPECT_EQ(BoundedDamerauLevenshteinDistance("abcdef", "badcfe", 2, &scratch),
            3);
  EXPECT_EQ(
      BoundedDamerauLevenshteinDistance("authorname", "auhtormane", 4,
                                        &scratch),
      DamerauLevenshteinDistance("authorname", "auhtormane"));
}

TEST(FuzzySimilarityTest, ThresholdVariantQualifiesIdenticalPairs) {
  Rng rng(31415);
  const std::string alphabet = "abcdefg_";
  EditDistanceScratch scratch;
  const double thresholds[] = {0.0, 0.25, 0.5, 2.0 / 3.0, 0.75, 0.9, 1.0};
  for (int trial = 0; trial < 300; ++trial) {
    std::string a;
    std::string b;
    size_t la = rng.Uniform(14);
    size_t lb = rng.Uniform(14);
    for (size_t i = 0; i < la; ++i) a += alphabet[rng.Uniform(8)];
    for (size_t i = 0; i < lb; ++i) b += alphabet[rng.Uniform(8)];
    const double full = FuzzyStringSimilarity(a, b);
    const NameSignature sig_a = NameSignature::Of(a);
    const NameSignature sig_b = NameSignature::Of(b);
    for (double threshold : thresholds) {
      const double pruned =
          FuzzyStringSimilarityWithThreshold(a, b, threshold, &scratch);
      const double bag_pruned = FuzzyStringSimilarityWithThreshold(
          a, b, threshold, &scratch, &sig_a, &sig_b);
      if (full >= threshold) {
        // Bit-identical, not approximately equal.
        EXPECT_EQ(pruned, full) << a << "|" << b << " @ " << threshold;
        EXPECT_EQ(bag_pruned, full) << a << "|" << b << " @ " << threshold;
      } else {
        EXPECT_LT(pruned, threshold) << a << "|" << b << " @ " << threshold;
        EXPECT_LT(bag_pruned, threshold)
            << a << "|" << b << " @ " << threshold;
      }
    }
  }
}

TEST(NameSignatureTest, BagDistanceLowerBoundsEditDistance) {
  Rng rng(8128);
  const std::string alphabet = "abcd0_";
  for (int trial = 0; trial < 500; ++trial) {
    std::string a;
    std::string b;
    size_t la = rng.Uniform(12);
    size_t lb = rng.Uniform(12);
    for (size_t i = 0; i < la; ++i) a += alphabet[rng.Uniform(6)];
    for (size_t i = 0; i < lb; ++i) b += alphabet[rng.Uniform(6)];
    const int bag = NameSignature::Of(a).BagDistance(NameSignature::Of(b));
    EXPECT_LE(bag, DamerauLevenshteinDistance(a, b)) << a << "|" << b;
  }
  // Symmetric, zero on identity, counts digits and punctuation in shared
  // buckets (both map to one bucket each).
  EXPECT_EQ(NameSignature::Of("name").BagDistance(NameSignature::Of("name")),
            0);
  EXPECT_EQ(NameSignature::Of("ab12").BagDistance(NameSignature::Of("ab34")),
            0);  // digit bucket is class-level, not per-digit
  EXPECT_EQ(NameSignature::Of("abc").BagDistance(NameSignature::Of("xyz")),
            3);
}

TEST(EditDistanceTest, ScratchReuseAcrossDifferentLengths) {
  EditDistanceScratch scratch;
  // Grow, shrink, grow: stale cells from longer strings must never leak.
  EXPECT_EQ(DamerauLevenshteinDistance("abcdefghij", "abcdefghij", &scratch),
            0);
  EXPECT_EQ(DamerauLevenshteinDistance("ab", "ba", &scratch), 1);
  EXPECT_EQ(DamerauLevenshteinDistance("kitten", "sitting", &scratch), 3);
  EXPECT_EQ(BoundedDamerauLevenshteinDistance("short", "shirt", 2, &scratch),
            1);
  EXPECT_EQ(DamerauLevenshteinDistance("a", "b", &scratch), 1);
}

}  // namespace
}  // namespace xsm::sim
