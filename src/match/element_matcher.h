// Element matchers (Fig. 2 ②): each matcher computes a similarity index for
// a (personal node, repository node) pair from localized properties.
//
// Bellflower itself uses a single fuzzy name matcher; the remaining matchers
// implement the "more hints" architecture the paper surveys (synonyms,
// datatypes, token overlap) and are combined with a weighted average exactly
// as described for COMA/LSD.
#ifndef XSM_MATCH_ELEMENT_MATCHER_H_
#define XSM_MATCH_ELEMENT_MATCHER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "schema/schema_tree.h"
#include "sim/synonym_dictionary.h"

namespace xsm::sim {
struct EditDistanceScratch;  // sim/string_similarity.h
struct NameSignature;
}  // namespace xsm::sim

namespace xsm::match {

/// One name in the two spellings the matching engine caches: the raw form
/// and its ASCII case-fold, plus (optionally) the case-fold's character
/// histogram. Repository-side views come from the NameDictionary,
/// personal-side views are folded once per query, so case-insensitive
/// matchers never lowercase inside the scoring loop.
struct NameView {
  std::string_view raw;
  std::string_view lower;
  /// Signature of `lower`, for bag-distance pruning; may be null.
  const sim::NameSignature* signature = nullptr;
};

/// Interface of a localized element matcher: similarity of two nodes from
/// their local properties only (name, kind, datatype).
class ElementMatcher {
 public:
  virtual ~ElementMatcher() = default;

  /// Similarity index in [0,1].
  virtual double Score(const schema::NodeProperties& personal,
                       const schema::NodeProperties& repo) const = 0;

  /// Identifier for diagnostics.
  virtual std::string_view name() const = 0;

  /// True if Score depends only on the two node names. Name-only matchers
  /// let the matching stage memoize scores per distinct repository name
  /// (the "approximate string joins almost for free" optimization the paper
  /// cites for efficient matcher implementations).
  virtual bool name_only() const { return true; }

  /// Threshold-aware name scorer; the matching engine scores every
  /// (personal node, distinct name) pair of a name-only matcher through it.
  /// Contract: whenever the true Score of two nodes carrying these names is
  /// >= threshold, the returned value must be bit-identical to that Score;
  /// when it is below, any value < threshold may be returned (the caller
  /// drops the pair either way — this is what makes pruning invisible in
  /// the results). `scratch` may be null and may be reused across calls on
  /// one thread. The default forwards to Score on name-only property sets;
  /// overrides use the cached case-folds, the scratch buffers and the
  /// threshold to do better.
  virtual double ScoreName(const NameView& personal, const NameView& repo,
                           double threshold,
                           sim::EditDistanceScratch* scratch) const;
};

/// Bellflower's matcher: normalized Damerau–Levenshtein similarity of the
/// (case-folded) node names — the CompareStringFuzzy stand-in.
class FuzzyNameMatcher final : public ElementMatcher {
 public:
  explicit FuzzyNameMatcher(bool ignore_case = true)
      : ignore_case_(ignore_case) {}
  double Score(const schema::NodeProperties& personal,
               const schema::NodeProperties& repo) const override;
  std::string_view name() const override { return "fuzzy-name"; }
  /// Banded, early-abandoning edit distance over the cached case-folds
  /// (raw forms when case-sensitive); pairs whose length difference alone
  /// caps the similarity below the threshold never run the DP.
  double ScoreName(const NameView& personal, const NameView& repo,
                   double threshold,
                   sim::EditDistanceScratch* scratch) const override;

  /// Process-wide default instance (case-insensitive).
  static const FuzzyNameMatcher& Default();

 private:
  bool ignore_case_;
};

/// Jaro–Winkler over names; favors shared prefixes, common for schema tags.
class JaroWinklerNameMatcher final : public ElementMatcher {
 public:
  double Score(const schema::NodeProperties& personal,
               const schema::NodeProperties& repo) const override;
  std::string_view name() const override { return "jaro-winkler"; }
  /// Runs on the cached case-folds, skipping the two ToLower copies Score
  /// pays per pair.
  double ScoreName(const NameView& personal, const NameView& repo,
                   double threshold,
                   sim::EditDistanceScratch* scratch) const override;
};

/// Character n-gram Dice coefficient over names.
class NgramNameMatcher final : public ElementMatcher {
 public:
  explicit NgramNameMatcher(int n = 3) : n_(n) {}
  double Score(const schema::NodeProperties& personal,
               const schema::NodeProperties& repo) const override;
  std::string_view name() const override { return "ngram"; }
  double ScoreName(const NameView& personal, const NameView& repo,
                   double threshold,
                   sim::EditDistanceScratch* scratch) const override;

 private:
  int n_;
};

/// Jaccard similarity of identifier word tokens ("authorName" vs
/// "name_of_author" share {author, name}).
class TokenNameMatcher final : public ElementMatcher {
 public:
  double Score(const schema::NodeProperties& personal,
               const schema::NodeProperties& repo) const override;
  std::string_view name() const override { return "token"; }
};

/// Dictionary matcher: 1 for equal names, `synonym_score` for dictionary
/// synonyms, 0 otherwise.
class SynonymNameMatcher final : public ElementMatcher {
 public:
  explicit SynonymNameMatcher(
      const sim::SynonymDictionary* dictionary = nullptr,
      double synonym_score = 0.9)
      : dictionary_(dictionary ? dictionary
                               : &sim::SynonymDictionary::Default()),
        synonym_score_(synonym_score) {}
  double Score(const schema::NodeProperties& personal,
               const schema::NodeProperties& repo) const override;
  std::string_view name() const override { return "synonym"; }

 private:
  const sim::SynonymDictionary* dictionary_;
  double synonym_score_;
};

/// Datatype compatibility: 1 for identical types, partial credit for
/// compatible families (string-like, numeric, temporal), neutral 0.5 when
/// either side is undeclared.
class DatatypeMatcher final : public ElementMatcher {
 public:
  double Score(const schema::NodeProperties& personal,
               const schema::NodeProperties& repo) const override;
  std::string_view name() const override { return "datatype"; }
  bool name_only() const override { return false; }
};

/// Weighted average of component matchers — the paper's "combined into a
/// single similarity index by means of weighted average".
class CompositeMatcher final : public ElementMatcher {
 public:
  CompositeMatcher() = default;

  /// Adds a component with the given non-negative weight.
  void Add(std::shared_ptr<const ElementMatcher> matcher, double weight);

  double Score(const schema::NodeProperties& personal,
               const schema::NodeProperties& repo) const override;
  std::string_view name() const override { return "composite"; }
  bool name_only() const override;

  size_t num_components() const { return components_.size(); }

 private:
  struct Component {
    std::shared_ptr<const ElementMatcher> matcher;
    double weight;
  };
  std::vector<Component> components_;
  double total_weight_ = 0;
};

}  // namespace xsm::match

#endif  // XSM_MATCH_ELEMENT_MATCHER_H_
