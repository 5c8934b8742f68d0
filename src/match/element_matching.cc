#include "match/element_matching.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <future>
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "match/name_dictionary.h"
#include "obs/trace.h"
#include "sim/string_similarity.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace xsm::match {

size_t ElementMatchingResult::total_mapping_elements() const {
  size_t total = 0;
  for (const MappingElementSet& s : sets) total += s.size();
  return total;
}

schema::NodeId ElementMatchingResult::SmallestSetNode() const {
  schema::NodeId best = schema::kInvalidNode;
  size_t best_size = std::numeric_limits<size_t>::max();
  for (const MappingElementSet& s : sets) {
    if (s.size() == 0) continue;
    if (s.size() < best_size) {
      best_size = s.size();
      best = s.personal_node;
    }
  }
  return best;
}

namespace {

Status ValidateInputs(const schema::SchemaTree& personal,
                      const ElementMatchingOptions& options) {
  if (personal.empty()) {
    return Status::InvalidArgument("personal schema is empty");
  }
  if (personal.size() > kMaxPersonalNodes) {
    return Status::InvalidArgument(
        "personal schema exceeds " + std::to_string(kMaxPersonalNodes) +
        " nodes (" + std::to_string(personal.size()) + ")");
  }
  if (options.threshold < 0.0 || options.threshold > 1.0) {
    return Status::InvalidArgument("threshold must be in [0,1]");
  }
  return Status::OK();
}

Status StatusFromExecution(core::ExecutionStatus status) {
  switch (status) {
    case core::ExecutionStatus::kDeadlineExceeded:
      return Status::DeadlineExceeded("element matching deadline exceeded");
    default:
      return Status::Cancelled("element matching cancelled");
  }
}

}  // namespace

Result<ElementMatchingResult> MatchElementsReference(
    const schema::SchemaTree& personal, const schema::SchemaForest& repo,
    const ElementMatchingOptions& options) {
  XSM_RETURN_NOT_OK(ValidateInputs(personal, options));

  const size_t m = personal.size();
  ElementMatchingResult result;
  result.sets.resize(m);
  for (size_t i = 0; i < m; ++i) {
    result.sets[i].personal_node = static_cast<schema::NodeId>(i);
  }

  // Memoization: repository corpora repeat names heavily (a few thousand
  // distinct names across ~10^5 nodes), so each distinct (personal node,
  // repo name) pair is scored once.
  std::vector<std::unordered_map<std::string, double>> cache(m);

  repo.ForEachNode([&](schema::NodeRef ref) {
    const schema::NodeProperties& props = repo.props(ref);
    if (!options.match_attributes &&
        props.kind == schema::NodeKind::kAttribute) {
      return;
    }
    uint32_t mask = 0;
    for (size_t i = 0; i < m; ++i) {
      auto [it, inserted] = cache[i].try_emplace(props.name, 0.0);
      if (inserted) {
        it->second = sim::FuzzyStringSimilarityIgnoreCase(
            personal.props(static_cast<schema::NodeId>(i)).name, props.name);
      }
      const double score = it->second;
      if (score >= options.threshold && score > 0.0) {
        result.sets[i].elements.push_back({ref, score});
        mask |= uint32_t{1} << i;
      }
    }
    if (mask != 0) {
      // ForEachNode iterates in NodeRef order, so these stay sorted.
      result.distinct_nodes.push_back(ref);
      result.masks.push_back(mask);
    }
  });

  return result;
}

Result<ElementMatchingResult> MatchElements(
    const schema::SchemaTree& personal, const schema::SchemaForest& repo,
    const ElementMatchingOptions& options) {
  XSM_RETURN_NOT_OK(ValidateInputs(personal, options));

  const NameDictionary* dict = options.dictionary;
  NameDictionary transient;
  if (dict == nullptr) {
    transient = NameDictionary::Build(repo);
    dict = &transient;
  } else if (dict->forest() != &repo) {
    return Status::InvalidArgument(
        "name dictionary was built over a different forest");
  }

  const size_t m = personal.size();
  const size_t num_entries = dict->size();
  ElementMatchingResult result;
  result.sets.resize(m);
  for (size_t i = 0; i < m; ++i) {
    result.sets[i].personal_node = static_cast<schema::NodeId>(i);
  }
  if (num_entries == 0) return result;

  // Personal-side name forms, folded and fingerprinted once per query.
  std::vector<std::string> personal_lower(m);
  std::vector<sim::NameSignature> personal_sigs(m);
  for (size_t i = 0; i < m; ++i) {
    personal_lower[i] =
        ToLower(personal.props(static_cast<schema::NodeId>(i)).name);
    personal_sigs[i] = sim::NameSignature::Of(personal_lower[i]);
  }

  // --- Stage 1: score the m × D (personal node, distinct name) matrix. ----
  // Shards write disjoint ranges of these, so no synchronization is needed
  // beyond joining the futures.
  obs::TraceContext* trace =
      options.control != nullptr ? options.control->trace : nullptr;
  std::optional<obs::ScopedSpan> score_span;
  score_span.emplace(trace, "dict_score");
  std::vector<double> scores(num_entries * m, 0.0);
  std::vector<uint32_t> entry_masks(num_entries, 0);
  // First stop verdict of any shard (0 = none); other shards bail promptly.
  std::atomic<int> stop_code{0};

  auto score_range = [&](size_t begin, size_t end) {
    core::ExecutionMonitor monitor;
    if (options.control != nullptr) {
      monitor = core::ExecutionMonitor(*options.control);
    }
    sim::EditDistanceScratch scratch;
    for (size_t d = begin; d < end; ++d) {
      if (options.control != nullptr) {
        if (stop_code.load(std::memory_order_relaxed) != 0) return;
        if (monitor.ShouldStop()) {
          stop_code.store(static_cast<int>(monitor.status()),
                          std::memory_order_relaxed);
          return;
        }
      }
      const NameDictionary::Entry& entry = dict->entry(d);
      // A name carried only by attributes can never reach the output when
      // attributes are excluded; skip its scores entirely.
      if (!options.match_attributes && entry.element_nodes.empty()) continue;
      uint32_t mask = 0;
      for (size_t i = 0; i < m; ++i) {
        const double score = sim::FuzzyStringSimilarityWithThreshold(
            personal_lower[i], entry.lower, options.threshold, &scratch,
            &personal_sigs[i], &entry.signature);
        if (score >= options.threshold && score > 0.0) {
          scores[d * m + i] = score;
          mask |= uint32_t{1} << i;
        }
      }
      entry_masks[d] = mask;
    }
  };

  if (options.pool != nullptr && options.pool->num_threads() > 1 &&
      num_entries > 1) {
    size_t shards = options.num_shards != 0 ? options.num_shards
                                            : options.pool->num_threads() * 4;
    shards = std::min(std::max<size_t>(shards, 1), num_entries);
    const size_t chunk = (num_entries + shards - 1) / shards;
    std::vector<std::future<void>> futures;
    futures.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
      const size_t begin = s * chunk;
      const size_t end = std::min(num_entries, begin + chunk);
      if (begin >= end) break;
      futures.push_back(
          options.pool->Submit([&score_range, begin, end]() {
            score_range(begin, end);
          }));
    }
    for (std::future<void>& f : futures) f.get();
  } else {
    score_range(0, num_entries);
  }
  if (const int code = stop_code.load(std::memory_order_relaxed); code != 0) {
    return StatusFromExecution(static_cast<core::ExecutionStatus>(code));
  }

  // --- Stage 2: broadcast qualifying scores via the posting lists. --------
  // Exact output sizes first, so every vector is built with one allocation.
  score_span.reset();
  obs::ScopedSpan broadcast_span(trace, "dict_broadcast");
  size_t total_nodes = 0;
  std::vector<size_t> per_set(m, 0);
  for (size_t d = 0; d < num_entries; ++d) {
    const uint32_t mask = entry_masks[d];
    if (mask == 0) continue;
    const NameDictionary::Entry& entry = dict->entry(d);
    const size_t nodes =
        entry.element_nodes.size() +
        (options.match_attributes ? entry.attribute_nodes.size() : 0);
    total_nodes += nodes;
    uint32_t bits = mask;
    while (bits != 0) {
      per_set[static_cast<size_t>(std::countr_zero(bits))] += nodes;
      bits &= bits - 1;
    }
  }
  std::vector<std::pair<schema::NodeRef, uint32_t>> matched;
  matched.reserve(total_nodes);
  for (size_t d = 0; d < num_entries; ++d) {
    if (entry_masks[d] == 0) continue;
    const NameDictionary::Entry& entry = dict->entry(d);
    const uint32_t idx = static_cast<uint32_t>(d);
    for (schema::NodeRef ref : entry.element_nodes) {
      matched.emplace_back(ref, idx);
    }
    if (options.match_attributes) {
      for (schema::NodeRef ref : entry.attribute_nodes) {
        matched.emplace_back(ref, idx);
      }
    }
  }
  // NodeRefs are unique across entries, so this recovers exactly the
  // repository iteration order of the reference sweep.
  std::sort(matched.begin(), matched.end());

  result.distinct_nodes.reserve(matched.size());
  result.masks.reserve(matched.size());
  for (size_t i = 0; i < m; ++i) result.sets[i].elements.reserve(per_set[i]);
  for (const auto& [ref, d] : matched) {
    const uint32_t mask = entry_masks[d];
    result.distinct_nodes.push_back(ref);
    result.masks.push_back(mask);
    uint32_t bits = mask;
    while (bits != 0) {
      const size_t i = static_cast<size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      result.sets[i].elements.push_back({ref, scores[d * m + i]});
    }
  }
  return result;
}

namespace {

schema::TreeId TreeOf(const schema::NodeRef& ref) { return ref.tree; }
schema::TreeId TreeOf(const MappingElement& element) {
  return element.node.tree;
}

// The value as it sits in successor tree `t` (a mask names no tree).
schema::NodeRef InTree(schema::NodeRef ref, schema::TreeId t) {
  ref.tree = t;
  return ref;
}
MappingElement InTree(MappingElement element, schema::TreeId t) {
  element.node.tree = t;
  return element;
}
uint32_t InTree(uint32_t mask, schema::TreeId) { return mask; }

// Where each tree's run sits in a NodeRef-sorted array: tree t occupies
// [runs[t], runs[t + 1]). Entries of trees >= num_trees are left out.
template <typename T>
std::vector<size_t> TreeRuns(const std::vector<T>& sorted, size_t num_trees) {
  std::vector<size_t> runs(num_trees + 1);
  size_t i = 0;
  for (size_t t = 0; t < num_trees; ++t) {
    runs[t] = i;
    while (i < sorted.size() && static_cast<size_t>(TreeOf(sorted[i])) == t) {
      ++i;
    }
  }
  runs[num_trees] = i;
  return runs;
}

// How a successor forest's trees map onto the two matchings being stitched.
struct CarryPlan {
  const std::vector<schema::TreeId>& reuse_map;
  /// Successor tree -> its tree in the forest of rebuilt trees, or -1.
  std::vector<schema::TreeId> rebuilt_id;
  size_t prev_trees = 0;
  size_t rebuilt_trees = 0;
};

// Each successor tree's run, in tree order: from `prev` for a reused tree,
// from `fresh` for a rebuilt one, moved into the successor's tree id.
template <typename T>
std::vector<T> Stitch(const CarryPlan& plan, const std::vector<T>& prev,
                      const std::vector<size_t>& prev_runs,
                      const std::vector<T>& fresh,
                      const std::vector<size_t>& fresh_runs) {
  auto run_of = [&](size_t t) {
    const schema::TreeId p = plan.reuse_map[t];
    const bool reused = p >= 0;
    const size_t k = static_cast<size_t>(reused ? p : plan.rebuilt_id[t]);
    const std::vector<size_t>& runs = reused ? prev_runs : fresh_runs;
    return std::make_tuple(reused ? &prev : &fresh, runs[k], runs[k + 1]);
  };
  size_t total = 0;
  for (size_t t = 0; t < plan.reuse_map.size(); ++t) {
    const auto [src, begin, end] = run_of(t);
    total += end - begin;
  }
  std::vector<T> out;
  out.reserve(total);
  for (size_t t = 0; t < plan.reuse_map.size(); ++t) {
    const auto [src, begin, end] = run_of(t);
    for (size_t i = begin; i < end; ++i) {
      out.push_back(InTree((*src)[i], static_cast<schema::TreeId>(t)));
    }
  }
  return out;
}

}  // namespace

Result<ElementMatchingResult> CarryElementMatching(
    const ElementMatchingResult& prev,
    const std::vector<schema::TreeId>& reuse_map,
    const schema::SchemaForest& forest, const schema::SchemaTree& personal,
    const ElementMatchingOptions& options) {
  XSM_RETURN_NOT_OK(ValidateInputs(personal, options));
  if (reuse_map.size() != forest.num_trees()) {
    return Status::InvalidArgument(
        "reuse map must name every tree of the forest");
  }
  if (prev.sets.size() != personal.size()) {
    return Status::InvalidArgument(
        "predecessor matching is for a different personal schema");
  }

  // The rebuilt trees, matched together as one forest of their own.
  CarryPlan plan{reuse_map, std::vector<schema::TreeId>(reuse_map.size(), -1)};
  schema::SchemaForest rebuilt;
  for (schema::TreeId t = 0;
       t < static_cast<schema::TreeId>(forest.num_trees()); ++t) {
    const schema::TreeId p = reuse_map[static_cast<size_t>(t)];
    if (p >= 0) {
      plan.prev_trees = std::max(plan.prev_trees, static_cast<size_t>(p) + 1);
    } else {
      plan.rebuilt_id[static_cast<size_t>(t)] =
          rebuilt.AddTree(forest.tree_ptr(t), forest.source(t));
    }
  }
  plan.rebuilt_trees = rebuilt.num_trees();
  ElementMatchingOptions rebuilt_options = options;
  rebuilt_options.dictionary = nullptr;
  XSM_ASSIGN_OR_RETURN(ElementMatchingResult fresh,
                       MatchElements(personal, rebuilt, rebuilt_options));

  ElementMatchingResult result;
  // masks share distinct_nodes' runs.
  const std::vector<size_t> prev_runs =
      TreeRuns(prev.distinct_nodes, plan.prev_trees);
  const std::vector<size_t> fresh_runs =
      TreeRuns(fresh.distinct_nodes, plan.rebuilt_trees);
  result.distinct_nodes = Stitch(plan, prev.distinct_nodes, prev_runs,
                                 fresh.distinct_nodes, fresh_runs);
  result.masks = Stitch(plan, prev.masks, prev_runs, fresh.masks, fresh_runs);
  result.sets.resize(personal.size());
  for (size_t n = 0; n < result.sets.size(); ++n) {
    const std::vector<MappingElement>& from_prev = prev.sets[n].elements;
    const std::vector<MappingElement>& from_fresh = fresh.sets[n].elements;
    result.sets[n].personal_node = static_cast<schema::NodeId>(n);
    result.sets[n].elements =
        Stitch(plan, from_prev, TreeRuns(from_prev, plan.prev_trees),
               from_fresh, TreeRuns(from_fresh, plan.rebuilt_trees));
  }
  return result;
}

}  // namespace xsm::match
