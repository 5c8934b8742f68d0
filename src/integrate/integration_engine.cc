#include "integrate/integration_engine.h"

#include <algorithm>
#include <future>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/bellflower.h"
#include "match/element_matching.h"
#include "obs/trace.h"
#include "util/timer.h"
#include "util/union_find.h"

namespace xsm::integrate {

namespace {

/// One cross-schema correspondence edge, canonical direction a.tree < b.tree.
struct Correspondence {
  schema::NodeRef a;
  schema::NodeRef b;
  double score = 0;
};

/// One unit of all-pairs work: `count` consecutive nodes of one source tree,
/// starting at `first`.
struct Slice {
  schema::TreeId tree = -1;
  schema::NodeId first = 0;
  size_t count = 0;
  size_t index = 0;  ///< slice ordinal within the tree
};

/// Rebuilds a slice as a standalone personal schema: a flat tree whose first
/// node is the root and the rest its children. Element matching scores each
/// personal node by its name alone, so the fake
/// structure changes no score — it only satisfies the tree-shaped query API
/// while keeping every slice under kMaxPersonalNodes.
schema::SchemaTree MakeSliceTree(const schema::SchemaTree& source,
                                 schema::NodeId first, size_t count) {
  schema::SchemaTree slice;
  schema::NodeId root = slice.AddNode(schema::kInvalidNode, source.props(first));
  for (size_t k = 1; k < count; ++k) {
    slice.AddNode(root, source.props(first + static_cast<schema::NodeId>(k)));
  }
  return slice;
}

Status StatusForStop(core::ExecutionStatus status) {
  if (status == core::ExecutionStatus::kDeadlineExceeded) {
    return Status::DeadlineExceeded("integration deadline exceeded");
  }
  return Status::Cancelled("integration cancelled");
}

bool IsStopStatus(const Status& status) {
  return status.code() == StatusCode::kCancelled ||
         status.code() == StatusCode::kDeadlineExceeded;
}

core::ExecutionStatus ExecutionFromStop(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded
             ? core::ExecutionStatus::kDeadlineExceeded
             : core::ExecutionStatus::kCancelled;
}

}  // namespace

std::string_view SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kStrong:
      return "strong";
    case Severity::kProbable:
      return "probable";
    case Severity::kWeak:
      break;
  }
  return "weak";
}

Result<Severity> ParseSeverity(std::string_view name) {
  if (name == "weak") return Severity::kWeak;
  if (name == "probable") return Severity::kProbable;
  if (name == "strong") return Severity::kStrong;
  return Status::InvalidArgument("severity must be weak, probable or strong");
}

Result<IntegrationResult> IntegrationEngine::Integrate(
    const IntegrationOptions& options, IntegrationObserver* observer) {
  return IntegrateOn(service_->Pin(), options, observer);
}

Result<IntegrationResult> IntegrationEngine::IntegrateOn(
    service::RepositoryPinPtr snapshot, const IntegrationOptions& options,
    IntegrationObserver* observer) {
  if (options.threshold < 0.0 || options.threshold > 1.0) {
    return Status::InvalidArgument("threshold must be in [0,1]");
  }
  if (options.probable_confidence > options.strong_confidence) {
    return Status::InvalidArgument(
        "probable_confidence must not exceed strong_confidence");
  }

  const schema::SchemaForest& forest = snapshot->forest();
  const size_t n = forest.num_trees();

  IntegrationResult result;
  result.generation = snapshot->generation();
  result.fingerprint = snapshot->fingerprint();
  result.seed = options.seed;
  result.tree_fingerprints.reserve(n);
  for (schema::TreeId t = 0; t < static_cast<schema::TreeId>(n); ++t) {
    result.tree_fingerprints.push_back(snapshot->tree_fingerprint(t));
  }
  result.stats.trees = n;
  result.stats.pairs_total = n >= 2 ? n * (n - 1) / 2 : 0;

  // --- Stage 1: shard the pair grid over the service pool. Each slice task
  // builds (or cache-hits) its cluster state and extracts the cross-schema
  // correspondences it sources, keeping only targets in later trees so every
  // unordered pair is scored exactly once, from a fixed direction.
  std::vector<Slice> slices;
  for (schema::TreeId t = 0; t < static_cast<schema::TreeId>(n); ++t) {
    const size_t tree_size = forest.tree(t).size();
    size_t index = 0;
    for (size_t first = 0; first < tree_size;
         first += match::kMaxPersonalNodes, ++index) {
      Slice slice;
      slice.tree = t;
      slice.first = static_cast<schema::NodeId>(first);
      slice.count = std::min(match::kMaxPersonalNodes, tree_size - first);
      slice.index = index;
      slices.push_back(slice);
    }
  }
  result.stats.slices = slices.size();

  obs::TraceContext* trace = options.control.trace;
  Timer matching_timer;
  std::optional<obs::ScopedSpan> match_span;
  match_span.emplace(trace, "integrate_match");
  std::vector<std::future<Result<std::vector<Correspondence>>>> futures;
  futures.reserve(slices.size());
  for (const Slice& slice : slices) {
    // Everything captured by value: a task must stay self-contained even if
    // the caller already returned on another slice's error.
    futures.push_back(service_->pool().Submit(
        [service = service_, snapshot, slice, threshold = options.threshold,
         match_attributes = options.match_attributes,
         control = options.control]()
            -> Result<std::vector<Correspondence>> {
          core::ExecutionMonitor monitor(control);
          if (monitor.ShouldStop()) {
            // Stopped before starting: no build begins, so the cluster
            // cache never sees a control-influenced entry.
            return StatusForStop(monitor.status());
          }
          service::MatchRequest query;
          query.id = "integrate:" + std::to_string(slice.tree) + ":" +
                     std::to_string(slice.index);
          query.personal = MakeSliceTree(snapshot->forest().tree(slice.tree),
                                         slice.first, slice.count);
          query.options.element.threshold = threshold;
          query.options.element.match_attributes = match_attributes;
          // Deterministic, seed-free preprocessing: the tree-clusters mode
          // keys the cache with a "|tree" suffix and ignores every k-means
          // knob, so identical slices share entries across queries and runs.
          query.options.clustering = core::ClusteringMode::kTreeClusters;
          XSM_ASSIGN_OR_RETURN(service::ClusterStatePtr state,
                               service->ClusterStateFor(snapshot, query));
          std::vector<Correspondence> edges;
          for (const match::MappingElementSet& set : state->matching.sets) {
            const schema::NodeRef source{
                slice.tree, slice.first + set.personal_node};
            for (const match::MappingElement& element : set.elements) {
              if (element.node.tree <= slice.tree) continue;
              edges.push_back({source, element.node, element.score});
            }
          }
          return edges;
        }));
  }

  // --- Stage 2: fold, strictly in (tree, slice) submission order. Tasks
  // finish in any interleaving, but the union-find sees edges in one fixed
  // sequence — and Canonical() is union-order independent anyway — so the
  // clusters, confidences and ranks are identical across thread counts.
  UnionFind uf;
  std::vector<schema::NodeRef> nodes;           // dense index -> NodeRef
  std::unordered_map<schema::NodeRef, size_t> index_of;
  std::vector<double> incident;                 // summed edge scores per node
  struct Edge {
    size_t a = 0;
    size_t b = 0;
    double score = 0;
  };
  std::vector<Edge> edges;
  auto intern = [&](const schema::NodeRef& ref) {
    auto [it, inserted] = index_of.try_emplace(ref, nodes.size());
    if (inserted) {
      nodes.push_back(ref);
      incident.push_back(0.0);
      uf.Add();
    }
    return it->second;
  };

  struct PairAccumulator {
    size_t links = 0;
    double best = 0;
  };
  std::map<schema::TreeId, PairAccumulator> pair_acc;  // targets of one source
  size_t slice_cursor = 0;
  for (schema::TreeId t = 0; t < static_cast<schema::TreeId>(n); ++t) {
    bool stopped = false;
    for (; slice_cursor < slices.size() && slices[slice_cursor].tree == t;
         ++slice_cursor) {
      Result<std::vector<Correspondence>> part =
          futures[slice_cursor].get();
      if (!part.ok()) {
        if (IsStopStatus(part.status())) {
          result.execution = ExecutionFromStop(part.status());
          stopped = true;
          break;
        }
        return part.status();
      }
      for (const Correspondence& corr : *part) {
        size_t ia = intern(corr.a);
        size_t ib = intern(corr.b);
        uf.Union(ia, ib);
        incident[ia] += corr.score;
        incident[ib] += corr.score;
        edges.push_back({ia, ib, corr.score});
        PairAccumulator& acc = pair_acc[corr.b.tree];
        ++acc.links;
        if (corr.score > acc.best) acc.best = corr.score;
      }
    }
    // One progress report per linked pair sourced by tree t, targets
    // ascending (a partially folded source still reports what it linked).
    for (const auto& [target, acc] : pair_acc) {
      ++result.stats.pairs_linked;
      if (observer != nullptr) {
        PairProgress progress;
        progress.a = t;
        progress.b = target;
        progress.links = acc.links;
        progress.best_score = acc.best;
        progress.sources_done = static_cast<size_t>(t) + 1;
        progress.sources_total = n;
        observer->OnPair(progress);
      }
    }
    pair_acc.clear();
    if (stopped) break;
  }
  result.stats.correspondences = edges.size();
  result.stats.nodes_linked = nodes.size();
  result.stats.time_matching_seconds = matching_timer.ElapsedSeconds();
  match_span.reset();

  // --- Stage 3: components -> graded clusters -> ranked mediated schema.
  obs::ScopedSpan fold_span(trace, "integrate_fold");
  Timer fold_timer;
  std::map<size_t, std::vector<size_t>> components;  // canonical -> members
  for (size_t i = 0; i < nodes.size(); ++i) {
    components[uf.Canonical(i)].push_back(i);
  }
  struct ComponentScore {
    size_t links = 0;
    double score_sum = 0;
  };
  std::unordered_map<size_t, ComponentScore> component_scores;
  for (const Edge& edge : edges) {
    ComponentScore& cs = component_scores[uf.Canonical(edge.a)];
    ++cs.links;
    cs.score_sum += edge.score;
  }

  for (const auto& [canonical, member_indices] : components) {
    if (member_indices.size() < 2) continue;  // never: every node has an edge
    CorrespondenceCluster cluster;
    cluster.members.reserve(member_indices.size());
    for (size_t i : member_indices) cluster.members.push_back(nodes[i]);
    std::sort(cluster.members.begin(), cluster.members.end());

    const ComponentScore& cs = component_scores[canonical];
    cluster.links = cs.links;
    cluster.confidence = cs.links > 0 ? cs.score_sum / cs.links : 0.0;
    cluster.severity = cluster.confidence >= options.strong_confidence
                           ? Severity::kStrong
                           : cluster.confidence >= options.probable_confidence
                                 ? Severity::kProbable
                                 : Severity::kWeak;

    schema::TreeId last_tree = -1;
    for (const schema::NodeRef& member : cluster.members) {
      if (member.tree != last_tree) {
        ++cluster.schemas;
        last_tree = member.tree;
      }
    }
    // Medoid representative: members are sorted, so strict > keeps the
    // smallest NodeRef among ties.
    double best = -1.0;
    for (const schema::NodeRef& member : cluster.members) {
      double score = incident[index_of[member]];
      if (score > best) {
        best = score;
        cluster.representative = member;
      }
    }
    cluster.name = forest.name(cluster.representative);
    result.clusters.push_back(std::move(cluster));
  }

  std::sort(result.clusters.begin(), result.clusters.end(),
            [](const CorrespondenceCluster& x, const CorrespondenceCluster& y) {
              if (x.schemas != y.schemas) return x.schemas > y.schemas;
              if (x.links != y.links) return x.links > y.links;
              if (x.confidence != y.confidence) {
                return x.confidence > y.confidence;
              }
              if (x.name != y.name) return x.name < y.name;
              return x.representative < y.representative;
            });

  for (size_t i = 0; i < result.clusters.size(); ++i) {
    const CorrespondenceCluster& cluster = result.clusters[i];
    if (cluster.links < options.min_linkage) continue;
    if (static_cast<uint8_t>(cluster.severity) <
        static_cast<uint8_t>(options.min_severity)) {
      continue;
    }
    MediatedElement element;
    element.name = cluster.name;
    element.representative = cluster.representative;
    element.cluster = i;
    result.mediated.elements.push_back(element);
    if (observer != nullptr) {
      observer->OnMediatedElement(result.mediated.elements.size(),
                                  result.mediated.elements.back(), cluster);
    }
  }
  result.stats.time_fold_seconds = fold_timer.ElapsedSeconds();

  if (observer != nullptr) observer->OnFinish(result);
  return result;
}

}  // namespace xsm::integrate
