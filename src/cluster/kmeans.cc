#include "cluster/kmeans.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

#include "util/timer.h"

namespace xsm::cluster {

using schema::NodeRef;
using schema::TreeId;

Status KMeansOptions::Validate() const {
  if (join_distance < 0) {
    return Status::InvalidArgument("join_distance must be >= 0");
  }
  if (convergence_fraction < 0.0 || convergence_fraction > 1.0) {
    return Status::InvalidArgument("convergence_fraction must be in [0,1]");
  }
  if (max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  return Status::OK();
}

namespace {

// Disjoint-set over cluster slots, used by join reclustering.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  // Returns true if a merge happened.
  bool Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    // Deterministic: smaller index wins as representative.
    if (b < a) std::swap(a, b);
    parent_[b] = a;
    return true;
  }

 private:
  std::vector<size_t> parent_;
};

// Member of `members` minimizing the summed tree distance to the others;
// ties break toward the smallest node id. `members` must be non-empty and
// single-tree.
NodeRef ComputeMedoid(const std::vector<int32_t>& members,
                      const std::vector<ClusterPoint>& points,
                      const label::TreeIndex& tidx) {
  assert(!members.empty());
  if (members.size() == 1) {
    return points[static_cast<size_t>(members[0])].node;
  }
  int64_t best_cost = std::numeric_limits<int64_t>::max();
  NodeRef best = points[static_cast<size_t>(members[0])].node;
  for (int32_t mi : members) {
    NodeRef candidate = points[static_cast<size_t>(mi)].node;
    int64_t cost = 0;
    for (int32_t mj : members) {
      cost += tidx.Distance(candidate.node,
                            points[static_cast<size_t>(mj)].node.node);
      // Distances are non-negative, so once the partial cost strictly
      // exceeds the best the candidate can neither win nor tie-win;
      // breaking on equality would lose the node-id tie-break.
      if (cost > best_cost) break;
    }
    if (cost < best_cost ||
        (cost == best_cost && candidate.node < best.node)) {
      best_cost = cost;
      best = candidate;
    }
  }
  return best;
}

// Inside KMeansClusterer::Cluster() the member-function name shadows the
// Cluster struct; alias the container type here where the struct is visible.
using ClusterVector = std::vector<Cluster>;

}  // namespace

Result<ClusteringResult> KMeansClusterer::Cluster(
    const std::vector<ClusterPoint>& points,
    const std::vector<size_t>& me_set_sizes,
    const KMeansOptions& options) const {
  XSM_RETURN_NOT_OK(options.Validate());
  Timer timer;
  ClusteringResult result;
  if (points.empty()) return result;

  // --- Initialization (Alg. 1 line 1). -----------------------------------
  // Every element of MEmin, the scarcest personal node's mapping-element
  // set, becomes a centroid.
  int best_bit = -1;
  size_t best_size = std::numeric_limits<size_t>::max();
  for (size_t b = 0; b < me_set_sizes.size(); ++b) {
    if (me_set_sizes[b] == 0) continue;
    if (me_set_sizes[b] < best_size) {
      best_size = me_set_sizes[b];
      best_bit = static_cast<int>(b);
    }
  }
  if (best_bit < 0) {
    return Status::InvalidArgument("no personal node has any mapping element");
  }
  std::vector<NodeRef> centroids;
  for (const ClusterPoint& p : points) {
    if (p.personal_mask & (uint32_t{1} << best_bit)) {
      centroids.push_back(p.node);
    }
  }
  result.stats.initial_centroids = centroids.size();

  // Per-point cluster identity from the previous iteration, identified by
  // the centroid node ("elements which switched from one cluster to
  // another" — a cluster is its centroid).
  std::vector<NodeRef> prev_centroid_of(points.size(), NodeRef{});
  size_t prev_num_clusters = centroids.size();

  ClusterVector clusters;

  // --- Iterations (Alg. 1 lines 2–11). -----------------------------------
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    result.stats.iterations = iter;

    // Per-tree centroid lists for the nearest-centroid scan.
    std::vector<std::vector<int32_t>> centroids_in_tree(
        forest_->num_trees());
    for (size_t c = 0; c < centroids.size(); ++c) {
      centroids_in_tree[static_cast<size_t>(centroids[c].tree)].push_back(
          static_cast<int32_t>(c));
    }

    // Assignment (lines 3–8): nearest same-tree centroid by tree path
    // length; deterministic tie-break toward the lower centroid index.
    std::vector<int32_t> assignment(points.size(), -1);
    for (size_t i = 0; i < points.size(); ++i) {
      const ClusterPoint& p = points[i];
      const auto& local =
          centroids_in_tree[static_cast<size_t>(p.node.tree)];
      int best_d = std::numeric_limits<int>::max();
      int32_t best_c = -1;
      const label::TreeIndex& tidx = index_->tree(p.node.tree);
      for (int32_t c : local) {
        int d = tidx.Distance(p.node.node,
                              centroids[static_cast<size_t>(c)].node);
        if (d < best_d) {
          best_d = d;
          best_c = c;
        }
      }
      assignment[i] = best_c;
    }

    // Form clusters; drop starved (empty) centroids.
    ClusterVector formed(centroids.size());
    for (size_t c = 0; c < centroids.size(); ++c) {
      formed[c].tree = centroids[c].tree;
    }
    for (size_t i = 0; i < points.size(); ++i) {
      if (assignment[i] >= 0) {
        formed[static_cast<size_t>(assignment[i])].members.push_back(
            static_cast<int32_t>(i));
      }
    }
    std::erase_if(formed, [](const auto& c) { return c.members.empty(); });

    // New centroids = medoids (line 9).
    for (auto& c : formed) {
      c.centroid = ComputeMedoid(c.members, points, index_->tree(c.tree));
    }

    // Reclustering (line 10): join, then remove.
    if (options.join_reclustering && formed.size() > 1) {
      // Bucket formed clusters by tree, then union close pairs.
      std::vector<std::vector<size_t>> by_tree(forest_->num_trees());
      for (size_t c = 0; c < formed.size(); ++c) {
        by_tree[static_cast<size_t>(formed[c].tree)].push_back(c);
      }
      UnionFind uf(formed.size());
      size_t merges = 0;
      for (const auto& group : by_tree) {
        for (size_t a = 0; a < group.size(); ++a) {
          const label::TreeIndex& tidx =
              index_->tree(formed[group[a]].tree);
          for (size_t b = a + 1; b < group.size(); ++b) {
            int d = tidx.Distance(formed[group[a]].centroid.node,
                                  formed[group[b]].centroid.node);
            if (d <= options.join_distance) {
              if (uf.Union(group[a], group[b])) ++merges;
            }
          }
        }
      }
      if (merges > 0) {
        result.stats.clusters_joined += merges;
        ClusterVector merged;
        std::vector<int32_t> slot_of(formed.size(), -1);
        for (size_t c = 0; c < formed.size(); ++c) {
          size_t rep = uf.Find(c);
          if (slot_of[rep] < 0) {
            slot_of[rep] = static_cast<int32_t>(merged.size());
            merged.emplace_back();
            merged.back().tree = formed[rep].tree;
          }
          auto& dst = merged[static_cast<size_t>(slot_of[rep])];
          dst.members.insert(dst.members.end(), formed[c].members.begin(),
                             formed[c].members.end());
        }
        for (auto& c : merged) {
          std::sort(c.members.begin(), c.members.end());
          c.centroid = ComputeMedoid(c.members, points, index_->tree(c.tree));
        }
        formed = std::move(merged);
      }
    }
    if (options.remove_reclustering) {
      size_t before = formed.size();
      std::erase_if(formed, [&](const auto& c) {
        return c.members.size() < options.min_cluster_size;
      });
      result.stats.clusters_removed += before - formed.size();
    }

    // Switch accounting: a point's cluster is identified by its centroid.
    std::vector<NodeRef> new_centroid_of(points.size(), NodeRef{});
    for (const auto& c : formed) {
      for (int32_t m : c.members) {
        new_centroid_of[static_cast<size_t>(m)] = c.centroid;
      }
    }
    size_t switched = 0;
    for (size_t i = 0; i < points.size(); ++i) {
      if (!(new_centroid_of[i] == prev_centroid_of[i])) ++switched;
    }
    result.stats.switches_per_iteration.push_back(switched);

    clusters = std::move(formed);

    // Convergence (line 11): both the element-switch fraction and the
    // relative change in cluster count must fall below the threshold. The
    // first iteration never converges (everything "switched" from nothing).
    bool converged =
        iter > 1 &&
        static_cast<double>(switched) <=
            options.convergence_fraction *
                static_cast<double>(points.size()) &&
        static_cast<double>(
            std::max(prev_num_clusters, clusters.size()) -
            std::min(prev_num_clusters, clusters.size())) <=
            options.convergence_fraction *
                static_cast<double>(std::max<size_t>(1, prev_num_clusters));

    prev_centroid_of = std::move(new_centroid_of);
    prev_num_clusters = clusters.size();
    centroids.clear();
    for (const auto& c : clusters) centroids.push_back(c.centroid);

    if (converged || centroids.empty()) break;
  }

  // Final bookkeeping: union masks + unassigned count.
  size_t assigned = 0;
  for (auto& c : clusters) {
    for (int32_t m : c.members) {
      c.union_mask |= points[static_cast<size_t>(m)].personal_mask;
    }
    assigned += c.members.size();
  }
  result.stats.unassigned_points = points.size() - assigned;
  result.clusters = std::move(clusters);
  result.stats.time_seconds = timer.ElapsedSeconds();
  return result;
}

ClusteringResult TreeClusters(const std::vector<ClusterPoint>& points) {
  ClusteringResult result;
  if (points.empty()) return result;
  // Points arrive sorted by NodeRef (tree-major), so trees form runs.
  for (size_t i = 0; i < points.size(); ++i) {
    if (result.clusters.empty() ||
        result.clusters.back().tree != points[i].node.tree) {
      Cluster c;
      c.tree = points[i].node.tree;
      c.centroid = NodeRef{points[i].node.tree, 0};  // tree root
      result.clusters.push_back(std::move(c));
    }
    Cluster& c = result.clusters.back();
    c.members.push_back(static_cast<int32_t>(i));
    c.union_mask |= points[i].personal_mask;
  }
  result.stats.iterations = 0;
  return result;
}

}  // namespace xsm::cluster
