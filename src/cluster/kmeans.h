// Clustering step of clustered schema matching (paper §4, Algorithm 1).
//
// Points are the mapping elements produced by element matching (one point
// per distinct matched repository node). The distance measure is the tree
// distance (path length) between nodes — infinite across trees, so clusters
// never span trees and trees without an initial centroid drop out.
//
// Differences from textbook k-means, all taken from the paper:
//  * centroids are medoids — the member that is the cluster's "center of
//    weight" (minimum summed distance to the other members);
//  * initialization seeds one centroid per element of MEmin, the smallest
//    mapping-element set, because every useful cluster needs at least one
//    element for each personal node;
//  * a reclustering step (Alg. 1 line 10) runs each iteration: `join`
//    merges clusters whose centroids are within a distance threshold (the
//    threshold 2/3/4 realizes the paper's small/medium/large variants) and
//    `remove` deletes clusters below a minimum size;
//  * relaxed convergence: stop when the fraction of elements that switched
//    clusters and the relative change in cluster count both fall below a
//    threshold (default 5%).
#ifndef XSM_CLUSTER_KMEANS_H_
#define XSM_CLUSTER_KMEANS_H_

#include <cstdint>
#include <vector>

#include "label/tree_index.h"
#include "schema/schema_forest.h"
#include "util/status.h"

namespace xsm::cluster {

/// One clustering point: a distinct repository node that matched ≥ 1
/// personal node, with the mask of personal nodes it matched.
struct ClusterPoint {
  schema::NodeRef node;
  uint32_t personal_mask = 0;
};

/// A formed cluster. `members` index into the points vector passed to the
/// clusterer, in ascending order.
struct Cluster {
  schema::TreeId tree = -1;
  schema::NodeRef centroid;
  std::vector<int32_t> members;
  /// OR of member personal masks; the cluster is useful iff this covers the
  /// full personal mask.
  uint32_t union_mask = 0;

  size_t size() const { return members.size(); }
  bool useful(uint32_t full_mask) const {
    return (union_mask & full_mask) == full_mask;
  }
};

/// Options of Algorithm 1. Seeding (MEmin) and the distance (tree path
/// length) are fixed by the paper; these are its reclustering and
/// convergence knobs.
struct KMeansOptions {
  /// Join reclustering: merge clusters whose centroids are at distance
  /// ≤ join_distance. Disabled when join_reclustering is false.
  bool join_reclustering = true;
  int join_distance = 3;  // paper: 2 = small, 3 = medium, 4 = large

  /// Remove reclustering: delete clusters with fewer members than
  /// min_cluster_size (members are freed and may re-join neighbors on the
  /// next iteration).
  bool remove_reclustering = true;
  size_t min_cluster_size = 4;

  /// Relaxed total-stability criterion (fraction of points/clusters).
  double convergence_fraction = 0.05;
  int max_iterations = 25;

  Status Validate() const;
};

struct KMeansStats {
  int iterations = 0;
  size_t initial_centroids = 0;
  size_t clusters_joined = 0;
  size_t clusters_removed = 0;
  /// Points whose cluster (identified by centroid) changed, per iteration.
  std::vector<size_t> switches_per_iteration;
  double time_seconds = 0;
  /// Points left in no cluster at convergence (tree had no centroid, or
  /// their cluster was removed in the final iteration).
  size_t unassigned_points = 0;
};

struct ClusteringResult {
  std::vector<Cluster> clusters;
  KMeansStats stats;
};

/// K-means clusterer over one repository. The forest/index must outlive the
/// clusterer.
class KMeansClusterer {
 public:
  KMeansClusterer(const schema::SchemaForest* forest,
                  const label::ForestIndex* index)
      : forest_(forest), index_(index) {}

  /// Clusters `points`. `me_set_sizes[b]` = |ME_b| for personal node b
  /// (used to find MEmin, the scarcest personal node's set).
  Result<ClusteringResult> Cluster(const std::vector<ClusterPoint>& points,
                                   const std::vector<size_t>& me_set_sizes,
                                   const KMeansOptions& options) const;

 private:
  const schema::SchemaForest* forest_;
  const label::ForestIndex* index_;
};

/// The non-clustered baseline ("tree clusters"): every tree holding at
/// least one point becomes one cluster; centroid is the tree root.
ClusteringResult TreeClusters(const std::vector<ClusterPoint>& points);

}  // namespace xsm::cluster

#endif  // XSM_CLUSTER_KMEANS_H_
