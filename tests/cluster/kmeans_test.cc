#include "cluster/kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "label/tree_index.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"

namespace xsm::cluster {
namespace {

using schema::NodeId;
using schema::NodeRef;
using schema::SchemaForest;

// A forest with two well-separated "regions" inside tree 0 plus a second
// tree, to exercise locality and cross-tree separation.
//
// Tree 0:  root
//          ├─ a(a1,a2,a3)          region A: nodes 1..4
//          └─ mid(b(b1,b2,b3))     region B: nodes 5..9
// Tree 1:  r2(c1,c2)
struct Fixture {
  SchemaForest forest;
  label::ForestIndex index;
  std::vector<ClusterPoint> points;
  std::vector<size_t> me_sizes;

  Fixture() {
    forest.AddTree(*schema::ParseTreeSpec(
        "root(a(a1,a2,a3),mid(b(b1,b2,b3)))"));
    forest.AddTree(*schema::ParseTreeSpec("r2(c1,c2)"));
    index = label::ForestIndex::Build(forest);
    // Personal schema of 2 nodes. Bit 0 is the scarce one (MEmin): present
    // at region roots a(1) and b(6) and at tree 1 node 1.
    // Bit 1 everywhere else.
    auto add = [&](schema::TreeId t, NodeId n, uint32_t mask) {
      points.push_back({NodeRef{t, n}, mask});
    };
    add(0, 1, 0b01);  // a      (MEmin, region A)
    add(0, 2, 0b10);  // a1
    add(0, 3, 0b10);  // a2
    add(0, 4, 0b10);  // a3
    add(0, 6, 0b01);  // b      (MEmin, region B)
    add(0, 7, 0b10);  // b1
    add(0, 8, 0b10);  // b2
    add(0, 9, 0b10);  // b3
    add(1, 1, 0b01);  // c1     (MEmin, tree 1)
    add(1, 2, 0b10);  // c2
    me_sizes = {3, 7};
  }
};

KMeansOptions NoRecluster() {
  KMeansOptions o;
  o.join_reclustering = false;
  o.remove_reclustering = false;
  o.max_iterations = 10;
  return o;
}

TEST(KMeansTest, MinSetInitSeedsOneCentroidPerScarceElement) {
  Fixture f;
  KMeansClusterer clusterer(&f.forest, &f.index);
  auto r = clusterer.Cluster(f.points, f.me_sizes, NoRecluster());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.initial_centroids, 3u);  // a, b, c1
}

TEST(KMeansTest, RegionsSeparateAndCrossTreeNeverMixes) {
  Fixture f;
  KMeansClusterer clusterer(&f.forest, &f.index);
  auto r = clusterer.Cluster(f.points, f.me_sizes, NoRecluster());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->clusters.size(), 3u);
  for (const Cluster& c : r->clusters) {
    // Single-tree membership.
    for (int32_t m : c.members) {
      EXPECT_EQ(f.points[static_cast<size_t>(m)].node.tree, c.tree);
    }
  }
  // Region A = points {0,1,2,3}, region B = {4,5,6,7}, tree1 = {8,9}.
  std::set<std::set<int32_t>> got;
  for (const Cluster& c : r->clusters) {
    got.insert(std::set<int32_t>(c.members.begin(), c.members.end()));
  }
  std::set<std::set<int32_t>> expected{
      {0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}};
  EXPECT_EQ(got, expected);
}

TEST(KMeansTest, MedoidIsCentral) {
  Fixture f;
  KMeansClusterer clusterer(&f.forest, &f.index);
  auto r = clusterer.Cluster(f.points, f.me_sizes, NoRecluster());
  ASSERT_TRUE(r.ok());
  for (const Cluster& c : r->clusters) {
    if (c.tree != 0) continue;
    // In both regions the hub node (a=1 or b=6) is the medoid.
    EXPECT_TRUE(c.centroid.node == 1 || c.centroid.node == 6)
        << "centroid " << c.centroid.node;
  }
}

TEST(KMeansTest, UnionMasksAndUsefulness) {
  Fixture f;
  KMeansClusterer clusterer(&f.forest, &f.index);
  auto r = clusterer.Cluster(f.points, f.me_sizes, NoRecluster());
  ASSERT_TRUE(r.ok());
  for (const Cluster& c : r->clusters) {
    EXPECT_TRUE(c.useful(0b11));
  }
}

TEST(KMeansTest, JoinReclusteringMergesCloseRegions) {
  Fixture f;
  KMeansClusterer clusterer(&f.forest, &f.index);
  KMeansOptions o = NoRecluster();
  o.join_reclustering = true;
  // dist(a=1, b=6) = a-root-mid-b = 3. Threshold 4 merges them ("large
  // clusters" behavior); threshold 2 keeps them apart ("small clusters").
  o.join_distance = 4;
  auto merged = clusterer.Cluster(f.points, f.me_sizes, o);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->clusters.size(), 2u);  // tree0 merged, tree1 alone
  EXPECT_GE(merged->stats.clusters_joined, 1u);

  o.join_distance = 2;
  auto apart = clusterer.Cluster(f.points, f.me_sizes, o);
  ASSERT_TRUE(apart.ok());
  EXPECT_EQ(apart->clusters.size(), 3u);
}

TEST(KMeansTest, RemoveReclusteringDropsTinyClusters) {
  Fixture f;
  KMeansClusterer clusterer(&f.forest, &f.index);
  KMeansOptions o = NoRecluster();
  o.remove_reclustering = true;
  o.min_cluster_size = 3;  // tree-1 cluster has only 2 members
  auto r = clusterer.Cluster(f.points, f.me_sizes, o);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->clusters.size(), 2u);
  EXPECT_GE(r->stats.clusters_removed, 1u);
  EXPECT_EQ(r->stats.unassigned_points, 2u);
  for (const Cluster& c : r->clusters) {
    EXPECT_EQ(c.tree, 0);
  }
}

TEST(KMeansTest, DeterministicAcrossRuns) {
  Fixture f;
  KMeansClusterer clusterer(&f.forest, &f.index);
  KMeansOptions o;
  o.join_distance = 3;
  auto a = clusterer.Cluster(f.points, f.me_sizes, o);
  auto b = clusterer.Cluster(f.points, f.me_sizes, o);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->clusters.size(), b->clusters.size());
  for (size_t i = 0; i < a->clusters.size(); ++i) {
    EXPECT_EQ(a->clusters[i].members, b->clusters[i].members);
    EXPECT_EQ(a->clusters[i].centroid, b->clusters[i].centroid);
  }
}

TEST(KMeansTest, PointsInTreesWithoutCentroidsAreUnassigned) {
  Fixture f;
  // Remove the scarce bit from tree 1: MEmin seeds no centroid there.
  for (auto& p : f.points) {
    if (p.node.tree == 1) p.personal_mask = 0b10;
  }
  f.me_sizes = {2, 8};
  KMeansClusterer clusterer(&f.forest, &f.index);
  auto r = clusterer.Cluster(f.points, f.me_sizes, NoRecluster());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.unassigned_points, 2u);
  for (const Cluster& c : r->clusters) EXPECT_EQ(c.tree, 0);
}

TEST(KMeansTest, ConvergesAndRecordsStats) {
  Fixture f;
  KMeansClusterer clusterer(&f.forest, &f.index);
  KMeansOptions o;
  o.max_iterations = 25;
  auto r = clusterer.Cluster(f.points, f.me_sizes, o);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->stats.iterations, 2);
  EXPECT_LT(r->stats.iterations, 25);  // converged before the cap
  EXPECT_EQ(r->stats.switches_per_iteration.size(),
            static_cast<size_t>(r->stats.iterations));
  // Last iteration is stable.
  EXPECT_EQ(r->stats.switches_per_iteration.back(), 0u);
  EXPECT_GE(r->stats.time_seconds, 0.0);
}

TEST(KMeansTest, ValidatesOptions) {
  Fixture f;
  KMeansClusterer clusterer(&f.forest, &f.index);
  KMeansOptions bad;
  bad.join_distance = -1;
  EXPECT_FALSE(clusterer.Cluster(f.points, f.me_sizes, bad).ok());
  bad = KMeansOptions{};
  bad.convergence_fraction = 2.0;
  EXPECT_FALSE(clusterer.Cluster(f.points, f.me_sizes, bad).ok());
  bad = KMeansOptions{};
  bad.max_iterations = 0;
  EXPECT_FALSE(clusterer.Cluster(f.points, f.me_sizes, bad).ok());
}

TEST(KMeansTest, EmptyPointsYieldEmptyResult) {
  Fixture f;
  KMeansClusterer clusterer(&f.forest, &f.index);
  auto r = clusterer.Cluster({}, f.me_sizes, KMeansOptions{});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->clusters.empty());
}

TEST(KMeansTest, NoMappingElementsIsAnError) {
  Fixture f;
  KMeansClusterer clusterer(&f.forest, &f.index);
  std::vector<size_t> zero_sizes = {0, 0};
  EXPECT_FALSE(clusterer.Cluster(f.points, zero_sizes, KMeansOptions{}).ok());
}

TEST(TreeClustersTest, OneClusterPerTreeWithPoints) {
  Fixture f;
  ClusteringResult r = TreeClusters(f.points);
  ASSERT_EQ(r.clusters.size(), 2u);
  EXPECT_EQ(r.clusters[0].tree, 0);
  EXPECT_EQ(r.clusters[0].members.size(), 8u);
  EXPECT_EQ(r.clusters[0].union_mask, 0b11u);
  EXPECT_EQ(r.clusters[1].tree, 1);
  EXPECT_EQ(r.clusters[1].members.size(), 2u);
  // Centroid is the tree root.
  EXPECT_EQ(r.clusters[0].centroid, (NodeRef{0, 0}));
}

TEST(TreeClustersTest, SkipsTreesWithoutPoints) {
  Fixture f;
  // Only tree-1 points.
  std::vector<ClusterPoint> sub(f.points.begin() + 8, f.points.end());
  ClusteringResult r = TreeClusters(sub);
  ASSERT_EQ(r.clusters.size(), 1u);
  EXPECT_EQ(r.clusters[0].tree, 1);
}

TEST(TreeClustersTest, Empty) {
  EXPECT_TRUE(TreeClusters({}).clusters.empty());
}

}  // namespace
}  // namespace xsm::cluster
