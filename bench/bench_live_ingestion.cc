// Live ingestion benchmark: publish latency and warm-query throughput of
// the evolving-repository path (live::RepositoryManager applying
// copy-on-write deltas) across delta sizes, against the from-scratch
// snapshot rebuild it replaces.
//
// For each delta size (a fraction of the repository's trees, half
// replacements, a quarter additions, a quarter removals) the harness
// measures:
//   - incremental publish latency (delta apply + incremental index /
//     dictionary build + atomic swap), via RepositoryManager::Apply
//   - the from-scratch build of the same post-delta forest
//   - the copy-on-write guarantee: untouched trees must not be rebuilt
//     (trees_rebuilt == adds + replaces, exactly), enforced as a hard gate
//   - fingerprint equality between the incremental and scratch snapshots
// and, for the smallest delta, warm-query throughput through MatchService
// before the delta, on the first (cold-namespace) pass after it, and once
// the new generation's cache is warm again.
//
// Emits a machine-readable JSON trajectory point (default:
// BENCH_live_ingestion.json) so publish latencies are tracked across
// commits.
//
// Usage: bench_live_ingestion [--smoke] [--out PATH] [corpus_elements]
//   --smoke   small corpus, fewer repeats (CI exercise of the live path
//             and the JSON emitter); the copy-on-write gate still applies.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "experiment_common.h"
#include "live/repository_delta.h"
#include "live/repository_manager.h"
#include "repo/synthetic.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"
#include "service/match_service.h"
#include "service/repository_snapshot.h"
#include "util/random.h"
#include "util/timer.h"

namespace xsm {
namespace {

const char* kSpecs[] = {
    "name(address,email)",
    "person(name,phone)",
    "book(title,author)",
    "customer(name,address(city,zip))",
    "employee(name,department,email)",
    "product(name,price,@id)",
};
constexpr size_t kNumSpecs = sizeof(kSpecs) / sizeof(kSpecs[0]);

const double kFractions[] = {0.01, 0.05, 0.10, 0.25};
constexpr size_t kNumFractions = sizeof(kFractions) / sizeof(kFractions[0]);

schema::SchemaTree MutateTree(const schema::SchemaTree& tree, Rng* rng) {
  schema::SchemaTree mutated = tree;
  schema::NodeId victim = static_cast<schema::NodeId>(
      rng->Uniform(static_cast<uint64_t>(tree.size())));
  schema::NodeProperties* props = mutated.mutable_props(victim);
  props->name += "Rev";
  props->optional = !props->optional;
  return mutated;
}

/// Composes one delta touching ~`fraction` of `base`'s trees: half
/// replacements, a quarter removals, a quarter additions (drawn from
/// `donors`). Deterministic for a given rng state.
Result<live::RepositoryDelta> ComposeDelta(
    const schema::SchemaForest& base, const schema::SchemaForest& donors,
    double fraction, Rng* rng) {
  const size_t trees = base.num_trees();
  const size_t touched = std::max<size_t>(1, static_cast<size_t>(
                                                 fraction * trees));
  const size_t removes = touched / 4;
  const size_t adds = std::min(touched / 4, donors.num_trees());
  const size_t replaces = std::max<size_t>(1, touched - removes - adds);

  // Distinct targets: a shuffled prefix of the tree ids.
  std::vector<schema::TreeId> ids(trees);
  for (size_t t = 0; t < trees; ++t) ids[t] = static_cast<schema::TreeId>(t);
  for (size_t t = trees - 1; t > 0; --t) {
    std::swap(ids[t], ids[rng->Uniform(t + 1)]);
  }

  live::DeltaBuilder builder;
  size_t next = 0;
  for (size_t i = 0; i < replaces && next < trees; ++i, ++next) {
    builder.ReplaceTree(ids[next], MutateTree(base.tree(ids[next]), rng));
  }
  for (size_t i = 0; i < removes && next < trees; ++i, ++next) {
    builder.RemoveTree(ids[next]);
  }
  for (size_t i = 0; i < adds; ++i) {
    builder.AddTree(donors.tree_ptr(static_cast<schema::TreeId>(i)),
                    "donor:" + std::to_string(i));
  }
  return builder.Build();
}

struct DeltaReport {
  double fraction = 0;
  size_t adds = 0, replaces = 0, removes = 0;
  size_t trees_reused = 0, trees_rebuilt = 0;
  size_t names_copied = 0, names_computed = 0;
  double publish_seconds = 0;  ///< best incremental publish latency
  double scratch_seconds = 0;  ///< best from-scratch build of same forest
  bool cow_ok = false;         ///< untouched trees were never rebuilt
  bool fingerprints_equal = false;
};

struct WarmQueryReport {
  double before_qps = 0;      ///< warm throughput on generation 0
  double cold_pass_seconds = 0;  ///< first pass after the delta (cold ns)
  double after_qps = 0;       ///< warm throughput on generation 1
};

}  // namespace
}  // namespace xsm

int main(int argc, char** argv) {
  using namespace xsm;

  bool smoke = false;
  std::string out_path = "BENCH_live_ingestion.json";
  size_t elements = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      elements = static_cast<size_t>(std::atol(argv[i]));
    }
  }
  if (elements == 0) elements = smoke ? 1500 : 12000;
  const int repeats = smoke ? 1 : 3;

  repo::SyntheticRepoOptions repo_options;
  repo_options.target_elements = elements;
  repo_options.seed = bench::kExperimentSeed;
  auto base = repo::GenerateSyntheticRepository(repo_options);
  if (!base.ok()) {
    std::fprintf(stderr, "%s\n", base.status().ToString().c_str());
    return 1;
  }
  repo::SyntheticRepoOptions donor_options;
  donor_options.target_elements = std::max<size_t>(200, elements / 4);
  donor_options.seed = bench::kExperimentSeed + 17;
  auto donors = repo::GenerateSyntheticRepository(donor_options);
  if (!donors.ok()) {
    std::fprintf(stderr, "%s\n", donors.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "live ingestion: incremental publish vs from-scratch rebuild "
      "(%zu elements / %zu trees, repeat=%d)\n\n",
      base->total_nodes(), base->num_trees(), repeats);
  std::printf("%9s %6s %5s %5s %5s  %10s %10s %8s  %7s %7s\n", "fraction",
              "touch", "rep", "add", "rem", "publish ms", "scratch ms",
              "speedup", "reused", "rebuilt");

  bool all_cow_ok = true;
  bool all_fp_equal = true;
  std::vector<DeltaReport> reports;
  for (size_t f = 0; f < kNumFractions; ++f) {
    DeltaReport report;
    report.fraction = kFractions[f];
    double best_publish = 0, best_scratch = 0;
    for (int r = 0; r < repeats; ++r) {
      // Fresh manager per repeat so every publish starts from the same
      // generation-0 state; same rng seed so the delta is identical.
      auto manager = live::RepositoryManager::Create(*base);
      if (!manager.ok()) {
        std::fprintf(stderr, "%s\n", manager.status().ToString().c_str());
        return 1;
      }
      Rng rng(bench::kExperimentSeed * 31 + f);
      auto delta = ComposeDelta(*base, *donors, kFractions[f], &rng);
      if (!delta.ok()) {
        std::fprintf(stderr, "%s\n", delta.status().ToString().c_str());
        return 1;
      }
      const size_t base_trees = (*manager)->Current()->num_trees();

      Timer publish_timer;
      auto applied = (*manager)->Apply(*delta);
      double publish = publish_timer.ElapsedSeconds();
      if (!applied.ok()) {
        std::fprintf(stderr, "%s\n", applied.status().ToString().c_str());
        return 1;
      }

      // From-scratch comparison: same post-delta forest (payloads shared,
      // so only index/dictionary/fingerprint work is timed — exactly what
      // the incremental path avoids).
      schema::SchemaForest post = applied->snapshot->forest();
      Timer scratch_timer;
      auto scratch = service::RepositorySnapshot::Create(std::move(post));
      double scratch_seconds = scratch_timer.ElapsedSeconds();
      if (!scratch.ok()) {
        std::fprintf(stderr, "%s\n", scratch.status().ToString().c_str());
        return 1;
      }

      if (r == 0) {
        report.adds = delta->num_adds();
        report.replaces = delta->num_replaces();
        report.removes = delta->num_removes();
        report.trees_reused = applied->trees_reused;
        report.trees_rebuilt = applied->trees_rebuilt;
        report.names_copied = applied->name_entries_copied;
        report.names_computed = applied->name_entries_computed;
        // The copy-on-write guarantee, exactly: every added/replaced tree
        // rebuilt, every untouched tree reused, nothing else.
        report.cow_ok =
            applied->trees_rebuilt ==
                delta->num_adds() + delta->num_replaces() &&
            applied->trees_reused ==
                base_trees - delta->num_replaces() - delta->num_removes();
        report.fingerprints_equal =
            applied->fingerprint == (*scratch)->fingerprint();
        best_publish = publish;
        best_scratch = scratch_seconds;
      } else {
        best_publish = std::min(best_publish, publish);
        best_scratch = std::min(best_scratch, scratch_seconds);
      }
    }
    report.publish_seconds = best_publish;
    report.scratch_seconds = best_scratch;
    all_cow_ok = all_cow_ok && report.cow_ok;
    all_fp_equal = all_fp_equal && report.fingerprints_equal;

    std::printf("%8.0f%% %6zu %5zu %5zu %5zu  %10.3f %10.3f %7.2fx  %7zu "
                "%7zu%s%s\n",
                100 * report.fraction,
                report.adds + report.replaces + report.removes,
                report.replaces, report.adds, report.removes,
                1e3 * report.publish_seconds, 1e3 * report.scratch_seconds,
                report.scratch_seconds / report.publish_seconds,
                report.trees_reused, report.trees_rebuilt,
                report.cow_ok ? "" : "  COW VIOLATION",
                report.fingerprints_equal ? "" : "  FINGERPRINT MISMATCH");
    reports.push_back(report);
  }

  // Warm-query throughput across a small (<= 10%) delta.
  WarmQueryReport warm;
  {
    auto service = service::MatchService::Create(*base);
    if (!service.ok()) {
      std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
      return 1;
    }
    std::vector<service::MatchRequest> queries;
    for (size_t s = 0; s < kNumSpecs; ++s) {
      service::MatchRequest query;
      query.id = "warm-" + std::to_string(s);
      query.personal = *schema::ParseTreeSpec(kSpecs[s]);
      query.options.delta = 0.7;
      query.options.top_n = 5;
      queries.push_back(std::move(query));
    }
    auto run_pass = [&]() {
      Timer timer;
      for (const service::MatchRequest& query : queries) {
        auto result = (*service)->Run(query);
        if (!result.ok()) {
          std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
          std::exit(1);
        }
      }
      return timer.ElapsedSeconds();
    };
    run_pass();  // fill generation 0's cache
    double before = run_pass();
    warm.before_qps = static_cast<double>(queries.size()) / before;

    Rng rng(bench::kExperimentSeed * 131);
    auto delta = ComposeDelta((*service)->CurrentSnapshot()->forest(),
                              *donors, 0.10, &rng);
    if (!delta.ok() || !(*service)->ApplyDelta(*delta).ok()) {
      std::fprintf(stderr, "warm-query delta failed\n");
      return 1;
    }
    warm.cold_pass_seconds = run_pass();  // new namespace: rebuilds states
    double after = run_pass();            // warm again
    warm.after_qps = static_cast<double>(queries.size()) / after;
  }
  std::printf(
      "\nwarm query throughput: %.1f q/s before delta | first post-delta "
      "pass %.1f ms (cold namespace) | %.1f q/s once warm\n",
      warm.before_qps, 1e3 * warm.cold_pass_seconds, warm.after_qps);

  // --- JSON trajectory point. ----------------------------------------------
  std::string json;
  char buf[512];
  json += "{\n";
  json += "  \"bench\": \"live_ingestion\",\n";
  json += smoke ? "  \"mode\": \"smoke\",\n" : "  \"mode\": \"full\",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"elements\": %zu,\n  \"trees\": %zu,\n"
                "  \"repeat\": %d,\n  \"deltas\": [\n",
                base->total_nodes(), base->num_trees(), repeats);
  json += buf;
  for (size_t i = 0; i < reports.size(); ++i) {
    const DeltaReport& r = reports[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"fraction\": %.2f, \"adds\": %zu, \"replaces\": %zu, "
        "\"removes\": %zu,\n"
        "      \"publish_ms\": %.4f, \"scratch_ms\": %.4f, "
        "\"speedup_vs_scratch\": %.3f,\n"
        "      \"trees_reused\": %zu, \"trees_rebuilt\": %zu, "
        "\"names_copied\": %zu, \"names_computed\": %zu,\n"
        "      \"untouched_trees_rebuilt\": %s, "
        "\"fingerprint_equals_scratch\": %s}%s\n",
        r.fraction, r.adds, r.replaces, r.removes,
        1e3 * r.publish_seconds, 1e3 * r.scratch_seconds,
        r.scratch_seconds / r.publish_seconds, r.trees_reused,
        r.trees_rebuilt, r.names_copied, r.names_computed,
        r.cow_ok ? "false" : "true", r.fingerprints_equal ? "true" : "false",
        i + 1 < reports.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"warm_query\": {\"before_qps\": %.2f, "
                "\"cold_pass_ms\": %.3f, \"after_qps\": %.2f},\n"
                "  \"cow_verified\": %s,\n"
                "  \"fingerprints_verified\": %s\n}\n",
                warm.before_qps, 1e3 * warm.cold_pass_seconds,
                warm.after_qps, all_cow_ok ? "true" : "false",
                all_fp_equal ? "true" : "false");
  json += buf;

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }

  // Hard gates, smoke included: these are correctness properties of the
  // copy-on-write path, not performance targets.
  if (!all_cow_ok) {
    std::printf("COW VIOLATION: untouched trees were rebuilt\n");
    return 1;
  }
  if (!all_fp_equal) {
    std::printf("FINGERPRINT MISMATCH between incremental and scratch\n");
    return 1;
  }
  std::printf("copy-on-write verified: untouched trees never rebuilt; "
              "incremental fingerprints match scratch\n");
  return 0;
}
