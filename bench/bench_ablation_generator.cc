// Ablation: the mapping generator's bound (paper §3 uses Branch & Bound and
// §5 notes B&B "tested 30 times less partial mappings" than the full
// space).
//
// Runs exhaustive generation and B&B on the medium-clusters variant and
// the non-clustered baseline. B&B must return exactly the exhaustive
// result with no more partial mappings; the harness exits 1 otherwise, so
// CI runs it as a gate.
#include <cstdio>

#include "experiment_common.h"

int main() {
  using namespace xsm;
  using namespace xsm::bench;

  auto setup = MakeCanonicalSetup();
  PrintBanner("Ablation: mapping generator (exhaustive vs B&B)", *setup);

  int failures = 0;
  for (Variant variant : {Variant::kMedium, Variant::kTree}) {
    std::printf("--- %s clusters ---\n", VariantName(variant));
    std::printf("%-14s %16s %16s %12s %10s\n", "algorithm", "partials",
                "complete", "mappings", "time (s)");
    core::MatchResult runs[2];
    const struct {
      const char* name;
      generate::Algorithm algorithm;
    } kAlgos[] = {{"exhaustive", generate::Algorithm::kExhaustive},
                  {"b&b", generate::Algorithm::kBranchAndBound}};
    for (int a = 0; a < 2; ++a) {
      core::MatchOptions options = VariantOptions(variant);
      options.generator.algorithm = kAlgos[a].algorithm;
      auto result = setup->system->Match(setup->personal, options);
      if (!result.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", kAlgos[a].name,
                     result.status().ToString().c_str());
        return 1;
      }
      runs[a] = std::move(*result);
      const generate::GeneratorCounters& counters = runs[a].stats.generator;
      const double fewer =
          counters.partial_mappings > 0
              ? static_cast<double>(
                    runs[0].stats.generator.partial_mappings) /
                    static_cast<double>(counters.partial_mappings)
              : 0;
      std::printf("%-14s %16llu %16llu %12zu %10.3f   (%.1fx fewer "
                  "partials)\n",
                  kAlgos[a].name,
                  static_cast<unsigned long long>(counters.partial_mappings),
                  static_cast<unsigned long long>(counters.complete_mappings),
                  runs[a].stats.num_mappings,
                  runs[a].stats.time_generation_seconds, fewer);
    }
    const core::MatchResult& exhaustive = runs[0];
    const core::MatchResult& bnb = runs[1];
    bool same = bnb.stats.num_mappings == exhaustive.stats.num_mappings &&
                bnb.mappings.size() == exhaustive.mappings.size();
    for (size_t i = 0; same && i < bnb.mappings.size(); ++i) {
      same = bnb.mappings[i].SameAssignment(exhaustive.mappings[i]) &&
             bnb.mappings[i].delta == exhaustive.mappings[i].delta;
    }
    if (!same) {
      std::fprintf(stderr, "FAIL %s: b&b returned %zu mappings, exhaustive "
                   "%zu, or a different ranked list\n",
                   VariantName(variant), bnb.stats.num_mappings,
                   exhaustive.stats.num_mappings);
      ++failures;
    }
    if (bnb.stats.generator.partial_mappings >
        exhaustive.stats.generator.partial_mappings) {
      std::fprintf(stderr, "FAIL %s: b&b expanded more partial mappings "
                   "than exhaustive\n", VariantName(variant));
      ++failures;
    }
    std::printf("\n");
  }
  std::printf("paper reference: on tree clusters, B&B tested ~30x fewer "
              "partial mappings than the search-space size.\n");
  return failures == 0 ? 0 : 1;
}
