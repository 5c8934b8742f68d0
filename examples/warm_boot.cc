// Warm boot: persist the amortized preprocessing investment across process
// restarts.
//
// Demonstrates the xsm::store subsystem around MatchService:
//   1. "first boot": build a service from raw repository content (the
//      expensive path — parse, TreeIndex labeling, NameDictionary folds,
//      fingerprints), serve a query,
//   2. save-on-shutdown: SaveSnapshot writes the versioned, checksummed
//      snapshot file atomically,
//   3. "second boot": shard::OpenMatcher (the one boot path for a
//      checkpoint, on whichever backend wrote it) loads every derived
//      structure back without rebuilding anything, continues the generation
//      chain with a delta, and serves identical results,
//   4. damage detection: a flipped byte makes the load fail with a typed
//      Corruption error instead of booting on bad state.
//
//   $ ./examples/example_warm_boot
#include <cstdio>
#include <fstream>
#include <string>

#include "xsm/xsm.h"

using namespace xsm;

namespace {

int Run(service::Matcher* service, const char* label) {
  service::RepositoryPinPtr snapshot = service->Pin();
  service::MatchRequest query;
  query.id = "boot-probe";
  query.personal = *schema::ParseTreeSpec("name(address,email)");
  query.options.delta = 0.5;
  query.options.top_n = 3;
  auto result = service->RunOn(snapshot, query, core::ExecutionControl());
  if (!result.ok()) {
    std::fprintf(stderr, "match failed: %s\n",
                 result.status().ToString().c_str());
    return 0;
  }
  std::printf("[%s] generation %llu, %zu trees, %zu elements -> %zu "
              "mappings\n",
              label,
              static_cast<unsigned long long>(snapshot->generation()),
              snapshot->num_trees(), snapshot->total_nodes(),
              result->mappings.size());
  return static_cast<int>(result->mappings.size());
}

}  // namespace

int main() {
  const std::string path = "warm_boot_example.snap";

  // --- First boot: the expensive path. --------------------------------------
  repo::SyntheticRepoOptions options;
  options.target_elements = 3000;
  options.seed = 7;
  auto forest = repo::GenerateSyntheticRepository(options);
  if (!forest.ok()) {
    std::fprintf(stderr, "%s\n", forest.status().ToString().c_str());
    return 1;
  }
  Timer cold_timer;
  auto cold = service::MatchService::Create(std::move(*forest));
  double cold_seconds = cold_timer.ElapsedSeconds();
  if (!cold.ok()) {
    std::fprintf(stderr, "%s\n", cold.status().ToString().c_str());
    return 1;
  }
  int cold_mappings = Run(cold->get(), "cold boot");

  // --- Save on shutdown. ----------------------------------------------------
  auto saved = (*cold)->SaveSnapshot(path);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.status().ToString().c_str());
    return 1;
  }
  std::printf("saved %s: format v%u, generation %llu, %llu bytes\n",
              path.c_str(), saved->format_version,
              static_cast<unsigned long long>(saved->generation),
              static_cast<unsigned long long>(saved->total_bytes));
  cold->reset();  // "process exit"

  // --- Second boot: load, don't rebuild. ------------------------------------
  Timer warm_timer;
  // No journal to replay: the checkpoint alone, at its saved generation.
  auto warm = shard::OpenMatcher(util::io::Env::Default(), path,
                                 /*wal_path=*/"",
                                 service::MatchServiceOptions());
  double warm_seconds = warm_timer.ElapsedSeconds();
  if (!warm.ok()) {
    std::fprintf(stderr, "%s\n", warm.status().ToString().c_str());
    return 1;
  }
  int warm_mappings = Run(warm->get(), "warm boot");
  std::printf("cold build %.1f ms vs warm load %.1f ms (%.1fx); identical "
              "results: %s\n",
              1e3 * cold_seconds, 1e3 * warm_seconds,
              cold_seconds / warm_seconds,
              cold_mappings == warm_mappings ? "yes" : "NO");

  // The chain keeps evolving from the persisted generation.
  live::DeltaBuilder builder;
  builder.AddTree(*schema::ParseTreeSpec("invoice(total,customer(name))"),
                  "feed:invoice");
  auto report = (*warm)->ApplyDelta(*builder.Build());
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("delta after warm start: generation %llu (%zu trees reused, "
              "%zu rebuilt)\n",
              static_cast<unsigned long long>(report->generation),
              report->trees_reused, report->trees_rebuilt);

  // --- Damage is refused, typed. --------------------------------------------
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[bytes.size() / 2] ^= 0x01;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto damaged = shard::OpenMatcher(util::io::Env::Default(), path, "",
                                    service::MatchServiceOptions());
  std::printf("corrupted file refused: %s\n",
              damaged.ok() ? "NOT REFUSED (bug!)"
                           : damaged.status().ToString().c_str());
  std::remove(path.c_str());
  return 0;
}
