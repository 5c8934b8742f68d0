// Recovery benchmark: crash-restart latency as a function of
// deltas-since-checkpoint — the axis WAL compaction exists to bound.
//
// Scenario per measured point K:
//   checkpoint the repository at generation 0, journal K acknowledged
//   deltas, then "crash" (the service is dropped with no save) and time
//   live::RepositoryManager::Recover — snapshot load, CRC-verified journal
//   replay, fingerprint re-verification of every replayed generation, and
//   journal re-attachment all included; nothing cheats.
// The comparison line is the restart a deployment has without the store +
// journal: re-parse the forest text and rebuild every index and dictionary
// from scratch — which additionally LOSES all K deltas, so beating it on
// time understates the case.
//
// Hard gates (every mode): zero acknowledged-delta loss — every recovery
// lands exactly on the last acknowledged generation with the acknowledged
// fingerprint, replaying exactly K records with no skips and no torn tail;
// sampled queries identical between the recovered and the never-crashed
// repository. Timing: recovery from a fresh checkpoint (K=0) must beat the
// cold rebuild in every mode, and by ≥2x in full mode (smoke corpora are
// too small for stable ratios). Replay cost at larger K is reported as the
// trend that motivates compaction, not gated — it scales with K by design.
//
// Emits a machine-readable JSON trajectory point (default:
// BENCH_recovery.json) so recovery latencies are tracked across commits.
//
// Usage: bench_recovery [--smoke] [--no-timing-gate] [--out PATH]
//                       [corpus_elements]
//   --smoke   small corpus, fewer repeats (CI exercise of the recovery
//             path and the JSON emitter); correctness gates still apply.
//   --no-timing-gate
//             keep every correctness gate but do not fail on the timing
//             comparisons — for instrumented builds (ASan/UBSan CI jobs)
//             where timing ratios mean nothing.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "experiment_common.h"
#include "live/repository_delta.h"
#include "live/repository_manager.h"
#include "repo/synthetic.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"
#include "schema/serialization.h"
#include "service/match_service.h"
#include "service/repository_snapshot.h"
#include "store/snapshot_store.h"
#include "util/io.h"
#include "util/timer.h"

namespace xsm {
namespace {

const char* kQuerySpecs[] = {
    "name(address,email)",
    "invoice(number,vendor(name,tax))",
    "customer(name,address(city,zip))",
};
constexpr size_t kNumQuerySpecs = sizeof(kQuerySpecs) / sizeof(kQuerySpecs[0]);

/// A small rotating vocabulary of delta payloads: enough shape variety to
/// exercise the incremental dictionary on replay, deterministic so the
/// journaled chain and the never-crashed chain are the same by content.
std::string DeltaSpec(size_t i) {
  static const char* kShapes[] = {
      "record%zu(created,author(name,email),tags)",
      "invoice%zu(number,total,vendor(name,address))",
      "shipment%zu(carrier,eta,items(sku,qty))",
      "profile%zu(handle,contact(phone,email),verified)",
  };
  char buf[96];
  std::snprintf(buf, sizeof(buf), kShapes[i % 4], i);
  return buf;
}

live::RepositoryDelta MakeDelta(size_t i, schema::TreeId base_trees) {
  live::DeltaBuilder builder;
  auto tree = schema::ParseTreeSpec(DeltaSpec(i));
  if (!tree.ok()) {
    std::fprintf(stderr, "%s\n", tree.status().ToString().c_str());
    std::exit(1);
  }
  if (i % 4 == 3) {
    // Replacements keep the replay path honest: they rebuild an existing
    // tree's index/labeling, not just append. Base-generation TreeIds
    // 0..base_trees-1 stay valid because nothing here removes trees.
    builder.ReplaceTree(
        static_cast<schema::TreeId>((i * 7) % static_cast<size_t>(base_trees)),
        std::move(*tree), "bench://replaced");
  } else {
    builder.AddTree(std::move(*tree), "bench://added");
  }
  auto delta = builder.Build();
  if (!delta.ok()) {
    std::fprintf(stderr, "%s\n", delta.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*delta);
}

/// Ranks/scores of one query against one snapshot, for identity checks.
std::vector<std::pair<schema::TreeId, double>> QueryDigest(
    const std::shared_ptr<const service::RepositorySnapshot>& snapshot,
    const char* spec) {
  service::MatchService service(snapshot);
  service::MatchRequest query;
  query.id = std::string("recovery-") + spec;
  query.personal = *schema::ParseTreeSpec(spec);
  query.options.delta = 0.6;
  query.options.top_n = 10;
  auto result = service.Run(query);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<std::pair<schema::TreeId, double>> digest;
  for (const auto& mapping : result->result.mappings) {
    digest.emplace_back(mapping.tree, mapping.delta);
  }
  return digest;
}

struct Acked {
  uint64_t generation = 0;
  uint64_t fingerprint = 0;
};

struct Row {
  size_t deltas = 0;
  double recover_seconds = 0;
  double speedup_vs_cold = 0;
  live::RecoveryReport report;
};

}  // namespace
}  // namespace xsm

int main(int argc, char** argv) {
  using namespace xsm;
  namespace fs = std::filesystem;

  bool smoke = false;
  bool timing_gate = true;
  std::string out_path = "BENCH_recovery.json";
  size_t elements = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--no-timing-gate") == 0) {
      timing_gate = false;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      elements = static_cast<size_t>(std::atol(argv[i]));
    }
  }
  if (elements == 0) elements = smoke ? 1500 : 8000;
  const int repeats = smoke ? 3 : 7;
  const std::vector<size_t> points =
      smoke ? std::vector<size_t>{0, 4, 16}
            : std::vector<size_t>{0, 16, 64, 256};
  const size_t max_deltas = points.back();

  repo::SyntheticRepoOptions repo_options;
  repo_options.target_elements = elements;
  repo_options.seed = bench::kExperimentSeed;
  auto generated = repo::GenerateSyntheticRepository(repo_options);
  if (!generated.ok()) {
    std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
    return 1;
  }

  const fs::path dir = fs::temp_directory_path() / "bench_recovery_state";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  const std::string text_path = (dir / "repository.forest").string();
  const std::string snap_path = (dir / "checkpoint.snap").string();
  const std::string wal_path = (dir / "journal.wal").string();

  // The forest text a cold restart would re-parse (xsm_cli gen/convert
  // output), saved before the forest is moved into the service.
  Status saved_text = schema::SaveForestToFile(*generated, text_path);
  if (!saved_text.ok()) {
    std::fprintf(stderr, "%s\n", saved_text.ToString().c_str());
    return 1;
  }

  // The journaled chain is the serving one: MatchService's write path
  // (build, journal append + fsync, publish).
  service::MatchServiceOptions chain_options;
  chain_options.num_threads = 1;
  auto chain = service::MatchService::Create(std::move(*generated),
                                             chain_options);
  if (!chain.ok()) {
    std::fprintf(stderr, "%s\n", chain.status().ToString().c_str());
    return 1;
  }
  const schema::TreeId base_trees =
      static_cast<schema::TreeId>((*chain)->CurrentSnapshot()->num_trees());
  const size_t base_nodes = (*chain)->CurrentSnapshot()->total_nodes();

  std::printf(
      "recovery: checkpoint + journal replay vs cold rebuild "
      "(%zu elements / %u trees, repeat=%d)\n\n",
      (*chain)->CurrentSnapshot()->total_nodes(),
      static_cast<unsigned>(base_trees), repeats);

  // --- Cold restart: parse forest text, rebuild every index. ----------------
  // This path also loses all journaled deltas; it is the floor, not a peer.
  double best_cold = 0;
  uint64_t cold_fingerprint = 0;
  for (int r = 0; r < repeats; ++r) {
    Timer cold_timer;
    auto loaded = schema::LoadForestFromFile(text_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    auto snapshot = service::RepositorySnapshot::Create(std::move(*loaded));
    double cold_seconds = cold_timer.ElapsedSeconds();
    if (!snapshot.ok()) {
      std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
      return 1;
    }
    cold_fingerprint = (*snapshot)->fingerprint();
    if (r == 0 || cold_seconds < best_cold) best_cold = cold_seconds;
  }
  if (cold_fingerprint != (*chain)->CurrentSnapshot()->fingerprint()) {
    std::printf("COLD REBUILD FINGERPRINT MISMATCH\n");
    return 1;
  }

  // --- Checkpoint + journal, then grow the acknowledged chain. --------------
  Timer save_timer;
  auto checkpoint = store::SaveSnapshotToFile(*(*chain)->CurrentSnapshot(), snap_path);
  double save_seconds = save_timer.ElapsedSeconds();
  if (!checkpoint.ok()) {
    std::fprintf(stderr, "%s\n", checkpoint.status().ToString().c_str());
    return 1;
  }
  Status attached = (*chain)->AttachWal(wal_path);
  if (!attached.ok()) {
    std::fprintf(stderr, "%s\n", attached.ToString().c_str());
    return 1;
  }

  // A twin chain with no journal measures what the fsync-per-delta append
  // costs the write path (informational, not gated).
  auto reloaded = schema::LoadForestFromFile(text_path);
  if (!reloaded.ok()) {
    std::fprintf(stderr, "%s\n", reloaded.status().ToString().c_str());
    return 1;
  }
  auto unjournaled =
      service::MatchService::Create(std::move(*reloaded), chain_options);
  if (!unjournaled.ok()) {
    std::fprintf(stderr, "%s\n", unjournaled.status().ToString().c_str());
    return 1;
  }

  // Apply max_deltas acknowledged deltas, snapshotting the journal file at
  // each measured K: every append is fsync'd before acknowledgement, so
  // the copy is exactly the journal a crash at that instant leaves behind.
  std::vector<Acked> acked(max_deltas + 1);
  acked[0] = {0, (*chain)->CurrentSnapshot()->fingerprint()};
  std::vector<std::string> wal_at;
  for (size_t k : points) {
    wal_at.push_back((dir / ("journal_k" + std::to_string(k) + ".wal"))
                         .string());
  }
  double journaled_apply_seconds = 0, unjournaled_apply_seconds = 0;
  size_t next_point = 0;
  for (size_t k = 0; k <= max_deltas; ++k) {
    if (next_point < points.size() && points[next_point] == k) {
      if (!fs::copy_file(wal_path, wal_at[next_point],
                         fs::copy_options::overwrite_existing, ec) ||
          ec) {
        std::fprintf(stderr, "cannot copy journal at K=%zu\n", k);
        return 1;
      }
      ++next_point;
    }
    if (k == max_deltas) break;
    live::RepositoryDelta delta = MakeDelta(k, base_trees);
    Timer journaled_timer;
    auto report = (*chain)->ApplyDelta(delta);
    journaled_apply_seconds += journaled_timer.ElapsedSeconds();
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    acked[k + 1] = {report->generation, report->fingerprint};
    Timer unjournaled_timer;
    auto twin = (*unjournaled)->ApplyDelta(delta);
    unjournaled_apply_seconds += unjournaled_timer.ElapsedSeconds();
    if (!twin.ok()) {
      std::fprintf(stderr, "%s\n", twin.status().ToString().c_str());
      return 1;
    }
  }

  // --- Recover at every measured K. -----------------------------------------
  // Each journal copy is the on-disk state after a kill with K deltas
  // acknowledged since the checkpoint; the recovered chain must land on
  // the acknowledged generation and fingerprint exactly.
  bool zero_loss = true;
  bool fingerprints_identical = true;
  std::vector<Row> rows;
  std::shared_ptr<const service::RepositorySnapshot> recovered_final;
  for (size_t p = 0; p < points.size(); ++p) {
    const size_t k = points[p];
    Row row;
    row.deltas = k;
    for (int r = 0; r < repeats; ++r) {
      live::RecoveryReport report;
      Timer recover_timer;
      auto recovered = live::RepositoryManager::Recover(
          util::io::Env::Default(), snap_path, wal_at[p], &report);
      double recover_seconds = recover_timer.ElapsedSeconds();
      if (!recovered.ok()) {
        std::fprintf(stderr, "recover at K=%zu: %s\n", k,
                     recovered.status().ToString().c_str());
        return 1;
      }
      zero_loss = zero_loss &&
                  report.records_replayed == k &&
                  report.records_skipped == 0 && !report.torn_tail &&
                  (*recovered)->CurrentGeneration() == acked[k].generation;
      fingerprints_identical =
          fingerprints_identical &&
          (*recovered)->Current()->fingerprint() == acked[k].fingerprint;
      if (r == 0 || recover_seconds < row.recover_seconds) {
        row.recover_seconds = recover_seconds;
        row.report = report;
      }
      if (k == max_deltas) recovered_final = (*recovered)->Current();
    }
    row.speedup_vs_cold = best_cold / row.recover_seconds;
    rows.push_back(row);
  }

  // Query-for-query identity between the recovered repository at the
  // largest K and the chain that never crashed.
  bool queries_identical = true;
  for (size_t s = 0; s < kNumQuerySpecs; ++s) {
    queries_identical =
        queries_identical &&
        QueryDigest(recovered_final, kQuerySpecs[s]) ==
            QueryDigest((*chain)->CurrentSnapshot(), kQuerySpecs[s]);
  }

  const double journal_overhead =
      unjournaled_apply_seconds > 0
          ? journaled_apply_seconds / unjournaled_apply_seconds
          : 0;
  const double warm_load_seconds = rows.front().recover_seconds;

  std::printf("%-34s %10.3f ms  (loses all journaled deltas)\n",
              "cold rebuild (forest text):", 1e3 * best_cold);
  std::printf("%-34s %10.3f ms\n", "checkpoint save:", 1e3 * save_seconds);
  std::printf("%-34s %10.2fx  (fsync-per-delta vs bare apply)\n",
              "journaling write overhead:", journal_overhead);
  std::printf("\n%12s %14s %16s %14s\n", "deltas", "recover (ms)",
              "per-delta (ms)", "vs cold");
  for (const Row& row : rows) {
    const double per_delta =
        row.deltas == 0
            ? 0
            : 1e3 * (row.recover_seconds - warm_load_seconds) /
                  static_cast<double>(row.deltas);
    std::printf("%12zu %14.3f %16.4f %13.2fx\n", row.deltas,
                1e3 * row.recover_seconds, per_delta < 0 ? 0 : per_delta,
                row.speedup_vs_cold);
  }
  std::printf("\nzero loss: %s | fingerprints: %s | queries identical: %s\n",
              zero_loss ? "ok" : "ACKNOWLEDGED DELTA LOST",
              fingerprints_identical ? "ok" : "MISMATCH",
              queries_identical ? "yes" : "NO");

  // --- JSON trajectory point. -----------------------------------------------
  const double target_speedup = 2.0;
  const bool meets_target = rows.front().speedup_vs_cold >= target_speedup;
  std::string json = "{\n  \"bench\": \"recovery\",\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"mode\": \"%s\",\n"
                "  \"elements\": %zu,\n  \"trees\": %u,\n  \"repeat\": %d,\n"
                "  \"cold_rebuild_ms\": %.4f,\n"
                "  \"checkpoint_save_ms\": %.4f,\n"
                "  \"journal_overhead\": %.4f,\n"
                "  \"rows\": [\n",
                smoke ? "smoke" : "full", base_nodes,
                static_cast<unsigned>(base_trees), repeats, 1e3 * best_cold,
                1e3 * save_seconds, journal_overhead);
  json += buf;
  for (size_t p = 0; p < rows.size(); ++p) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"deltas_since_checkpoint\": %zu, "
                  "\"recover_ms\": %.4f, "
                  "\"records_replayed\": %zu, "
                  "\"speedup_recover_vs_cold_rebuild\": %.3f}%s\n",
                  rows[p].deltas, 1e3 * rows[p].recover_seconds,
                  rows[p].report.records_replayed, rows[p].speedup_vs_cold,
                  p + 1 == rows.size() ? "" : ",");
    json += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  ],\n"
                "  \"zero_loss\": %s,\n"
                "  \"fingerprints_identical\": %s,\n"
                "  \"queries_identical\": %s,\n"
                "  \"target_speedup\": %.1f,\n"
                "  \"meets_target\": %s\n"
                "}\n",
                zero_loss ? "true" : "false",
                fingerprints_identical ? "true" : "false",
                queries_identical ? "true" : "false", target_speedup,
                meets_target ? "true" : "false");
  json += buf;

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }

  fs::remove_all(dir, ec);

  // Hard gates. Correctness first (every mode): recovery must land every
  // measured K exactly on the acknowledged chain — anything else is an
  // acknowledged delta lost or a divergent replay — and the recovered
  // repository must answer queries identically to the never-crashed one.
  // Then performance: recovery from a fresh checkpoint must beat the cold
  // rebuild (which also loses the deltas); the ≥2x bar applies to
  // full-size corpora. Replay at larger K is the compaction motivation
  // and is reported, not gated.
  if (!zero_loss || !fingerprints_identical) {
    std::printf("ZERO-LOSS GATE FAILED\n");
    return 1;
  }
  if (!queries_identical) {
    std::printf("QUERY MISMATCH between recovered and never-crashed chain\n");
    return 1;
  }
  if (timing_gate && rows.front().recover_seconds >= best_cold) {
    std::printf("RECOVERY SLOWER THAN COLD REBUILD (%.3f ms vs %.3f ms)\n",
                1e3 * rows.front().recover_seconds, 1e3 * best_cold);
    return 1;
  }
  if (timing_gate && !smoke && !meets_target) {
    std::printf("SPEEDUP TARGET MISSED: %.2fx < %.1fx\n",
                rows.front().speedup_vs_cold, target_speedup);
    return 1;
  }
  std::printf("recovery verified: zero acknowledged-delta loss at every "
              "measured journal depth, %.2fx faster than the cold rebuild "
              "from a fresh checkpoint\n",
              rows.front().speedup_vs_cold);
  return 0;
}
