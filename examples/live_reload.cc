// Live reload: serve queries while the repository evolves underneath them.
//
// Demonstrates the xsm::live subsystem end to end:
//   1. a MatchService over an initial repository (generation 0),
//   2. queries answered — and their cluster states cached — per generation,
//   3. a RepositoryDelta ingesting a schema batch copy-on-write (untouched
//      trees keep their index/dictionary state; watch trees_reused),
//   4. the atomic generation swap: new queries see the new content, and
//      the fingerprint-namespaced caches guarantee no stale cluster state
//      ever crosses generations — while a delta that restores earlier
//      content gets its warm cache back.
//
//   $ ./examples/example_live_reload
#include <cstdio>
#include <string>

#include "xsm/xsm.h"

using namespace xsm;

namespace {

void PrintTop(service::MatchService* service, const std::string& id) {
  // Run against one held snapshot and keep it while formatting: a
  // concurrent delta may retire the generation the result's node refs
  // point into.
  auto snapshot = service->CurrentSnapshot();
  service::MatchRequest query;
  query.id = id;
  query.personal = *schema::ParseTreeSpec("name(address,email)");
  query.options.delta = 0.3;
  query.options.top_n = 3;
  query.options.clustering = core::ClusteringMode::kTreeClusters;

  auto result = service->RunOn(snapshot, query, core::ExecutionControl());
  if (!result.ok()) {
    std::fprintf(stderr, "match failed: %s\n",
                 result.status().ToString().c_str());
    return;
  }
  std::printf("[gen %llu] query %s: %zu mappings\n",
              static_cast<unsigned long long>(snapshot->generation()),
              id.c_str(), result->mappings.size());
  int rank = 1;
  for (const auto& mapping : result->mappings) {
    std::printf("  %d. %s\n", rank++,
                generate::MappingToString(mapping, query.personal,
                                          snapshot->forest())
                    .c_str());
  }
}

void PrintCache(service::MatchService* service, const char* when) {
  service::ServiceStats stats = service->stats();
  std::printf(
      "cache %s: %llu hits, %llu misses, %zu states resident in %zu "
      "namespaces\n\n",
      when, static_cast<unsigned long long>(stats.cache.hits),
      static_cast<unsigned long long>(stats.cache.misses),
      stats.cache.entries, stats.cache_namespaces);
}

}  // namespace

int main() {
  // Generation 0: a small hand-built repository.
  schema::SchemaForest repository;
  repository.AddTree(
      *schema::ParseTreeSpec("person(fullName,contact(addr,mail))"),
      "person.xsd");
  repository.AddTree(
      *schema::ParseTreeSpec("lib(book(title,authorName),address)"),
      "library.xsd");

  auto service = service::MatchService::Create(std::move(repository));
  if (!service.ok()) {
    std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
    return 1;
  }

  PrintTop(service->get(), "before-ingest");
  PrintTop(service->get(), "before-ingest-again");  // cache hit
  PrintCache(service->get(), "before ingest");

  // Ingest a schema batch while serving: one delta, three operations. The
  // builder validates everything before anything is published.
  live::DeltaBuilder builder;
  builder.AddTree(*schema::ParseTreeSpec("contact(name,address,email)"),
                  "feed:contact");
  builder.AddTree(
      *schema::ParseTreeSpec("customer(name,address(city,zip),email)"),
      "feed:customer");
  builder.ReplaceTree(
      0, *schema::ParseTreeSpec("person(fullName,contact(addr,mail,cell))"),
      "person-v2.xsd");
  auto delta = builder.Build();
  if (!delta.ok()) {
    std::fprintf(stderr, "%s\n", delta.status().ToString().c_str());
    return 1;
  }
  auto report = (*service)->ApplyDelta(*delta);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "published generation %llu in %.2f ms: %zu trees "
      "(%zu reused copy-on-write, %zu rebuilt; %zu name folds copied, "
      "%zu computed)\n\n",
      static_cast<unsigned long long>(report->generation),
      1e3 * report->build_seconds, report->trees_total,
      report->trees_reused, report->trees_rebuilt,
      report->name_entries_copied, report->name_entries_computed);

  // New queries run against the new generation; its cluster cache starts
  // in a fresh namespace (one miss), then warms.
  PrintTop(service->get(), "after-ingest");
  PrintTop(service->get(), "after-ingest-again");
  PrintCache(service->get(), "after ingest");

  // Undo the ingest: removing the added trees and restoring the replaced
  // tree brings back generation 0's *content* — and with it, by
  // fingerprint, generation 0's still-warm cache (no recompute).
  auto current = (*service)->CurrentSnapshot();
  live::DeltaBuilder undo;
  undo.ReplaceTree(
      0, *schema::ParseTreeSpec("person(fullName,contact(addr,mail))"),
      "person.xsd");
  undo.RemoveTree(static_cast<schema::TreeId>(current->num_trees() - 2));
  undo.RemoveTree(static_cast<schema::TreeId>(current->num_trees() - 1));
  auto undo_report = (*service)->ApplyDelta(*undo.Build());
  if (!undo_report.ok()) {
    std::fprintf(stderr, "%s\n", undo_report.status().ToString().c_str());
    return 1;
  }
  std::printf("published generation %llu (content equals generation 0: "
              "fingerprint %016llx)\n\n",
              static_cast<unsigned long long>(undo_report->generation),
              static_cast<unsigned long long>(undo_report->fingerprint));
  PrintTop(service->get(), "after-undo");  // warm: revived namespace
  PrintCache(service->get(), "after undo");
  return 0;
}
