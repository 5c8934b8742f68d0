// Snapshot store benchmark: cold boot versus warm boot — the restart cost
// the store exists to eliminate.
//
// Cold boot is measured on both restart paths a deployment has without the
// store:
//   - raw XSD text (the paper-world corpus shape): parse every .xsd file,
//     then rebuild TreeIndex labelings, NameDictionary and fingerprints
//   - the forest text snapshot (xsm_cli gen/convert output): cheaper parse,
//     same full index/dictionary rebuild
// Warm boot is store::LoadSnapshotFromFile — CRC verification, decode, and
// the end-to-end fingerprint re-check included; nothing cheats. The XSD
// corpus is emitted by an exact round-trip writer, so all three paths boot
// the *same repository* (enforced by fingerprint equality, a hard gate).
//
// Hard gates: fingerprints identical across every boot path, sampled
// queries identical between warm and rebuilt snapshots, warm load faster
// than both cold paths in every mode, and ≥5x versus the raw-XSD cold boot
// in full mode (smoke corpora are too small for stable ratios).
//
// Emits a machine-readable JSON trajectory point (default:
// BENCH_store.json) so boot latencies are tracked across commits.
//
// Usage: bench_store [--smoke] [--no-timing-gate] [--out PATH]
//                    [corpus_elements]
//   --smoke   small corpus, fewer repeats (CI exercise of the store path
//             and the JSON emitter); correctness gates still apply.
//   --no-timing-gate
//             keep every correctness gate but do not fail on the timing
//             comparisons — for instrumented builds (ASan/UBSan CI jobs)
//             where timing ratios mean nothing.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "experiment_common.h"
#include "repo/loader.h"
#include "repo/synthetic.h"
#include "schema/schema_forest.h"
#include "schema/schema_tree.h"
#include "schema/serialization.h"
#include "service/match_service.h"
#include "service/repository_snapshot.h"
#include "store/snapshot_store.h"
#include "util/timer.h"

namespace xsm {
namespace {

const char* kSpecs[] = {
    "name(address,email)",
    "book(title,author)",
    "customer(name,address(city,zip))",
};
constexpr size_t kNumSpecs = sizeof(kSpecs) / sizeof(kSpecs[0]);

// --- Exact round-trip XSD writer. -------------------------------------------
// Emits one schema tree as an xs:schema document that the repo's XSD
// parser expands back into the identical tree: child order is preserved by
// interleaving single-run xs:sequence groups with xs:attribute entries in
// document order, flags map to minOccurs/maxOccurs/use, and datatypes to
// type= attributes.

void AppendXmlEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '&': *out += "&amp;"; break;
      case '<': *out += "&lt;"; break;
      case '>': *out += "&gt;"; break;
      case '"': *out += "&quot;"; break;
      default: out->push_back(c);
    }
  }
}

void EmitXsdElement(const schema::SchemaTree& tree, schema::NodeId n,
                    int indent, std::string* out) {
  const schema::NodeProperties& props = tree.props(n);
  out->append(static_cast<size_t>(indent), ' ');
  *out += "<xs:element name=\"";
  AppendXmlEscaped(out, props.name);
  *out += '"';
  if (!props.datatype.empty()) {
    *out += " type=\"";
    AppendXmlEscaped(out, props.datatype);
    *out += '"';
  }
  if (n != tree.root()) {
    if (props.optional) *out += " minOccurs=\"0\"";
    if (props.repeatable) *out += " maxOccurs=\"unbounded\"";
  }
  const std::vector<schema::NodeId>& children = tree.children(n);
  if (children.empty()) {
    *out += "/>\n";
    return;
  }
  *out += ">\n";
  out->append(static_cast<size_t>(indent + 2), ' ');
  *out += "<xs:complexType>\n";
  bool in_sequence = false;
  auto close_sequence = [&] {
    if (!in_sequence) return;
    out->append(static_cast<size_t>(indent + 4), ' ');
    *out += "</xs:sequence>\n";
    in_sequence = false;
  };
  for (schema::NodeId child : children) {
    if (tree.props(child).kind == schema::NodeKind::kAttribute) {
      close_sequence();
      const schema::NodeProperties& attr = tree.props(child);
      out->append(static_cast<size_t>(indent + 4), ' ');
      *out += "<xs:attribute name=\"";
      AppendXmlEscaped(out, attr.name);
      *out += '"';
      if (!attr.datatype.empty()) {
        *out += " type=\"";
        AppendXmlEscaped(out, attr.datatype);
        *out += '"';
      }
      if (!attr.optional) *out += " use=\"required\"";
      *out += "/>\n";
    } else {
      if (!in_sequence) {
        out->append(static_cast<size_t>(indent + 4), ' ');
        *out += "<xs:sequence>\n";
        in_sequence = true;
      }
      EmitXsdElement(tree, child, indent + 6, out);
    }
  }
  close_sequence();
  out->append(static_cast<size_t>(indent + 2), ' ');
  *out += "</xs:complexType>\n";
  out->append(static_cast<size_t>(indent), ' ');
  *out += "</xs:element>\n";
}

std::string TreeToXsd(const schema::SchemaTree& tree) {
  std::string out =
      "<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n";
  EmitXsdElement(tree, tree.root(), 2, &out);
  out += "</xs:schema>\n";
  return out;
}

/// Rebuilds `tree` with pre-order node ids. The synthetic generator grows
/// trees by attaching nodes to random parents, so its insertion order
/// interleaves subtrees; an XSD parse necessarily re-encounters nodes in
/// document (pre-)order. Normalizing the corpus up front makes every boot
/// path produce the bit-identical forest — which the fingerprint gate then
/// actually proves.
schema::SchemaTree NormalizeToPreOrder(const schema::SchemaTree& tree) {
  schema::SchemaTree normalized;
  std::vector<schema::NodeId> new_id(tree.size(), schema::kInvalidNode);
  for (schema::NodeId n : tree.PreOrder()) {
    schema::NodeId parent = tree.parent(n);
    new_id[static_cast<size_t>(n)] = normalized.AddNode(
        parent == schema::kInvalidNode
            ? schema::kInvalidNode
            : new_id[static_cast<size_t>(parent)],
        schema::NodeProperties(tree.props(n)));
  }
  return normalized;
}

/// Ranks/scores of one query against one snapshot, for identity checks.
std::vector<std::pair<schema::TreeId, double>> QueryDigest(
    const std::shared_ptr<const service::RepositorySnapshot>& snapshot,
    const char* spec) {
  service::MatchService service(snapshot);
  service::MatchRequest query;
  query.id = std::string("store-") + spec;
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

}  // namespace
}  // namespace xsm

int main(int argc, char** argv) {
  using namespace xsm;
  namespace fs = std::filesystem;

  bool smoke = false;
  bool timing_gate = true;
  std::string out_path = "BENCH_store.json";
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
  if (elements == 0) elements = smoke ? 1500 : 12000;
  const int repeats = smoke ? 3 : 7;

  repo::SyntheticRepoOptions repo_options;
  repo_options.target_elements = elements;
  repo_options.seed = bench::kExperimentSeed;
  auto generated = repo::GenerateSyntheticRepository(repo_options);
  if (!generated.ok()) {
    std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
    return 1;
  }
  std::optional<schema::SchemaForest> forest;
  forest.emplace();
  for (schema::TreeId t = 0;
       t < static_cast<schema::TreeId>(generated->num_trees()); ++t) {
    forest->AddTree(NormalizeToPreOrder(generated->tree(t)),
                    generated->source(t));
  }

  const fs::path dir =
      fs::temp_directory_path() / "bench_store_corpus";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  const std::string text_path = (dir / "repository.forest").string();
  const std::string snap_path = (dir / "repository.snap").string();
  const fs::path xsd_dir = dir / "xsd";
  fs::create_directories(xsd_dir);

  // The raw-XSD corpus a paper-world restart would re-parse: one document
  // per tree, zero-padded so directory order equals tree order.
  uintmax_t xsd_bytes = 0;
  for (schema::TreeId t = 0;
       t < static_cast<schema::TreeId>(forest->num_trees()); ++t) {
    char name[32];
    std::snprintf(name, sizeof(name), "tree_%05d.xsd", t);
    std::string xsd = TreeToXsd(forest->tree(t));
    xsd_bytes += xsd.size();
    std::ofstream out(xsd_dir / name, std::ios::binary);
    out << xsd;
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", name);
      return 1;
    }
  }

  // The forest-text alternative (xsm_cli gen/convert output).
  Status saved_text = schema::SaveForestToFile(*forest, text_path);
  if (!saved_text.ok()) {
    std::fprintf(stderr, "%s\n", saved_text.ToString().c_str());
    return 1;
  }

  // Reference snapshot + the persisted binary the warm path loads.
  auto reference = service::RepositorySnapshot::Create(std::move(*forest));
  if (!reference.ok()) {
    std::fprintf(stderr, "%s\n", reference.status().ToString().c_str());
    return 1;
  }
  Timer save_timer;
  auto saved = store::SaveSnapshotToFile(**reference, snap_path);
  double save_seconds = save_timer.ElapsedSeconds();
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "snapshot store: cold parse+index boot vs warm load "
      "(%zu elements / %zu trees, repeat=%d)\n\n",
      (*reference)->total_nodes(), (*reference)->num_trees(), repeats);

  // --- Cold boot A: raw XSD corpus. -----------------------------------------
  double best_xsd_parse = 0, best_xsd_build = 0, best_xsd = 0;
  uint64_t xsd_fingerprint = 0;
  for (int r = 0; r < repeats; ++r) {
    Timer parse_timer;
    schema::SchemaForest loaded_forest;
    auto report =
        repo::LoadRepositoryFromDirectory(xsd_dir.string(), &loaded_forest);
    double parse_seconds = parse_timer.ElapsedSeconds();
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    if (report->files_failed != 0) {
      std::fprintf(stderr, "XSD corpus: %zu files failed to parse\n",
                   report->files_failed);
      return 1;
    }
    Timer build_timer;
    auto snapshot =
        service::RepositorySnapshot::Create(std::move(loaded_forest));
    double build_seconds = build_timer.ElapsedSeconds();
    if (!snapshot.ok()) {
      std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
      return 1;
    }
    xsd_fingerprint = (*snapshot)->fingerprint();
    if (r == 0 || parse_seconds + build_seconds < best_xsd) {
      best_xsd_parse = parse_seconds;
      best_xsd_build = build_seconds;
      best_xsd = parse_seconds + build_seconds;
    }
  }

  // --- Cold boot B: forest text snapshot. -----------------------------------
  double best_text_parse = 0, best_text_build = 0, best_text = 0;
  uint64_t text_fingerprint = 0;
  for (int r = 0; r < repeats; ++r) {
    Timer parse_timer;
    auto loaded_forest = schema::LoadForestFromFile(text_path);
    double parse_seconds = parse_timer.ElapsedSeconds();
    if (!loaded_forest.ok()) {
      std::fprintf(stderr, "%s\n",
                   loaded_forest.status().ToString().c_str());
      return 1;
    }
    Timer build_timer;
    auto snapshot =
        service::RepositorySnapshot::Create(std::move(*loaded_forest));
    double build_seconds = build_timer.ElapsedSeconds();
    if (!snapshot.ok()) {
      std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
      return 1;
    }
    text_fingerprint = (*snapshot)->fingerprint();
    if (r == 0 || parse_seconds + build_seconds < best_text) {
      best_text_parse = parse_seconds;
      best_text_build = build_seconds;
      best_text = parse_seconds + build_seconds;
    }
  }

  // --- Warm boot: load the persisted snapshot. ------------------------------
  double best_warm = 0;
  std::shared_ptr<const service::RepositorySnapshot> warm_snapshot;
  for (int r = 0; r < repeats; ++r) {
    Timer warm_timer;
    auto snapshot = store::LoadSnapshotFromFile(snap_path);
    double warm_seconds = warm_timer.ElapsedSeconds();
    if (!snapshot.ok()) {
      std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
      return 1;
    }
    warm_snapshot = *snapshot;
    if (r == 0 || warm_seconds < best_warm) best_warm = warm_seconds;
  }

  const double speedup_vs_xsd = best_xsd / best_warm;
  const double speedup_vs_text = best_text / best_warm;
  // Every boot path must arrive at the same repository content.
  const bool fingerprint_ok =
      warm_snapshot->fingerprint() == (*reference)->fingerprint() &&
      warm_snapshot->fingerprint() == saved->fingerprint &&
      warm_snapshot->fingerprint() == xsd_fingerprint &&
      warm_snapshot->fingerprint() == text_fingerprint;

  auto probe = store::ProbeSnapshotFile(snap_path);
  const bool probe_ok = probe.ok() &&
                        probe->fingerprint == saved->fingerprint &&
                        probe->generation == (*reference)->generation() &&
                        probe->total_bytes == saved->total_bytes;

  // Query-for-query identity between the loaded and the rebuilt snapshot.
  bool queries_identical = true;
  for (size_t s = 0; s < kNumSpecs; ++s) {
    queries_identical =
        queries_identical &&
        QueryDigest(warm_snapshot, kSpecs[s]) ==
            QueryDigest(*reference, kSpecs[s]);
  }

  const uintmax_t text_bytes = fs::file_size(text_path);
  const uintmax_t snap_bytes = fs::file_size(snap_path);

  std::printf("%-30s %10.3f ms  (parse %.3f + index/dictionary %.3f)\n",
              "cold boot (raw XSD corpus):", 1e3 * best_xsd,
              1e3 * best_xsd_parse, 1e3 * best_xsd_build);
  std::printf("%-30s %10.3f ms  (parse %.3f + index/dictionary %.3f)\n",
              "cold boot (forest text):", 1e3 * best_text,
              1e3 * best_text_parse, 1e3 * best_text_build);
  std::printf("%-30s %10.3f ms  (%.2fx vs XSD, %.2fx vs text)\n",
              "warm boot (snapshot load):", 1e3 * best_warm, speedup_vs_xsd,
              speedup_vs_text);
  std::printf("%-30s %10.3f ms\n", "save latency:", 1e3 * save_seconds);
  std::printf("%-30s %10.1f KiB XSD, %.1f KiB text, %.1f KiB snapshot\n",
              "footprint:", xsd_bytes / 1024.0, text_bytes / 1024.0,
              snap_bytes / 1024.0);
  std::printf("fingerprints (all paths): %s | probe: %s | queries "
              "identical: %s\n",
              fingerprint_ok ? "ok" : "MISMATCH",
              probe_ok ? "ok" : "MISMATCH",
              queries_identical ? "yes" : "NO");

  // --- JSON trajectory point. -----------------------------------------------
  const double target_speedup = 5.0;
  const bool meets_target = speedup_vs_xsd >= target_speedup;
  std::string json;
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"bench\": \"store\",\n"
      "  \"mode\": \"%s\",\n"
      "  \"elements\": %zu,\n  \"trees\": %zu,\n  \"repeat\": %d,\n"
      "  \"cold_xsd\": {\"parse_ms\": %.4f, \"build_ms\": %.4f, "
      "\"total_ms\": %.4f},\n"
      "  \"cold_text\": {\"parse_ms\": %.4f, \"build_ms\": %.4f, "
      "\"total_ms\": %.4f},\n"
      "  \"warm\": {\"load_ms\": %.4f},\n"
      "  \"save_ms\": %.4f,\n"
      "  \"xsd_bytes\": %llu,\n  \"text_bytes\": %llu,\n"
      "  \"snapshot_bytes\": %llu,\n"
      "  \"speedup_warm_vs_cold_xsd\": %.3f,\n"
      "  \"speedup_warm_vs_cold_text\": %.3f,\n"
      "  \"fingerprint_roundtrip\": %s,\n"
      "  \"probe_consistent\": %s,\n"
      "  \"queries_identical\": %s,\n"
      "  \"target_speedup\": %.1f,\n"
      "  \"meets_target\": %s\n"
      "}\n",
      smoke ? "smoke" : "full", (*reference)->total_nodes(),
      (*reference)->num_trees(), repeats, 1e3 * best_xsd_parse,
      1e3 * best_xsd_build, 1e3 * best_xsd, 1e3 * best_text_parse,
      1e3 * best_text_build, 1e3 * best_text, 1e3 * best_warm,
      1e3 * save_seconds, static_cast<unsigned long long>(xsd_bytes),
      static_cast<unsigned long long>(text_bytes),
      static_cast<unsigned long long>(snap_bytes), speedup_vs_xsd,
      speedup_vs_text, fingerprint_ok ? "true" : "false",
      probe_ok ? "true" : "false", queries_identical ? "true" : "false",
      target_speedup, meets_target ? "true" : "false");
  json = buf;

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }

  fs::remove_all(dir, ec);

  // Hard gates. Correctness first (every mode): the loaded snapshot must
  // provably be the saved one and every boot path the same repository.
  // Then performance: a warm boot that does not beat both cold rebuilds
  // means the store lost its reason to exist; the ≥5x bar (against the
  // raw-XSD restart the motivation names) applies to full-size corpora.
  if (!fingerprint_ok || !probe_ok) {
    std::printf("FINGERPRINT MISMATCH across boot paths\n");
    return 1;
  }
  if (!queries_identical) {
    std::printf("QUERY MISMATCH between loaded and rebuilt snapshot\n");
    return 1;
  }
  if (timing_gate && (best_warm >= best_xsd || best_warm >= best_text)) {
    std::printf("WARM LOAD SLOWER THAN COLD REBUILD (%.3f ms vs XSD %.3f "
                "ms / text %.3f ms)\n",
                1e3 * best_warm, 1e3 * best_xsd, 1e3 * best_text);
    return 1;
  }
  if (timing_gate && !smoke && !meets_target) {
    std::printf("SPEEDUP TARGET MISSED: %.2fx < %.1fx\n", speedup_vs_xsd,
                target_speedup);
    return 1;
  }
  std::printf("store verified: warm load %.2fx faster than the raw-XSD "
              "cold boot (%.2fx vs forest text), fingerprints and queries "
              "identical\n",
              speedup_vs_xsd, speedup_vs_text);
  return 0;
}
