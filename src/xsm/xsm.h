// Umbrella header for the Bellflower clustered schema matching library.
//
// Quickstart:
//   #include "xsm/xsm.h"
//
//   xsm::schema::SchemaForest repo = ...;           // load or generate
//   xsm::core::Bellflower system(&repo);
//   auto personal = xsm::schema::ParseTreeSpec("name(address,email)");
//   xsm::core::MatchOptions options;                // δ, α, clustering, ...
//   auto result = system.Match(*personal, options);
//   for (const auto& m : result->mappings) { ... }
//
// Streaming / anytime execution (cancellation, deadlines, early exit):
//   struct Printer : xsm::core::MatchObserver {
//     // Each mapping the moment it is found, with its rank so far. With
//     // options.top_n = N only those entering the running top N arrive;
//     // keeping the last N by rank ends with the final list.
//     void OnMapping(const xsm::generate::SchemaMapping& m,
//                    size_t running_rank) override { ... }
//   } printer;
//   auto control = xsm::core::ExecutionControl::WithDeadline(0.5);  // 500 ms
//   control.stop_after_n_mappings = 10;             // first 10 are enough
//   auto run = system.Match(*personal, options, control, &printer);
//   // run->execution: kCompleted / kCancelled / kDeadlineExceeded /
//   // kEarlyStopped; run->mappings holds whatever was found in time.
//   // control.cancel.Cancel() (from any thread) stops the run cooperatively.
#ifndef XSM_XSM_XSM_H_
#define XSM_XSM_XSM_H_

#include "cluster/kmeans.h"              // IWYU pragma: export
#include "core/bellflower.h"             // IWYU pragma: export
#include "core/execution_control.h"      // IWYU pragma: export
#include "core/match_observer.h"         // IWYU pragma: export
#include "core/preservation.h"           // IWYU pragma: export
#include "generate/mapping_generator.h"  // IWYU pragma: export
#include "generate/schema_mapping.h"     // IWYU pragma: export
#include "integrate/integration_engine.h"  // IWYU pragma: export
#include "integrate/integration_io.h"      // IWYU pragma: export
#include "label/tree_index.h"            // IWYU pragma: export
#include "live/delta_codec.h"            // IWYU pragma: export
#include "live/repository_delta.h"       // IWYU pragma: export
#include "live/repository_manager.h"     // IWYU pragma: export
#include "match/element_matching.h"      // IWYU pragma: export
#include "match/name_dictionary.h"       // IWYU pragma: export
#include "net/http.h"                    // IWYU pragma: export
#include "net/http_client.h"             // IWYU pragma: export
#include "net/http_server.h"             // IWYU pragma: export
#include "net/tenant_registry.h"         // IWYU pragma: export
#include "objective/objective.h"         // IWYU pragma: export
#include "obs/metrics.h"                 // IWYU pragma: export
#include "obs/trace.h"                   // IWYU pragma: export
#include "query/xpath.h"                 // IWYU pragma: export
#include "repo/loader.h"                 // IWYU pragma: export
#include "repo/synthetic.h"              // IWYU pragma: export
#include "schema/schema_forest.h"        // IWYU pragma: export
#include "schema/schema_tree.h"          // IWYU pragma: export
#include "service/cluster_index_cache.h"  // IWYU pragma: export
#include "service/match_service.h"        // IWYU pragma: export
#include "service/repository_snapshot.h"  // IWYU pragma: export
#include "service/serve_session.h"        // IWYU pragma: export
#include "shard/sharded_match_service.h"   // IWYU pragma: export
#include "sim/string_similarity.h"       // IWYU pragma: export
#include "store/snapshot_store.h"        // IWYU pragma: export
#include "util/histogram.h"              // IWYU pragma: export
#include "util/io.h"                     // IWYU pragma: export
#include "util/random.h"                 // IWYU pragma: export
#include "util/status.h"                 // IWYU pragma: export
#include "util/thread_pool.h"            // IWYU pragma: export
#include "util/timer.h"                  // IWYU pragma: export
#include "util/union_find.h"             // IWYU pragma: export
#include "wal/wal.h"                     // IWYU pragma: export
#include "xml/dtd_parser.h"              // IWYU pragma: export
#include "xml/xml_parser.h"              // IWYU pragma: export
#include "xml/xsd_parser.h"              // IWYU pragma: export

#endif  // XSM_XSM_XSM_H_
