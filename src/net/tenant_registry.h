// TenantRegistry: the multi-tenant heart of the xsm::net front end. Each
// named tenant owns a full serving stack — its own Matcher backend (booted
// by shard::CreateMatcher / shard::OpenMatcher: a MatchService, or a
// ShardedMatchService when TenantRegistryOptions::shards > 1) plus a
// ServeSession exposing the NDJSON surface — so tenants evolve, cache and
// persist independently.
//
// Persistence: with a state directory, each tenant maps to
// `<state_dir>/<name>.snap`. SaveAll() persists every tenant (the drain
// path), WarmStartAll() boots every *.snap found (the restart path), and
// warm starts continue the generation chain.
//
// Crash safety: with journaling on (the default when a state directory is
// set), each tenant also owns `<state_dir>/<name>.wal`. Create()
// checkpoints the newborn tenant and attaches the journal, so every
// acknowledged delta is fsync'd into it before its generation publishes;
// warm starts replay it onto the checkpoint, so a SIGKILL'd server loses
// no acknowledged delta. A name is reserved while Create or WarmStart
// boots it, so two concurrent boots of one name never both touch its
// files.
//
// Thread-safety: all methods are safe to call concurrently. Tenants are
// created and never destroyed while the registry lives, so the pointers
// handed out stay valid for the registry's lifetime — request handlers
// may hold them across a streaming response without a lock.
#ifndef XSM_NET_TENANT_REGISTRY_H_
#define XSM_NET_TENANT_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "schema/schema_forest.h"
#include "service/match_service.h"
#include "service/serve_session.h"
#include "store/snapshot_store.h"
#include "util/io.h"
#include "util/status.h"

namespace xsm::net {

struct TenantRegistryOptions {
  /// Applied to every tenant's Matcher backend.
  service::MatchServiceOptions service;
  /// Shards per tenant. 1 (the default) serves each tenant from a plain
  /// MatchService; > 1 serves it from a shard::ShardedMatchService with
  /// this many node-balanced shards (results stay byte-identical — see
  /// src/shard). Warm starts sniff the on-disk format, so a registry can
  /// boot snapshots saved under either setting.
  size_t shards = 1;
  /// Applied to every tenant's ServeSession. allow_filesystem is forced
  /// off regardless — remote clients must never name server paths; tenant
  /// persistence goes through Save*/WarmStart* and the state directory.
  service::ServeSessionOptions session;
  /// Directory for `<name>.snap` tenant snapshots; empty disables
  /// persistence (Save*/WarmStart* fail with FailedPrecondition).
  std::string state_dir;
  /// Journal every tenant's deltas into `<state_dir>/<name>.wal` (see the
  /// crash-safety note above). Ignored without a state directory.
  bool enable_wal = true;
  /// Filesystem seam every snapshot and journal goes through; null means
  /// util::io::Env::Default(). Tests inject a FaultInjectionEnv here to
  /// script save/journal failures.
  util::io::Env* env = nullptr;
  /// Shared metrics registry every tenant's service records into (each
  /// under its own {tenant="<name>"} label); null means the registry owns
  /// a private one. The HTTP server scrapes this for GET /metrics, so all
  /// tenants land on one exposition surface.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One tenant's serving stack.
struct Tenant {
  std::string name;
  std::unique_ptr<service::Matcher> service;
  std::unique_ptr<service::ServeSession> session;
};

class TenantRegistry {
 public:
  /// Valid tenant names are 1..64 chars of [A-Za-z0-9_.-], not starting
  /// with '.' — names double as snapshot file stems, so this shuts out
  /// path traversal ("../../etc"), separators and hidden files.
  static bool ValidTenantName(std::string_view name);

  explicit TenantRegistry(TenantRegistryOptions options);

  /// Creates tenant `name` over `forest` (validated + indexed once).
  /// FailedPrecondition if the name is taken or being booted,
  /// InvalidArgument if malformed. With journaling on, the newborn tenant is checkpointed to
  /// the state dir and its WAL attached before it becomes visible — a
  /// journaled tenant always has a base snapshot to recover onto.
  Result<Tenant*> Create(const std::string& name,
                         schema::SchemaForest forest);

  /// Boots tenant `name` from its state-dir snapshot, resuming its
  /// generation chain where the last save left it. With journaling on
  /// this is a crash recovery: the journal suffix past the checkpoint is
  /// replayed (each record fingerprint-verified) and journaling resumes;
  /// `report` (may be null) receives the replay accounting.
  Result<Tenant*> WarmStart(const std::string& name,
                            live::RecoveryReport* report = nullptr);

  /// The named tenant, or nullptr. The pointer stays valid for the
  /// registry's lifetime.
  Tenant* Find(const std::string& name) const;

  /// Tenant names in sorted order.
  std::vector<std::string> Names() const;

  size_t size() const;

  /// Persists one tenant to `<state_dir>/<name>.snap`; returns what was
  /// written.
  Result<store::SnapshotFileInfo> Save(const std::string& name) const;

  /// One tenant the drain could not persist, with the typed cause.
  struct TenantSaveFailure {
    std::string tenant;
    Status status;
  };

  /// Persists every tenant (the graceful-drain path). One tenant's
  /// failure never aborts the drain: every tenant is attempted, `saved`
  /// (optional) receives the success count, `failures` (optional)
  /// receives each failed tenant with its typed status, and the first
  /// error (if any) is returned.
  Status SaveAll(size_t* saved = nullptr,
                 std::vector<TenantSaveFailure>* failures = nullptr) const;

  /// Boots every `*.snap` in the state directory as a tenant (the warm
  /// restart path). Files whose stem is not a valid tenant name, or that
  /// fail to load, are skipped with a note to stderr; returns the number
  /// booted. A missing or empty state directory boots zero tenants.
  size_t WarmStartAll();

  /// `<state_dir>/<name>.snap`; empty when persistence is disabled.
  std::string SnapshotPathFor(const std::string& name) const;

  /// `<state_dir>/<name>.wal`; empty when journaling is off.
  std::string WalPathFor(const std::string& name) const;

  /// The effective filesystem seam (never null).
  util::io::Env* env() const;

  /// The shared metrics registry (owned or borrowed; never null). All
  /// tenant services, the HTTP server and the WAL-recovery counters below
  /// record here, so one scrape covers the whole process.
  obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  /// Takes `name` for a Create or WarmStart in progress: FailedPrecondition
  /// when a tenant of that name exists or is being booted.
  Status Reserve(const std::string& name);

  /// Ends the reservation of `name`: registers the booted `service` as the
  /// tenant, or, when the boot failed, releases the name and returns why.
  Result<Tenant*> Admit(const std::string& name,
                        Result<std::unique_ptr<service::Matcher>> service);

  /// A copy of options_.service stamped with the shared registry and the
  /// tenant label — what every tenant's backend is constructed with.
  service::MatchServiceOptions ServiceOptionsFor(
      const std::string& name) const;

  TenantRegistryOptions options_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  /// Registry handles (process-wide, unlabeled): tenant count and the
  /// journal-recovery tallies WarmStart accumulates across boots.
  obs::Gauge* tenants_gauge_ = nullptr;
  obs::Counter* wal_recoveries_ = nullptr;
  obs::Counter* wal_records_replayed_ = nullptr;
  obs::Counter* wal_records_skipped_ = nullptr;
  obs::Counter* wal_torn_tail_truncations_ = nullptr;
  mutable std::mutex mu_;
  /// Values are never erased; map node stability keeps Tenant* valid.
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  /// Names a Create or WarmStart is booting (see Reserve).
  std::set<std::string> reserved_;
};

}  // namespace xsm::net

#endif  // XSM_NET_TENANT_REGISTRY_H_
