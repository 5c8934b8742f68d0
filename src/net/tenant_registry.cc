#include "net/tenant_registry.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "shard/sharded_match_service.h"

namespace xsm::net {

namespace fs = std::filesystem;

bool TenantRegistry::ValidTenantName(std::string_view name) {
  if (name.empty() || name.size() > 64 || name.front() == '.') return false;
  return std::all_of(name.begin(), name.end(), [](unsigned char c) {
    return std::isalnum(c) || c == '_' || c == '.' || c == '-';
  });
}

TenantRegistry::TenantRegistry(TenantRegistryOptions options)
    : options_(std::move(options)) {
  // Remote clients must never reach the server's filesystem through the
  // session surface, whatever the caller configured.
  options_.session.allow_filesystem = false;
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  tenants_gauge_ = metrics_->RegisterGauge(
      "xsm_tenants", "Tenants currently registered");
  wal_recoveries_ = metrics_->RegisterCounter(
      "xsm_wal_recoveries_total",
      "Warm starts that replayed a journal onto a checkpoint");
  wal_records_replayed_ = metrics_->RegisterCounter(
      "xsm_wal_records_replayed_total",
      "Journal records re-applied during recovery");
  wal_records_skipped_ = metrics_->RegisterCounter(
      "xsm_wal_records_skipped_total",
      "Pre-checkpoint journal records skipped during recovery");
  wal_torn_tail_truncations_ = metrics_->RegisterCounter(
      "xsm_wal_torn_tail_truncations_total",
      "Crash-torn journal tails truncated during recovery");
}

service::MatchServiceOptions TenantRegistry::ServiceOptionsFor(
    const std::string& name) const {
  service::MatchServiceOptions service_options = options_.service;
  service_options.metrics = metrics_;
  service_options.metrics_tenant = name;
  return service_options;
}

std::string TenantRegistry::SnapshotPathFor(const std::string& name) const {
  if (options_.state_dir.empty()) return std::string();
  return (fs::path(options_.state_dir) / (name + ".snap")).string();
}

std::string TenantRegistry::WalPathFor(const std::string& name) const {
  if (options_.state_dir.empty() || !options_.enable_wal) {
    return std::string();
  }
  return (fs::path(options_.state_dir) / (name + ".wal")).string();
}

util::io::Env* TenantRegistry::env() const {
  return options_.env != nullptr ? options_.env : util::io::Env::Default();
}

Status TenantRegistry::Reserve(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tenants_.count(name) != 0 || !reserved_.insert(name).second) {
    return Status::FailedPrecondition("tenant '" + name +
                                      "' already exists");
  }
  return Status::OK();
}

Result<Tenant*> TenantRegistry::Admit(
    const std::string& name,
    Result<std::unique_ptr<service::Matcher>> service) {
  std::unique_ptr<Tenant> tenant;
  if (service.ok()) {
    tenant = std::make_unique<Tenant>();
    tenant->name = name;
    tenant->service = std::move(*service);
    tenant->session = std::make_unique<service::ServeSession>(
        tenant->service.get(), options_.session);
  }
  std::lock_guard<std::mutex> lock(mu_);
  reserved_.erase(name);
  if (tenant == nullptr) return service.status();
  Tenant* admitted = tenant.get();
  tenants_.emplace(name, std::move(tenant));
  tenants_gauge_->Set(static_cast<double>(tenants_.size()));
  return admitted;
}

Result<Tenant*> TenantRegistry::Create(const std::string& name,
                                       schema::SchemaForest forest) {
  if (!ValidTenantName(name)) {
    return Status::InvalidArgument("invalid tenant name '" + name +
                                   "' (want 1-64 of [A-Za-z0-9_.-], not "
                                   "starting with '.')");
  }
  // Taken before the state dir is touched: a concurrent creation of the
  // same name must never clobber this one's checkpoint or journal.
  XSM_RETURN_NOT_OK(Reserve(name));
  auto build = [&]() -> Result<std::unique_ptr<service::Matcher>> {
    XSM_ASSIGN_OR_RETURN(
        std::unique_ptr<service::Matcher> service,
        shard::CreateMatcher(std::move(forest), ServiceOptionsFor(name),
                             options_.shards, env()));
    const std::string wal_path = WalPathFor(name);
    if (!wal_path.empty()) {
      // Checkpoint, then journal: recovery replays the journal onto a base
      // snapshot. Both are durable before the tenant serves traffic.
      std::error_code ec;
      fs::create_directories(options_.state_dir, ec);  // best effort
      XSM_RETURN_NOT_OK(service->SaveSnapshot(SnapshotPathFor(name)).status());
      XSM_RETURN_NOT_OK(service->AttachWal(wal_path));
    }
    return service;
  };
  return Admit(name, build());
}

Result<Tenant*> TenantRegistry::WarmStart(const std::string& name,
                                          live::RecoveryReport* report) {
  if (!ValidTenantName(name)) {
    return Status::InvalidArgument("invalid tenant name '" + name + "'");
  }
  std::string path = SnapshotPathFor(name);
  if (path.empty()) {
    return Status::FailedPrecondition(
        "tenant persistence disabled (no state directory)");
  }
  // Taken before the journal is replayed and reopened, as in Create.
  XSM_RETURN_NOT_OK(Reserve(name));
  // The checkpoint's format, not the registry's current `shards` knob,
  // picks the backend: a registry reconfigured between runs still boots
  // every tenant exactly as it was saved.
  const std::string wal_path = WalPathFor(name);
  live::RecoveryReport local;
  Result<std::unique_ptr<service::Matcher>> service = shard::OpenMatcher(
      env(), path, wal_path, ServiceOptionsFor(name), &local);
  if (service.ok() && !wal_path.empty()) {
    wal_recoveries_->Increment();
    wal_records_replayed_->Increment(local.records_replayed);
    wal_records_skipped_->Increment(local.records_skipped);
    if (local.torn_tail) wal_torn_tail_truncations_->Increment();
    if (report != nullptr) *report = local;
  }
  return Admit(name, std::move(service));
}

Tenant* TenantRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

std::vector<std::string> TenantRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) names.push_back(name);
  return names;
}

size_t TenantRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size();
}

Result<store::SnapshotFileInfo> TenantRegistry::Save(
    const std::string& name) const {
  std::string path = SnapshotPathFor(name);
  if (path.empty()) {
    return Status::FailedPrecondition(
        "tenant persistence disabled (no state directory)");
  }
  Tenant* tenant = Find(name);
  if (tenant == nullptr) {
    return Status::NotFound("no tenant named '" + name + "'");
  }
  std::error_code ec;
  fs::create_directories(options_.state_dir, ec);  // best effort; save reports
  return tenant->service->SaveSnapshot(path);
}

Status TenantRegistry::SaveAll(
    size_t* saved, std::vector<TenantSaveFailure>* failures) const {
  Status first_error = Status::OK();
  size_t ok = 0;
  for (const std::string& name : Names()) {
    auto info = Save(name);
    if (info.ok()) {
      ++ok;
      continue;
    }
    if (failures != nullptr) {
      failures->push_back(TenantSaveFailure{name, info.status()});
    }
    if (first_error.ok()) first_error = info.status();
  }
  if (saved != nullptr) *saved = ok;
  return first_error;
}

size_t TenantRegistry::WarmStartAll() {
  if (options_.state_dir.empty()) return 0;
  std::error_code ec;
  fs::directory_iterator it(options_.state_dir, ec);
  if (ec) return 0;
  // Deterministic boot order regardless of directory enumeration.
  std::vector<std::string> stems;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const fs::path& path = entry.path();
    if (path.extension() != ".snap") continue;
    stems.push_back(path.stem().string());
  }
  std::sort(stems.begin(), stems.end());
  size_t booted = 0;
  for (const std::string& stem : stems) {
    if (!ValidTenantName(stem)) {
      std::fprintf(stderr, "xsm::net: skipping snapshot with invalid tenant "
                           "name '%s'\n", stem.c_str());
      continue;
    }
    live::RecoveryReport report;
    auto tenant = WarmStart(stem, &report);
    if (!tenant.ok()) {
      std::fprintf(stderr, "xsm::net: warm start of tenant '%s' failed: %s\n",
                   stem.c_str(), tenant.status().ToString().c_str());
      continue;
    }
    if (report.records_replayed > 0 || report.torn_tail) {
      std::fprintf(stderr,
                   "xsm::net: tenant '%s' recovered to generation %llu "
                   "(checkpoint %llu + %zu journal records%s)\n",
                   stem.c_str(),
                   static_cast<unsigned long long>(
                       report.recovered_generation),
                   static_cast<unsigned long long>(
                       report.snapshot_generation),
                   report.records_replayed,
                   report.torn_tail ? ", torn tail dropped" : "");
    }
    ++booted;
  }
  return booted;
}

}  // namespace xsm::net
