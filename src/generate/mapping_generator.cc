#include "generate/mapping_generator.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace xsm::generate {

using schema::NodeId;

GeneratorCounters& GeneratorCounters::operator+=(
    const GeneratorCounters& other) {
  partial_mappings += other.partial_mappings;
  complete_mappings += other.complete_mappings;
  pruned_by_bound += other.pruned_by_bound;
  emitted += other.emitted;
  truncated |= other.truncated;
  return *this;
}

bool ClusterCandidates::useful() const {
  if (candidates.empty()) return false;
  for (const auto& c : candidates) {
    if (c.empty()) return false;
  }
  return true;
}

double ClusterCandidates::SearchSpaceSize() const {
  double space = 1;
  for (const auto& c : candidates) {
    space *= static_cast<double>(c.size());
  }
  return candidates.empty() ? 0 : space;
}

MappingGenerator::MappingGenerator(
    const schema::SchemaTree& personal,
    const objective::BellflowerObjective& objective,
    const GeneratorOptions& options)
    : personal_(personal), objective_(objective), options_(options) {
  order_ = personal.PreOrder();
  parent_position_.resize(order_.size());
  std::vector<size_t> position_of(personal.size());
  for (size_t p = 0; p < order_.size(); ++p) {
    position_of[static_cast<size_t>(order_[p])] = p;
  }
  for (size_t p = 1; p < order_.size(); ++p) {
    parent_position_[p] =
        position_of[static_cast<size_t>(personal.parent(order_[p]))];
  }
  children_positions_.resize(order_.size());
  for (size_t p = 1; p < order_.size(); ++p) {
    children_positions_[parent_position_[p]].push_back(p);
  }
}

// Shared mutable state of one Generate() call.
struct MappingGenerator::SearchContext {
  const ClusterCandidates* cands = nullptr;
  const label::TreeIndex* tree_index = nullptr;
  std::vector<SchemaMapping>* out = nullptr;
  GeneratorCounters* counters = nullptr;

  // candidates reordered by personal pre-order position.
  std::vector<const std::vector<match::MappingElement>*> cands_at;
  // optimistic_tail[p] = Σ_{q ≥ p} max candidate score at position q.
  std::vector<double> optimistic_tail;

  // DFS state.
  std::vector<NodeId> chosen;     // image per position
  std::vector<double> sim_sums;   // prefix sums, sim_sums[p] after p+1 picks
  std::vector<int64_t> path_sums;
  // Forward-checking lower bound of the edge closing at each position,
  // written at the trial of the parent position (valid while the parent's
  // assignment is on the DFS stack).
  std::vector<int64_t> lb;
  bool stop = false;

  bool BudgetExceeded() const {
    const MappingGenerator* g = gen;
    return g->options_.max_partial_mappings != 0 &&
           counters->partial_mappings >= g->options_.max_partial_mappings;
  }

  // Cooperative execution check (cancel / deadline / early-exit), polled at
  // every node expansion. Sets `stop` so unwinding frames exit too.
  bool ControlSaysStop() {
    if (monitor != nullptr && monitor->ShouldStop()) stop = true;
    return stop;
  }

  void RecordEmitted() {
    counters->emitted++;
    if (monitor != nullptr) monitor->RecordEmitted();
  }

  const MappingGenerator* gen = nullptr;
  core::ExecutionMonitor* monitor = nullptr;
};

Status MappingGenerator::Generate(const ClusterCandidates& cands,
                                  const label::TreeIndex& tree_index,
                                  std::vector<SchemaMapping>* out,
                                  GeneratorCounters* counters,
                                  core::ExecutionMonitor* monitor) const {
  if (cands.candidates.size() != personal_.size()) {
    return Status::InvalidArgument(
        "candidate sets do not match personal schema size");
  }
  if (out == nullptr || counters == nullptr) {
    return Status::InvalidArgument("out/counters must not be null");
  }
  if (!cands.useful()) return Status::OK();  // Cannot produce mappings.

  SearchContext ctx;
  ctx.gen = this;
  ctx.monitor = monitor;
  ctx.cands = &cands;
  ctx.tree_index = &tree_index;
  ctx.out = out;
  ctx.counters = counters;

  const size_t m = order_.size();
  ctx.cands_at.resize(m);
  for (size_t p = 0; p < m; ++p) {
    ctx.cands_at[p] = &cands.candidates[static_cast<size_t>(order_[p])];
  }
  ctx.optimistic_tail.assign(m + 1, 0.0);
  for (size_t p = m; p-- > 0;) {
    double mx = 0;
    for (const auto& e : *ctx.cands_at[p]) mx = std::max(mx, e.score);
    ctx.optimistic_tail[p] = ctx.optimistic_tail[p + 1] + mx;
  }

  ctx.chosen.assign(m, schema::kInvalidNode);
  ctx.sim_sums.assign(m, 0.0);
  ctx.path_sums.assign(m, 0);
  ctx.lb.assign(m, 1);
  // Initially every edge is pending with the trivial lower bound 1.
  Dfs(&ctx, 0, static_cast<int64_t>(m) - 1);
  return Status::OK();
}

void MappingGenerator::Dfs(SearchContext* ctx, size_t position,
                           int64_t pending_sum) const {
  // `pending_sum` = sum of current lower bounds of the edges closing at
  // positions > `position` (1 until the parent is assigned; the
  // forward-checking minimum afterwards).
  const size_t m = order_.size();
  const bool bounded = options_.algorithm == Algorithm::kBranchAndBound;

  for (const match::MappingElement& cand : *ctx->cands_at[position]) {
    if (ctx->ControlSaysStop()) return;
    if (ctx->BudgetExceeded()) {
      ctx->counters->truncated = true;
      ctx->stop = true;
      return;
    }

    // Injectivity ("1 to 1", Def. 2): the image must be fresh.
    bool used = false;
    for (size_t q = 0; q < position; ++q) {
      if (ctx->chosen[q] == cand.node.node) {
        used = true;
        break;
      }
    }
    if (used) continue;

    double sim_sum =
        (position == 0 ? 0.0 : ctx->sim_sums[position - 1]) + cand.score;
    int64_t path_sum = position == 0 ? 0 : ctx->path_sums[position - 1];
    if (position > 0) {
      NodeId parent_image = ctx->chosen[parent_position_[position]];
      path_sum += ctx->tree_index->Distance(parent_image, cand.node.node);
    }
    ctx->counters->partial_mappings++;

    if (position + 1 == m) {
      ctx->counters->complete_mappings++;
      double delta = objective_.Delta(sim_sum, path_sum);
      if (delta >= options_.delta) {
        SchemaMapping mapping;
        mapping.tree = ctx->cands->tree;
        mapping.images.resize(m);
        for (size_t p = 0; p < position; ++p) {
          mapping.images[static_cast<size_t>(order_[p])] = ctx->chosen[p];
        }
        mapping.images[static_cast<size_t>(order_[position])] =
            cand.node.node;
        mapping.delta = delta;
        mapping.delta_sim = objective_.DeltaSim(sim_sum);
        mapping.delta_path = objective_.DeltaPath(path_sum);
        mapping.total_path_length = path_sum;
        ctx->out->push_back(std::move(mapping));
        ctx->RecordEmitted();
      }
      continue;
    }

    int64_t new_pending = pending_sum;
    if (bounded) {
      // Forward checking: tighten the pending edges whose parent is this
      // candidate, replacing their provisional lower bound of 1 by the
      // minimum distance from the candidate image to any candidate of the
      // child.
      for (size_t q : children_positions_[position]) {
        int64_t best = std::numeric_limits<int64_t>::max();
        for (const match::MappingElement& child_cand : *ctx->cands_at[q]) {
          int64_t d = ctx->tree_index->Distance(cand.node.node,
                                                child_cand.node.node);
          if (d < best) best = d;
          if (best <= 1) break;  // cannot get lower for a distinct image
        }
        // Injectivity forces every image path to length >= 1, so a
        // distance-0 candidate (the parent's own image) cannot be chosen.
        if (best < 1) best = 1;
        ctx->lb[q] = best;
        new_pending += best - 1;
      }
      // All edges accounted for: closed ones exactly (path_sum), pending
      // ones by their lower bounds.
      double ub = objective_.UpperBound(
          sim_sum, ctx->optimistic_tail[position + 1],
          path_sum + new_pending, static_cast<int>(m) - 1);
      if (ub < options_.delta) {
        ctx->counters->pruned_by_bound++;
        for (size_t q : children_positions_[position]) ctx->lb[q] = 1;
        continue;
      }
    }

    ctx->chosen[position] = cand.node.node;
    ctx->sim_sums[position] = sim_sum;
    ctx->path_sums[position] = path_sum;
    // lb stays 1 everywhere in an unbounded run.
    Dfs(ctx, position + 1, new_pending - ctx->lb[position + 1]);
    ctx->chosen[position] = schema::kInvalidNode;
    if (bounded) {
      for (size_t q : children_positions_[position]) ctx->lb[q] = 1;
    }
  }
}

}  // namespace xsm::generate
