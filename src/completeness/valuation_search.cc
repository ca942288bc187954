#include "completeness/valuation_search.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <thread>

namespace relcomp {

ValuationEnumerator::ValuationEnumerator(const TableauQuery* tableau,
                                         const ActiveDomain* adom,
                                         Options options)
    : tableau_(tableau), adom_(adom), options_(options) {
  // Variable order: summary variables first in pruned mode (callers
  // prune on the grounded summary), declaration order otherwise.
  std::set<std::string> summary_vars;
  for (const Term& t : tableau_->summary()) {
    if (t.is_variable()) summary_vars.insert(t.var());
  }
  if (options_.pruned) {
    // Summary variables first (so summary-based pruning fires at the
    // top of the search tree) ...
    std::set<std::string> placed;
    for (const std::string& v : tableau_->variables()) {
      if (summary_vars.count(v) > 0) {
        order_.push_back(v);
        placed.insert(v);
      }
    }
    // ... then greedily complete tableau rows as early as possible, so
    // callers can prune on partially instantiated rows.
    while (placed.size() < tableau_->variables().size()) {
      std::string best;
      size_t best_score = SIZE_MAX;
      for (const std::string& v : tableau_->variables()) {
        if (placed.count(v) > 0) continue;
        // Score: the fewest unbound variables of any row containing v
        // (binding v helps finish that row soonest).
        size_t score = SIZE_MAX - 1;
        for (const TableauRow& row : tableau_->rows()) {
          std::set<std::string> row_vars;
          for (const Term& t : row.terms) {
            if (t.is_variable()) row_vars.insert(t.var());
          }
          if (row_vars.count(v) == 0) continue;
          size_t unbound = 0;
          for (const std::string& rv : row_vars) {
            if (placed.count(rv) == 0) ++unbound;
          }
          score = std::min(score, unbound);
        }
        if (score < best_score) {
          best_score = score;
          best = v;
        }
      }
      order_.push_back(best);
      placed.insert(best);
    }
  } else {
    order_ = tableau_->variables();
  }
  candidates_.reserve(order_.size());
  for (size_t i = 0; i < order_.size(); ++i) {
    if (options_.candidate_overrides != nullptr) {
      auto it = options_.candidate_overrides->find(order_[i]);
      if (it != options_.candidate_overrides->end()) {
        candidates_.push_back(it->second);
        continue;
      }
    }
    std::shared_ptr<const Domain> domain =
        tableau_->VariableDomain(order_[i]);
    if (options_.symmetry_break_fresh && domain->is_infinite()) {
      // Base constants plus only the first i+1 fresh values (see the
      // Options comment for why this loses no valuations).
      std::vector<Value> candidates = adom_->base();
      size_t limit = std::min(i + 1, adom_->fresh().size());
      candidates.insert(candidates.end(), adom_->fresh().begin(),
                        adom_->fresh().begin() + limit);
      candidates_.push_back(std::move(candidates));
    } else {
      candidates_.push_back(
          adom_->CandidatesFor(*domain));
    }
  }
  // Precompute, per position, the disequalities that become fully bound
  // there (pruned mode checks them eagerly).
  std::map<std::string, size_t> position;
  for (size_t i = 0; i < order_.size(); ++i) position[order_[i]] = i;
  disequalities_at_.resize(order_.size());
  const auto& diseqs = tableau_->disequalities();
  for (size_t d = 0; d < diseqs.size(); ++d) {
    size_t last = 0;
    bool has_var = false;
    for (const Term* t : {&diseqs[d].first, &diseqs[d].second}) {
      if (t->is_variable()) {
        has_var = true;
        last = std::max(last, position[t->var()]);
      }
    }
    if (has_var) disequalities_at_[last].push_back(d);
  }
  // Shard bookkeeping: per sharded level, the rank weight of one
  // candidate choice (row-major: the first variable varies slowest).
  shard_depth_ = std::min(options_.shard_depth, order_.size());
  if (shard_depth_ > 0) {
    shard_weight_.assign(shard_depth_, 1);
    for (size_t i = shard_depth_ - 1; i-- > 0;) {
      shard_weight_[i] = shard_weight_[i + 1] * candidates_[i + 1].size();
    }
  }
  // Id plane: resolve every candidate and disequality constant to a
  // unified id up front. TryGet only — this runs post-freeze in the
  // parallel workers' per-unit enumerators. Values the interner has
  // never seen get synthetic ids descending from kFreshIdBase - 1
  // (below the reserved fresh range, above every base id), assigned in
  // construction order — deterministic, so every unit sees the same
  // mapping. Equal values share one synthetic id, so id equality means
  // value equality across the whole enumeration.
  assert(options_.interner != nullptr);
  std::map<Value, ValueId> synth;
  auto id_of = [&](const Value& v) -> ValueId {
    std::optional<ValueId> id = options_.interner->TryGet(v);
    if (id.has_value()) return *id;
    auto it = synth.find(v);
    if (it != synth.end()) return it->second;
    ValueId sid = static_cast<ValueId>(ValueInterner::kFreshIdBase - 1 -
                                       synth_values_.size());
    assert(sid >= options_.interner->num_base_ids());
    synth.emplace(v, sid);
    synth_values_.push_back(&v);
    return sid;
  };
  candidate_ids_.resize(candidates_.size());
  for (size_t i = 0; i < candidates_.size(); ++i) {
    candidate_ids_[i].reserve(candidates_[i].size());
    for (const Value& v : candidates_[i]) {
      candidate_ids_[i].push_back(id_of(v));
    }
  }
  diseq_codes_.reserve(diseqs.size());
  for (const auto& [lhs, rhs] : diseqs) {
    auto code_of = [&](const Term& t) -> int32_t {
      if (t.is_variable()) {
        return static_cast<int32_t>(position[t.var()]);
      }
      diseq_const_ids_.push_back(id_of(t.value()));
      return -static_cast<int32_t>(diseq_const_ids_.size());
    };
    int32_t l = code_of(lhs);
    diseq_codes_.emplace_back(l, code_of(rhs));
  }
}

void InternFiniteDomainValues(const TableauQuery& tableau,
                              ValueInterner* interner) {
  for (const std::string& var : tableau.variables()) {
    std::shared_ptr<const Domain> dom = tableau.VariableDomain(var);
    if (dom != nullptr && dom->is_finite()) {
      for (const Value& v : dom->finite_values()) interner->Intern(v);
    }
  }
}

Result<TableauRowPlan> TableauRowPlan::Make(
    const TableauQuery& tableau, const std::vector<std::string>& order,
    const ValueInterner& interner) {
  std::map<std::string, size_t> position;
  for (size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  TableauRowPlan plan;
  plan.rows_.reserve(tableau.rows().size());
  for (const TableauRow& tableau_row : tableau.rows()) {
    Row row;
    row.relation = &tableau_row.relation;
    row.offset = plan.codes_.size();
    row.arity = tableau_row.terms.size();
    for (const Term& t : tableau_row.terms) {
      if (t.is_variable()) {
        size_t pos = position.at(t.var());
        row.bound_at = std::max(row.bound_at, pos);
        plan.codes_.push_back(static_cast<int32_t>(pos));
        continue;
      }
      std::optional<ValueId> id = interner.TryGet(t.value());
      if (!id.has_value()) {
        return Status::Internal(
            "tableau constant " + t.value().ToString() +
            " was not interned before the valuation search");
      }
      plan.const_ids_.push_back(*id);
      plan.codes_.push_back(-static_cast<int32_t>(plan.const_ids_.size()));
    }
    plan.max_arity_ = std::max(plan.max_arity_, row.arity);
    plan.rows_.push_back(row);
  }
  return plan;
}

Bindings IdValuation::ToBindings() const {
  Bindings out;
  const std::vector<std::string>& order = enumerator->order();
  for (size_t i = 0; i < depth; ++i) {
    out.Set(order[i], enumerator->ResolveId(ids[i]));
  }
  return out;
}

size_t ValuationEnumerator::PrefixSpace(size_t depth) const {
  size_t d = std::min(depth, order_.size());
  size_t total = 1;
  for (size_t i = 0; i < d; ++i) total *= candidates_[i].size();
  return total;
}

bool ValuationEnumerator::EnterBindingStep() {
  if (options_.best_unit != nullptr &&
      options_.best_unit->load(std::memory_order_acquire) < options_.unit) {
    failure_ = Status::Cancelled(
        "valuation search cancelled (a lower work unit already won)");
    return false;
  }
  if (options_.budget != nullptr) {
    // One counted decision point per binding step, claimed on the
    // shared budget so serial and parallel runs exhaust after the
    // same amount of total work.
    Status bst = options_.budget->OnDecisionPoint();
    if (!bst.ok()) {
      failure_ = std::move(bst);
      return false;
    }
  }
  ++stats_.bindings_tried;
  return true;
}

bool ValuationEnumerator::RecurseIds(
    size_t index, size_t lo, size_t hi,
    const std::function<bool(const IdValuation&)>& should_prune,
    const std::function<bool(const IdValuation&)>& on_total) {
  if (index == order_.size()) {
    const IdValuation total{slot_ids_.data(), order_.size(), this};
    // Naive-mode leaves check validity (domain membership and all
    // disequalities) on Values; this is the deliberately slow ablation
    // baseline, so the per-leaf materialization is part of the
    // measured algorithm.
    if (!options_.pruned && !tableau_->IsValidValuation(total.ToBindings())) {
      return true;
    }
    ++stats_.totals_delivered;
    return on_total(total);
  }
  // At sharded levels only the candidates whose rank block intersects
  // [lo, hi) are visited; below shard_depth_ the full list is.
  size_t k_begin = 0;
  size_t k_end = candidates_[index].size();
  const bool sharded = index < shard_depth_;
  size_t weight = 1;
  if (sharded) {
    weight = shard_weight_[index];
    k_begin = std::min(k_end, lo / weight);
    k_end = std::min(k_end, (hi + weight - 1) / weight);
  }
  for (size_t k = k_begin; k < k_end; ++k) {
    if (!EnterBindingStep()) return false;
    slot_ids_[index] = candidate_ids_[index][k];
    bool ok = true;
    if (options_.pruned) {
      for (size_t d : disequalities_at_[index]) {
        // Both ends are bound here (disequalities_at_ places a check at
        // the position binding its last variable), and id equality is
        // value equality under the unified mapping.
        if (DiseqOperandId(diseq_codes_[d].first) ==
            DiseqOperandId(diseq_codes_[d].second)) {
          ok = false;
          break;
        }
      }
      if (ok && should_prune != nullptr &&
          should_prune(IdValuation{slot_ids_.data(), index + 1, this})) {
        ok = false;
      }
      if (!ok) ++stats_.prunes;
    }
    if (ok) {
      size_t sub_lo = 0;
      size_t sub_hi = 0;
      if (sharded && index + 1 < shard_depth_) {
        // Clamp the child's rank range into this candidate's block.
        size_t block_lo = k * weight;
        sub_lo = lo > block_lo ? lo - block_lo : 0;
        sub_hi = std::min(hi - block_lo, weight);
      }
      if (!RecurseIds(index + 1, sub_lo, sub_hi, should_prune, on_total)) {
        slot_ids_[index] = kInvalidValueId;
        return false;
      }
    }
  }
  slot_ids_[index] = kInvalidValueId;
  return true;
}

Status ValuationEnumerator::EnumerateIds(
    const std::function<bool(const IdValuation&)>& should_prune,
    const std::function<bool(const IdValuation&)>& on_total) {
  if (!tableau_->satisfiable()) return Status::OK();
  failure_ = Status::OK();
  size_t lo = 0;
  size_t hi = 0;
  if (shard_depth_ > 0) {
    lo = options_.shard_begin;
    hi = std::min(options_.shard_end, PrefixSpace(shard_depth_));
    if (lo >= hi) return Status::OK();
  }
  slot_ids_.assign(order_.size(), kInvalidValueId);
  RecurseIds(0, lo, hi, should_prune, on_total);
  return failure_;
}

const Value& ValuationEnumerator::ResolveId(ValueId id) const {
  if (id < ValueInterner::kFreshIdBase &&
      id >= options_.interner->num_base_ids()) {
    return *synth_values_[ValueInterner::kFreshIdBase - 1 - id];
  }
  return options_.interner->ValueOf(id);
}

namespace {

/// Target work units per worker in uncontrolled runs: more units =
/// better load balancing, more per-unit setup (one enumerator
/// construction each).
constexpr size_t kUnitsPerThread = 4;

using IdCallback = std::function<bool(const IdValuation&)>;

/// `callback` with the worker index bound in (empty stays empty).
IdCallback ForWorker(
    const std::function<bool(size_t worker, const IdValuation&)>& callback,
    size_t worker) {
  if (callback == nullptr) return IdCallback();
  return [&callback, worker](const IdValuation& v) {
    return callback(worker, v);
  };
}

/// Atomically lowers `target` to at most `value`.
void StoreMin(std::atomic<size_t>* target, size_t value) {
  size_t cur = target->load(std::memory_order_acquire);
  while (value < cur &&
         !target->compare_exchange_weak(cur, value,
                                        std::memory_order_acq_rel)) {
  }
}

enum class UnitState : uint8_t {
  kPending,
  kExhausted,
  kHit,
  kAborted,
  kCancelled,
  /// The execution budget blew while this unit was in flight; its
  /// unsearched remainder is covered by the resume checkpoint.
  kBudget,
};

struct UnitInfo {
  size_t begin = 0;
  size_t end = 0;
  UnitState state = UnitState::kPending;
  size_t worker = SIZE_MAX;
  Status status;
};

}  // namespace

void ParallelValuationSearchIds(
    const TableauQuery& tableau, const ActiveDomain& adom,
    const ValuationEnumerator::Options& enum_options,
    const ParallelSearchOptions& parallel_options,
    const std::function<bool(size_t worker, const IdValuation&)>&
        should_prune,
    const std::function<bool(size_t worker, const IdValuation&)>& on_total,
    const std::function<ParallelUnitResult(size_t worker)>& epilogue,
    ParallelSearchOutcome* outcome) {
  *outcome = ParallelSearchOutcome();
  if (!tableau.satisfiable()) return;

  const size_t threads = std::max<size_t>(1, parallel_options.num_threads);
  ExecutionBudget* budget = enum_options.budget;
  const std::function<void(size_t)>& on_progress =
      parallel_options.on_progress;
  // Controlled runs (budget, resume or progress reports) always go
  // through the unit partition — with a thread-count-independent unit
  // target — so the counted decision points and rank checkpoints are
  // identical in serial and parallel mode.
  const bool controlled = budget != nullptr ||
                          parallel_options.resume_rank > 0 ||
                          on_progress != nullptr;

  // Plan the partition on a probe enumerator (order and candidate
  // lists are shard-independent, so the probe sees exactly what every
  // worker will see). Shard on the first variable when it alone yields
  // enough units, on the first two otherwise.
  ValuationEnumerator::Options probe_options = enum_options;
  probe_options.shard_depth = 0;
  probe_options.budget = nullptr;
  ValuationEnumerator probe(&tableau, &adom, probe_options);
  const size_t target_units =
      controlled ? kControlledUnits : threads * kUnitsPerThread;
  size_t depth = 0;
  if (!probe.order().empty()) {
    depth = 1;
    if (probe.CandidateCount(0) < target_units && probe.order().size() >= 2) {
      depth = 2;
    }
  }
  const size_t total = probe.PrefixSpace(depth);
  const size_t begin_rank = std::min(parallel_options.resume_rank, total);
  const size_t span = total - begin_rank;
  const size_t num_units = std::min(span, target_units);

  if (!controlled && (threads <= 1 || num_units <= 1)) {
    // Budget-free fast path: one enumerator over the whole space, no
    // per-unit prefix re-binding, no decision-point overhead.
    ValuationEnumerator enumerator(&tableau, &adom, enum_options);
    Status st = enumerator.EnumerateIds(ForWorker(should_prune, 0),
                                        ForWorker(on_total, 0));
    outcome->stats += enumerator.stats();
    ParallelUnitResult unit = epilogue(0);
    // Callback errors surface before the enumerator's own status, as
    // in the unit classification below (a prune-hook error aborts its
    // subtree first, then wins over any later failure).
    if (!unit.status.ok()) {
      outcome->failure = unit.status;
    } else if (!st.ok()) {
      outcome->failure = st;
    } else if (unit.found) {
      outcome->found = true;
      outcome->winner_worker = 0;
    } else {
      outcome->next_rank = total;
    }
    return;
  }
  if (num_units == 0) {
    // Resumed at (or past) the end of the rank space: every rank was
    // already searched by the interrupted run(s).
    outcome->next_rank = total;
    return;
  }

  std::vector<UnitInfo> units(num_units);
  for (size_t u = 0; u < num_units; ++u) {
    units[u].begin = begin_rank + u * span / num_units;
    units[u].end = begin_rank + (u + 1) * span / num_units;
  }
  const size_t num_workers = std::min(threads, num_units);

  std::atomic<size_t> next_unit{0};
  std::atomic<size_t> best_unit{SIZE_MAX};
  std::vector<ValuationSearchStats> worker_stats(num_workers);

  // Rolling checkpoints: the low watermark is the lowest unit not yet
  // run to exhaustion. Exhausting it advances the watermark past every
  // exhausted unit above it. A lone worker reports the new watermark's
  // begin rank itself, under the lock; a pool worker only records the
  // advance and signals, and the calling thread reports it (below).
  std::mutex progress_mu;
  std::condition_variable progress_cv;
  std::vector<char> unit_exhausted(num_units, 0);  // guarded by progress_mu
  size_t low_unit = 0;                             // guarded by progress_mu
  size_t workers_left = num_workers;               // guarded by progress_mu
  auto note_exhausted = [&](size_t u) {
    std::lock_guard<std::mutex> lock(progress_mu);
    unit_exhausted[u] = 1;
    const size_t before = low_unit;
    while (low_unit < num_units && unit_exhausted[low_unit] != 0) ++low_unit;
    if (low_unit == before || low_unit == num_units) return;
    if (num_workers == 1) {
      on_progress(units[low_unit].begin);
    } else {
      progress_cv.notify_one();
    }
  };

  auto worker_fn = [&](size_t w) {
    const IdCallback prune = ForWorker(should_prune, w);
    const IdCallback deliver = ForWorker(on_total, w);
    for (;;) {
      const size_t u = next_unit.fetch_add(1, std::memory_order_relaxed);
      if (u >= units.size()) break;
      // Units beyond an already-resolved winner cannot change the
      // deterministic outcome; stop claiming.
      if (u > best_unit.load(std::memory_order_acquire)) break;

      ValuationEnumerator::Options unit_options = enum_options;
      unit_options.shard_depth = depth;
      unit_options.shard_begin = units[u].begin;
      unit_options.shard_end = units[u].end;
      unit_options.best_unit = &best_unit;
      unit_options.unit = u;
      ValuationEnumerator enumerator(&tableau, &adom, unit_options);
      Status st = enumerator.EnumerateIds(prune, deliver);
      worker_stats[w] += enumerator.stats();
      ++worker_stats[w].work_units;
      ParallelUnitResult unit_result = epilogue(w);
      units[u].worker = w;

      // An exhausted shared budget — whether it surfaced through the
      // enumerator or through a callback's own budgeted evaluation —
      // is a global stop: no in-flight unit can be trusted to have
      // exhausted its shard, and every other worker stops at its next
      // decision point on the budget's sticky status. A user
      // CancelToken routed through the budget lands here too
      // (budget->exhausted() is its sticky record), so user
      // cancellation is never misread as the lowest-unit-wins stop.
      const bool budget_exhausted = budget != nullptr && budget->exhausted();
      if (!unit_result.status.ok() && !budget_exhausted) {
        // A deterministic callback failure at unit u: it takes
        // precedence over the enumerator's own status (matching the
        // serial deciders) and participates in winner resolution
        // exactly like a hit — the serial search would have surfaced
        // it at the same point in enumeration order.
        units[u].state = UnitState::kAborted;
        units[u].status = unit_result.status;
      } else if (st.ok() && unit_result.status.ok() && unit_result.found) {
        // A genuine in-shard hit: the unit ran to its own stopping
        // point, so it stands even if the budget blew elsewhere
        // concurrently (resolution still requires every lower unit to
        // have exhausted).
        units[u].state = UnitState::kHit;
      } else if (budget_exhausted) {
        units[u].state = UnitState::kBudget;
        units[u].status = budget->exhaustion_status();
        break;
      } else if (st.code() == StatusCode::kCancelled) {
        // Lowest-unit-wins: a lower unit already won; swallowed by
        // design.
        units[u].state = UnitState::kCancelled;
        ++worker_stats[w].work_units_cancelled;
        break;
      } else if (!st.ok()) {
        units[u].state = UnitState::kAborted;
        units[u].status = st;
      } else {
        units[u].state = UnitState::kExhausted;
        if (on_progress != nullptr) note_exhausted(u);
        continue;
      }
      // Hit or abort: publish u as the winner bound; enumerations of
      // later units see it at their next binding step and cancel.
      StoreMin(&best_unit, u);
      break;
    }
  };

  if (num_workers == 1) {
    // Controlled serial mode: the single worker claims and runs the
    // units in index order on the calling thread — the same unit
    // partition, decision points, and classification as the parallel
    // mode, without spawning a thread.
    worker_fn(0);
  } else {
    std::vector<std::jthread> pool;
    pool.reserve(num_workers);
    for (size_t w = 0; w < num_workers; ++w) {
      pool.emplace_back([&, w] {
        {
          // Each pool worker numbers its decision points from leased
          // runs (inert under a step cap or an injector).
          ExecutionBudget::Lease lease(budget);
          worker_fn(w);
        }
        std::lock_guard<std::mutex> lock(progress_mu);
        --workers_left;
        progress_cv.notify_one();
      });
    }
    if (on_progress != nullptr) {
      // This thread would idle in the joins: it reports the pool's
      // advances instead, outside the lock, so a slow sink (a durable
      // persist) stalls no search thread. Advances that land while a
      // report runs are reported once, as the newest watermark; one
      // still unreported when the last worker leaves is reported then.
      std::unique_lock<std::mutex> lock(progress_mu);
      size_t reported = 0;
      auto pending = [&] {
        return low_unit != reported && low_unit < num_units;
      };
      for (;;) {
        progress_cv.wait(lock, [&] { return workers_left == 0 || pending(); });
        if (!pending()) break;
        reported = low_unit;
        const size_t rank = units[reported].begin;
        lock.unlock();
        on_progress(rank);
        lock.lock();
      }
    }
  }  // joins

  for (const ValuationSearchStats& s : worker_stats) outcome->stats += s;

  // Deterministic resolution: scan units in index order; the first
  // non-exhausted unit decides. Only units above a winner are ever
  // cancelled, and every unit below one runs to exhaustion, so a
  // pending or cancelled unit before any hit means the budget stopped
  // the search.
  for (const UnitInfo& unit : units) {
    switch (unit.state) {
      case UnitState::kExhausted:
        continue;
      case UnitState::kHit:
        outcome->found = true;
        outcome->winner_worker = unit.worker;
        return;
      case UnitState::kAborted:
        outcome->failure = unit.status;
        return;
      case UnitState::kBudget:
        // Every lower unit exhausted without a hit, so this unit's
        // begin rank is a sound resume point.
        outcome->exhausted = true;
        outcome->next_rank = unit.begin;
        outcome->failure = unit.status;
        return;
      case UnitState::kPending:
      case UnitState::kCancelled:
        outcome->next_rank = unit.begin;
        if (budget != nullptr && budget->exhausted()) {
          outcome->exhausted = true;
          outcome->failure = budget->exhaustion_status();
        } else {
          outcome->failure = Status::Internal(
              "parallel valuation search left a work unit unresolved "
              "without a winner or a budget blow");
        }
        return;
    }
  }
  // Every unit exhausted: the whole rank space was searched.
  outcome->next_rank = total;
}

}  // namespace relcomp
