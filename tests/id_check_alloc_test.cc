// A warmed-up constraint check over staged id rows allocates nothing.
// This executable replaces the global operator new to count heap
// allocations inside a measured window.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "constraints/constraint_check.h"
#include "util/arena.h"
#include "util/execution_control.h"
#include "workload/crm_scenario.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocations{0};
}  // namespace

void* operator new(size_t bytes) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(bytes == 0 ? 1 : bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace relcomp {
namespace {

TEST(EvalEquivalenceAllocationTest, WarmIdRowCheckAllocatesNothing) {
  // CRM under φ0 (a CQ constraint joining Cust and Supt): a delta
  // session over D, as the RCDP decider runs it.
  auto crm = CrmScenario::Make(CrmOptions());
  ASSERT_TRUE(crm.ok()) << crm.status().ToString();
  auto phi0 = crm->Phi0();
  ASSERT_TRUE(phi0.ok());
  ConstraintSet v;
  v.Add(*phi0);
  auto checker =
      DeltaConstraintChecker::Make(v, crm->db().schema_ptr(), crm->master());
  ASSERT_TRUE(checker.ok()) << checker.status().ToString();
  ExecutionBudget budget;
  budget.set_max_steps(size_t{1} << 40);
  Arena arena;
  ConjunctiveEvalOptions eval_options;
  eval_options.arena = &arena;
  eval_options.budget = &budget;
  ConstraintSession session = checker->NewSession(crm->db(), eval_options);
  DatabaseOverlay& view = session.view();
  const size_t cust = view.Slot("Cust", 5);
  const size_t supt = view.Slot("Supt", 3);

  // Candidate Δs as family id rows: a domestic customer (c1 is in
  // DCust) and an unknown one (c0's row renamed to cid "x0"), each
  // supported by e0. The second violates φ0.
  const ValueInterner& ids = *crm->db().interner();
  auto id = [&](const char* s) {
    std::optional<ValueId> found = ids.TryGet(Value::Str(s));
    EXPECT_TRUE(found.has_value()) << s;
    return found.value_or(0);
  };
  const std::vector<std::vector<ValueId>> cust_rows = {
      {id("c1"), id("n0"), id("01"), id("908"), id("555-1000")},
      {id("x0"), id("n0"), id("01"), id("908"), id("555-1000")}};
  const std::vector<ValueId> supt_rows[] = {
      {id("e0"), id("d0"), id("c1")}, {id("e0"), id("d0"), id("x0")}};
  auto check = [&](size_t k) {
    view.Clear();
    view.AddIds(cust, cust_rows[k].data());
    view.AddIds(supt, supt_rows[k].data());
    arena.Reset();
    return session.Check();
  };
  // Warm up: staging buffers and arena blocks reach their size.
  for (size_t k = 0; k < 4; ++k) {
    Result<bool> ok = check(k % 2);
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(*ok, k % 2 == 0);
  }
  size_t satisfied = 0;
  g_allocations.store(0);
  g_counting.store(true);
  for (size_t k = 0; k < 100; ++k) {
    Result<bool> ok = check(k % 2);
    satisfied += ok.ok() && *ok ? 1 : 0;
  }
  g_counting.store(false);
  EXPECT_EQ(satisfied, 50u);
  EXPECT_EQ(g_allocations.load(), 0u);
}

}  // namespace
}  // namespace relcomp
