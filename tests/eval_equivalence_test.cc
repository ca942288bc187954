#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "eval/conjunctive_eval.h"
#include "relational/database_overlay.h"
#include "util/arena.h"
#include "util/str.h"
#include "workload/generators.h"

namespace relcomp {
namespace {

/// Brute-force oracle: enumerates every total assignment of the body
/// variables over adom(D) ∪ constants(Q), checks each atom by direct
/// containment, and collects the head tuples. Independent of the
/// matcher (no atom ordering, no indexes, no id plane) by construction.
Relation OracleEval(const ConjunctiveQuery& q, const Database& db) {
  std::set<Value> domain_set = q.Constants();
  db.CollectConstants(&domain_set);
  std::vector<Value> domain(domain_set.begin(), domain_set.end());
  std::set<std::string> var_set = q.Variables();
  std::vector<std::string> vars(var_set.begin(), var_set.end());

  Relation out(q.head().size());
  Bindings bindings;
  std::function<void(size_t)> recurse = [&](size_t i) {
    if (i == vars.size()) {
      for (const Atom& a : q.body()) {
        if (a.is_relation()) {
          std::optional<Tuple> t = bindings.Ground(a.args());
          if (!t.has_value() || !db.Contains(a.relation(), *t)) return;
        } else {
          std::optional<bool> v = bindings.EvalComparison(a);
          if (!v.has_value() || !*v) return;
        }
      }
      std::optional<Tuple> head = bindings.Ground(q.head());
      if (head.has_value()) out.Insert(std::move(*head));
      return;
    }
    for (const Value& v : domain) {
      bindings.Set(vars[i], v);
      recurse(i + 1);
    }
    bindings.Unset(vars[i]);
  };
  recurse(0);
  return out;
}

struct Config {
  RandomInstanceOptions instance;
  RandomCqOptions cq;
};

void RunEquivalenceRounds(const Config& config, uint64_t seed,
                          int rounds) {
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    std::shared_ptr<Schema> schema = RandomSchema(config.instance, &rng);
    Database db = RandomDatabase(schema, config.instance, &rng);
    ConjunctiveQuery q = RandomCq(*schema, config.cq, &rng);

    Relation oracle = OracleEval(q, db);

    ConjunctiveEvalOptions indexed;  // defaults: reorder + indexes
    Result<Relation> fast = EvalConjunctive(q, db, indexed);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();

    // Indexed probes in textual atom order: the same posting lists,
    // reached with a different set of positions bound.
    ConjunctiveEvalOptions textual = indexed;
    textual.reorder_atoms = false;
    Result<Relation> cols = EvalConjunctive(q, db, textual);
    ASSERT_TRUE(cols.ok()) << cols.status().ToString();

    // Arena-backed run of the default config: all per-call matcher
    // scratch lives in the bump arena.
    Arena arena;
    ConjunctiveEvalOptions with_arena = indexed;
    with_arena.arena = &arena;
    Result<Relation> arena_run = EvalConjunctive(q, db, with_arena);
    ASSERT_TRUE(arena_run.ok()) << arena_run.status().ToString();

    ConjunctiveEvalOptions naive;
    naive.reorder_atoms = false;
    naive.use_indexes = false;
    Result<Relation> slow = EvalConjunctive(q, db, naive);
    ASSERT_TRUE(slow.ok()) << slow.status().ToString();

    EXPECT_EQ(*fast, oracle)
        << "indexed matcher diverges from oracle at round " << round
        << "\nquery: " << q.ToString() << "\ndb:\n" << db.ToString();
    EXPECT_EQ(*cols, oracle)
        << "textual-order matcher diverges from oracle at round " << round
        << "\nquery: " << q.ToString() << "\ndb:\n" << db.ToString();
    EXPECT_EQ(*arena_run, oracle)
        << "arena-backed matcher diverges from oracle at round " << round
        << "\nquery: " << q.ToString() << "\ndb:\n" << db.ToString();
    EXPECT_EQ(*slow, oracle)
        << "naive matcher diverges from oracle at round " << round
        << "\nquery: " << q.ToString() << "\ndb:\n" << db.ToString();

    // Overlay equivalence: split the instance into a base holding the
    // even-indexed tuples and an overlay staging the rest; the view
    // must evaluate exactly like the materialized whole.
    Database base(schema);
    std::vector<std::pair<std::string, Tuple>> staged;
    size_t n = 0;
    for (const std::string& name : schema->relation_names()) {
      for (const Tuple& t : db.Get(name)) {
        if (n++ % 2 == 0) {
          base.InsertUnchecked(name, t);
        } else {
          staged.emplace_back(name, t);
        }
      }
    }
    DatabaseOverlay view(&base);
    for (const auto& [name, t] : staged) view.Add(name, t);
    Result<Relation> over = EvalConjunctive(q, view, indexed);
    ASSERT_TRUE(over.ok()) << over.status().ToString();
    EXPECT_EQ(*over, oracle)
        << "overlay eval diverges from oracle at round " << round
        << "\nquery: " << q.ToString() << "\ndb:\n" << db.ToString();

    // Fresh-id overlay rows: stage tuples whose values the base
    // interner has never seen (they get synthetic ids inside the
    // matcher). The view must agree with an independent database that
    // materializes the same rows.
    Database with_fresh(schema);  // own interner: db's never sees these
    DatabaseOverlay fresh_view(&db);
    for (const std::string& name : schema->relation_names()) {
      for (const Tuple& t : db.Get(name)) with_fresh.InsertUnchecked(name, t);
    }
    size_t fresh_rel = 0;
    for (const std::string& name : schema->relation_names()) {
      std::vector<Value> vals;
      const size_t arity = schema->FindRelation(name)->arity();
      for (size_t c = 0; c < arity; ++c) {
        vals.push_back(Value::Str(StrCat("fresh$", round, "_", fresh_rel,
                                         "_", c)));
      }
      ++fresh_rel;
      Tuple t(std::move(vals));
      with_fresh.InsertUnchecked(name, t);
      fresh_view.Add(name, t);
    }
    Relation fresh_oracle = OracleEval(q, with_fresh);
    Result<Relation> fresh_fast = EvalConjunctive(q, fresh_view, indexed);
    ASSERT_TRUE(fresh_fast.ok()) << fresh_fast.status().ToString();
    EXPECT_EQ(*fresh_fast, fresh_oracle)
        << "indexed matcher diverges on fresh overlay rows at round "
        << round << "\nquery: " << q.ToString() << "\ndb:\n"
        << with_fresh.ToString();
    Result<Relation> fresh_cols = EvalConjunctive(q, fresh_view, textual);
    ASSERT_TRUE(fresh_cols.ok()) << fresh_cols.status().ToString();
    EXPECT_EQ(*fresh_cols, fresh_oracle)
        << "textual-order matcher diverges on fresh overlay rows at round "
        << round << "\nquery: " << q.ToString() << "\ndb:\n"
        << with_fresh.ToString();
  }
}

TEST(EvalEquivalenceTest, SmallDenseInstances) {
  Config config;
  config.instance.num_relations = 2;
  config.instance.max_arity = 2;
  config.instance.value_pool = 3;
  config.instance.tuples_per_relation = 4;
  config.cq.num_atoms = 2;
  config.cq.num_variables = 3;
  config.cq.value_pool = 3;
  RunEquivalenceRounds(config, /*seed=*/0xA11CE, /*rounds=*/60);
}

TEST(EvalEquivalenceTest, WiderJoinsAndConstants) {
  Config config;
  config.instance.num_relations = 3;
  config.instance.max_arity = 3;
  config.instance.value_pool = 4;
  config.instance.tuples_per_relation = 5;
  config.cq.num_atoms = 3;
  config.cq.num_variables = 4;
  config.cq.constant_pct = 40;
  config.cq.value_pool = 4;
  RunEquivalenceRounds(config, /*seed=*/0xB0B, /*rounds=*/30);
}

TEST(EvalEquivalenceTest, DisequalityHeavyQueries) {
  Config config;
  config.instance.num_relations = 2;
  config.instance.max_arity = 2;
  config.instance.value_pool = 3;
  config.instance.tuples_per_relation = 4;
  config.cq.num_atoms = 2;
  config.cq.num_variables = 4;
  config.cq.disequality_pct = 100;
  config.cq.value_pool = 3;
  RunEquivalenceRounds(config, /*seed=*/0xD15E0, /*rounds=*/60);
}

TEST(EvalEquivalenceTest, EmptyRelationsAndEmptyPrefixProbes) {
  // One relation is emptied per round, so atoms over it hit the
  // zero-row paths (no index); and the query's constant
  // pool is wider than the instance's, so some constants are unknown to
  // the interner — their probes must resolve to the empty prefix on
  // every configuration.
  Config config;
  config.instance.num_relations = 3;
  config.instance.max_arity = 3;
  config.instance.value_pool = 3;
  config.instance.tuples_per_relation = 4;
  config.cq.num_atoms = 3;
  config.cq.num_variables = 3;
  config.cq.constant_pct = 50;
  config.cq.value_pool = 6;  // half the constants never occur in D
  Rng rng(0xE3971);
  for (int round = 0; round < 40; ++round) {
    std::shared_ptr<Schema> schema = RandomSchema(config.instance, &rng);
    Database full = RandomDatabase(schema, config.instance, &rng);
    Database db(schema);
    size_t idx = 0;
    for (const std::string& name : schema->relation_names()) {
      if (idx++ == static_cast<size_t>(round) % 3) continue;  // emptied
      for (const Tuple& t : full.Get(name)) db.InsertUnchecked(name, t);
    }
    ConjunctiveQuery q = RandomCq(*schema, config.cq, &rng);
    Relation oracle = OracleEval(q, db);

    ConjunctiveEvalOptions indexed;
    ConjunctiveEvalOptions textual;
    textual.reorder_atoms = false;
    ConjunctiveEvalOptions naive;
    naive.reorder_atoms = false;
    naive.use_indexes = false;
    for (const ConjunctiveEvalOptions* options :
         {&indexed, &textual, &naive}) {
      Result<Relation> got = EvalConjunctive(q, db, *options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, oracle)
          << "matcher diverges from oracle at round " << round
          << "\nquery: " << q.ToString() << "\ndb:\n" << db.ToString();
    }
  }
}

TEST(EvalEquivalenceTest, RepeatedVariablesWithinAtoms) {
  // Few variables and wider atoms force repeated variables inside a
  // single atom — the matcher's trickiest binding path.
  Config config;
  config.instance.num_relations = 2;
  config.instance.min_arity = 2;
  config.instance.max_arity = 3;
  config.instance.value_pool = 2;
  config.instance.tuples_per_relation = 6;
  config.cq.num_atoms = 2;
  config.cq.num_variables = 2;
  config.cq.value_pool = 2;
  RunEquivalenceRounds(config, /*seed=*/0x5EED, /*rounds=*/60);
}

}  // namespace
}  // namespace relcomp
