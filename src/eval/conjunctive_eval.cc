#include "eval/conjunctive_eval.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>

#include "util/str.h"

namespace relcomp {
namespace {

/// Term references compiled per atom argument: codes >= 0 are variable
/// slots, negative codes index the compiled constant table.
constexpr int32_t ConstCode(size_t index) {
  return -static_cast<int32_t>(index) - 1;
}
constexpr size_t ConstIndex(int32_t code) {
  return static_cast<size_t>(-code - 1);
}

struct CompiledAtom {
  const Atom* atom;
  size_t nargs;
  /// Offset into Impl::refs of nargs term codes.
  size_t ref_offset;
};

struct CompiledCmp {
  int32_t lhs;
  int32_t rhs;
  bool ne;
};

/// Allocates run scratch from the caller's arena when one is attached,
/// from owned heap blocks otherwise (freed with the run).
class ScratchAlloc {
 public:
  explicit ScratchAlloc(Arena* arena) : arena_(arena) {}

  template <typename T>
  T* Alloc(size_t n) {
    static_assert(std::is_trivially_destructible<T>::value);
    size_t bytes = n * sizeof(T);
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->Allocate(bytes, alignof(T)));
    }
    owned_.push_back(std::make_unique<char[]>(bytes + alignof(T)));
    uintptr_t p = reinterpret_cast<uintptr_t>(owned_.back().get());
    p = (p + alignof(T) - 1) & ~(uintptr_t(alignof(T)) - 1);
    return reinterpret_cast<T*>(p);
  }

 private:
  Arena* arena_;
  std::vector<std::unique_ptr<char[]>> owned_;
};

}  // namespace

/// The compile-time half: variable slots, per-atom term codes, and the
/// head layout. Immutable after construction and borrowable by any
/// number of concurrent runs.
struct CompiledCq::Impl {
  const ConjunctiveQuery* q;
  size_t nslots = 0;
  size_t max_arity = 0;
  std::vector<std::string> var_names;   // slot -> name
  std::vector<const Value*> consts;     // const index -> borrowed value
  std::vector<int32_t> refs;            // packed per-atom term codes
  std::vector<CompiledAtom> atoms;      // relation atoms, textual order
  std::vector<CompiledCmp> cmps;
  std::vector<int32_t> head;
  std::vector<std::string> body_relations;  // sorted, distinct

  explicit Impl(const ConjunctiveQuery& query) : q(&query) {
    std::map<std::string, int32_t> slot_of;
    auto code_of = [&](const Term& t) -> int32_t {
      if (t.is_constant()) {
        consts.push_back(&t.value());
        return ConstCode(consts.size() - 1);
      }
      auto [it, fresh] =
          slot_of.emplace(t.var(), static_cast<int32_t>(var_names.size()));
      if (fresh) var_names.push_back(t.var());
      return it->second;
    };
    for (const Atom& a : query.body()) {
      if (a.is_relation()) {
        CompiledAtom ca;
        ca.atom = &a;
        ca.nargs = a.args().size();
        ca.ref_offset = refs.size();
        for (const Term& t : a.args()) refs.push_back(code_of(t));
        max_arity = std::max(max_arity, ca.nargs);
        atoms.push_back(ca);
      } else {
        cmps.push_back({code_of(a.lhs()), code_of(a.rhs()),
                        a.op() == CmpOp::kNe});
      }
    }
    for (const Term& t : query.head()) head.push_back(code_of(t));
    nslots = var_names.size();
    for (const CompiledAtom& ca : atoms) {
      body_relations.push_back(ca.atom->relation());
    }
    std::sort(body_relations.begin(), body_relations.end());
    body_relations.erase(
        std::unique(body_relations.begin(), body_relations.end()),
        body_relations.end());
  }
};

namespace {

/// One evaluation of a compiled query over one overlay view. All hot
/// state is ids: variable slots hold ValueIds (kInvalidValueId when
/// unbound), rows are id arrays — base rows and the overlay's staged
/// rows alike, read in place — and every per-step consistency check is
/// a 32-bit compare. Values appear only at match delivery, which
/// resolves slot ids back through the view.
///
/// Ids are the view's (DatabaseOverlay::IdOf): a value the family
/// interner has never seen — a staged value or a query constant — has
/// the overlay's synthetic id, which no base row holds, so id equality
/// remains value equality throughout the run.
class Run {
 public:
  Run(const CompiledCq::Impl& c, const DatabaseOverlay& db,
      const CqBinding* binding, const ConjunctiveEvalOptions& opt)
      : c_(c), db_(db), opt_(opt), scratch_(opt.arena) {
    size_t natoms = c_.atoms.size();
    slot_id_ = scratch_.Alloc<ValueId>(c_.nslots);
    std::fill(slot_id_, slot_id_ + c_.nslots, kInvalidValueId);
    const_id_ = scratch_.Alloc<ValueId>(c_.consts.size());
    for (size_t i = 0; i < c_.consts.size(); ++i) {
      ValueId id = binding != nullptr ? binding->const_ids[i]
                                      : kInvalidValueId;
      const_id_[i] = id != kInvalidValueId ? id : db.IdOf(*c_.consts[i]);
    }
    used_ = scratch_.Alloc<bool>(natoms);
    std::fill(used_, used_ + natoms, false);
    rels_ = scratch_.Alloc<const Relation*>(natoms);
    staged_ = scratch_.Alloc<DatabaseOverlay::StagedRows>(natoms);
    sizes_ = scratch_.Alloc<size_t>(natoms);
    for (size_t i = 0; i < natoms; ++i) {
      const CompiledAtom& ca = c_.atoms[i];
      size_t slot;
      if (binding != nullptr) {
        rels_[i] = binding->atoms[i].base;
        slot = binding->atoms[i].slot;
      } else {
        rels_[i] = &db.BaseRelation(ca.atom->relation());
        slot = db.FindSlot(ca.atom->relation());
      }
      if (rels_[i] != nullptr &&
          (rels_[i]->empty() || rels_[i]->arity() != ca.nargs)) {
        rels_[i] = nullptr;
      }
      staged_[i] = db.Staged(slot);
      if (staged_[i].arity != ca.nargs) staged_[i] = {};
      sizes_[i] = (rels_[i] != nullptr ? rels_[i]->size() : 0) +
                  staged_[i].count;
    }
    // Per-depth step frames (bound ids, newly bound slots, bound column
    // list) — preallocated so the search never touches an allocator.
    bound_ = scratch_.Alloc<ValueId>(natoms * c_.max_arity);
    newly_ = scratch_.Alloc<int32_t>(natoms * c_.max_arity);
    cols_ = scratch_.Alloc<size_t>(natoms * c_.max_arity);
    head_ids_ = scratch_.Alloc<ValueId>(c_.head.size());
    head_vals_ = scratch_.Alloc<const Value*>(c_.head.size());
  }

  /// Runs the search; `on_total` fires per total match and returns
  /// false to stop.
  void Enumerate(const std::function<bool()>& on_total) {
    on_total_ = &on_total;
    Search(0);
  }

  /// Resolves the head under the current total match into head_ids()/
  /// head_vals(); false if a head variable is unbound.
  bool GroundHead() {
    for (size_t i = 0; i < c_.head.size(); ++i) {
      int32_t code = c_.head[i];
      ValueId id = code >= 0 ? slot_id_[code] : const_id_[ConstIndex(code)];
      if (id == kInvalidValueId) return false;
      head_ids_[i] = id;
      head_vals_[i] = &Resolve(id);
    }
    return true;
  }

  const ValueId* head_ids() const { return head_ids_; }
  const Value* const* head_vals() const { return head_vals_; }

  void FillBindings(Bindings* b) const {
    for (size_t s = 0; s < c_.nslots; ++s) {
      if (slot_id_[s] != kInvalidValueId) {
        b->Set(c_.var_names[s], Resolve(slot_id_[s]));
      }
    }
  }

 private:
  const Value& Resolve(ValueId id) const { return db_.ValueOf(id); }

  ValueId OperandId(int32_t code) const {
    return code >= 0 ? slot_id_[code] : const_id_[ConstIndex(code)];
  }

  /// False iff some comparison with both operands bound is violated.
  bool ComparisonsConsistent() const {
    for (const CompiledCmp& cmp : c_.cmps) {
      ValueId l = OperandId(cmp.lhs);
      ValueId r = OperandId(cmp.rhs);
      if (l == kInvalidValueId || r == kInvalidValueId) continue;
      bool eq = l == r;
      if (cmp.ne ? eq : !eq) return false;
    }
    return true;
  }

  /// Matches one candidate id row against the atom, binding unbound
  /// slots, then recurses. Returns false iff the search was stopped.
  bool TryRow(size_t depth, size_t pick, const ValueId* row_ids,
              ValueId* bound, int32_t* newly, const CompiledAtom& ca,
              bool* matched) {
    const int32_t* refs = c_.refs.data() + ca.ref_offset;
    int nnew = 0;
    bool ok = true;
    for (size_t i = 0; i < ca.nargs && ok; ++i) {
      ValueId rid = row_ids[i];
      ValueId b = bound[i];
      if (b != kInvalidValueId) {
        ok = rid == b;
      } else {
        // Unbound at atom entry: a variable, possibly repeated and
        // bound at an earlier position of this same row.
        int32_t s = refs[i];
        ValueId cur = slot_id_[s];
        if (cur != kInvalidValueId) {
          ok = cur == rid;
        } else {
          slot_id_[s] = rid;
          newly[nnew++] = s;
        }
      }
    }
    if (ok && ComparisonsConsistent()) {
      *matched = true;
      bool keep = Search(depth + 1);
      for (int j = 0; j < nnew; ++j) slot_id_[newly[j]] = kInvalidValueId;
      if (!keep) {
        used_[pick] = false;
        return false;
      }
    } else {
      for (int j = 0; j < nnew; ++j) slot_id_[newly[j]] = kInvalidValueId;
    }
    return true;
  }

  bool Search(size_t depth) {
    size_t natoms = c_.atoms.size();
    if (depth == natoms) {
      // All relation atoms matched; all comparisons must be decidable
      // and hold.
      for (const CompiledCmp& cmp : c_.cmps) {
        ValueId l = OperandId(cmp.lhs);
        ValueId r = OperandId(cmp.rhs);
        if (l == kInvalidValueId || r == kInvalidValueId) return true;
        bool eq = l == r;
        if (cmp.ne ? eq : !eq) return true;  // unsatisfied: skip match
      }
      return (*on_total_)();
    }
    // Pick the next atom: most bound arguments; among ties, the
    // smallest relation (drives joins from deltas and selective atoms).
    size_t pick = 0;
    if (opt_.reorder_atoms) {
      int best = -1;
      size_t best_size = 0;
      for (size_t i = 0; i < natoms; ++i) {
        if (used_[i]) continue;
        const int32_t* refs = c_.refs.data() + c_.atoms[i].ref_offset;
        int score = 0;
        for (size_t j = 0; j < c_.atoms[i].nargs; ++j) {
          int32_t code = refs[j];
          score += (code < 0 || slot_id_[code] != kInvalidValueId) ? 1 : 0;
        }
        if (score > best || (score == best && sizes_[i] < best_size)) {
          best = score;
          best_size = sizes_[i];
          pick = i;
        }
      }
    } else {
      while (pick < natoms && used_[pick]) ++pick;
    }
    used_[pick] = true;
    const CompiledAtom& ca = c_.atoms[pick];
    const int32_t* refs = c_.refs.data() + ca.ref_offset;
    ValueId* bound = bound_ + depth * c_.max_arity;
    int32_t* newly = newly_ + depth * c_.max_arity;
    size_t* cols = cols_ + depth * c_.max_arity;

    // Positions bound before this atom: constants and slots bound at
    // shallower depths.
    size_t ncols = 0;
    bool any_synth = false;
    for (size_t i = 0; i < ca.nargs; ++i) {
      ValueId b = OperandId(refs[i]);
      bound[i] = b;
      if (b != kInvalidValueId) {
        cols[ncols++] = i;
        any_synth = any_synth || db_.IsSynthetic(b);
      }
    }

    // --- Base rows. A synthetic bound id can never match a base row
    // (its value is not in the family interner), so base is skipped
    // outright in that case.
    if (rels_[pick] != nullptr && !any_synth) {
      const Relation& rel = *rels_[pick];
      const std::vector<uint32_t>* rows = nullptr;
      bool possible = true;
      bool scan = false;
      if (opt_.use_indexes && ncols >= 1) {
        for (size_t j = 0; j < ncols; ++j) {
          const std::vector<uint32_t>* r =
              rel.ProbeId(cols[j], bound[cols[j]]);
          if (opt_.counters != nullptr) ++opt_.counters->index_probes;
          if (r == nullptr) {
            rows = nullptr;
            possible = false;  // bound value absent from column
            break;
          }
          if (rows == nullptr || r->size() < rows->size()) rows = r;
        }
      } else {
        scan = true;
        if (opt_.counters != nullptr) ++opt_.counters->relation_scans;
      }
      if (possible) {
        bool matched = false;
        if (rows != nullptr) {
          for (uint32_t row : *rows) {
            if (opt_.counters != nullptr) {
              ++opt_.counters->base_rows_considered;
            }
            if (!TryRow(depth, pick, rel.RowIds(row), bound, newly, ca,
                        &matched)) {
              return false;
            }
          }
        } else if (scan) {
          for (uint32_t row = 0; row < rel.size(); ++row) {
            if (opt_.counters != nullptr) {
              ++opt_.counters->base_rows_considered;
            }
            if (!TryRow(depth, pick, rel.RowIds(row), bound, newly, ca,
                        &matched)) {
              return false;
            }
          }
        }
      }
    }

    // --- Overlay-staged rows, read in place.
    const DatabaseOverlay::StagedRows& staged = staged_[pick];
    for (size_t k = 0; k < staged.count; ++k) {
      if (opt_.counters != nullptr) ++opt_.counters->overlay_rows_considered;
      bool matched = false;
      bool keep =
          TryRow(depth, pick, staged.row(k), bound, newly, ca, &matched);
      if (matched && opt_.counters != nullptr) ++opt_.counters->overlay_hits;
      if (!keep) return false;
    }

    used_[pick] = false;
    return true;
  }

  const CompiledCq::Impl& c_;
  const DatabaseOverlay& db_;
  const ConjunctiveEvalOptions& opt_;
  ScratchAlloc scratch_;
  ValueId* slot_id_ = nullptr;
  ValueId* const_id_ = nullptr;
  bool* used_ = nullptr;
  /// Per atom: base rows read (null: none) and staged rows read.
  const Relation** rels_ = nullptr;
  DatabaseOverlay::StagedRows* staged_ = nullptr;
  size_t* sizes_ = nullptr;
  ValueId* bound_ = nullptr;
  int32_t* newly_ = nullptr;
  size_t* cols_ = nullptr;
  ValueId* head_ids_ = nullptr;
  const Value** head_vals_ = nullptr;
  const std::function<bool()>* on_total_ = nullptr;
};

}  // namespace

CompiledCq::CompiledCq(const ConjunctiveQuery& q)
    : impl_(std::make_unique<Impl>(q)) {}
CompiledCq::~CompiledCq() = default;
CompiledCq::CompiledCq(CompiledCq&&) noexcept = default;
CompiledCq& CompiledCq::operator=(CompiledCq&&) noexcept = default;

const ConjunctiveQuery& CompiledCq::query() const { return *impl_->q; }

const std::vector<std::string>& CompiledCq::body_relations() const {
  return impl_->body_relations;
}

CqBinding CompiledCq::Bind(
    DatabaseOverlay* view,
    const std::function<std::optional<CqBinding::Atom>(
        const std::string& relation)>& resolve) const {
  CqBinding binding;
  binding.atoms.reserve(impl_->atoms.size());
  for (const CompiledAtom& ca : impl_->atoms) {
    const std::string& relation = ca.atom->relation();
    std::optional<CqBinding::Atom> atom;
    if (resolve != nullptr) atom = resolve(relation);
    if (!atom.has_value()) {
      atom = CqBinding::Atom{&view->BaseRelation(relation),
                             view->Slot(relation, ca.nargs)};
    }
    binding.atoms.push_back(*atom);
  }
  const ValueInterner& interner = *view->base().interner();
  binding.const_ids.reserve(impl_->consts.size());
  for (const Value* v : impl_->consts) {
    binding.const_ids.push_back(interner.TryGet(*v).value_or(kInvalidValueId));
  }
  return binding;
}

Status CompiledCq::ForEachHeadMatch(
    const DatabaseOverlay& db, const CqBinding* binding,
    const ConjunctiveEvalOptions& options,
    const std::function<bool(const ValueId*, const Value* const*)>& on_head)
    const {
  Run run(*impl_, db, binding, options);
  run.Enumerate([&]() {
    if (!run.GroundHead()) return true;  // unbound head var: skip
    return on_head(run.head_ids(), run.head_vals());
  });
  return Status::OK();
}

Status CompiledCq::ForEachMatch(
    const DatabaseOverlay& db, const ConjunctiveEvalOptions& options,
    const std::function<bool(const Bindings&)>& on_match) const {
  Run run(*impl_, db, nullptr, options);
  run.Enumerate([&]() {
    Bindings b;
    run.FillBindings(&b);
    return on_match(b);
  });
  return Status::OK();
}

Status ForEachMatch(const ConjunctiveQuery& q, const DatabaseOverlay& db,
                    const ConjunctiveEvalOptions& options,
                    const std::function<bool(const Bindings&)>& on_match) {
  return CompiledCq(q).ForEachMatch(db, options, on_match);
}

Status ForEachMatch(const ConjunctiveQuery& q, const Database& db,
                    const ConjunctiveEvalOptions& options,
                    const std::function<bool(const Bindings&)>& on_match) {
  DatabaseOverlay view(&db);
  return ForEachMatch(q, view, options, on_match);
}

Result<Relation> EvalConjunctive(const ConjunctiveQuery& q,
                                 const DatabaseOverlay& db,
                                 const ConjunctiveEvalOptions& options) {
  // Share the view's interner family when it is still growable so the
  // answer's id plane lines up with the instance (the deciders probe
  // the current answer by id); once frozen, fall back to a private
  // interner — inserting then re-interns but cannot trip the freeze
  // tripwire.
  const std::shared_ptr<ValueInterner>& family = db.base().interner();
  Relation out(q.arity(),
               (family != nullptr && !family->frozen()) ? family : nullptr);
  std::vector<Value> row;
  row.reserve(q.arity());
  CompiledCq compiled(q);
  Status st = compiled.ForEachHeadMatch(
      db, nullptr, options, [&](const ValueId*, const Value* const* vals) {
        row.clear();
        for (size_t i = 0; i < q.arity(); ++i) row.push_back(*vals[i]);
        out.Insert(Tuple(row));
        return true;
      });
  RELCOMP_RETURN_NOT_OK(st);
  return out;
}

Result<Relation> EvalConjunctive(const ConjunctiveQuery& q,
                                 const Database& db,
                                 const ConjunctiveEvalOptions& options) {
  DatabaseOverlay view(&db);
  return EvalConjunctive(q, view, options);
}

Result<Relation> EvalUnion(const UnionQuery& q, const DatabaseOverlay& db,
                           const ConjunctiveEvalOptions& options) {
  const std::shared_ptr<ValueInterner>& family = db.base().interner();
  Relation out(q.arity(),
               (family != nullptr && !family->frozen()) ? family : nullptr);
  for (const ConjunctiveQuery& cq : q.disjuncts()) {
    RELCOMP_ASSIGN_OR_RETURN(Relation sub, EvalConjunctive(cq, db, options));
    out.UnionWith(sub);
  }
  return out;
}

Result<Relation> EvalUnion(const UnionQuery& q, const Database& db,
                           const ConjunctiveEvalOptions& options) {
  DatabaseOverlay view(&db);
  return EvalUnion(q, view, options);
}

Result<bool> ConjunctiveSatisfiedIn(const ConjunctiveQuery& q,
                                    const DatabaseOverlay& db,
                                    const ConjunctiveEvalOptions& options) {
  bool found = false;
  CompiledCq compiled(q);
  Status st = compiled.ForEachHeadMatch(
      db, nullptr, options, [&](const ValueId*, const Value* const*) {
        found = true;
        return false;  // stop
      });
  RELCOMP_RETURN_NOT_OK(st);
  return found;
}

Result<bool> ConjunctiveSatisfiedIn(const ConjunctiveQuery& q,
                                    const Database& db,
                                    const ConjunctiveEvalOptions& options) {
  DatabaseOverlay view(&db);
  return ConjunctiveSatisfiedIn(q, view, options);
}

}  // namespace relcomp
