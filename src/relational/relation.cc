#include "relational/relation.h"

#include <algorithm>
#include <numeric>

namespace relcomp {

Relation::~Relation() = default;

Relation::Relation(const Relation& other)
    : arity_(other.arity_),
      interner_(other.interner_),
      tuples_(other.tuples_),
      ids_(other.ids_),
      sorted_(other.sorted_),
      dedup_(other.dedup_) {}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  arity_ = other.arity_;
  interner_ = other.interner_;
  tuples_ = other.tuples_;
  ids_ = other.ids_;
  sorted_ = other.sorted_;
  dedup_ = other.dedup_;
  InvalidateIndexes();
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : arity_(other.arity_),
      interner_(std::move(other.interner_)),
      tuples_(std::move(other.tuples_)),
      ids_(std::move(other.ids_)),
      sorted_(other.sorted_),
      dedup_(std::move(other.dedup_)) {}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  arity_ = other.arity_;
  interner_ = std::move(other.interner_);
  tuples_ = std::move(other.tuples_);
  ids_ = std::move(other.ids_);
  sorted_ = other.sorted_;
  dedup_ = std::move(other.dedup_);
  InvalidateIndexes();
  return *this;
}

Relation::InsertOutcome Relation::TryInsert(Tuple t) {
  if (t.arity() != arity_) return InsertOutcome::kArityMismatch;
  if (interner_ == nullptr) interner_ = std::make_shared<ValueInterner>();
  ValueId stack_ids[8];
  std::vector<ValueId> heap_ids;
  ValueId* row_ids = stack_ids;
  if (arity_ > 8) {
    heap_ids.resize(arity_);
    row_ids = heap_ids.data();
  }
  for (size_t i = 0; i < arity_; ++i) row_ids[i] = interner_->Intern(t[i]);
  uint64_t h = HashIds(row_ids, arity_);
  auto it = dedup_.find(h);
  if (it != dedup_.end()) {
    for (uint32_t row : it->second) {
      if (std::equal(row_ids, row_ids + arity_,
                     ids_.data() + static_cast<size_t>(row) * arity_)) {
        return InsertOutcome::kDuplicate;
      }
    }
  }
  // Appending a tuple that sorts after the current tail keeps the
  // relation sorted — bulk loads in Value order (the common case:
  // copying another relation's sorted iteration) never trigger a sort.
  if (sorted_ && !tuples_.empty() && t < tuples_.back()) sorted_ = false;
  uint32_t row = static_cast<uint32_t>(tuples_.size());
  tuples_.push_back(std::move(t));
  ids_.insert(ids_.end(), row_ids, row_ids + arity_);
  dedup_[h].push_back(row);
  InvalidateIndexes();
  return InsertOutcome::kInserted;
}

uint32_t Relation::FindRow(const Tuple& t) const {
  if (t.arity() != arity_ || tuples_.empty() || interner_ == nullptr) {
    return kNoRow;
  }
  ValueId stack_ids[8];
  std::vector<ValueId> heap_ids;
  ValueId* row_ids = stack_ids;
  if (arity_ > 8) {
    heap_ids.resize(arity_);
    row_ids = heap_ids.data();
  }
  for (size_t i = 0; i < arity_; ++i) {
    std::optional<ValueId> id = interner_->TryGet(t[i]);
    if (!id.has_value()) return kNoRow;  // never-seen value: no row has it
    row_ids[i] = *id;
  }
  auto it = dedup_.find(HashIds(row_ids, arity_));
  if (it == dedup_.end()) return kNoRow;
  for (uint32_t row : it->second) {
    if (std::equal(row_ids, row_ids + arity_,
                   ids_.data() + static_cast<size_t>(row) * arity_)) {
      return row;
    }
  }
  return kNoRow;
}

bool Relation::Erase(const Tuple& t) {
  uint32_t row = FindRow(t);
  if (row == kNoRow) return false;
  tuples_.erase(tuples_.begin() + row);
  ids_.erase(ids_.begin() + static_cast<size_t>(row) * arity_,
             ids_.begin() + static_cast<size_t>(row + 1) * arity_);
  RebuildDedup();
  InvalidateIndexes();
  return true;
}

void Relation::EnsureSorted() const {
  if (sorted_) return;
  size_t n = tuples_.size();
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(), [this](uint32_t a, uint32_t b) {
    return tuples_[a] < tuples_[b];
  });
  std::vector<Tuple> sorted_tuples;
  sorted_tuples.reserve(n);
  std::vector<ValueId> sorted_ids;
  sorted_ids.reserve(ids_.size());
  for (uint32_t row : perm) {
    sorted_tuples.push_back(std::move(tuples_[row]));
    const ValueId* src = ids_.data() + static_cast<size_t>(row) * arity_;
    sorted_ids.insert(sorted_ids.end(), src, src + arity_);
  }
  tuples_ = std::move(sorted_tuples);
  ids_ = std::move(sorted_ids);
  sorted_ = true;
  RebuildDedup();
  InvalidateIndexes();
}

void Relation::RebuildDedup() const {
  dedup_.clear();
  for (uint32_t row = 0; row < tuples_.size(); ++row) {
    dedup_[HashIds(ids_.data() + static_cast<size_t>(row) * arity_, arity_)]
        .push_back(row);
  }
}

std::vector<std::vector<size_t>> Relation::BuiltIndexColumnSets() const {
  std::vector<std::vector<size_t>> out;
  for (size_t col = 0; col < col_index_built_.size(); ++col) {
    if (col_index_built_[col]) out.push_back({col});
  }
  return out;
}

void Relation::InvalidateIndexes() const {
  col_index_.clear();
  col_index_built_.clear();
}

void Relation::EnsureColumnIndex(size_t col) const {
  EnsureSorted();  // first: sorting invalidates any per-column index
  if (col_index_built_.empty()) {
    col_index_.resize(arity_);
    col_index_built_.assign(arity_, 0);
  }
  if (col_index_built_[col]) return;
  auto& index = col_index_[col];
  for (uint32_t row = 0; row < tuples_.size(); ++row) {
    index[ids_[static_cast<size_t>(row) * arity_ + col]].push_back(row);
  }
  col_index_built_[col] = 1;
}

void Relation::PrepareForRead(const std::vector<size_t>* columns) const {
  EnsureSorted();
  if (columns != nullptr) {
    for (size_t col : *columns) EnsureColumnIndex(col);
  } else {
    for (size_t col = 0; col < arity_; ++col) EnsureColumnIndex(col);
  }
}

const std::vector<uint32_t>* Relation::Probe(size_t col,
                                             const Value& v) const {
  if (tuples_.empty() || interner_ == nullptr) return nullptr;
  std::optional<ValueId> id = interner_->TryGet(v);
  if (!id.has_value()) return nullptr;
  EnsureSorted();
  EnsureColumnIndex(col);
  auto it = col_index_[col].find(*id);
  if (it == col_index_[col].end()) return nullptr;
  return &it->second;
}

const std::vector<uint32_t>* Relation::ProbeId(size_t col, ValueId id) const {
  if (tuples_.empty()) return nullptr;
  EnsureSorted();
  EnsureColumnIndex(col);
  auto it = col_index_[col].find(id);
  if (it == col_index_[col].end()) return nullptr;
  return &it->second;
}

bool Relation::IsSubsetOf(const Relation& other) const {
  if (arity_ != other.arity_) return false;
  for (const Tuple& t : tuples_) {
    if (!other.Contains(t)) return false;
  }
  return true;
}

void Relation::UnionWith(const Relation& other) {
  if (&other == this) return;
  for (const Tuple& t : other) Insert(t);
}

bool Relation::operator==(const Relation& other) const {
  if (arity_ != other.arity_ || tuples_.size() != other.tuples_.size()) {
    return false;
  }
  EnsureSorted();
  other.EnsureSorted();
  return tuples_ == other.tuples_;
}

std::string Relation::ToString() const {
  EnsureSorted();
  std::string out = "{";
  bool first = true;
  for (const Tuple& t : tuples_) {
    if (!first) out += ", ";
    first = false;
    out += t.ToString();
  }
  out.push_back('}');
  return out;
}

}  // namespace relcomp
