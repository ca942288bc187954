#include "relational/database_overlay.h"

#include <algorithm>
#include <cassert>

namespace relcomp {

DatabaseOverlay::DatabaseOverlay(const Database* base) : base_(base) {}

DatabaseOverlay::~DatabaseOverlay() { ReleaseCharge(); }

DatabaseOverlay::DatabaseOverlay(DatabaseOverlay&& other) noexcept
    : base_(other.base_),
      slots_(std::move(other.slots_)),
      slot_of_(std::move(other.slot_of_)),
      pending_count_(other.pending_count_),
      synth_(std::move(other.synth_)),
      row_buf_(std::move(other.row_buf_)),
      tracker_(other.tracker_),
      charged_bytes_(other.charged_bytes_) {
  other.pending_count_ = 0;
  other.tracker_ = nullptr;
  other.charged_bytes_ = 0;
}

void DatabaseOverlay::ReleaseCharge() {
  if (tracker_ != nullptr && charged_bytes_ > 0) {
    tracker_->ReleaseBytes(charged_bytes_);
  }
  charged_bytes_ = 0;
}

size_t DatabaseOverlay::Slot(std::string_view relation, size_t arity) {
  auto it = slot_of_.find(relation);
  if (it != slot_of_.end()) {
    return slots_[it->second].arity == arity ? it->second : kNoSlot;
  }
  const RelationSchema* rs = base_->schema().FindRelation(relation);
  if (rs != nullptr && rs->arity() != arity) return kNoSlot;
  SlotState slot;
  slot.relation = std::string(relation);
  slot.base = &base_->Get(relation);
  slot.arity = arity;
  slots_.push_back(std::move(slot));
  slot_of_.emplace(std::string(relation), slots_.size() - 1);
  return slots_.size() - 1;
}

size_t DatabaseOverlay::FindSlot(std::string_view relation) const {
  auto it = slot_of_.find(relation);
  return it == slot_of_.end() ? kNoSlot : it->second;
}

bool DatabaseOverlay::StageRow(SlotState& slot, const ValueId* row) {
  if (slot.base->ContainsIds(row)) return false;
  // Staged sets are small (tableau rows, candidate deltas); a linear
  // scan beats maintaining a hash set per candidate.
  const size_t arity = slot.arity;
  for (size_t k = 0; k < slot.count; ++k) {
    if (std::equal(row, row + arity, slot.ids.data() + k * arity)) {
      return false;
    }
  }
  const size_t before = slot.ids.capacity();
  slot.ids.insert(slot.ids.end(), row, row + arity);
  if (tracker_ != nullptr && slot.ids.capacity() != before) {
    const size_t grown = (slot.ids.capacity() - before) * sizeof(ValueId);
    tracker_->TrackBytes(grown);
    charged_bytes_ += grown;
  }
  ++slot.count;
  ++pending_count_;
  return true;
}

bool DatabaseOverlay::AddIds(size_t slot, const ValueId* row) {
  assert(slot < slots_.size());
#ifndef NDEBUG
  const size_t family = base_->interner()->num_base_ids();
  for (size_t c = 0; c < slots_[slot].arity; ++c) {
    assert((row[c] < family || ValueInterner::IsFreshId(row[c])) &&
           "AddIds takes family-interner ids only");
  }
#endif
  return StageRow(slots_[slot], row);
}

bool DatabaseOverlay::Add(std::string_view relation, const Tuple& t) {
  const size_t slot = Slot(relation, t.arity());
  if (slot == kNoSlot) return false;
  row_buf_.resize(t.arity());
  for (size_t c = 0; c < t.arity(); ++c) row_buf_[c] = IdOf(t[c]);
  return StageRow(slots_[slot], row_buf_.data());
}

void DatabaseOverlay::Clear() {
  for (SlotState& slot : slots_) {
    slot.ids.clear();
    slot.count = 0;
  }
  pending_count_ = 0;
  synth_.clear();
}

ValueId DatabaseOverlay::IdOf(const Value& v) const {
  for (size_t k = 0; k < synth_.size(); ++k) {
    if (synth_[k] == v) {
      return ValueInterner::kFreshIdBase - 1 - static_cast<ValueId>(k);
    }
  }
  const ValueInterner& interner = *base_->interner();
  if (std::optional<ValueId> id = interner.TryGet(v)) return *id;
  const ValueId id = ValueInterner::kFreshIdBase - 1 -
                     static_cast<ValueId>(synth_.size());
  assert(id >= interner.num_base_ids());
  synth_.push_back(v);
  return id;
}

bool DatabaseOverlay::Contains(std::string_view relation,
                               const Tuple& t) const {
  if (base_->Contains(relation, t)) return true;
  StagedRows staged = Pending(relation);
  if (staged.empty() || staged.arity != t.arity()) return false;
  for (size_t k = 0; k < staged.count; ++k) {
    const ValueId* row = staged.row(k);
    bool equal = true;
    for (size_t c = 0; c < t.arity() && equal; ++c) {
      equal = ValueOf(row[c]) == t[c];
    }
    if (equal) return true;
  }
  return false;
}

DatabaseOverlay::StagedRows DatabaseOverlay::Staged(size_t slot) const {
  if (slot == kNoSlot) return StagedRows();
  const SlotState& s = slots_[slot];
  return StagedRows{s.ids.data(), s.arity, s.count};
}

Database DatabaseOverlay::Materialize() const {
  Database out = *base_;
  for (const SlotState& slot : slots_) {
    for (size_t k = 0; k < slot.count; ++k) {
      std::vector<Value> values;
      values.reserve(slot.arity);
      for (size_t c = 0; c < slot.arity; ++c) {
        values.push_back(ValueOf(slot.ids[k * slot.arity + c]));
      }
      out.InsertUnchecked(slot.relation, Tuple(std::move(values)));
    }
  }
  return out;
}

}  // namespace relcomp
