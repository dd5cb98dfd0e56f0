#include "index/search_scratch.h"

#include <bit>

namespace coskq {

namespace internal_index {

namespace {

// First allocation of a table, in slots. Sized from the entries one query
// fills on the benchmark workloads (DESIGN.md §9): the median query fits
// without growing, and one 32 KiB block costs nothing to zero-fill.
constexpr size_t kInitialCapacity = 1024;

}  // namespace

MemoTable::Slot& MemoTable::GrowAndInsert(uint32_t id) {
  std::vector<Slot> old(slots_.empty() ? kInitialCapacity
                                       : 2 * slots_.size());
  old.swap(slots_);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
  for (const Slot& entry : old) {
    if (entry.epoch == epoch_) {
      slots_[Probe(entry.id)] = entry;
    }
  }
  return Claim(Probe(id), id);
}

}  // namespace internal_index

void SearchScratch::BeginQuery(const Point& origin, const TermSet& keywords) {
  capacity_snapshot_.clear();
  capacity_snapshot_.push_back(objects_.capacity());
  capacity_snapshot_.push_back(nodes_.capacity());
  capacity_snapshot_.push_back(heap_.capacity());
  capacity_snapshot_.push_back(id_buffer_.capacity());
  capacity_snapshot_.push_back(survivor_idx_.capacity());
  capacity_snapshot_.push_back(survivor_dist_.capacity());

  origin_ = origin;
  objects_.NextEpoch();
  nodes_.NextEpoch();
  ++queries_started_;
  dist_hits_ = 0;
  dist_misses_ = 0;
  realloc_events_ = 0;
  mask_.Reset(enabled_ ? keywords : TermSet{});
}

void SearchScratch::FinishQuery() {
  if (capacity_snapshot_.size() != 6) {
    return;  // FinishQuery without a matching BeginQuery.
  }
  const size_t capacities[6] = {
      objects_.capacity(),      nodes_.capacity(),
      heap_.capacity(),         id_buffer_.capacity(),
      survivor_idx_.capacity(), survivor_dist_.capacity()};
  for (size_t i = 0; i < 6; ++i) {
    if (capacities[i] != capacity_snapshot_[i]) {
      ++realloc_events_;
    }
  }
  total_realloc_events_ += realloc_events_;
  capacity_snapshot_.clear();
}

uint64_t SearchScratch::NodeMask(uint32_t node_id, const TermSet& node_terms) {
  return NodeMask(node_id, node_terms.data(), node_terms.size());
}

uint64_t SearchScratch::NodeMask(uint32_t node_id, const TermId* node_terms,
                                 size_t count) {
  internal_index::MemoTable::Slot& slot = nodes_.FindOrInsert(node_id);
  if (!slot.has_mask) {
    slot.has_mask = true;
    slot.mask = mask_.MaskOf(node_terms, count);
  }
  return slot.mask;
}

bool SearchScratch::CachedObjectMask(ObjectId id, uint64_t* mask) const {
  const internal_index::MemoTable::Slot* slot = objects_.Find(id);
  if (slot != nullptr && slot->has_mask) {
    *mask = slot->mask;
    return true;
  }
  return false;
}

bool SearchScratch::CachedNodeMask(uint32_t node_id, uint64_t* mask) const {
  const internal_index::MemoTable::Slot* slot = nodes_.Find(node_id);
  if (slot != nullptr && slot->has_mask) {
    *mask = slot->mask;
    return true;
  }
  return false;
}

double SearchScratch::NodeMinDistance(uint32_t node_id, const Rect& mbr) {
  internal_index::MemoTable::Slot& slot = nodes_.FindOrInsert(node_id);
  if (!slot.has_distance) {
    slot.has_distance = true;
    slot.distance = mbr.MinDistance(origin_);
  }
  return slot.distance;
}

uint64_t SearchScratch::ObjectMask(ObjectId id, const TermSet& keywords) {
  internal_index::MemoTable::Slot& slot = objects_.FindOrInsert(id);
  if (!slot.has_mask) {
    slot.has_mask = true;
    slot.mask = mask_.MaskOf(keywords);
  }
  return slot.mask;
}

double SearchScratch::QueryDistance(ObjectId id, const Point& location) {
  if (!enabled_) {
    return Distance(origin_, location);
  }
  internal_index::MemoTable::Slot& slot = objects_.FindOrInsert(id);
  if (slot.has_distance) {
    ++dist_hits_;
    return slot.distance;
  }
  slot.has_distance = true;
  slot.distance = Distance(origin_, location);
  ++dist_misses_;
  return slot.distance;
}

}  // namespace coskq
