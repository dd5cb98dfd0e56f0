// The compact per-query memo behind SearchScratch: an open-addressing table
// keyed by object or node id, emptied by an epoch bump. These cases pin the
// table mechanics (collisions, growth inside a query, the two valid bits,
// epoch isolation, the full 32-bit key range, separate object and node key
// spaces) and the footprint property the table exists for: a scratch holds
// what its query touched, not a slot per object of the index.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "geo/circle.h"
#include "index/irtree.h"
#include "index/search_scratch.h"
#include "test_util.h"

namespace coskq {
namespace {

using internal_index::MemoTable;

// Stores a value derived from the key in every slot it touches, so a lookup
// that lands on the wrong slot is caught by value.
void Fill(MemoTable* table, uint32_t id) {
  MemoTable::Slot& slot = table->FindOrInsert(id);
  slot.has_mask = true;
  slot.mask = uint64_t{id} * 3 + 1;
  slot.has_distance = true;
  slot.distance = static_cast<double>(id) * 0.5;
}

void ExpectFilled(const MemoTable& table, uint32_t id) {
  const MemoTable::Slot* slot = table.Find(id);
  ASSERT_NE(slot, nullptr) << id;
  EXPECT_EQ(slot->id, id);
  EXPECT_TRUE(slot->has_mask);
  EXPECT_EQ(slot->mask, uint64_t{id} * 3 + 1);
  EXPECT_TRUE(slot->has_distance);
  EXPECT_EQ(slot->distance, static_cast<double>(id) * 0.5);
}

TEST(MemoTableTest, EmptyTableFindsNothingAndHoldsNoMemory) {
  MemoTable table;
  EXPECT_EQ(table.Find(0), nullptr);
  EXPECT_EQ(table.Find(12345), nullptr);
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.bytes(), 0u);
}

TEST(MemoTableTest, MultiplesOfEveryCapacityStayDistinct) {
  // Keys that are multiples of the capacity would all share one home slot
  // under a mask-the-low-bits hash; here they must stay distinct entries
  // whatever capacity the table has reached.
  for (uint32_t capacity = 1024; capacity <= (1u << 16); capacity *= 2) {
    SCOPED_TRACE(capacity);
    MemoTable table;
    table.NextEpoch();
    const uint32_t count = capacity;  // Forces at least one growth.
    for (uint32_t k = 0; k < count; ++k) {
      Fill(&table, k * capacity);
    }
    EXPECT_EQ(table.size(), count);
    EXPECT_LE(2 * table.size(), table.capacity());
    for (uint32_t k = 0; k < count; ++k) {
      ExpectFilled(table, k * capacity);
    }
    EXPECT_EQ(table.Find(capacity + 1), nullptr);
  }
}

TEST(MemoTableTest, GrowthInsideAQueryKeepsEntriesAndValidBits) {
  MemoTable table;
  table.NextEpoch();
  // Ids 0..n-1 get mask only, distance only, or both, by id % 3.
  const uint32_t n = 20000;
  std::vector<size_t> capacities;
  for (uint32_t id = 0; id < n; ++id) {
    MemoTable::Slot& slot = table.FindOrInsert(id * 7919u);
    if (id % 3 != 1) {
      slot.has_mask = true;
      slot.mask = id;
    }
    if (id % 3 != 0) {
      slot.has_distance = true;
      slot.distance = id + 0.25;
    }
    if (capacities.empty() || capacities.back() != table.capacity()) {
      capacities.push_back(table.capacity());
    }
  }
  EXPECT_GE(capacities.size(), 5u) << "the table never grew mid-query";
  for (size_t i = 0; i < capacities.size(); ++i) {
    EXPECT_EQ(capacities[i] & (capacities[i] - 1), 0u) << "not a power of 2";
  }
  EXPECT_EQ(table.size(), n);
  for (uint32_t id = 0; id < n; ++id) {
    const MemoTable::Slot* slot = table.Find(id * 7919u);
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(slot->has_mask, id % 3 != 1);
    EXPECT_EQ(slot->has_distance, id % 3 != 0);
    if (slot->has_mask) {
      EXPECT_EQ(slot->mask, id);
    }
    if (slot->has_distance) {
      EXPECT_EQ(slot->distance, id + 0.25);
    }
  }
}

TEST(MemoTableTest, EpochBumpEmptiesTheTableAndKeepsItsCapacity) {
  MemoTable table;
  table.NextEpoch();
  for (uint32_t id = 0; id < 5000; ++id) {
    Fill(&table, id);
  }
  const size_t capacity = table.capacity();
  table.NextEpoch();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), capacity);
  for (uint32_t id = 0; id < 5000; ++id) {
    EXPECT_EQ(table.Find(id), nullptr);
  }
  // A re-inserted id starts with both valid bits clear.
  const MemoTable::Slot& slot = table.FindOrInsert(42);
  EXPECT_FALSE(slot.has_mask);
  EXPECT_FALSE(slot.has_distance);
}

TEST(MemoTableTest, IdsNearTheTopOfTheKeyRange) {
  MemoTable table;
  table.NextEpoch();
  const uint32_t top = UINT32_MAX;
  for (uint32_t d = 0; d < 3000; ++d) {
    Fill(&table, top - d);
  }
  Fill(&table, 0);
  for (uint32_t d = 0; d < 3000; ++d) {
    ExpectFilled(table, top - d);
  }
  ExpectFilled(table, 0);
  EXPECT_EQ(table.Find(top - 3000), nullptr);
  EXPECT_EQ(table.size(), 3001u);
}

TEST(SearchScratchMemoTest, MaskAndDistanceAreSetIndependentlyInBothOrders) {
  Dataset ds = test::MakeRandomDataset(40, 10, 3.0, 81);
  SearchScratch scratch;
  const Point q{0.4, 0.6};
  scratch.BeginQuery(q, ds.object(1).keywords);
  const SpatialObject& a = ds.object(1);
  const SpatialObject& b = ds.object(2);
  uint64_t mask = 0;

  // Mask first, then distance.
  const uint64_t a_mask = scratch.ObjectMask(a.id, a.keywords);
  EXPECT_NE(a_mask, 0u);
  EXPECT_EQ(scratch.dist_cache_misses(), 0u);
  EXPECT_EQ(scratch.QueryDistance(a.id, a.location), Distance(q, a.location));
  EXPECT_EQ(scratch.dist_cache_misses(), 1u);  // The mask left it cold.
  EXPECT_EQ(scratch.QueryDistance(a.id, a.location), Distance(q, a.location));
  EXPECT_EQ(scratch.dist_cache_hits(), 1u);
  ASSERT_TRUE(scratch.CachedObjectMask(a.id, &mask));
  EXPECT_EQ(mask, a_mask);

  // Distance first: the mask stays cold until a filling lookup.
  EXPECT_EQ(scratch.QueryDistance(b.id, b.location), Distance(q, b.location));
  EXPECT_EQ(scratch.dist_cache_misses(), 2u);
  EXPECT_FALSE(scratch.CachedObjectMask(b.id, &mask));
  const uint64_t b_mask = scratch.ObjectMask(b.id, b.keywords);
  ASSERT_TRUE(scratch.CachedObjectMask(b.id, &mask));
  EXPECT_EQ(mask, b_mask);
  EXPECT_EQ(scratch.QueryDistance(b.id, b.location), Distance(q, b.location));
  EXPECT_EQ(scratch.dist_cache_hits(), 2u);

  // The node memo has the same two independent bits.
  const Rect mbr(0.1, 0.1, 0.2, 0.3);
  EXPECT_EQ(scratch.NodeMinDistance(5, mbr), mbr.MinDistance(q));
  EXPECT_FALSE(scratch.CachedNodeMask(5, &mask));
  const uint64_t node_mask = scratch.NodeMask(5, a.keywords);
  ASSERT_TRUE(scratch.CachedNodeMask(5, &mask));
  EXPECT_EQ(mask, node_mask);
  EXPECT_EQ(node_mask, a_mask);
  EXPECT_EQ(scratch.NodeMinDistance(5, mbr), mbr.MinDistance(q));
}

TEST(SearchScratchMemoTest, EpochsStayIsolatedOver100kQueries) {
  SearchScratch scratch;
  const TermSet keywords{0, 1};
  const TermSet terms{1};
  for (uint32_t i = 0; i < 100000; ++i) {
    const Point q{static_cast<double>(i % 97) / 97.0, 0.5};
    scratch.BeginQuery(q, keywords);
    // The ids the previous query touched, and a few fixed ones, start cold.
    uint64_t mask = 0;
    for (uint32_t id : {i, i + 1, 3u}) {
      ASSERT_FALSE(scratch.CachedObjectMask(id, &mask)) << i;
      ASSERT_FALSE(scratch.CachedNodeMask(id, &mask)) << i;
    }
    const Point p{0.25, 0.75};
    ASSERT_EQ(scratch.QueryDistance(i + 1, p), Distance(q, p));
    ASSERT_EQ(scratch.QueryDistance(i + 1, p), Distance(q, p));
    ASSERT_EQ(scratch.ObjectMask(i + 1, terms), 0b10u);
    ASSERT_EQ(scratch.NodeMask(i + 1, terms), 0b10u);
    ASSERT_EQ(scratch.dist_cache_misses(), 1u);
    ASSERT_EQ(scratch.dist_cache_hits(), 1u);
    scratch.FinishQuery();
  }
  EXPECT_EQ(scratch.queries_started(), 100000u);
  // One first-query allocation per table, then nothing.
  EXPECT_EQ(scratch.total_realloc_events(), 2u);
}

TEST(SearchScratchMemoTest, ObjectAndNodeIdsDoNotAlias) {
  SearchScratch scratch;
  const Point q{0.0, 0.0};
  scratch.BeginQuery(q, TermSet{4, 8});
  const uint32_t id = 7;
  EXPECT_EQ(scratch.ObjectMask(id, TermSet{4}), 0b01u);
  EXPECT_EQ(scratch.NodeMask(id, TermSet{8}), 0b10u);
  const Point p{3.0, 4.0};
  EXPECT_EQ(scratch.QueryDistance(id, p), 5.0);
  const Rect mbr(1.0, 0.0, 2.0, 1.0);
  EXPECT_EQ(scratch.NodeMinDistance(id, mbr), 1.0);
  // Each memo returns its own value for the shared id.
  uint64_t mask = 0;
  ASSERT_TRUE(scratch.CachedObjectMask(id, &mask));
  EXPECT_EQ(mask, 0b01u);
  ASSERT_TRUE(scratch.CachedNodeMask(id, &mask));
  EXPECT_EQ(mask, 0b10u);
  EXPECT_EQ(scratch.QueryDistance(id, p), 5.0);
  EXPECT_EQ(scratch.NodeMinDistance(id, mbr), 1.0);
  EXPECT_EQ(scratch.ObjectEntriesForTesting(), 1u);
  EXPECT_EQ(scratch.NodeEntriesForTesting(), 1u);
}

TEST(SearchScratchMemoTest, FootprintFollowsTheQueryNotTheIndex) {
  // 200k objects: one 32-byte slot per object and per node, as dense
  // arrays, would be about 6.4 MB before the query touched anything.
  const Dataset ds = test::MakeRandomDataset(200000, 2000, 3.0, 82);
  IrTree tree(&ds);
  tree.Freeze();
  const CoskqQuery q = test::MakeRandomQuery(ds, 3, 83);
  SearchScratch scratch;
  scratch.BeginQuery(q.location, q.keywords);
  TermSet missing;
  tree.NnSet(q.location, q.keywords, &missing, &scratch);
  std::vector<ObjectId>& hits = scratch.id_buffer();
  hits.clear();
  tree.RangeRelevant(Circle(q.location, 0.03), q.keywords, &hits, &scratch);
  scratch.FinishQuery();
  const size_t entries =
      scratch.ObjectEntriesForTesting() + scratch.NodeEntriesForTesting();
  EXPECT_GE(entries, 100u);
  EXPECT_LE(entries, 5000u);
  EXPECT_LT(scratch.MemoBytesForTesting(), size_t{1} << 20);
}

}  // namespace
}  // namespace coskq
