// Snapshot format tests: byte-for-byte round trips, the v1/v2
// cross-version matrix, graceful rejection (a Status, never a crash) of
// truncated / corrupted / wrong-version / unknown-layout / wrong-dataset
// files, and query bit-identity of snapshot-loaded trees (warm and cold).

#include "index/snapshot.h"

#include <string.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "index/irtree.h"
#include "test_util.h"
#include "util/random.h"

namespace coskq {
namespace {

// Format constants mirrored from snapshot.cc on purpose: these tests pin
// the on-disk layout, so they must not share code with the implementation.
constexpr size_t kV1HeaderBytes = 48;
constexpr size_t kV2HeaderRegionBytes = 4096;
constexpr size_t kVersionOffset = 4;      // uint16
constexpr size_t kBodyBytesOffset = 40;   // uint64
constexpr size_t kLayoutOffset = 48;      // uint32, v2 only

/// Per-process temp path: `ctest -j` runs the cases of one fixture as
/// concurrent processes, and they must not rewrite each other's files.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(getpid()) + "_" + name;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Independent reimplementation of the snapshot checksum (4-lane word
// FNV-1a), so tests can forge well-formed files without reusing the code
// under test.
uint64_t FileChecksum(const char* data, size_t len) {
  constexpr uint64_t kOffset = 14695981039346656037ull;
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t lanes[4] = {kOffset, kOffset + 1, kOffset + 2, kOffset + 3};
  EXPECT_EQ(len % 8, 0u);
  for (size_t i = 0; i < len; i += 8) {
    uint64_t word;
    memcpy(&word, data + i, sizeof(word));
    uint64_t& lane = lanes[(i / 8) & 3];
    lane ^= word;
    lane *= kPrime;
  }
  uint64_t h = kOffset;
  for (uint64_t lane : lanes) {
    h ^= lane;
    h *= kPrime;
  }
  return h;
}

uint64_t ReadU64(const std::vector<char>& bytes, size_t off) {
  uint64_t v;
  memcpy(&v, bytes.data() + off, sizeof(v));
  return v;
}

// Re-signs a forged file: recomputes the trailer checksum over everything
// before it, so a mutation test exercises the check it targets instead of
// tripping the checksum first.
void Resign(std::vector<char>* bytes) {
  ASSERT_GE(bytes->size(), 8u);
  const uint64_t sum = FileChecksum(bytes->data(), bytes->size() - 8);
  memcpy(bytes->data() + bytes->size() - 8, &sum, sizeof(sum));
}

// Synthesizes the byte-exact v1 (48-byte header, bfs) file for the same
// body as a v2 bfs snapshot: drops the header padding, rewrites the
// version, re-signs. This is what pre-v2 builds wrote, so it pins backward
// compatibility without keeping an old binary around.
std::vector<char> MakeV1File(const std::vector<char>& v2) {
  EXPECT_GE(v2.size(), kV2HeaderRegionBytes + 8);
  const size_t body_bytes =
      static_cast<size_t>(ReadU64(v2, kBodyBytesOffset));
  std::vector<char> v1(kV1HeaderBytes + body_bytes + 8, '\0');
  memcpy(v1.data(), v2.data(), kV1HeaderBytes);
  const uint16_t version = 1;
  memcpy(v1.data() + kVersionOffset, &version, sizeof(version));
  memcpy(v1.data() + kV1HeaderBytes, v2.data() + kV2HeaderRegionBytes,
         body_bytes);
  Resign(&v1);
  return v1;
}

class SnapshotRoundTripTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& p : cleanup_) {
      std::remove(p.c_str());
    }
  }
  std::string Track(const std::string& path) {
    cleanup_.push_back(path);
    return path;
  }
  std::vector<std::string> cleanup_;
};

TEST_F(SnapshotRoundTripTest, SyntheticRoundTripIsByteIdentical) {
  Dataset ds = test::MakeRandomDataset(500, 40, 3.5, 123);
  IrTree tree(&ds);
  const std::string path = Track(TempPath("snap_rt.cqix"));
  ASSERT_TRUE(SaveSnapshot(&tree, path).ok());

  // Saving the same tree again produces the identical file.
  const std::string path2 = Track(TempPath("snap_rt2.cqix"));
  ASSERT_TRUE(SaveSnapshot(&tree, path2).ok());
  EXPECT_EQ(ReadAll(path), ReadAll(path2));

  // Loading and re-saving the loaded (frozen-only) tree also round-trips
  // byte-for-byte: the body buffer is the snapshot body.
  auto loaded = LoadSnapshot(&ds, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  (*loaded)->CheckInvariants();
  const std::string path3 = Track(TempPath("snap_rt3.cqix"));
  ASSERT_TRUE(SaveSnapshot(loaded->get(), path3).ok());
  EXPECT_EQ(ReadAll(path), ReadAll(path3));
}

TEST_F(SnapshotRoundTripTest, HotelLikeRoundTripAndQueryIdentity) {
  Rng rng(9);
  Dataset ds = GenerateSynthetic(HotelLikeSpec(0.02), &rng);
  IrTree tree(&ds);
  const std::string path = Track(TempPath("snap_hotel.cqix"));
  ASSERT_TRUE(SaveSnapshot(&tree, path).ok());

  auto loaded = LoadSnapshot(&ds, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  IrTree& snap = **loaded;
  snap.CheckInvariants();
  EXPECT_TRUE(snap.frozen());
  EXPECT_EQ(snap.size(), tree.size());
  EXPECT_EQ(snap.Height(), tree.Height());
  EXPECT_EQ(snap.NodeCount(), tree.NodeCount());
  EXPECT_EQ(snap.node_id_limit(), tree.node_id_limit());

  // Query bit-identity (including visit logs) against the built tree, which
  // itself runs the frozen fast path after Freeze().
  tree.Freeze();
  Rng qrng(10);
  for (int trial = 0; trial < 40; ++trial) {
    const Point p{qrng.UniformDouble(), qrng.UniformDouble()};
    const TermId t = static_cast<TermId>(qrng.UniformUint64(30));
    double want_d = 0.0;
    double got_d = 0.0;
    std::vector<uint32_t> want_log;
    std::vector<uint32_t> got_log;
    const ObjectId want = tree.KeywordNn(p, t, &want_d, &want_log);
    const ObjectId got = snap.KeywordNn(p, t, &got_d, &got_log);
    EXPECT_EQ(got, want);
    EXPECT_EQ(got_d, want_d);
    EXPECT_EQ(got_log, want_log);
  }
}

TEST_F(SnapshotRoundTripTest, InfoReportsHeaderFields) {
  Dataset ds = test::MakeRandomDataset(300, 30, 3.0, 5);
  IrTree tree(&ds, IrTree::Options{16});
  const std::string path = Track(TempPath("snap_info.cqix"));
  ASSERT_TRUE(SaveSnapshot(&tree, path).ok());

  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, kSnapshotVersion);
  EXPECT_EQ(info->dataset_checksum, ds.ContentChecksum());
  EXPECT_EQ(info->num_objects, 300u);
  EXPECT_EQ(info->max_entries, 16u);
  EXPECT_EQ(info->num_nodes, tree.NodeCount());
  EXPECT_EQ(info->num_leaf_entries, 300u);
  EXPECT_EQ(info->height, static_cast<uint32_t>(tree.Height()));
  EXPECT_EQ(info->layout, FrozenLayout::kBfs);
  EXPECT_EQ(info->header_bytes, kV2HeaderRegionBytes);
  EXPECT_EQ(info->file_bytes, kV2HeaderRegionBytes + info->body_bytes + 8u);
}

TEST_F(SnapshotRoundTripTest, V1FileLoadsBitIdentically) {
  // Cross-version matrix, v1 column: a synthesized v1 (48-byte header)
  // snapshot of the same body must load, answer queries bit-identically to
  // the v2 load (visit logs included), and re-save as the v2 file.
  Dataset ds = test::MakeRandomDataset(400, 35, 3.0, 17);
  IrTree tree(&ds);
  const std::string v2_path = Track(TempPath("snap_v2.cqix"));
  ASSERT_TRUE(SaveSnapshot(&tree, v2_path).ok());
  const std::vector<char> v2 = ReadAll(v2_path);

  const std::string v1_path = Track(TempPath("snap_v1.cqix"));
  WriteAll(v1_path, MakeV1File(v2));

  auto info = ReadSnapshotInfo(v1_path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, 1u);
  EXPECT_EQ(info->layout, FrozenLayout::kBfs);
  EXPECT_EQ(info->header_bytes, kV1HeaderBytes);

  auto from_v1 = LoadSnapshot(&ds, v1_path);
  ASSERT_TRUE(from_v1.ok()) << from_v1.status().ToString();
  auto from_v2 = LoadSnapshot(&ds, v2_path);
  ASSERT_TRUE(from_v2.ok()) << from_v2.status().ToString();
  (*from_v1)->CheckInvariants();

  Rng qrng(18);
  for (int trial = 0; trial < 40; ++trial) {
    const Point p{qrng.UniformDouble(), qrng.UniformDouble()};
    const TermId t = static_cast<TermId>(qrng.UniformUint64(35));
    double d1 = 0.0;
    double d2 = 0.0;
    std::vector<uint32_t> log1;
    std::vector<uint32_t> log2;
    EXPECT_EQ((*from_v1)->KeywordNn(p, t, &d1, &log1),
              (*from_v2)->KeywordNn(p, t, &d2, &log2));
    EXPECT_EQ(d1, d2);
    EXPECT_EQ(log1, log2);
  }

  // Saving the v1-loaded tree writes the current (v2) format with the
  // identical body.
  const std::string resaved = Track(TempPath("snap_v1_resave.cqix"));
  ASSERT_TRUE(SaveSnapshot(from_v1->get(), resaved).ok());
  EXPECT_EQ(ReadAll(resaved), v2);
}

TEST_F(SnapshotRoundTripTest, LevelGroupedRoundTripAndInspect) {
  Dataset ds = test::MakeRandomDataset(600, 40, 3.0, 29);
  IrTree::Options options;
  options.frozen_layout = FrozenLayout::kLevelGrouped;
  IrTree tree(&ds, options);
  const std::string path = Track(TempPath("snap_lg.cqix"));
  ASSERT_TRUE(SaveSnapshot(&tree, path).ok());

  auto info = ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->layout, FrozenLayout::kLevelGrouped);

  auto loaded = LoadSnapshot(&ds, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  (*loaded)->CheckInvariants();
  EXPECT_EQ((*loaded)->MemoryStats().layout, FrozenLayout::kLevelGrouped);

  // The loaded tree adopts the file's layout: refreeze keeps it.
  ASSERT_TRUE((*loaded)->Refreeze().ok());
  EXPECT_EQ((*loaded)->MemoryStats().layout, FrozenLayout::kLevelGrouped);
  const std::string resaved = Track(TempPath("snap_lg2.cqix"));
  ASSERT_TRUE(SaveSnapshot(loaded->get(), resaved).ok());
  auto info2 = ReadSnapshotInfo(resaved);
  ASSERT_TRUE(info2.ok());
  EXPECT_EQ(info2->layout, FrozenLayout::kLevelGrouped);
}

TEST_F(SnapshotRoundTripTest, ColdLoadAnswersIdenticallyAndReportsStats) {
  Dataset ds = test::MakeRandomDataset(800, 40, 3.0, 31);
  IrTree tree(&ds);
  const std::string path = Track(TempPath("snap_cold.cqix"));
  ASSERT_TRUE(SaveSnapshot(&tree, path).ok());

  auto warm = LoadSnapshot(&ds, path);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  SnapshotLoadOptions cold_options;
  cold_options.cold = true;
  cold_options.memory_budget_bytes = 1 << 20;
  cold_options.drop_page_cache = true;
  auto cold = LoadSnapshot(&ds, path, cold_options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  (*cold)->CheckInvariants();

  Rng qrng(32);
  for (int trial = 0; trial < 60; ++trial) {
    const Point p{qrng.UniformDouble(), qrng.UniformDouble()};
    const TermId t = static_cast<TermId>(qrng.UniformUint64(40));
    double dw = 0.0;
    double dc = 0.0;
    std::vector<uint32_t> logw;
    std::vector<uint32_t> logc;
    EXPECT_EQ((*cold)->KeywordNn(p, t, &dc, &logc),
              (*warm)->KeywordNn(p, t, &dw, &logw));
    EXPECT_EQ(dc, dw);
    EXPECT_EQ(logc, logw);
  }

  const IndexMemoryStats stats = (*cold)->MemoryStats();
  EXPECT_TRUE(stats.cold);
  EXPECT_GT(stats.body_bytes, 0u);
  EXPECT_EQ(stats.memory_budget_bytes, cold_options.memory_budget_bytes);
  const IndexMemoryStats warm_stats = (*warm)->MemoryStats();
  EXPECT_FALSE(warm_stats.cold);
  EXPECT_EQ(warm_stats.memory_budget_bytes, 0u);
}

TEST_F(SnapshotRoundTripTest, FrozenOnlyTreeRoutesMutationsIntoDelta) {
  // Regression for the pre-delta behavior where a snapshot-loaded tree
  // (frozen-only, no pointer tree) rejected Insert outright: mutations now
  // land in the delta overlay exactly as on a Freeze()-d built tree.
  Dataset ds = test::MakeRandomDataset(200, 20, 3.0, 3);
  std::vector<ObjectId> base;
  for (ObjectId id = 0; id < 150; ++id) {
    base.push_back(id);
  }
  IrTree tree(&ds, IrTree::Options(), base);
  const std::string path = Track(TempPath("snap_ins.cqix"));
  ASSERT_TRUE(SaveSnapshot(&tree, path).ok());
  auto loaded = LoadSnapshot(&ds, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  IrTree& snap = **loaded;

  // Re-inserting a live object is still a clean error...
  EXPECT_FALSE(snap.Insert(0).ok());
  EXPECT_TRUE(snap.frozen());
  EXPECT_EQ(snap.delta_size(), 0u);

  // ...but inserting a dataset object the snapshot does not cover routes
  // into the delta and is immediately visible.
  ASSERT_TRUE(snap.Insert(160).ok());
  EXPECT_TRUE(snap.frozen());
  EXPECT_EQ(snap.delta_size(), 1u);
  snap.CheckInvariants();
  const TermSet& kw = ds.object(160).keywords;
  ASSERT_FALSE(kw.empty());
  double d = 0.0;
  EXPECT_EQ(snap.KeywordNn(ds.object(160).location, kw[0], &d), 160u);
  EXPECT_EQ(d, 0.0);

  // Removes tombstone base objects of the loaded frozen body.
  ASSERT_TRUE(snap.Remove(5).ok());
  EXPECT_EQ(snap.size(), 150u);
  const TermSet& kw5 = ds.object(5).keywords;
  ASSERT_FALSE(kw5.empty());
  d = 0.0;
  EXPECT_NE(snap.KeywordNn(ds.object(5).location, kw5[0], &d), 5u);

  // Refreeze folds the delta and rebuilds a full (pointer + frozen) tree.
  ASSERT_TRUE(snap.Refreeze().ok());
  EXPECT_EQ(snap.delta_size(), 0u);
  EXPECT_TRUE(snap.frozen());
  snap.CheckInvariants();
  d = 0.0;
  EXPECT_EQ(snap.KeywordNn(ds.object(160).location, kw[0], &d), 160u);
  EXPECT_EQ(d, 0.0);
  EXPECT_NE(snap.KeywordNn(ds.object(5).location, kw5[0], &d), 5u);
}

class SnapshotRejectionTest : public SnapshotRoundTripTest {
 protected:
  void SetUp() override {
    dataset_ = test::MakeRandomDataset(250, 25, 3.0, 42);
    tree_ = std::make_unique<IrTree>(&dataset_);
    path_ = Track(TempPath("snap_reject.cqix"));
    ASSERT_TRUE(SaveSnapshot(tree_.get(), path_).ok());
    bytes_ = ReadAll(path_);
    ASSERT_GT(bytes_.size(), 56u);
  }

  /// Writes a mutated copy and expects LoadSnapshot to fail cleanly.
  void ExpectRejected(const std::vector<char>& bytes,
                      const std::string& what) {
    const std::string path = Track(TempPath("snap_mut.cqix"));
    WriteAll(path, bytes);
    auto loaded = LoadSnapshot(&dataset_, path);
    EXPECT_FALSE(loaded.ok()) << what;
  }

  Dataset dataset_;
  std::unique_ptr<IrTree> tree_;
  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(SnapshotRejectionTest, TruncationAtEveryHeaderBoundaryFails) {
  // Every prefix of the 56-byte header, the header-region boundary, the
  // empty file, and the file missing its trailer must all be rejected with
  // a Status.
  std::vector<size_t> sizes;
  for (size_t s = 0; s <= 56; ++s) {
    sizes.push_back(s);  // Through the header fields, incl. layout.
  }
  sizes.push_back(kV2HeaderRegionBytes - 1);  // Padding cut short.
  sizes.push_back(kV2HeaderRegionBytes);      // Header region alone.
  sizes.push_back(kV2HeaderRegionBytes + 8);  // First body bytes only.
  sizes.push_back(bytes_.size() - 1);  // Trailer cut short.
  sizes.push_back(bytes_.size() - 8);  // Trailer missing entirely.
  sizes.push_back(bytes_.size() / 2);  // Body cut mid-way.
  for (size_t s : sizes) {
    std::vector<char> cut(bytes_.begin(), bytes_.begin() + s);
    ExpectRejected(cut, "truncated to " + std::to_string(s) + " bytes");
  }
  // Oversized files are rejected too (exact-size format).
  std::vector<char> padded = bytes_;
  padded.push_back('\0');
  ExpectRejected(padded, "one trailing byte added");
}

TEST_F(SnapshotRejectionTest, V1TruncationAndCorruptionFail) {
  // The rejection sweeps re-run against the synthesized v1 file: the old
  // header format stays guarded, not just loadable.
  const std::vector<char> v1 = MakeV1File(bytes_);
  const std::string ok_path = Track(TempPath("snap_v1_ok.cqix"));
  WriteAll(ok_path, v1);
  auto check = LoadSnapshot(&dataset_, ok_path);
  ASSERT_TRUE(check.ok()) << check.status().ToString();

  std::vector<size_t> sizes;
  for (size_t s = 0; s <= kV1HeaderBytes; s += 7) {
    sizes.push_back(s);
  }
  sizes.push_back(v1.size() - 1);
  sizes.push_back(v1.size() - 8);
  sizes.push_back(v1.size() / 2);
  for (size_t s : sizes) {
    std::vector<char> cut(v1.begin(), v1.begin() + s);
    ExpectRejected(cut, "v1 truncated to " + std::to_string(s) + " bytes");
  }
  for (size_t pos = 0; pos + 8 < v1.size(); pos += 131) {
    std::vector<char> mutated = v1;
    mutated[pos] ^= 0x20;
    if (mutated == v1) {
      continue;
    }
    ExpectRejected(mutated, "v1 bit flip at offset " + std::to_string(pos));
  }
}

TEST_F(SnapshotRejectionTest, UnknownLayoutIdFailsWithStatus) {
  // A future/corrupt layout id must come back as a clean Status even when
  // the checksum is valid (the file is re-signed), never a crash or a
  // misparse.
  for (uint32_t bad : {2u, 7u, 0xffffffffu}) {
    std::vector<char> mutated = bytes_;
    memcpy(mutated.data() + kLayoutOffset, &bad, sizeof(bad));
    Resign(&mutated);
    const std::string path = Track(TempPath("snap_badlayout.cqix"));
    WriteAll(path, mutated);
    auto loaded = LoadSnapshot(&dataset_, path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().ToString().find("layout"), std::string::npos)
        << loaded.status().ToString();
    auto info = ReadSnapshotInfo(path);
    EXPECT_FALSE(info.ok());
  }
}

TEST_F(SnapshotRejectionTest, ColdLoadRejectsCorruptionToo) {
  // Cold mode verifies the checksum by streamed reads (not the mapping);
  // it must reject the same corrupt files the warm path does.
  SnapshotLoadOptions cold_options;
  cold_options.cold = true;
  for (size_t pos : {size_t{8}, kV2HeaderRegionBytes + 16,
                     bytes_.size() - 16}) {
    std::vector<char> mutated = bytes_;
    mutated[pos] ^= 0x04;
    const std::string path = Track(TempPath("snap_coldbad.cqix"));
    WriteAll(path, mutated);
    auto loaded = LoadSnapshot(&dataset_, path, cold_options);
    EXPECT_FALSE(loaded.ok())
        << "cold load accepted flip at " << pos;
  }
}

TEST_F(SnapshotRejectionTest, WrongMagicFails) {
  std::vector<char> mutated = bytes_;
  mutated[0] ^= 0x01;
  ExpectRejected(mutated, "bad magic");
}

TEST_F(SnapshotRejectionTest, WrongVersionFails) {
  std::vector<char> mutated = bytes_;
  mutated[4] = static_cast<char>(kSnapshotVersion + 1);
  ExpectRejected(mutated, "future version");
}

TEST_F(SnapshotRejectionTest, WrongEndianMarkerFails) {
  std::vector<char> mutated = bytes_;
  std::swap(mutated[6], mutated[7]);
  ExpectRejected(mutated, "byte-swapped endian marker");
}

TEST_F(SnapshotRejectionTest, EveryCorruptedByteIsDetected) {
  // Flipping any single bit in header or body breaks the trailer checksum
  // (or an earlier header check); sample positions across the whole file.
  for (size_t pos = 0; pos + 8 < bytes_.size(); pos += 97) {
    std::vector<char> mutated = bytes_;
    mutated[pos] ^= 0x20;
    if (mutated == bytes_) {
      continue;
    }
    ExpectRejected(mutated, "bit flip at offset " + std::to_string(pos));
  }
}

TEST_F(SnapshotRejectionTest, DatasetMismatchFails) {
  // Same shape, different content: the embedded checksum must not match.
  Dataset other = test::MakeRandomDataset(250, 25, 3.0, 43);
  ASSERT_NE(other.ContentChecksum(), dataset_.ContentChecksum());
  auto loaded = LoadSnapshot(&other, path_);
  EXPECT_FALSE(loaded.ok());

  // Different object count as well.
  Dataset smaller = test::MakeRandomDataset(100, 25, 3.0, 42);
  auto loaded2 = LoadSnapshot(&smaller, path_);
  EXPECT_FALSE(loaded2.ok());
}

TEST_F(SnapshotRejectionTest, MissingFileFails) {
  auto loaded = LoadSnapshot(&dataset_, TempPath("snap_nonexistent.cqix"));
  EXPECT_FALSE(loaded.ok());
  auto info = ReadSnapshotInfo(TempPath("snap_nonexistent.cqix"));
  EXPECT_FALSE(info.ok());
}

}  // namespace
}  // namespace coskq
