// The STR-tile partitioner and the cluster manifest format.
//
//  * partition invariants — across shard counts (1, n, non-square K) every
//    object lands in exactly one shard, the closed tiles cover the dataset
//    MBR exactly (zero-area pairwise overlap, areas summing), and every
//    member lies inside its shard's tile;
//  * build artifacts — BuildShardedCluster's shard files reload to the
//    checksums the manifest binds, the frozen snapshots load against them,
//    and the Bloom signatures are supersets of the members' keyword sets;
//  * manifest codec — byte-identical re-encode after a decode, graceful
//    Status (never a crash) for every truncation length and for corruption
//    at any byte.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/manifest.h"
#include "cluster/partitioner.h"
#include "data/dataset.h"
#include "geo/rect.h"
#include "index/snapshot.h"
#include "test_util.h"

namespace coskq {
namespace {

using test::RemoveDir;
using test::UniqueTempDir;

/// Overlap area of two closed rects (0 when they only share an edge).
double OverlapArea(const Rect& a, const Rect& b) {
  const double w = std::min(a.max_x, b.max_x) - std::max(a.min_x, b.min_x);
  const double h = std::min(a.max_y, b.max_y) - std::max(a.min_y, b.min_y);
  if (w <= 0.0 || h <= 0.0) {
    return 0.0;
  }
  return w * h;
}

void CheckPartitionInvariants(const Dataset& dataset, uint32_t k) {
  StatusOr<StrPartition> got = StrPartitionDataset(dataset, k);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const StrPartition& part = *got;
  ASSERT_EQ(part.shard_objects.size(), k);
  ASSERT_EQ(part.tiles.size(), k);

  // Every object in exactly one shard, members ascending within a shard.
  std::vector<int> seen(dataset.NumObjects(), 0);
  for (const std::vector<ObjectId>& members : part.shard_objects) {
    EXPECT_FALSE(members.empty());
    for (size_t i = 0; i < members.size(); ++i) {
      ASSERT_LT(members[i], dataset.NumObjects());
      ++seen[members[i]];
      if (i > 0) {
        EXPECT_LT(members[i - 1], members[i]);
      }
    }
  }
  for (size_t id = 0; id < seen.size(); ++id) {
    EXPECT_EQ(seen[id], 1) << "object " << id;
  }

  // Balanced to within one object per cut dimension.
  const size_t floor_share = dataset.NumObjects() / k;
  for (const std::vector<ObjectId>& members : part.shard_objects) {
    EXPECT_GE(members.size() + 2, floor_share);
  }

  // The closed tiles cover the dataset MBR exactly.
  const Rect& mbr = dataset.mbr();
  double area_sum = 0.0;
  for (const Rect& tile : part.tiles) {
    EXPECT_GE(tile.min_x, mbr.min_x);
    EXPECT_LE(tile.max_x, mbr.max_x);
    EXPECT_GE(tile.min_y, mbr.min_y);
    EXPECT_LE(tile.max_y, mbr.max_y);
    area_sum += tile.Area();
  }
  EXPECT_NEAR(area_sum, mbr.Area(), 1e-9 * std::max(1.0, mbr.Area()));
  for (size_t a = 0; a < part.tiles.size(); ++a) {
    for (size_t b = a + 1; b < part.tiles.size(); ++b) {
      EXPECT_EQ(OverlapArea(part.tiles[a], part.tiles[b]), 0.0)
          << "tiles " << a << " and " << b;
    }
  }

  // Every member lies inside its shard's tile.
  for (uint32_t s = 0; s < k; ++s) {
    for (ObjectId id : part.shard_objects[s]) {
      EXPECT_TRUE(part.tiles[s].Contains(dataset.object(id).location))
          << "object " << id << " outside tile " << s;
    }
  }
}

TEST(ClusterPartitionTest, InvariantsAcrossShardCounts) {
  const Dataset dataset = test::MakeRandomDataset(300, 40, 3.0, 20130624);
  for (uint32_t k : {1u, 2u, 3u, 4u, 5u, 7u, 16u, 300u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    CheckPartitionInvariants(dataset, k);
  }
}

TEST(ClusterPartitionTest, TinyDatasets) {
  for (size_t n : {1u, 2u, 5u}) {
    const Dataset dataset = test::MakeRandomDataset(n, 8, 2.0, 7 + n);
    for (uint32_t k = 1; k <= n; ++k) {
      SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
      CheckPartitionInvariants(dataset, k);
    }
  }
}

TEST(ClusterPartitionTest, RejectsDegenerateShardCounts) {
  const Dataset dataset = test::MakeRandomDataset(10, 8, 2.0, 5);
  EXPECT_EQ(StrPartitionDataset(dataset, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StrPartitionDataset(dataset, 11).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ClusterPartitionTest, DeterministicAcrossRuns) {
  const Dataset dataset = test::MakeRandomDataset(200, 30, 3.0, 99);
  StatusOr<StrPartition> a = StrPartitionDataset(dataset, 6);
  StatusOr<StrPartition> b = StrPartitionDataset(dataset, 6);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->shard_objects, b->shard_objects);
  for (size_t s = 0; s < a->tiles.size(); ++s) {
    EXPECT_EQ(a->tiles[s], b->tiles[s]);
  }
}

class ClusterBuildTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = test::MakeRandomDataset(250, 35, 3.0, 20130625);
    dir_ = UniqueTempDir("coskq_cluster_build");
  }

  void TearDown() override { RemoveDir(dir_); }

  Dataset dataset_;
  std::string dir_;
};

TEST_F(ClusterBuildTest, ArtifactsBindTogether) {
  BuildClusterOptions options;
  options.num_shards = 5;
  StatusOr<ClusterManifest> built =
      BuildShardedCluster(dataset_, dir_, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ClusterManifest& manifest = *built;

  EXPECT_EQ(manifest.total_objects, dataset_.NumObjects());
  EXPECT_EQ(manifest.dataset_checksum, dataset_.ContentChecksum());
  ASSERT_EQ(manifest.shards.size(), 5u);
  // The manifest vocabulary is the full dataset vocabulary in global
  // TermId order (the router's canonical keyword order).
  ASSERT_EQ(manifest.vocabulary.size(), dataset_.vocabulary().size());
  for (size_t t = 0; t < manifest.vocabulary.size(); ++t) {
    EXPECT_EQ(manifest.vocabulary[t],
              dataset_.vocabulary().TermString(static_cast<TermId>(t)));
  }

  uint64_t members = 0;
  for (const ShardManifestEntry& shard : manifest.shards) {
    members += shard.num_objects;
    ASSERT_EQ(shard.global_ids.size(), shard.num_objects);

    // The member MBR is inside the tile, and both hold every member.
    for (ObjectId id : shard.global_ids) {
      const SpatialObject& obj = dataset_.object(id);
      EXPECT_TRUE(shard.mbr.Contains(obj.location));
      EXPECT_TRUE(shard.tile.Contains(obj.location));
      // The Bloom signature is a superset of the members' keywords.
      for (TermId t : obj.keywords) {
        EXPECT_TRUE(shard.signature.MightContain(
            dataset_.vocabulary().TermString(t)))
            << "shard " << shard.shard_id << " misses a member keyword";
      }
    }

    // The shard dataset file reloads to the checksum the manifest binds,
    // and the frozen snapshot loads against that reloaded dataset.
    StatusOr<Dataset> reloaded =
        Dataset::LoadFromFile(dir_ + "/" + shard.dataset_file);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    EXPECT_EQ(reloaded->ContentChecksum(), shard.dataset_checksum);
    EXPECT_EQ(reloaded->NumObjects(), shard.num_objects);
    StatusOr<std::unique_ptr<IrTree>> tree =
        LoadSnapshot(&*reloaded, dir_ + "/" + shard.snapshot_file);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  }
  EXPECT_EQ(members, dataset_.NumObjects());

  // The written manifest file decodes back to the same identity.
  StatusOr<ClusterManifest> loaded =
      ClusterManifest::LoadFromFile(dir_ + "/" + kManifestFileName);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->file_checksum, manifest.file_checksum);
  EXPECT_EQ(loaded->dataset_checksum, manifest.dataset_checksum);
  EXPECT_EQ(loaded->total_objects, manifest.total_objects);
}

TEST_F(ClusterBuildTest, SignatureCanExcludeForeignKeywords) {
  // With a vocabulary spread over 4 spatial clusters at least one shard
  // should miss at least one word — the keyword prune's reason to exist.
  // (Not guaranteed for every word, so assert only that signatures are not
  // all-accepting for arbitrary strings.)
  BuildClusterOptions options;
  options.num_shards = 4;
  StatusOr<ClusterManifest> built =
      BuildShardedCluster(dataset_, dir_, options);
  ASSERT_TRUE(built.ok());
  size_t misses = 0;
  for (const ShardManifestEntry& shard : built->shards) {
    for (int i = 0; i < 64; ++i) {
      if (!shard.signature.MightContain("never-indexed-" +
                                        std::to_string(i))) {
        ++misses;
      }
    }
  }
  EXPECT_GT(misses, 0u);
}

class ManifestCodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = test::MakeRandomDataset(60, 20, 2.5, 31337);
    dir_ = UniqueTempDir("coskq_manifest_codec");
    BuildClusterOptions options;
    options.num_shards = 3;
    StatusOr<ClusterManifest> built =
        BuildShardedCluster(dataset_, dir_, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    manifest_ = std::move(*built);
    bytes_ = manifest_.Encode();
  }

  void TearDown() override { RemoveDir(dir_); }

  Dataset dataset_;
  std::string dir_;
  ClusterManifest manifest_;
  std::string bytes_;
};

TEST_F(ManifestCodecTest, RoundTripIsByteIdentical) {
  StatusOr<ClusterManifest> decoded = ClusterManifest::Decode(bytes_);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->Encode(), bytes_);
  EXPECT_EQ(decoded->file_checksum, manifest_.file_checksum);
  ASSERT_EQ(decoded->shards.size(), manifest_.shards.size());
  for (size_t s = 0; s < decoded->shards.size(); ++s) {
    EXPECT_EQ(decoded->shards[s].global_ids, manifest_.shards[s].global_ids);
    EXPECT_TRUE(decoded->shards[s].signature == manifest_.shards[s].signature);
  }
  EXPECT_EQ(decoded->vocabulary, manifest_.vocabulary);
}

TEST_F(ManifestCodecTest, EveryTruncationFailsGracefully) {
  for (size_t len = 0; len < bytes_.size(); ++len) {
    StatusOr<ClusterManifest> decoded =
        ClusterManifest::Decode(bytes_.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "decoded a " << len << "-byte prefix of a "
                               << bytes_.size() << "-byte manifest";
  }
}

TEST_F(ManifestCodecTest, EveryCorruptByteIsCaught) {
  // The FNV trailer is checked before any parsing, so a flip anywhere —
  // header, vocabulary, id maps, or the trailer itself — must fail.
  for (size_t pos = 0; pos < bytes_.size(); ++pos) {
    std::string corrupt = bytes_;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    StatusOr<ClusterManifest> decoded = ClusterManifest::Decode(corrupt);
    EXPECT_FALSE(decoded.ok()) << "byte " << pos;
  }
}

TEST_F(ManifestCodecTest, TrailingBytesAreCaught) {
  // Appended garbage shifts the trailer position; checksum catches it.
  StatusOr<ClusterManifest> decoded =
      ClusterManifest::Decode(bytes_ + std::string(8, '\0'));
  EXPECT_FALSE(decoded.ok());
}

TEST_F(ManifestCodecTest, UnsupportedVersionIsExplicit) {
  // Patch the version field (offset 4, u16 LE) and restamp the trailer so
  // the version check itself is reached.
  std::string patched = bytes_.substr(0, bytes_.size() - 8);
  patched[4] = 99;
  const uint64_t sum = ClusterFnv1a(patched.data(), patched.size());
  for (int i = 0; i < 8; ++i) {
    patched.push_back(static_cast<char>((sum >> (8 * i)) & 0xff));
  }
  StatusOr<ClusterManifest> decoded = ClusterManifest::Decode(patched);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ManifestCodecTest, SaveLoadFileRoundTrip) {
  const std::string path = dir_ + "/roundtrip.cqmf";
  ASSERT_TRUE(manifest_.SaveToFile(path).ok());
  StatusOr<ClusterManifest> loaded = ClusterManifest::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Encode(), bytes_);
  std::remove(path.c_str());
}

TEST_F(ManifestCodecTest, MissingFileIsIoError) {
  StatusOr<ClusterManifest> loaded =
      ClusterManifest::LoadFromFile(dir_ + "/no-such-manifest.cqmf");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace coskq
