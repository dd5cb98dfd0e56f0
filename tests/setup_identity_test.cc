// Set-up path identity: the chunk-parallel dataset loader and the keyed,
// level-parallel STR build must produce exactly what the sequential
// getline loader and the one-thread build produced.
//
//  * goldens — a GN-like corpus saved and reloaded must give the recorded
//    checksum, vocabulary and snapshot bytes (both layouts), and a corpus of
//    heavily tied coordinates its recorded snapshot bytes. The values were
//    recorded with the sequential loader and builder;
//  * chunk-count invariance — 1, 2, 3, 7 and 64 chunks parse to identical
//    datasets, and all of them match a line-by-line reference parser that
//    mirrors the sequential loader, on a corpus and on every edge case of
//    the row grammar;
//  * error provenance — with corrupt rows in several chunks, the earliest
//    row in file order is reported, as "origin:line".
//
// The TSan CI job runs this binary explicitly: the loader and the build
// both fan out over threads.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/synthetic.h"
#include "index/irtree.h"
#include "index/snapshot.h"
#include "test_util.h"
#include "util/random.h"
#include "util/string_util.h"

namespace coskq {
namespace {

constexpr size_t kChunkCounts[] = {1, 2, 3, 7, 64};

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// The sequential loader's semantics, kept as the test oracle: std::getline
/// lines, ASCII-whitespace trim, '#' comments, single-space fields, strtod
/// coordinates on a terminated copy, and AddObject interning.
StatusOr<Dataset> ReferenceParse(const std::string& text,
                                 const std::string& origin) {
  const auto parse_double = [](const std::string& field, double* value) {
    if (field.empty()) {
      return false;
    }
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(field.c_str(), &end);
    if (errno != 0 || end != field.c_str() + field.size()) {
      return false;
    }
    *value = parsed;
    return true;
  };
  Dataset dataset;
  std::istringstream in(text);
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty() || trimmed[0] == '#') {
      continue;
    }
    const std::vector<std::string> fields = SplitString(trimmed, ' ');
    const std::string where = origin + ":" + std::to_string(line_number);
    if (fields.size() < 2) {
      return Status::Corruption(where + ": expected 'x y [words...]'");
    }
    double x = 0.0;
    double y = 0.0;
    if (!parse_double(fields[0], &x) || !parse_double(fields[1], &y)) {
      return Status::Corruption(where + ": malformed coordinates");
    }
    if (!std::isfinite(x) || !std::isfinite(y)) {
      return Status::Corruption(where + ": non-finite coordinates");
    }
    dataset.AddObject(Point{x, y},
                      std::vector<std::string>(fields.begin() + 2,
                                               fields.end()));
  }
  return dataset;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Asserts two datasets are identical in everything the loader derives.
void ExpectSameDataset(const Dataset& want, const Dataset& got) {
  ASSERT_EQ(want.NumObjects(), got.NumObjects());
  for (ObjectId id = 0; id < want.NumObjects(); ++id) {
    const SpatialObject& a = want.object(id);
    const SpatialObject& b = got.object(id);
    ASSERT_EQ(b.id, id);
    ASSERT_EQ(Bits(a.location.x), Bits(b.location.x)) << "object " << id;
    ASSERT_EQ(Bits(a.location.y), Bits(b.location.y)) << "object " << id;
    ASSERT_EQ(a.keywords, b.keywords) << "object " << id;
  }
  ASSERT_EQ(want.vocabulary().size(), got.vocabulary().size());
  for (TermId t = 0; t < want.vocabulary().size(); ++t) {
    ASSERT_EQ(want.vocabulary().TermString(t), got.vocabulary().TermString(t));
    ASSERT_EQ(want.TermFrequency(t), got.TermFrequency(t)) << "term " << t;
  }
  EXPECT_EQ(want.TotalKeywordCount(), got.TotalKeywordCount());
  EXPECT_EQ(Bits(want.mbr().min_x), Bits(got.mbr().min_x));
  EXPECT_EQ(Bits(want.mbr().min_y), Bits(got.mbr().min_y));
  EXPECT_EQ(Bits(want.mbr().max_x), Bits(got.mbr().max_x));
  EXPECT_EQ(Bits(want.mbr().max_y), Bits(got.mbr().max_y));
  EXPECT_EQ(want.ContentChecksum(), got.ContentChecksum());
}

/// Parses `text` with every chunk count and checks each result (dataset or
/// error text) against the reference parser.
void ExpectChunkedMatchesReference(const std::string& text) {
  const StatusOr<Dataset> want = ReferenceParse(text, "<case>");
  for (size_t chunks : kChunkCounts) {
    SCOPED_TRACE("chunks=" + std::to_string(chunks));
    const StatusOr<Dataset> got =
        internal_data::ParseChunked(text, "<case>", chunks);
    ASSERT_EQ(want.ok(), got.ok()) << (want.ok() ? got.status().ToString()
                                                 : want.status().ToString());
    if (!want.ok()) {
      EXPECT_EQ(want.status().code(), got.status().code());
      EXPECT_EQ(want.status().ToString(), got.status().ToString());
      continue;
    }
    ExpectSameDataset(*want, *got);
  }
}

class SetupGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(20130626);
    const Dataset generated = GenerateSynthetic(GnLikeSpec(0.05), &rng);
    path_ = new std::string(::testing::TempDir() + "/coskq_setup_golden_" +
                            std::to_string(getpid()) + ".txt");
    ASSERT_TRUE(generated.SaveToFile(*path_).ok());
    StatusOr<Dataset> loaded = Dataset::LoadFromFile(*path_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    dataset_ = new Dataset(std::move(*loaded));
  }

  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete dataset_;
    delete path_;
    dataset_ = nullptr;
    path_ = nullptr;
  }

  static std::string* path_;
  static Dataset* dataset_;
};

std::string* SetupGoldenTest::path_ = nullptr;
Dataset* SetupGoldenTest::dataset_ = nullptr;

TEST_F(SetupGoldenTest, ReloadedCorpusMatchesRecordedGoldens) {
  ASSERT_NE(dataset_, nullptr);
  const Dataset& ds = *dataset_;
  EXPECT_EQ(ds.NumObjects(), 93441u);
  EXPECT_EQ(ds.ContentChecksum(), 0x21804ad26c48cce4ull);
  EXPECT_EQ(ds.TotalKeywordCount(), 918794u);
  ASSERT_EQ(ds.vocabulary().size(), 11120u);
  EXPECT_EQ(ds.vocabulary().TermString(0), "t0");
  EXPECT_EQ(ds.vocabulary().TermString(1), "t1");
  EXPECT_EQ(ds.vocabulary().TermString(7), "t298");
  EXPECT_EQ(ds.vocabulary().TermString(3706), "t748");
  EXPECT_EQ(ds.vocabulary().TermString(5560), "t6589");
  EXPECT_EQ(ds.vocabulary().TermString(11119), "t10740");
}

TEST_F(SetupGoldenTest, SnapshotBytesMatchRecordedGoldens) {
  ASSERT_NE(dataset_, nullptr);
  struct Golden {
    FrozenLayout layout;
    size_t bytes;
    uint64_t fnv;
  };
  for (const Golden& golden :
       {Golden{FrozenLayout::kBfs, 11166528, 0x05126080c62621bdull},
        Golden{FrozenLayout::kLevelGrouped, 11170496,
               0x6550487bc85b1976ull}}) {
    SCOPED_TRACE(static_cast<int>(golden.layout));
    IrTree::Options options;
    options.frozen_layout = golden.layout;
    IrTree tree(dataset_, options);
    const std::string snapshot = *path_ + ".cqix";
    ASSERT_TRUE(SaveSnapshot(&tree, snapshot).ok());
    const std::string bytes = ReadFileBytes(snapshot);
    std::remove(snapshot.c_str());
    EXPECT_EQ(bytes.size(), golden.bytes);
    EXPECT_EQ(Fnv1a(bytes), golden.fnv);
  }
}

TEST_F(SetupGoldenTest, FileLoadMatchesReferenceParser) {
  ASSERT_NE(dataset_, nullptr);
  const StatusOr<Dataset> want =
      ReferenceParse(ReadFileBytes(*path_), *path_);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ExpectSameDataset(*want, *dataset_);
}

// Coordinates with many ties (97 distinct x, 211 distinct y): the keyed STR
// sort must reproduce the sequential build's permutation among equal keys
// too, not just some valid tiling. Large enough for the parallel build.
TEST(StrBuildTest, TiedCoordinatesKeepTheRecordedSnapshotBytes) {
  Dataset dataset;
  for (int i = 0; i < 20000; ++i) {
    std::string w = "w";
    std::string v = "v";
    w += std::to_string(i % 50);
    v += std::to_string(i % 13);
    dataset.AddObject(Point{(i % 97) * 0.01, ((i * 7919) % 211) * 0.005},
                      {w, v});
  }
  IrTree tree(&dataset);
  const std::string snapshot = ::testing::TempDir() + "/coskq_setup_ties_" +
                               std::to_string(getpid()) + ".cqix";
  ASSERT_TRUE(SaveSnapshot(&tree, snapshot).ok());
  const std::string bytes = ReadFileBytes(snapshot);
  std::remove(snapshot.c_str());
  EXPECT_EQ(bytes.size(), 1020536u);
  EXPECT_EQ(Fnv1a(bytes), 0x5fcf6ed4c01e8509ull);
}

TEST(ChunkedParseTest, ChunkCountDoesNotChangeTheCorpus) {
  const Dataset generated = test::MakeRandomDataset(4000, 300, 5.0, 77);
  const std::string path = ::testing::TempDir() + "/coskq_setup_chunks_" +
                           std::to_string(getpid()) + ".txt";
  ASSERT_TRUE(generated.SaveToFile(path).ok());
  const std::string text = ReadFileBytes(path);
  std::remove(path.c_str());
  ExpectChunkedMatchesReference(text);
}

TEST(ChunkedParseTest, EdgeCasesMatchTheReferenceParser) {
  std::string many_keywords = "0.5 0.5";
  for (int i = 0; i < 100; ++i) {
    many_keywords += " k" + std::to_string(i % 80);
  }
  const std::string long_zero = "0." + std::string(70, '0') + "1";
  const std::vector<std::string> cases = {
      "",
      "\n",
      "\n\n\n",
      "# only a comment",
      "0.5 0.25 cafe wifi\r\n1 2 museum\r\n",
      "\r\n0.5 0.25 a\r\n\r\n",
      "  \t0.5 0.25 a\t \n",
      "0.5 0.25 a\tb c\n",
      "0.5\t0.25 a\n",
      "0.5 0.25\ta b\n",
      "# header\n   # indented comment\n1 2 a\n#tail",
      " \t \n\v\f\n1 2 a\n   \n",
      "1 2 a\n3 4 b",
      "1   2    a   b  \n",
      "0x1p-2 0x10 hex\n",
      "+1.5 +2 signed\n",
      "1. .5 dots\n",
      "1e-310 0.5 subnormal\n",
      "4.9e-324 0 subnormal\n",
      "1e400 0 overflow\n",
      "-0 0 negzero\n-0.0 -0e5 negzero\n",
      "nan 1.0 cafe\n",
      "1.0 inf cafe\n",
      "1.0 -INFINITY cafe\n",
      "1 \v2 vtab-led\n",
      std::string("1 2\0 nul\n", 9),
      long_zero + " " + long_zero + " long\n",
      "12345678901234567890123 1e99 big\n",
      "1e5 2E-5 exp\n1e 2 bad\n",
      "0 0 a a b a\n1 1 b b\n",
      many_keywords + "\n" + many_keywords,
      "justoneword\n",
      "abc def cafe\n",
      "1.0\n",
      "1 2\n",
  };
  for (const std::string& text : cases) {
    SCOPED_TRACE("case: " + text);
    ExpectChunkedMatchesReference(text);
  }
}

TEST(ChunkedParseTest, EarliestCorruptRowIsReported) {
  std::string text;
  for (int i = 0; i < 3000; ++i) {
    if (i == 1234) {
      text += "0.5 oops first\n";
    } else if (i == 2700) {
      text += "broken\n";
    } else {
      text += "0.25 0.75 w" + std::to_string(i % 50) + "\n";
    }
  }
  for (size_t chunks : kChunkCounts) {
    SCOPED_TRACE("chunks=" + std::to_string(chunks));
    const StatusOr<Dataset> got =
        internal_data::ParseChunked(text, "<corrupt>", chunks);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(got.status().ToString(),
              Status::Corruption("<corrupt>:1235: malformed coordinates")
                  .ToString());
  }
  ExpectChunkedMatchesReference(text);
}

// A file large enough for the default multi-chunk load, with corrupt rows
// in its first and last quarter: the message names the file and the first.
TEST(ChunkedParseTest, LoadFromFileReportsEarliestCorruptRow) {
  const std::string path = ::testing::TempDir() + "/coskq_setup_corrupt_" +
                           std::to_string(getpid()) + ".txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    for (int i = 1; i <= 120000; ++i) {
      if (i == 20000) {
        std::fputs("1.0\n", f);
      } else if (i == 110000) {
        std::fputs("nan 0 late\n", f);
      } else {
        std::fprintf(f, "0.%06d 0.%06d word%d other%d\n", i, 120000 - i,
                     i % 97, i % 13);
      }
    }
    std::fclose(f);
  }
  const StatusOr<Dataset> got = Dataset::LoadFromFile(path);
  std::remove(path.c_str());
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().ToString(),
            Status::Corruption(path + ":20000: expected 'x y [words...]'")
                .ToString());
}

}  // namespace
}  // namespace coskq
