#include "data/dataset.h"

#include <fcntl.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

#include "util/logging.h"
#include "util/parallel.h"
#include "util/scratch_array.h"
#include "util/string_util.h"

namespace coskq {

TermId Vocabulary::GetOrAdd(std::string_view word) {
  auto it = word_to_id_.find(word);
  if (it != word_to_id_.end()) {
    return it->second;
  }
  const TermId id = static_cast<TermId>(id_to_word_.size());
  word_to_id_.emplace(std::string(word), id);
  id_to_word_.emplace_back(word);
  return id;
}

TermId Vocabulary::Find(std::string_view word) const {
  auto it = word_to_id_.find(word);
  return it == word_to_id_.end() ? kInvalidTermId : it->second;
}

const std::string& Vocabulary::TermString(TermId id) const {
  COSKQ_CHECK_LT(id, id_to_word_.size());
  return id_to_word_[id];
}

Dataset Dataset::Clone() const {
  COSKQ_CHECK(!concurrent_appends_enabled())
      << "Clone of a concurrent-append dataset";
  Dataset copy;
  copy.objects_ = objects_;
  copy.vocab_ = vocab_;
  copy.mbr_ = mbr_;
  copy.term_frequency_ = term_frequency_;
  copy.total_keyword_count_ = total_keyword_count_;
  return copy;
}

ObjectId Dataset::AddObject(const Point& location,
                            const std::vector<std::string>& words) {
  TermSet terms;
  terms.reserve(words.size());
  for (const std::string& word : words) {
    terms.push_back(vocab_.GetOrAdd(word));
  }
  return AddObjectWithTerms(location, std::move(terms));
}

ObjectId Dataset::AddObjectWithTerms(const Point& location, TermSet terms) {
  COSKQ_CHECK(!concurrent_appends_enabled())
      << "use AppendObjectConcurrent in concurrent-append mode";
  NormalizeTermSet(&terms);
  checksum_cached_.store(false, std::memory_order_relaxed);
  const ObjectId id = static_cast<ObjectId>(objects_.size());
  mbr_.ExpandToInclude(location);
  total_keyword_count_ += terms.size();
  for (TermId t : terms) {
    if (t >= term_frequency_.size()) {
      term_frequency_.resize(t + 1, 0);
    }
    ++term_frequency_[t];
  }
  objects_.push_back(SpatialObject{id, location, std::move(terms)});
  return id;
}

const SpatialObject& Dataset::object(ObjectId id) const {
  COSKQ_CHECK_LT(id, NumObjects());
  return objects_[id];
}

void Dataset::EnableConcurrentAppends(size_t max_extra) {
  COSKQ_CHECK(!concurrent_appends_enabled());
  const size_t base = objects_.size();
  published_count_.store(base, std::memory_order_relaxed);
  append_capacity_ = base + max_extra;
  // All reallocation happens here, before any reader exists: appends only
  // ever write one placeholder slot and bump the published count, so the
  // storage (and every reference a reader holds) stays put.
  objects_.resize(append_capacity_);
  concurrent_mode_.store(true, std::memory_order_release);
}

StatusOr<ObjectId> Dataset::AppendObjectConcurrent(const Point& location,
                                                   TermSet terms) {
  COSKQ_CHECK(concurrent_appends_enabled());
  NormalizeTermSet(&terms);
  const size_t n = published_count_.load(std::memory_order_relaxed);
  if (n >= append_capacity_) {
    return Status::OutOfRange("append capacity exhausted (" +
                              std::to_string(append_capacity_) + " objects)");
  }
  const ObjectId id = static_cast<ObjectId>(n);
  objects_[n] = SpatialObject{id, location, std::move(terms)};
  // Release: a reader that observes the new count sees the full object.
  published_count_.store(n + 1, std::memory_order_release);
  return id;
}

uint32_t Dataset::TermFrequency(TermId t) const {
  return t < term_frequency_.size() ? term_frequency_[t] : 0;
}

double Dataset::AverageKeywordsPerObject() const {
  if (objects_.empty()) {
    return 0.0;
  }
  return static_cast<double>(total_keyword_count_) /
         static_cast<double>(objects_.size());
}

std::vector<TermId> Dataset::TermsByFrequencyDesc() const {
  std::vector<TermId> terms;
  terms.reserve(term_frequency_.size());
  for (TermId t = 0; t < term_frequency_.size(); ++t) {
    if (term_frequency_[t] > 0) {
      terms.push_back(t);
    }
  }
  std::stable_sort(terms.begin(), terms.end(), [this](TermId a, TermId b) {
    if (term_frequency_[a] != term_frequency_[b]) {
      return term_frequency_[a] > term_frequency_[b];
    }
    return a < b;
  });
  return terms;
}

void Dataset::ReplaceKeywords(ObjectId id, TermSet terms) {
  COSKQ_CHECK_LT(id, objects_.size());
  NormalizeTermSet(&terms);
  checksum_cached_.store(false, std::memory_order_relaxed);
  SpatialObject& obj = objects_[id];
  total_keyword_count_ -= obj.keywords.size();
  for (TermId t : obj.keywords) {
    COSKQ_DCHECK(t < term_frequency_.size() && term_frequency_[t] > 0);
    --term_frequency_[t];
  }
  total_keyword_count_ += terms.size();
  for (TermId t : terms) {
    if (t >= term_frequency_.size()) {
      term_frequency_.resize(t + 1, 0);
    }
    ++term_frequency_[t];
  }
  obj.keywords = std::move(terms);
}

uint64_t Dataset::ContentChecksum() const {
  if (checksum_cached_.load(std::memory_order_acquire)) {
    return checksum_cache_.load(std::memory_order_relaxed);
  }
  // FNV-1a over a canonical little-endian u64 stream. Coordinates are
  // hashed by bit pattern, so the digest is exact (no formatting round
  // trip) and any content difference changes it with high probability.
  uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      h ^= (value >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  const auto mix_double = [&mix](double value) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
    memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  };
  const size_t n = NumObjects();
  mix(n);
  for (size_t i = 0; i < n; ++i) {
    const SpatialObject& obj = objects_[i];
    mix_double(obj.location.x);
    mix_double(obj.location.y);
    mix(obj.keywords.size());
    for (TermId t : obj.keywords) {
      mix(t);
    }
  }
  checksum_cache_.store(h, std::memory_order_relaxed);
  checksum_cached_.store(true, std::memory_order_release);
  return h;
}

Status Dataset::SaveToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open for writing: " + path);
  }
  // max_digits10 makes the coordinate round-trip bit-exact.
  out.precision(std::numeric_limits<double>::max_digits10);
  const size_t n = NumObjects();
  for (size_t i = 0; i < n; ++i) {
    const SpatialObject& obj = objects_[i];
    out << obj.location.x << ' ' << obj.location.y;
    for (TermId t : obj.keywords) {
      out << ' ' << vocab_.TermString(t);
    }
    out << '\n';
  }
  if (!out) {
    return Status::IoError("write failed: " + path);
  }
  return Status::OK();
}

namespace {

/// Inputs smaller than this per chunk are parsed on the calling thread.
constexpr size_t kMinChunkBytes = size_t{1} << 20;

size_t DefaultChunkCount(size_t bytes) {
  return std::clamp<size_t>(bytes / kMinChunkBytes, 1,
                            static_cast<size_t>(HardwareThreads()));
}

/// Chunk-local interning table: open addressing over views into the parsed
/// buffer, so no word is copied until the merge. Local ids are assigned in
/// first-seen order. The table and the word arrays double together, so the
/// arrays hold room for at most twice the chunk's distinct words.
class ChunkVocabulary {
 public:
  uint32_t GetOrAdd(std::string_view word) {
    if (2 * (words_.size() + 1) > slots_.capacity()) {
      Grow();
    }
    const size_t hash = std::hash<std::string_view>()(word);
    const size_t mask = slots_.capacity() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const uint32_t slot = slots_[i];
      if (slot == 0) {
        words_.push_back(word);
        hashes_.push_back(hash);
        slots_[i] = static_cast<uint32_t>(words_.size());
        return slot_to_id(slots_[i]);
      }
      const uint32_t id = slot_to_id(slot);
      if (hashes_[id] == hash && words_[id] == word) {
        return id;
      }
    }
  }

  size_t size() const { return words_.size(); }
  std::string_view word(uint32_t id) const { return words_[id]; }

 private:
  /// slots_ holds local id + 1; 0 (a fresh mapping's content) marks an
  /// empty slot. Its capacity is the table size, a power of two.
  static uint32_t slot_to_id(uint32_t slot) { return slot - 1; }

  void Grow() {
    slots_ = ScratchArray<uint32_t>(
        std::max<size_t>(1024, 2 * slots_.capacity()));
    words_.reserve(slots_.capacity() / 2);
    hashes_.reserve(slots_.capacity() / 2);
    const size_t mask = slots_.capacity() - 1;
    for (size_t id = 0; id < hashes_.size(); ++id) {
      size_t i = hashes_[id] & mask;
      while (slots_[i] != 0) {
        i = (i + 1) & mask;
      }
      slots_[i] = static_cast<uint32_t>(id + 1);
    }
  }

  ScratchArray<uint32_t> slots_;
  ScratchArray<std::string_view> words_;
  ScratchArray<size_t> hashes_;
};

/// One newline-aligned chunk, parsed. Object i's keywords are
/// terms[term_end[i-1] .. term_end[i]): chunk-local ids until the merge
/// rewrites them to global, sorted, duplicate-free TermIds. All storage is
/// ScratchArrays, so a parsing worker never calls malloc (see
/// util/scratch_array.h); capacities are bounds from the chunk's byte
/// counts: a row per line, and a token per space plus one per line.
struct ParsedChunk {
  void Reserve(std::string_view text) {
    const size_t max_rows =
        static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
    const size_t max_tokens =
        static_cast<size_t>(std::count(text.begin(), text.end(), ' ')) +
        max_rows;
    locations = ScratchArray<Point>(max_rows);
    term_end = ScratchArray<size_t>(max_rows);
    terms = ScratchArray<TermId>(max_tokens);
  }

  ScratchArray<Point> locations;
  ScratchArray<size_t> term_end;
  ScratchArray<TermId> terms;
  ChunkVocabulary vocab;
  /// Lines consumed; all of the chunk's lines unless it failed.
  size_t lines = 0;
  /// The chunk's first malformed row (chunk-local 1-based line), if any.
  const char* error = nullptr;
  size_t error_line = 0;
};

/// Parses one chunk with the line semantics of std::getline plus the row
/// grammar SaveToFile writes: trim ASCII whitespace, skip blank and '#'
/// lines, split on single spaces (runs of spaces make no empty fields),
/// then "x y word...". Stops at the first malformed row.
void ParseChunk(std::string_view text, ParsedChunk* out) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    const std::string_view line = TrimWhitespace(text.substr(pos, end - pos));
    pos = end + 1;
    ++out->lines;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    size_t field_pos = 0;
    const auto next_field = [&line, &field_pos]() {
      while (field_pos < line.size() && line[field_pos] == ' ') {
        ++field_pos;
      }
      const size_t begin = field_pos;
      while (field_pos < line.size() && line[field_pos] != ' ') {
        ++field_pos;
      }
      return line.substr(begin, field_pos - begin);
    };
    const std::string_view x_field = next_field();
    const std::string_view y_field = next_field();
    double x = 0.0;
    double y = 0.0;
    if (y_field.empty()) {
      out->error = "expected 'x y [words...]'";
    } else if (!ParseDouble(x_field, &x) || !ParseDouble(y_field, &y)) {
      out->error = "malformed coordinates";
    } else if (!std::isfinite(x) || !std::isfinite(y)) {
      // strtod happily parses "nan"/"inf"; a non-finite location would
      // poison every distance computed against it.
      out->error = "non-finite coordinates";
    }
    if (out->error != nullptr) {
      out->error_line = out->lines;
      return;
    }
    out->locations.push_back(Point{x, y});
    for (std::string_view word = next_field(); !word.empty();
         word = next_field()) {
      out->terms.push_back(out->vocab.GetOrAdd(word));
    }
    out->term_end.push_back(out->terms.size());
  }
}

/// Splits `text` into `num_chunks` pieces that each end just past a '\n'
/// (the last one at the end of the text). Pieces may be empty.
std::vector<std::string_view> SplitChunks(std::string_view text,
                                          size_t num_chunks) {
  std::vector<std::string_view> chunks;
  size_t begin = 0;
  for (size_t c = 1; c <= num_chunks; ++c) {
    size_t end = std::max(begin, text.size() * c / num_chunks);
    if (end > 0 && end < text.size()) {
      const size_t newline = text.find('\n', end - 1);
      end = newline == std::string_view::npos ? text.size() : newline + 1;
    }
    chunks.push_back(text.substr(begin, end - begin));
    begin = end;
  }
  return chunks;
}

}  // namespace

namespace internal_data {

StatusOr<Dataset> ParseChunked(std::string_view text,
                               const std::string& origin, size_t num_chunks) {
  COSKQ_CHECK_GT(num_chunks, 0u);
  const std::vector<std::string_view> pieces = SplitChunks(text, num_chunks);
  std::vector<ParsedChunk> parsed(pieces.size());
  const int threads = HardwareThreads();
  ParallelFor(pieces.size(), threads, [&](size_t c) {
    parsed[c].Reserve(pieces[c]);
    ParseChunk(pieces[c], &parsed[c]);
  });

  // The earliest failing chunk holds the file's first malformed row; every
  // chunk before it parsed all of its lines.
  size_t line_base = 0;
  for (const ParsedChunk& chunk : parsed) {
    if (chunk.error != nullptr) {
      return Status::Corruption(origin + ":" +
                                std::to_string(line_base + chunk.error_line) +
                                ": " + chunk.error);
    }
    line_base += chunk.lines;
  }

  // Global TermIds in file first-seen order: a word's first occurrence in
  // the file is its first occurrence in the earliest chunk holding it, so
  // interning chunk by chunk in local first-seen order replays exactly the
  // sequential interning order (DESIGN.md §17).
  Dataset dataset;
  std::vector<std::vector<TermId>> to_global(parsed.size());
  for (size_t c = 0; c < parsed.size(); ++c) {
    const ChunkVocabulary& vocab = parsed[c].vocab;
    to_global[c].reserve(vocab.size());
    for (uint32_t id = 0; id < vocab.size(); ++id) {
      to_global[c].push_back(dataset.vocab_.GetOrAdd(vocab.word(id)));
    }
  }
  // Rewrite each object's terms to sorted, duplicate-free global ids in
  // place (the TermSet invariant), compacting the chunk's term array.
  ParallelFor(parsed.size(), threads, [&](size_t c) {
    ParsedChunk& chunk = parsed[c];
    const std::vector<TermId>& map = to_global[c];
    TermId* const terms = chunk.terms.data();
    size_t begin = 0;
    size_t kept = 0;
    for (size_t i = 0; i < chunk.term_end.size(); ++i) {
      size_t& end = chunk.term_end[i];
      TermId* const first = terms + begin;
      TermId* last = terms + end;
      for (TermId* t = first; t != last; ++t) {
        *t = map[*t];
      }
      std::sort(first, last);
      last = std::unique(first, last);
      begin = end;
      const size_t count = static_cast<size_t>(last - first);
      if (terms + kept != first) {
        memmove(terms + kept, first, count * sizeof(TermId));
      }
      kept += count;
      end = kept;
    }
  });

  // objects_ grows by push_back, not one exact reserve: the doubling leaves
  // room up to the next power of two, so a live-update server appends its
  // mutation capacity in place (EnableConcurrentAppends), and the blocks
  // it frees on the way set glibc's mmap threshold as the getline loader
  // did (DESIGN.md §17).
  dataset.term_frequency_.assign(dataset.vocab_.size(), 0);
  for (const ParsedChunk& chunk : parsed) {
    size_t begin = 0;
    for (size_t i = 0; i < chunk.locations.size(); ++i) {
      const size_t end = chunk.term_end[i];
      const ObjectId id = static_cast<ObjectId>(dataset.objects_.size());
      dataset.mbr_.ExpandToInclude(chunk.locations[i]);
      dataset.total_keyword_count_ += end - begin;
      for (size_t k = begin; k < end; ++k) {
        ++dataset.term_frequency_[chunk.terms[k]];
      }
      dataset.objects_.push_back(
          SpatialObject{id, chunk.locations[i],
                        TermSet(chunk.terms.data() + begin,
                                chunk.terms.data() + end)});
      begin = end;
    }
  }
  return dataset;
}

}  // namespace internal_data

StatusOr<Dataset> Dataset::LoadFromFile(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open for reading: " + path);
  }
  struct stat st;
  if (fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    // One read-only mapping, parsed in place.
    const size_t size = static_cast<size_t>(st.st_size);
    void* map = mmap(nullptr, size, PROT_READ, MAP_PRIVATE | MAP_POPULATE,
                     fd, 0);
    close(fd);
    if (map == MAP_FAILED) {
      return Status::IoError("cannot map for reading: " + path);
    }
    StatusOr<Dataset> parsed = internal_data::ParseChunked(
        std::string_view(static_cast<const char*>(map), size), path,
        DefaultChunkCount(size));
    munmap(map, size);
    return parsed;
  }
  // Pipes, character devices and empty files: read whatever there is.
  std::string text;
  char buffer[1 << 16];
  ssize_t n = 0;
  while ((n = read(fd, buffer, sizeof(buffer))) > 0) {
    text.append(buffer, static_cast<size_t>(n));
  }
  close(fd);
  if (n < 0) {
    return Status::IoError("read failed: " + path);
  }
  return internal_data::ParseChunked(text, path,
                                     DefaultChunkCount(text.size()));
}

StatusOr<Dataset> Dataset::ParseFromString(const std::string& text) {
  return internal_data::ParseChunked(text, "<string>",
                                     DefaultChunkCount(text.size()));
}

}  // namespace coskq
