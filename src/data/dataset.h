#ifndef COSKQ_DATA_DATASET_H_
#define COSKQ_DATA_DATASET_H_

#include <stdint.h>

#include <atomic>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/object.h"
#include "data/term_set.h"
#include "geo/rect.h"
#include "util/status.h"

namespace coskq {

class Dataset;

namespace internal_data {
/// The loader behind LoadFromFile/ParseFromString with the chunk count
/// pinned (they pick one per hardware thread for large inputs, else 1).
/// Test-only: the result must not depend on `num_chunks`.
StatusOr<Dataset> ParseChunked(std::string_view text,
                               const std::string& origin, size_t num_chunks);
}  // namespace internal_data

/// Bidirectional mapping between keyword strings and dense TermIds.
/// TermIds are assigned in first-seen order starting at 0.
///
/// The word → id direction is a flat open-addressing table of ids over
/// id_to_word_, probed with std::hash<std::string_view> of the word; each
/// id's hash is kept, so growing the table never rehashes a string.
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Returns the id of `word`, interning it if unseen.
  TermId GetOrAdd(std::string_view word) {
    return GetOrAdd(word, std::hash<std::string_view>()(word));
  }

  /// As above, with `hash` == std::hash<std::string_view>()(word) already
  /// computed (the chunked loader's local tables store it).
  TermId GetOrAdd(std::string_view word, size_t hash);

  /// Returns the id of `word`, or kInvalidTermId if unknown.
  TermId Find(std::string_view word) const;

  /// Returns the string for a valid id.
  const std::string& TermString(TermId id) const;

  size_t size() const { return id_to_word_.size(); }

  static constexpr TermId kInvalidTermId = static_cast<TermId>(-1);

 private:
  /// The slot holding `word`'s id, or the empty slot where it would go.
  size_t Probe(std::string_view word, size_t hash) const;
  /// Doubles the table and re-places every id by its stored hash.
  void Grow();

  std::vector<std::string> id_to_word_;
  /// std::hash<std::string_view> of each id's word.
  std::vector<size_t> hashes_;
  /// Open-addressing table of id + 1 (0 marks an empty slot); its size is
  /// a power of two, at most half full.
  std::vector<TermId> slots_;
};

/// An in-memory collection of geo-textual objects plus derived statistics:
/// the spatial MBR, per-term document frequencies, and the frequency-ranked
/// vocabulary used by the paper's query generator. Objects are identified by
/// their index (ObjectId == position), which the indexes rely on.
class Dataset {
 public:
  Dataset() = default;

  // Movable but not copyable: datasets can be large, and accidental copies
  // would dominate benchmark timings. Moves are spelled out because the
  // checksum-memo atomics are not movable themselves.
  Dataset(Dataset&& other) noexcept { *this = std::move(other); }
  Dataset& operator=(Dataset&& other) noexcept {
    objects_ = std::move(other.objects_);
    vocab_ = std::move(other.vocab_);
    mbr_ = other.mbr_;
    term_frequency_ = std::move(other.term_frequency_);
    total_keyword_count_ = other.total_keyword_count_;
    checksum_cached_.store(
        other.checksum_cached_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    checksum_cache_.store(
        other.checksum_cache_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    concurrent_mode_.store(
        other.concurrent_mode_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    published_count_.store(
        other.published_count_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    append_capacity_ = other.append_capacity_;
    return *this;
  }
  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;

  /// Explicit deep copy for tests/tools that mutate a derived dataset.
  Dataset Clone() const;

  /// Appends an object with string keywords; returns its id.
  ObjectId AddObject(const Point& location,
                     const std::vector<std::string>& words);

  /// Appends an object with pre-interned keyword ids (need not be sorted;
  /// duplicates are removed); returns its id.
  ObjectId AddObjectWithTerms(const Point& location, TermSet terms);

  /// Number of published objects. In concurrent-append mode this is the
  /// release-published count — a reader that obtained an id below it (e.g.
  /// from a pinned index delta) can safely read that object.
  size_t NumObjects() const {
    return concurrent_mode_.load(std::memory_order_relaxed)
               ? published_count_.load(std::memory_order_acquire)
               : objects_.size();
  }
  const SpatialObject& object(ObjectId id) const;
  /// Direct storage access. Not meaningful in concurrent-append mode (the
  /// vector carries unpublished placeholder slots past NumObjects()).
  const std::vector<SpatialObject>& objects() const { return objects_; }

  /// Switches into concurrent-append mode with room for `max_extra` more
  /// objects (the live-update server's mutation capacity). The object array
  /// is resized up front, so a single writer thread can append via
  /// AppendObjectConcurrent while readers call NumObjects()/object() with no
  /// locking and no sanitizer findings — publication is a single
  /// release-store of the count, and the storage never reallocates.
  /// Derived statistics (mbr, term frequencies, checksum) are frozen at the
  /// corpus present when this is called; AddObject/AddObjectWithTerms/
  /// ReplaceKeywords must not be used afterwards.
  void EnableConcurrentAppends(size_t max_extra);
  bool concurrent_appends_enabled() const {
    return concurrent_mode_.load(std::memory_order_relaxed);
  }

  /// Single-writer append of an object with pre-interned keyword ids (the
  /// vocabulary is not thread-safe, so callers must intern on their own
  /// serialization — the query server restricts mutations to existing
  /// vocabulary words). OutOfRange once the capacity from
  /// EnableConcurrentAppends is exhausted.
  StatusOr<ObjectId> AppendObjectConcurrent(const Point& location,
                                            TermSet terms);

  const Vocabulary& vocabulary() const { return vocab_; }
  Vocabulary& mutable_vocabulary() { return vocab_; }

  /// Minimum bounding rectangle of all object locations.
  const Rect& mbr() const { return mbr_; }

  /// Number of objects whose keyword set contains `t` (document frequency).
  uint32_t TermFrequency(TermId t) const;

  /// Total number of keyword occurrences across all objects (Σ |o.ψ|).
  uint64_t TotalKeywordCount() const { return total_keyword_count_; }

  /// Mean keyword-set size, the "average |o.ψ|" knob of the evaluation.
  double AverageKeywordsPerObject() const;

  /// Term ids sorted by descending document frequency (ties by id). This is
  /// the ranking the paper's query generator draws keywords from.
  std::vector<TermId> TermsByFrequencyDesc() const;

  /// Replaces the keyword set of `id` (used by the dataset augmentation in
  /// the "effect of average |o.ψ|" experiment). Updates statistics.
  void ReplaceKeywords(ObjectId id, TermSet terms);

  /// Order-sensitive FNV-1a digest of the dataset content: object count,
  /// every object's coordinate bits, and every keyword id. Index snapshots
  /// embed it so a snapshot can only be loaded against the exact dataset it
  /// was built from (keyword ids are interning-order dependent, so even a
  /// re-ordered file with identical objects is a different dataset).
  /// Computed on first call and cached (mutators invalidate), so repeated
  /// callers — snapshot load, server provenance — pay the O(content) walk
  /// once. Safe to call from concurrent readers.
  uint64_t ContentChecksum() const;

  /// Serialization: one object per line, "x y word1 word2 ...". Blank lines
  /// and lines starting with '#' are skipped; a malformed row fails the
  /// load with its 1-based "file:line". Large files are parsed in
  /// newline-aligned chunks on HardwareThreads() threads, with a result
  /// identical to a sequential parse (DESIGN.md §17).
  Status SaveToFile(const std::string& path) const;
  static StatusOr<Dataset> LoadFromFile(const std::string& path);

  /// Parses the SaveToFile format from a string (used by tests).
  static StatusOr<Dataset> ParseFromString(const std::string& text);

 private:
  friend StatusOr<Dataset> internal_data::ParseChunked(
      std::string_view text, const std::string& origin, size_t num_chunks);

  std::vector<SpatialObject> objects_;
  Vocabulary vocab_;
  Rect mbr_;
  std::vector<uint32_t> term_frequency_;
  uint64_t total_keyword_count_ = 0;

  // ContentChecksum memo. Concurrent first calls may both compute (and
  // store the identical value); mutators reset the flag. Atomics keep the
  // read-mostly path sanitizer-clean without a lock. Concurrent appends do
  // NOT invalidate it: the cached digest keeps naming the base corpus,
  // which is exactly the provenance an index snapshot was built against.
  mutable std::atomic<bool> checksum_cached_{false};
  mutable std::atomic<uint64_t> checksum_cache_{0};

  // Concurrent-append mode (EnableConcurrentAppends). published_count_ is
  // the reader-visible object count; append_capacity_ the pre-sized bound.
  std::atomic<bool> concurrent_mode_{false};
  std::atomic<size_t> published_count_{0};
  size_t append_capacity_ = 0;
};

}  // namespace coskq

#endif  // COSKQ_DATA_DATASET_H_
