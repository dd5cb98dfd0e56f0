#ifndef COSKQ_INDEX_TERM_SIGNATURE_H_
#define COSKQ_INDEX_TERM_SIGNATURE_H_

#include <stddef.h>
#include <stdint.h>

#include "data/term_set.h"

namespace coskq {

/// One-bit Bloom signatures over term sets, the O(1) pre-filter in front of
/// the exact masked containment tests.
///
/// Each term hashes to a single bit of a uint64_t; a set's signature is the
/// OR of its members' bits. The filter is one-sided: a clear AND between a
/// query-side signature and a node/object signature proves the exact test
/// would fail, so the masked traversals can skip it — while a set bit says
/// nothing and the exact test still runs. Pruning decisions (and therefore
/// node-visit sequences and results) stay bit-identical to the baseline;
/// only definite-negative tests get cheaper, which is the common case when
/// descending past subtrees that lack the query's keywords.
///
/// Signatures saturate as sets grow — a node summarizing most of the
/// vocabulary has all bits set and the pre-filter passes everything, which
/// costs one AND and falls through to the cached-mask test. The filter pays
/// off at the leaves and lower internal levels, where term sets are small
/// and sparse.
inline uint64_t TermSignature(TermId t) {
  // splitmix64-style finalizer step; only the top 6 bits are used.
  uint64_t h = static_cast<uint64_t>(t) + 0x9E3779B97F4A7C15ull;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  return uint64_t{1} << (h >> 58);
}

/// OR of the member signatures; 0 for the empty set.
inline uint64_t TermSpanSignature(const TermId* terms, size_t count) {
  uint64_t sig = 0;
  for (size_t i = 0; i < count; ++i) {
    sig |= TermSignature(terms[i]);
  }
  return sig;
}

inline uint64_t TermSetSignature(const TermSet& terms) {
  return TermSpanSignature(terms.data(), terms.size());
}

}  // namespace coskq

#endif  // COSKQ_INDEX_TERM_SIGNATURE_H_
