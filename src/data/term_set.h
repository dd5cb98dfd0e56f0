#ifndef COSKQ_DATA_TERM_SET_H_
#define COSKQ_DATA_TERM_SET_H_

#include <stddef.h>
#include <stdint.h>

#include <vector>

namespace coskq {

/// Keywords are interned as dense integer ids; a keyword *set* is a sorted,
/// duplicate-free vector of TermIds. All set operations below require (and
/// preserve) that representation. Sorted vectors beat hash sets here because
/// object keyword sets are small and the hot operations are intersection
/// tests during index traversal.
using TermId = uint32_t;
using TermSet = std::vector<TermId>;

/// Sorts and deduplicates `terms` in place, establishing the TermSet
/// invariant.
void NormalizeTermSet(TermSet* terms);

/// True iff the sorted set `terms` contains `t` (binary search).
bool TermSetContains(const TermSet& terms, TermId t);

/// True iff the two sorted sets share at least one element (linear merge).
bool TermSetsIntersect(const TermSet& a, const TermSet& b);

/// Sorted union of two sorted sets.
TermSet TermSetUnion(const TermSet& a, const TermSet& b);

/// Sorted intersection of two sorted sets.
TermSet TermSetIntersection(const TermSet& a, const TermSet& b);

/// Sorted difference a \ b.
TermSet TermSetDifference(const TermSet& a, const TermSet& b);

/// True iff `sub` ⊆ `super` (both sorted).
bool TermSetIsSubset(const TermSet& sub, const TermSet& super);

/// Number of elements of `a` that are also in `b` (both sorted).
size_t TermSetIntersectionSize(const TermSet& a, const TermSet& b);

/// Merges `addition` into the sorted set `target` in place.
void TermSetMergeInto(TermSet* target, const TermSet& addition);

/// Span variants of the containment/intersection tests, for term sets stored
/// as raw (begin, count) slices of a term arena (the frozen IR-tree layout).
/// The spans obey the same sorted/deduplicated invariant as TermSet, and the
/// implementations run the identical comparison sequences, so outcomes match
/// the vector-based helpers bit for bit.
bool TermSpanContains(const TermId* terms, size_t count, TermId t);
bool TermSpanIntersects(const TermId* terms, size_t count, const TermSet& b);
/// True iff `sub` ⊆ the span.
bool TermSpanIncludes(const TermId* terms, size_t count, const TermSet& sub);
size_t TermSpanIntersectionSize(const TermId* terms, size_t count,
                                const TermSet& b);

}  // namespace coskq

#endif  // COSKQ_DATA_TERM_SET_H_
