#include "data/term_set.h"

#include <algorithm>

namespace coskq {

void NormalizeTermSet(TermSet* terms) {
  std::sort(terms->begin(), terms->end());
  terms->erase(std::unique(terms->begin(), terms->end()), terms->end());
}

bool TermSetContains(const TermSet& terms, TermId t) {
  return std::binary_search(terms.begin(), terms.end(), t);
}

bool TermSetsIntersect(const TermSet& a, const TermSet& b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

TermSet TermSetUnion(const TermSet& a, const TermSet& b) {
  TermSet result;
  result.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(result));
  return result;
}

TermSet TermSetIntersection(const TermSet& a, const TermSet& b) {
  TermSet result;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(result));
  return result;
}

TermSet TermSetDifference(const TermSet& a, const TermSet& b) {
  TermSet result;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(result));
  return result;
}

bool TermSetIsSubset(const TermSet& sub, const TermSet& super) {
  return TermSpanIncludes(super.data(), super.size(), sub);
}

size_t TermSetIntersectionSize(const TermSet& a, const TermSet& b) {
  return TermSpanIntersectionSize(a.data(), a.size(), b);
}

bool TermSpanIncludes(const TermId* terms, size_t count, const TermSet& sub) {
  return std::includes(terms, terms + count, sub.begin(), sub.end());
}

size_t TermSpanIntersectionSize(const TermId* terms, size_t count,
                                const TermSet& b) {
  size_t common = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < count && j < b.size()) {
    if (terms[i] < b[j]) {
      ++i;
    } else if (b[j] < terms[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return common;
}

bool TermSpanContains(const TermId* terms, size_t count, TermId t) {
  return std::binary_search(terms, terms + count, t);
}

bool TermSpanIntersects(const TermId* terms, size_t count, const TermSet& b) {
  // Asymmetric inputs — a handful of query terms against a node summary
  // that can span hundreds of thousands of ids — make the classic linear
  // merge O(count): it walks (and on an mmap-cold index, pages in) the
  // whole span. Probe with narrowing binary searches instead: b is sorted,
  // so each lower_bound restarts where the previous one landed, giving
  // O(|b| log count) touches of the span. Fall back to the merge walk when
  // the sides are comparable (both small in practice: leaf documents).
  const size_t b_size = b.size();
  if (b_size == 0 || count == 0) {
    return false;
  }
  if (count / 8 > b_size) {
    const TermId* lo = terms;
    const TermId* end = terms + count;
    for (TermId t : b) {
      lo = std::lower_bound(lo, end, t);
      if (lo == end) {
        return false;
      }
      if (*lo == t) {
        return true;
      }
    }
    return false;
  }
  size_t i = 0;
  size_t j = 0;
  while (i < count && j < b_size) {
    if (terms[i] < b[j]) {
      ++i;
    } else if (b[j] < terms[i]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

void TermSetMergeInto(TermSet* target, const TermSet& addition) {
  if (addition.empty()) {
    return;
  }
  TermSet merged = TermSetUnion(*target, addition);
  target->swap(merged);
}

}  // namespace coskq
