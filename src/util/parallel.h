#ifndef COSKQ_UTIL_PARALLEL_H_
#define COSKQ_UTIL_PARALLEL_H_

#include <stddef.h>

#include <functional>

namespace coskq {

/// The default worker count wherever a caller does not pin one: one per
/// hardware thread, or 1 when the platform cannot say. BatchEngine, the
/// query server and the set-up path (dataset load, IR-tree build) all use
/// this rule.
int HardwareThreads();

/// Calls `fn(i)` once for every i in [0, count), on up to `threads` threads
/// (the calling thread is one of them). Tasks are claimed in ascending order
/// from a shared counter, so callers that write task i's output to slot i
/// get a result independent of the thread count. Returns once every call
/// has finished; `threads` <= 1 or `count` <= 1 runs inline. A worker that
/// never calls malloc or free leaves malloc's state as if the loop ran on
/// the calling thread alone; the set-up path relies on that (DESIGN.md §17).
void ParallelFor(size_t count, int threads,
                 const std::function<void(size_t)>& fn);

/// Cuts [0, count) into contiguous ranges, a few per thread so uneven
/// ranges balance out, and calls `fn(worker, begin, end)` once per range
/// through ParallelFor. `worker`, below max(threads, 1), names the thread
/// making the call, so a caller can give each thread its own scratch.
/// Callers that write element i's output to slot i get a result
/// independent of the thread count.
void ParallelForRanges(size_t count, int threads,
                       const std::function<void(int, size_t, size_t)>& fn);

}  // namespace coskq

#endif  // COSKQ_UTIL_PARALLEL_H_
