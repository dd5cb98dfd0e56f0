#include "util/parallel.h"

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace coskq {

namespace {

/// Stack size of ParallelFor workers. Their work is flat loops and sorts.
constexpr size_t kWorkerStackBytes = size_t{1} << 20;

/// State shared by the threads of one parallel loop, on the caller's stack.
struct ParallelTask {
  const std::function<void(int, size_t)>* fn;
  size_t count;
  std::atomic<size_t> next{0};
};

/// What one started thread needs: the loop and its own worker number.
struct WorkerArg {
  ParallelTask* task;
  int worker;
};

void Drain(ParallelTask* task, int worker) {
  for (size_t i = task->next.fetch_add(1, std::memory_order_relaxed);
       i < task->count;
       i = task->next.fetch_add(1, std::memory_order_relaxed)) {
    (*task->fn)(worker, i);
  }
}

void* DrainEntry(void* arg) {
  const WorkerArg* worker = static_cast<const WorkerArg*>(arg);
  Drain(worker->task, worker->worker);
  return nullptr;
}

/// ParallelFor, telling `fn(worker, i)` which thread runs it: the calling
/// thread is worker 0, started threads 1 .. threads - 1.
void RunWorkers(size_t count, int threads,
                const std::function<void(int, size_t)>& fn) {
  const size_t workers =
      std::min(count, static_cast<size_t>(std::max(threads, 1)));
  ParallelTask task{&fn, count};
  // Raw pthreads, not std::thread: std::thread frees its start state on the
  // new thread, and the first free gives a thread its own malloc arena,
  // which reserves 64 MiB of address space for the rest of the process. A
  // worker that never calls malloc or free gets none. A thread that fails
  // to start leaves its share to the others.
  // Stacks of our own, unmapped after the join: glibc keeps the stacks it
  // allocates cached and mapped after their threads end, so every loop
  // would leave address space behind.
  std::vector<pthread_t> pool(workers > 1 ? workers - 1 : 0);
  std::vector<WorkerArg> args(pool.size());
  std::vector<void*> stacks;
  stacks.reserve(pool.size());
  const size_t guard_bytes = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t map_bytes = guard_bytes + kWorkerStackBytes;
  pthread_attr_t attr;
  pthread_attr_init(&attr);
  size_t started = 0;
  while (started < pool.size()) {
    void* map = mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (map == MAP_FAILED) {
      break;
    }
    stacks.push_back(map);
    // The lowest page stays inaccessible, so an overflow faults.
    mprotect(map, guard_bytes, PROT_NONE);
    pthread_attr_setstack(&attr, static_cast<char*>(map) + guard_bytes,
                          kWorkerStackBytes);
    args[started] = WorkerArg{&task, static_cast<int>(started) + 1};
    if (pthread_create(&pool[started], &attr, DrainEntry, &args[started]) !=
        0) {
      break;
    }
    ++started;
  }
  pthread_attr_destroy(&attr);
  Drain(&task, 0);
  for (size_t t = 0; t < started; ++t) {
    pthread_join(pool[t], nullptr);
  }
  for (void* map : stacks) {
    munmap(map, map_bytes);
  }
}

}  // namespace

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ParallelFor(size_t count, int threads,
                 const std::function<void(size_t)>& fn) {
  RunWorkers(count, threads, [&fn](int, size_t i) { fn(i); });
}

void ParallelForRanges(size_t count, int threads,
                       const std::function<void(int, size_t, size_t)>& fn) {
  const size_t ranges =
      std::min(count, static_cast<size_t>(std::max(threads, 1)) * 8);
  RunWorkers(ranges, threads, [&](int worker, size_t r) {
    fn(worker, count * r / ranges, count * (r + 1) / ranges);
  });
}

}  // namespace coskq
