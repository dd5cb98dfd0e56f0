#ifndef COSKQ_UTIL_SCRATCH_ARRAY_H_
#define COSKQ_UTIL_SCRATCH_ARRAY_H_

#include <stddef.h>
#include <string.h>
#include <sys/mman.h>

#include <span>
#include <type_traits>
#include <utility>

#include "util/logging.h"

namespace coskq {

/// A fixed-capacity array of trivially copyable T in its own anonymous
/// mapping, for the large temporaries of the set-up path (DESIGN.md §17).
/// Freed heap blocks of that size hurt the process long after set-up: a
/// worker thread's blocks stay resident as free memory in malloc's
/// per-thread arena, and freeing a large mapped block raises glibc's
/// dynamic mmap threshold, so later allocations below it stay on the heap
/// and stay resident once freed. A ScratchArray goes straight back to the
/// kernel. Elements start zeroed, and capacity that is never written is
/// never resident, so capacities can be generous upper bounds.
template <typename T>
class ScratchArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  ScratchArray() = default;
  explicit ScratchArray(size_t capacity) : capacity_(capacity) {
    if (capacity_ > 0) {
      void* map = mmap(nullptr, capacity_ * sizeof(T), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      COSKQ_CHECK(map != MAP_FAILED)
          << "cannot map " << capacity_ * sizeof(T) << " bytes of scratch";
      data_ = static_cast<T*>(map);
    }
  }
  ~ScratchArray() {
    if (data_ != nullptr) {
      munmap(data_, capacity_ * sizeof(T));
    }
  }
  ScratchArray(ScratchArray&& other) noexcept { *this = std::move(other); }
  ScratchArray& operator=(ScratchArray&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
    return *this;
  }

  void push_back(const T& value) {
    COSKQ_DCHECK(size_ < capacity_);
    data_[size_++] = value;
  }
  /// Grows the capacity to at least `capacity`, keeping the elements.
  void reserve(size_t capacity) {
    if (capacity <= capacity_) {
      return;
    }
    ScratchArray grown(capacity);
    if (size_ > 0) {
      memcpy(grown.data_, data_, size_ * sizeof(T));
    }
    grown.size_ = size_;
    *this = std::move(grown);
  }
  /// Sets the size; elements past the old size keep what they held last.
  void resize(size_t size) {
    COSKQ_CHECK_LE(size, capacity_);
    size_ = size;
  }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  std::span<T> span() { return std::span<T>(data_, size_); }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace coskq

#endif  // COSKQ_UTIL_SCRATCH_ARRAY_H_
