// Cache-line/SIMD aligned heap buffer for block field data.
//
// Block arrays are the hot data of the whole system; alignment keeps the
// vectorized stencil loops on fast paths and makes the Figure 5 cache-effect
// experiments reproducible.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>

#include "util/error.hpp"

/// Non-aliasing pointer qualifier for the hot stencil loops (GCC/Clang).
#if defined(__GNUC__) || defined(__clang__)
#define AB_RESTRICT __restrict__
#else
#define AB_RESTRICT
#endif

/// Loop-independence assertion for the row kernels: the next loop carries
/// no dependence between iterations through memory, so the vectorizer may
/// skip the run-time alias checks it would otherwise version the loop on.
/// GCC caps those checks per loop (--param vect-max-version-for-alias-checks,
/// default 10), which a many-lane row kernel exceeds once it is inlined.
#if defined(__clang__)
#define AB_IVDEP _Pragma("clang loop vectorize(assume_safety)")
#elif defined(__GNUC__)
#define AB_IVDEP _Pragma("GCC ivdep")
#else
#define AB_IVDEP
#endif

namespace ab {

/// Owning, 64-byte-aligned array of doubles. Move-only.
class AlignedBuffer {
 public:
  static constexpr std::size_t kAlign = 64;

  AlignedBuffer() = default;
  explicit AlignedBuffer(std::size_t n) { allocate(n); }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  AlignedBuffer(AlignedBuffer&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)) {}
  AlignedBuffer& operator=(AlignedBuffer&& o) noexcept {
    if (this != &o) {
      release();
      data_ = std::exchange(o.data_, nullptr);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  ~AlignedBuffer() { release(); }

  /// Reallocate to exactly `n` doubles; contents are not preserved and are
  /// zero-initialized.
  void allocate(std::size_t n) {
    release();
    if (n == 0) return;
    // Round the byte size up to a multiple of the alignment, as required by
    // std::aligned_alloc.
    std::size_t bytes = (n * sizeof(double) + kAlign - 1) / kAlign * kAlign;
    data_ = static_cast<double*>(std::aligned_alloc(kAlign, bytes));
    if (data_ == nullptr) throw std::bad_alloc();
    size_ = n;
    for (std::size_t i = 0; i < n; ++i) data_[i] = 0.0;
  }

  void release() {
    std::free(data_);
    data_ = nullptr;
    size_ = 0;
  }

  double* data() { return data_; }
  const double* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }

 private:
  double* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Grow-only aligned scratch arena for kernel pencil lanes. Each thread
/// sweeping blocks owns one of these; acquire() returns a 64-byte-aligned
/// workspace that is reused (and only reallocated upward) across calls, so
/// the steady-state hot loop performs no allocation.
class AlignedScratch {
 public:
  /// Workspace of at least `n` doubles. Contents are unspecified.
  double* acquire(std::size_t n) {
    if (buf_.size() < n) buf_.allocate(n);
    return buf_.data();
  }
  std::size_t capacity() const { return buf_.size(); }

 private:
  AlignedBuffer buf_;
};

}  // namespace ab
