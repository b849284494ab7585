#pragma once

// Varying<T> is a per-lane "register": one value per work-item of a
// sub-group executing in lockstep.  This realizes the SIMD lane data layout
// of the paper's half-warp algorithm (Fig. 3) directly on the CPU: compute
// phases are explicit lane loops, communication phases go through the
// primitives in group_algorithms.hpp, which are instrumented so the platform
// cost model can price each variant.

#include <array>
#include <cstdint>
#include <type_traits>

namespace hacc::xsycl {

// Largest sub-group size of interest: AMD wavefronts are 64 wide (paper §4.3).
inline constexpr int kMaxLanes = 64;

// Tag selecting Varying's uninitialized constructor.
struct NoInit {
  explicit NoInit() = default;
};
inline constexpr NoInit kNoInit{};

// Lane registers hold trivially copyable values only.
template <typename T>
  requires std::is_trivially_copyable_v<T>
class Varying {
 public:
  // Every lane value-initialized (zero for arithmetic types and aggregates).
  Varying() : v_{} {}
  explicit Varying(const T& uniform) { v_.fill(uniform); }
  // Lanes left unspecified, for registers whose every lane below sg.size()
  // is written before it is read (exchange and gather outputs, loaded
  // tiles): a 64-lane register of a 120-byte state is 7.5 KB to zero.
  // Lanes at or above sg.size() are never read.  Only offered where
  // default-initializing T does nothing.
  explicit Varying(NoInit)
    requires std::is_trivially_default_constructible_v<T>
  {}

  T& operator[](int lane) { return v_[static_cast<std::size_t>(lane)]; }
  const T& operator[](int lane) const { return v_[static_cast<std::size_t>(lane)]; }

  T* data() { return v_.data(); }
  const T* data() const { return v_.data(); }

 private:
  std::array<T, kMaxLanes> v_;
};

using VaryingF = Varying<float>;
using VaryingI = Varying<std::int32_t>;
using VaryingB = Varying<bool>;

}  // namespace hacc::xsycl
