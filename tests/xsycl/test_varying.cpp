#include "xsycl/varying.hpp"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>

namespace hacc::xsycl {
namespace {

TEST(Varying, DefaultValueInitialized) {
  Varying<float> v;
  for (int l = 0; l < kMaxLanes; ++l) EXPECT_EQ(v[l], 0.0f);
}

TEST(Varying, UniformConstructorFillsAllLanes) {
  Varying<int> v(7);
  for (int l = 0; l < kMaxLanes; ++l) EXPECT_EQ(v[l], 7);
}

TEST(Varying, LaneWriteIsIsolated) {
  Varying<int> v(0);
  v[5] = 42;
  EXPECT_EQ(v[5], 42);
  EXPECT_EQ(v[4], 0);
  EXPECT_EQ(v[6], 0);
}

TEST(Varying, HoldsTriviallyCopyableStructs) {
  struct P {
    float x, y, z;
  };
  Varying<P> v;
  v[3] = {1.f, 2.f, 3.f};
  EXPECT_EQ(v[3].y, 2.f);
}

TEST(Varying, MaxLanesMatchesWidestWavefront) {
  // AMD wavefronts are 64 wide (paper §4.3); the emulation must hold them.
  EXPECT_EQ(kMaxLanes, 64);
}

// Varying<T>(kNoInit) compiles exactly for trivially copyable T whose
// default initialization does nothing.
template <typename T>
concept NoInitLanes = requires { Varying<T>(kNoInit); };

struct Plain {
  float x;
  std::int32_t idx;
};
struct DefaultMemberInit {
  float x = 1.f;
};

TEST(Varying, NoInitOnlyForTriviallyCopyableTypes) {
  static_assert(NoInitLanes<float>);
  static_assert(NoInitLanes<bool>);
  static_assert(NoInitLanes<Plain>);
  // Trivially copyable, but its lanes would need a constructor run.
  static_assert(std::is_trivially_copyable_v<DefaultMemberInit>);
  static_assert(!NoInitLanes<DefaultMemberInit>);
  // Not trivially copyable: no lane register at all.
  static_assert(!NoInitLanes<std::string>);
  // The tag is explicit: only the spelled-out kNoInit selects it.
  static_assert(!std::is_convertible_v<NoInit, Varying<float>>);
  SUCCEED();
}

TEST(Varying, NoInitLanesHoldWhatIsWritten) {
  Varying<Plain> v(kNoInit);
  for (int l = 0; l < 16; ++l) v[l] = {static_cast<float>(l), l};
  for (int l = 0; l < 16; ++l) {
    EXPECT_EQ(v[l].x, static_cast<float>(l));
    EXPECT_EQ(v[l].idx, l);
  }
}

}  // namespace
}  // namespace hacc::xsycl
