#include "util/vec3.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "util/rng.hpp"

namespace hacc::util {
namespace {

TEST(Vec3, ArithmeticBasics) {
  Vec3d a{1.0, 2.0, 3.0};
  Vec3d b{4.0, 5.0, 6.0};
  EXPECT_EQ(a + b, (Vec3d{5.0, 7.0, 9.0}));
  EXPECT_EQ(b - a, (Vec3d{3.0, 3.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vec3d{2.0, 4.0, 6.0}));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_EQ(-a, (Vec3d{-1.0, -2.0, -3.0}));
  EXPECT_EQ((a / 2.0), (Vec3d{0.5, 1.0, 1.5}));
}

TEST(Vec3, DotAndNorm) {
  Vec3d a{1.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 9.0);
  EXPECT_DOUBLE_EQ(norm(a), 3.0);
  EXPECT_DOUBLE_EQ(norm2(a), 9.0);
}

TEST(Vec3, CrossProductOrthogonality) {
  Vec3d x{1.0, 0.0, 0.0};
  Vec3d y{0.0, 1.0, 0.0};
  EXPECT_EQ(cross(x, y), (Vec3d{0.0, 0.0, 1.0}));
  Vec3d a{1.3, -2.4, 0.7};
  Vec3d b{0.2, 5.0, -1.1};
  const Vec3d c = cross(a, b);
  EXPECT_NEAR(dot(c, a), 0.0, 1e-12);
  EXPECT_NEAR(dot(c, b), 0.0, 1e-12);
}

TEST(Vec3, IndexAccess) {
  Vec3d a{7.0, 8.0, 9.0};
  EXPECT_DOUBLE_EQ(a[0], 7.0);
  EXPECT_DOUBLE_EQ(a[1], 8.0);
  EXPECT_DOUBLE_EQ(a[2], 9.0);
  a[1] = -1.0;
  EXPECT_DOUBLE_EQ(a.y, -1.0);
}

TEST(Sym3, OuterProduct) {
  const Vec3d v{1.0, 2.0, 3.0};
  const auto m = Sym3d::outer(v);
  EXPECT_DOUBLE_EQ(m.xx, 1.0);
  EXPECT_DOUBLE_EQ(m.xy, 2.0);
  EXPECT_DOUBLE_EQ(m.xz, 3.0);
  EXPECT_DOUBLE_EQ(m.yy, 4.0);
  EXPECT_DOUBLE_EQ(m.yz, 6.0);
  EXPECT_DOUBLE_EQ(m.zz, 9.0);
}

TEST(Sym3, IdentityInverse) {
  Sym3d ident{1.0, 0.0, 0.0, 1.0, 0.0, 1.0};
  Sym3d inv;
  ASSERT_TRUE(ident.inverse(inv));
  EXPECT_DOUBLE_EQ(inv.xx, 1.0);
  EXPECT_DOUBLE_EQ(inv.yy, 1.0);
  EXPECT_DOUBLE_EQ(inv.zz, 1.0);
  EXPECT_DOUBLE_EQ(inv.xy, 0.0);
}

TEST(Sym3, InverseTimesOriginalIsIdentity) {
  // A symmetric positive-definite matrix.
  Sym3d m{4.0, 1.0, 0.5, 3.0, 0.25, 2.0};
  Sym3d inv;
  ASSERT_TRUE(m.inverse(inv));
  // Check M * (M^-1 v) == v on a few vectors.
  for (const Vec3d v : {Vec3d{1, 0, 0}, Vec3d{0, 1, 0}, Vec3d{0, 0, 1}, Vec3d{1, 2, 3}}) {
    const Vec3d r = m * (inv * v);
    EXPECT_NEAR(r.x, v.x, 1e-12);
    EXPECT_NEAR(r.y, v.y, 1e-12);
    EXPECT_NEAR(r.z, v.z, 1e-12);
  }
}

TEST(Sym3, SingularMatrixRejected) {
  // Rank-1 matrix: outer product of a single vector.
  const auto m = Sym3d::outer(Vec3d{1.0, 2.0, 3.0});
  Sym3d inv;
  EXPECT_FALSE(m.inverse(inv));
}

TEST(Sym3, MatrixVectorProduct) {
  Sym3d m{2.0, 0.0, 0.0, 3.0, 0.0, 4.0};
  const Vec3d r = m * Vec3d{1.0, 1.0, 1.0};
  EXPECT_EQ(r, (Vec3d{2.0, 3.0, 4.0}));
}

// wrap_periodic must equal the libm formulation it replaces bit for bit,
// signed zeros included; NaN inputs need only stay NaN.
template <typename T>
void expect_wrap_matches_round(T box) {
  const auto reference = [box](T d) { return d - box * std::round(d / box); };
  const auto check = [&](T d) {
    const T got = wrap_periodic(d, box);
    const T want = reference(d);
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << "d=" << d << " box=" << box;
      return;
    }
    using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
    EXPECT_EQ(std::bit_cast<Bits>(got), std::bit_cast<Bits>(want))
        << "d=" << d << " box=" << box << " got=" << got << " want=" << want;
  };

  const T inf = std::numeric_limits<T>::infinity();
  std::vector<T> edges = {T(0), -T(0), inf, -inf, std::numeric_limits<T>::quiet_NaN()};
  for (const T m : {T(0.5), T(1), T(1.5)}) {
    for (const T sign : {T(1), T(-1)}) {
      const T e = sign * m * box;
      edges.insert(edges.end(), {e, std::nextafter(e, T(0)), std::nextafter(e, sign * inf)});
    }
  }
  for (const T d : edges) check(d);

  const CounterRng rng(0x5eed);
  for (std::uint64_t i = 0; i < 100000; ++i) {
    check(static_cast<T>(box * (6.0 * rng.uniform(i) - 3.0)));
  }
}

TEST(WrapPeriodic, BitIdenticalToRoundFormulationFloat) {
  for (const float box : {1.0f, 25.0f, 50.0f, 0.3f, 1e-3f}) {
    expect_wrap_matches_round(box);
  }
}

TEST(WrapPeriodic, BitIdenticalToRoundFormulationDouble) {
  for (const double box : {1.0, 25.0, 50.0, 0.3, 1e-3}) {
    expect_wrap_matches_round(box);
  }
}

}  // namespace
}  // namespace hacc::util
