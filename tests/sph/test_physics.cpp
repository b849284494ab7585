#include "sph/physics.hpp"

#include <gtest/gtest.h>

namespace hacc::sph {
namespace {

using util::Vec3d;

HydroSide<double> make_side(Vec3d pos, Vec3d vel, double h = 1.0) {
  HydroSide<double> s;
  s.pos = pos;
  s.vel = vel;
  s.mass = 1.0;
  s.h = h;
  s.V = 0.5;
  s.rho = 2.0;
  s.P = 1.5;
  s.cs = 1.1;
  s.crk.A = 1.0;
  return s;
}

TEST(MinImage, WrapsToNearestImage) {
  const double box = 10.0;
  const Vec3d d = util::wrap_periodic(Vec3d{9.0, -9.0, 4.0}, box);
  EXPECT_DOUBLE_EQ(d.x, -1.0);
  EXPECT_DOUBLE_EQ(d.y, 1.0);
  EXPECT_DOUBLE_EQ(d.z, 4.0);
}

TEST(MinImage, HalfBoxMagnitudeBound) {
  const double box = 7.0;
  for (double v = -20.0; v < 20.0; v += 0.611) {
    const Vec3d d = util::wrap_periodic(Vec3d{v, 0, 0}, box);
    EXPECT_LE(std::abs(d.x), box / 2 + 1e-12);
  }
}

TEST(Viscosity, ZeroForRecedingPairs) {
  auto a = make_side({0, 0, 0}, {1, 0, 0});
  auto b = make_side({1, 0, 0}, {-1, 0, 0});
  // x_ij = a - b = (-1,0,0); v_ij = (2,0,0); v·x = -2 < 0: approaching.
  const Vec3d xij{-1, 0, 0};
  EXPECT_GT(viscosity_q(a, b, xij, 1.0, ViscosityParams<double>{}), 0.0);
  // Swap velocities: receding -> zero.
  a.vel = {-1, 0, 0};
  b.vel = {1, 0, 0};
  EXPECT_DOUBLE_EQ(viscosity_q(a, b, xij, 1.0, ViscosityParams<double>{}), 0.0);
}

TEST(Viscosity, SymmetricUnderExchange) {
  auto a = make_side({0, 0, 0}, {0.3, -0.2, 0.1});
  auto b = make_side({0.8, 0.4, -0.2}, {-0.5, 0.1, 0.0});
  const Vec3d xij = a.pos - b.pos;
  const double r = norm(xij);
  const ViscosityParams<double> vp;
  EXPECT_NEAR(viscosity_q(a, b, xij, r, vp), viscosity_q(b, a, -xij, r, vp), 1e-14);
}

TEST(Viscosity, GrowsWithApproachSpeed) {
  auto b = make_side({1, 0, 0}, {0, 0, 0});
  const Vec3d xij{-1, 0, 0};
  double prev = 0.0;
  for (double speed = 0.5; speed <= 4.0; speed += 0.5) {
    auto a = make_side({0, 0, 0}, {speed, 0, 0});
    const double q = viscosity_q(a, b, xij, 1.0, ViscosityParams<double>{});
    EXPECT_GT(q, prev);
    prev = q;
  }
}

TEST(DeltaGamma, AntisymmetricUnderExchange) {
  // ΔΓ_ij = -ΔΓ_ji even with different smoothing lengths and CRK coeffs.
  auto a = make_side({0, 0, 0}, {0, 0, 0}, 1.0);
  auto b = make_side({0.9, 0.3, -0.4}, {0, 0, 0}, 1.3);
  a.crk.B = {0.1, -0.05, 0.2};
  a.crk.dA = {0.03, 0.01, -0.02};
  b.crk.A = 1.1;
  b.crk.dB[0][1] = 0.07;
  const Vec3d xij = a.pos - b.pos;
  const double r = norm(xij);
  const auto dg_ij = delta_gamma(a, b, xij, r);
  const auto dg_ji = delta_gamma(b, a, -xij, r);
  EXPECT_NEAR(dg_ij.x, -dg_ji.x, 1e-14);
  EXPECT_NEAR(dg_ij.y, -dg_ji.y, 1e-14);
  EXPECT_NEAR(dg_ij.z, -dg_ji.z, 1e-14);
}

TEST(AccelTerm, PairwiseMomentumConserved) {
  // m_i * accel(i<-j) + m_j * accel(j<-i) == 0 exactly.
  auto a = make_side({0.1, 0.2, 0.3}, {0.4, -0.1, 0.0}, 0.9);
  auto b = make_side({0.7, -0.1, 0.5}, {-0.2, 0.3, 0.1}, 1.1);
  a.mass = 2.0;
  b.mass = 3.0;
  a.P = 2.5;
  b.P = 0.7;
  a.crk.B = {0.05, 0.02, -0.01};
  const ViscosityParams<double> vp;
  const auto fa = accel_term(a, b, 100.0, vp);
  const auto fb = accel_term(b, a, 100.0, vp);
  EXPECT_NEAR(a.mass * fa.accel.x + b.mass * fb.accel.x, 0.0, 1e-12);
  EXPECT_NEAR(a.mass * fa.accel.y + b.mass * fb.accel.y, 0.0, 1e-12);
  EXPECT_NEAR(a.mass * fa.accel.z + b.mass * fb.accel.z, 0.0, 1e-12);
}

TEST(AccelTerm, ZeroBeyondSupport) {
  auto a = make_side({0, 0, 0}, {1, 0, 0});
  auto b = make_side({5, 0, 0}, {-1, 0, 0});
  const auto f = accel_term(a, b, 100.0, ViscosityParams<double>{});
  EXPECT_EQ(norm(f.accel), 0.0);
  EXPECT_EQ(f.vsig, 0.0);
}

TEST(AccelTerm, SignalVelocityIncludesApproachTerm) {
  auto a = make_side({0, 0, 0}, {1, 0, 0});
  auto b = make_side({1, 0, 0}, {-1, 0, 0});
  const auto f = accel_term(a, b, 100.0, ViscosityParams<double>{});
  // mu' = v_ij·x_ij/r = (2)(-1)/1 = -2 -> vsig = cs_i + cs_j + 6.
  EXPECT_NEAR(f.vsig, a.cs + b.cs + 6.0, 1e-12);
  // Receding: vsig is just the sound speeds.
  a.vel = {-1, 0, 0};
  b.vel = {1, 0, 0};
  const auto f2 = accel_term(a, b, 100.0, ViscosityParams<double>{});
  EXPECT_NEAR(f2.vsig, a.cs + b.cs, 1e-12);
}

TEST(EnergyTerm, PairEnergyBalancesKineticWork) {
  // m_i du_i + m_j du_j == -(m_i v_i·a_i + m_j v_j·a_j) for a single pair:
  // total energy is conserved pair-wise.
  auto a = make_side({0.1, 0.0, 0.0}, {0.5, 0.1, -0.2}, 1.0);
  auto b = make_side({0.8, 0.2, 0.1}, {-0.3, 0.0, 0.4}, 1.2);
  a.mass = 1.7;
  b.mass = 0.6;
  const ViscosityParams<double> vp;
  const double box = 100.0;
  const auto fa = accel_term(a, b, box, vp);
  const auto fb = accel_term(b, a, box, vp);
  const double dua = energy_term(a, b, box, vp);
  const double dub = energy_term(b, a, box, vp);
  const double thermal = a.mass * dua + b.mass * dub;
  const double kinetic = a.mass * dot(a.vel, fa.accel) + b.mass * dot(b.vel, fb.accel);
  EXPECT_NEAR(thermal + kinetic, 0.0, 1e-12 * (std::abs(thermal) + 1.0));
}

TEST(EnergyTerm, ZeroForStaticIdenticalPair) {
  // No relative motion: no work done.
  auto a = make_side({0, 0, 0}, {0.7, 0.7, 0.7});
  auto b = make_side({1, 0, 0}, {0.7, 0.7, 0.7});
  EXPECT_DOUBLE_EQ(energy_term(a, b, 100.0, ViscosityParams<double>{}), 0.0);
}

TEST(GeometryTerm, UsesOwnSmoothingLength) {
  auto a = make_side({0, 0, 0}, {}, 1.0);
  auto b = make_side({1.5, 0, 0}, {}, 0.5);
  // r = 1.5: inside 2h_a = 2 but outside 2h_b = 1.
  EXPECT_GT(geometry_term(a, b, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(geometry_term(b, a, 100.0), 0.0);
}

TEST(EosBasics, IdealGasGamma53) {
  EXPECT_NEAR(eos_pressure(3.0, 2.0), (5.0 / 3.0 - 1.0) * 6.0, 1e-12);
  const double p = eos_pressure(3.0, 2.0);
  EXPECT_NEAR(eos_sound_speed(3.0, p), std::sqrt(5.0 / 3.0 * p / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(eos_sound_speed(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(eos_sound_speed(1.0, -1.0), 0.0);
}

}  // namespace
}  // namespace hacc::sph
