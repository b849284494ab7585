#pragma once

// Pair physics shared by the GPU-style xsycl kernels (float) and the scalar
// double-precision reference: one templated definition guarantees the two
// paths implement identical equations.
//
// Discretization (linear CRKSPH, adiabatic mode):
//   Geometry:     m0_i = Σ_j W(r_ij, h_i)            ->  V_i = 1/m0_i
//   Corrections:  moments m0,m1,m2 and gradients     ->  A, B, ∇A, ∇B
//   Extras:       rho_i = Σ_j m_j WR_ij ;  ∇v_i = Σ_j V_j (v_j - v_i) ⊗ ∇WR_ij
//   Acceleration: a_i = -(1/m_i) Σ_j V_i V_j (P_i + P_j + Q_ij) ΔΓ_ij
//   Energy:       du_i/dt = (1/2m_i) Σ_j V_i V_j (P_i + P_j + Q_ij) (v_i - v_j)·ΔΓ_ij
// with ΔΓ_ij = ½(∇WR_ij - ∇WR_ji) antisymmetric, so momentum is conserved
// pair-wise and total energy is conserved exactly in the flat-space limit.

#include "sph/crk.hpp"
#include "sph/eos.hpp"
#include "sph/kernel.hpp"
#include "util/vec3.hpp"

namespace hacc::sph {

// Monaghan-Gingold artificial viscosity parameters.
template <typename Real>
struct ViscosityParams {
  Real alpha = Real(1.0);
  Real beta = Real(2.0);
  Real eps = Real(0.01);  // softening of r^2 in mu
};

// One interaction side: everything a lane knows about a particle.
template <typename Real>
struct HydroSide {
  util::Vec3<Real> pos;
  util::Vec3<Real> vel;
  Real mass{}, h{}, V{}, rho{}, P{}, cs{};
  CrkCoeffs<Real> crk;
};

// ---- Geometry ----
template <typename Real>
inline Real geometry_term(const HydroSide<Real>& own, const HydroSide<Real>& other,
                          Real box) {
  const auto xij = util::wrap_periodic(own.pos - other.pos, box);
  return kernel_w(norm(xij), own.h);
}

// ---- Corrections ----
template <typename Real>
inline void corrections_term(CrkMoments<Real>& m, const HydroSide<Real>& own,
                             const HydroSide<Real>& other, Real box) {
  const auto xij = util::wrap_periodic(own.pos - other.pos, box);
  const Real r = norm(xij);
  const Real w = kernel_w(r, own.h);
  if (w == Real(0)) return;
  m.accumulate(other.V, xij, w, kernel_grad(xij, r, own.h));
}

// Self contribution to the moments (x_ij = 0, ∇W = 0).
template <typename Real>
inline void corrections_self(CrkMoments<Real>& m, Real vi, Real hi) {
  const Real w0 = kernel_self(hi);
  m.m0 += vi * w0;
  for (int a = 0; a < 3; ++a) m.dm1[a][a] += vi * w0;
}

// ---- Extras ----
template <typename Real>
struct ExtrasTerm {
  Real rho{};
  Real dv[3][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};  // ∂c v_r -> dv[r][c]
};

template <typename Real>
inline ExtrasTerm<Real> extras_term(const HydroSide<Real>& own,
                                    const HydroSide<Real>& other, Real box) {
  ExtrasTerm<Real> out;
  const auto xij = util::wrap_periodic(own.pos - other.pos, box);
  const Real r = norm(xij);
  const Real w = kernel_w(r, own.h);
  if (w == Real(0)) return out;
  const auto gw = kernel_grad(xij, r, own.h);
  out.rho = other.mass * crk_w(own.crk, xij, w);
  const auto gwr = crk_grad(own.crk, xij, w, gw);
  const auto dvel = other.vel - own.vel;
  for (int rr = 0; rr < 3; ++rr) {
    for (int cc = 0; cc < 3; ++cc) out.dv[rr][cc] = other.V * dvel[rr] * gwr[cc];
  }
  return out;
}

// ---- Shared force machinery ----

// Antisymmetrized corrected-kernel gradient ½(∇WR_ij - ∇WR_ji).
template <typename Real>
inline util::Vec3<Real> delta_gamma(const HydroSide<Real>& own,
                                    const HydroSide<Real>& other,
                                    const util::Vec3<Real>& xij, Real r) {
  const Real wi = kernel_w(r, own.h);
  const Real wj = kernel_w(r, other.h);
  const auto gwi = kernel_grad(xij, r, own.h);
  const auto gwj = kernel_grad(-xij, r, other.h);
  const auto gri = crk_grad(own.crk, xij, wi, gwi);
  const auto grj = crk_grad(other.crk, -xij, wj, gwj);
  return (gri - grj) * Real(0.5);
}

// Symmetric Monaghan viscosity pressure Q_ij (zero for receding pairs).
template <typename Real>
inline Real viscosity_q(const HydroSide<Real>& own, const HydroSide<Real>& other,
                        const util::Vec3<Real>& xij, Real r,
                        const ViscosityParams<Real>& vp) {
  const auto vij = own.vel - other.vel;
  const Real vdotx = dot(vij, xij);
  if (vdotx >= Real(0)) return Real(0);
  const Real hbar = pair_h(own.h, other.h);
  const Real mu = hbar * vdotx / (r * r + vp.eps * hbar * hbar);
  const Real cbar = Real(0.5) * (own.cs + other.cs);
  const Real rhobar = Real(0.5) * (own.rho + other.rho);
  return rhobar * (-vp.alpha * cbar * mu + vp.beta * mu * mu);
}

// ---- Acceleration ----
template <typename Real>
struct AccelTerm {
  util::Vec3<Real> accel{};
  Real vsig{};  // pair signal velocity; reduced with fetch_max
};

template <typename Real>
inline AccelTerm<Real> accel_term(const HydroSide<Real>& own,
                                  const HydroSide<Real>& other, Real box,
                                  const ViscosityParams<Real>& vp) {
  AccelTerm<Real> out;
  const auto xij = util::wrap_periodic(own.pos - other.pos, box);
  const Real r = norm(xij);
  const Real support = kSupport * std::max(own.h, other.h);
  if (r <= Real(0) || r >= support) return out;
  const auto dg = delta_gamma(own, other, xij, r);
  const Real q = viscosity_q(own, other, xij, r, vp);
  const Real coef = -(own.V * other.V / own.mass) * (own.P + other.P + q);
  out.accel = dg * coef;
  const Real mu_ish = dot(own.vel - other.vel, xij) / r;
  out.vsig = own.cs + other.cs - Real(3) * std::min(Real(0), mu_ish);
  return out;
}

// ---- Energy ----
template <typename Real>
inline Real energy_term(const HydroSide<Real>& own, const HydroSide<Real>& other,
                        Real box, const ViscosityParams<Real>& vp) {
  const auto xij = util::wrap_periodic(own.pos - other.pos, box);
  const Real r = norm(xij);
  const Real support = kSupport * std::max(own.h, other.h);
  if (r <= Real(0) || r >= support) return Real(0);
  const auto dg = delta_gamma(own, other, xij, r);
  const Real q = viscosity_q(own, other, xij, r, vp);
  const Real coef = (own.V * other.V / (Real(2) * own.mass)) * (own.P + other.P + q);
  return coef * dot(own.vel - other.vel, dg);
}

}  // namespace hacc::sph
