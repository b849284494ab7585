#include "gravity/pp_short.hpp"

#include "sph/half_warp.hpp"
#include "util/vec3.hpp"
#include "xsycl/atomic.hpp"

namespace hacc::gravity {

namespace {

struct GravState {
  float px, py, pz;
  float mass;
  std::int32_t idx;
  std::int32_t valid;
};
static_assert(sizeof(GravState) == 24);

struct GravityTraits {
  using State = GravState;
  struct Accum {
    float fx = 0.f, fy = 0.f, fz = 0.f;
    Accum& operator+=(const Accum& o) {
      fx += o.fx;
      fy += o.fy;
      fz += o.fz;
      return *this;
    }
  };
  static constexpr int kAccumWords = 3;

  GravityArrays arrays;
  const PolyShortForce* poly;
  float box;
  float G;
  float eps2;
  float rcut2;

  State load(std::int32_t i) const {
    return {arrays.x[i], arrays.y[i], arrays.z[i], arrays.mass[i], i, 1};
  }

  Accum interact(const State& own, const State& other) const {
    float dx = own.px - other.px;
    float dy = own.py - other.py;
    float dz = own.pz - other.pz;
    dx = util::wrap_periodic(dx, box);
    dy = util::wrap_periodic(dy, box);
    dz = util::wrap_periodic(dz, box);
    const float r2 = dx * dx + dy * dy + dz * dz;
    if (r2 >= rcut2 || r2 <= 0.f) return {};
    // Newton minus the polynomial grid profile: attractive toward `other`.
    const float f = G * other.mass * poly->short_profile(r2, eps2);
    return {-f * dx, -f * dy, -f * dz};
  }

  void commit(xsycl::SubGroup& sg, std::int32_t idx, const Accum& a) const {
    xsycl::atomic_ref<float>(arrays.ax[idx], sg.counters()).fetch_add(a.fx);
    xsycl::atomic_ref<float>(arrays.ay[idx], sg.counters()).fetch_add(a.fy);
    xsycl::atomic_ref<float>(arrays.az[idx], sg.counters()).fetch_add(a.fz);
  }
};

}  // namespace

xsycl::LaunchStats run_pp_short(xsycl::Queue& q, const GravityArrays& arrays,
                                const domain::SpeciesView& view,
                                const domain::PairSource& pairs,
                                const PolyShortForce& poly, const PpOptions& opt,
                                const std::string& timer_name) {
  GravityTraits traits;
  traits.arrays = arrays;
  traits.poly = &poly;
  traits.box = opt.box;
  traits.G = opt.G;
  traits.eps2 = opt.softening * opt.softening;
  traits.rcut2 = static_cast<float>(poly.r_cut() * poly.r_cut());
  return sph::launch_pair_batches(q, timer_name, traits, view, pairs,
                                  opt.variant, opt.launch);
}

void reference_pp_short(const GravityArrays& arrays, const PolyShortForce& poly,
                        float box, float G, float softening) {
  const double eps2 = double(softening) * softening;
  const double rcut2 = poly.r_cut() * poly.r_cut();
  for (std::size_t i = 0; i < arrays.n; ++i) {
    double fx = 0, fy = 0, fz = 0;
    for (std::size_t j = 0; j < arrays.n; ++j) {
      if (j == i) continue;
      double dx = double(arrays.x[i]) - arrays.x[j];
      double dy = double(arrays.y[i]) - arrays.y[j];
      double dz = double(arrays.z[i]) - arrays.z[j];
      dx = util::wrap_periodic(dx, double(box));
      dy = util::wrap_periodic(dy, double(box));
      dz = util::wrap_periodic(dz, double(box));
      const double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 >= rcut2 || r2 <= 0.0) continue;
      const double f =
          double(G) * arrays.mass[j] * poly.short_profile(float(r2), float(eps2));
      fx -= f * dx;
      fy -= f * dy;
      fz -= f * dz;
    }
    arrays.ax[i] += static_cast<float>(fx);
    arrays.ay[i] += static_cast<float>(fy);
    arrays.az[i] += static_cast<float>(fz);
  }
}

}  // namespace hacc::gravity
