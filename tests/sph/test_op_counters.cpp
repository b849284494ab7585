// Golden per-launch op counts.  The OpCounters of a launch are the platform
// cost model's only input, so they must not move when the host-side
// emulation of the kernels changes.  One upGeo, one upBarEx and one grav_pp
// launch run on a fixed jittered lattice for every communication variant at
// sub-group sizes 16, 32 and 64; every counter must equal its recorded value.
// A missing row fails and prints the measured row in table form.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "gas_fixture.hpp"
#include "gravity/poisson.hpp"
#include "gravity/pp_short.hpp"
#include "sph/pipeline.hpp"

namespace hacc::sph {
namespace {

using xsycl::CommVariant;
using xsycl::OpCounters;

struct Field {
  const char* name;
  std::uint64_t OpCounters::*member;
};

// Every OpCounters field, in declaration order.
constexpr std::array<Field, 21> kFields = {{
    {"select_ops", &OpCounters::select_ops},
    {"select_words", &OpCounters::select_words},
    {"local32_words", &OpCounters::local32_words},
    {"local32_barriers", &OpCounters::local32_barriers},
    {"localobj_bytes", &OpCounters::localobj_bytes},
    {"localobj_barriers", &OpCounters::localobj_barriers},
    {"broadcast_ops", &OpCounters::broadcast_ops},
    {"butterfly_words", &OpCounters::butterfly_words},
    {"shift_ops", &OpCounters::shift_ops},
    {"reduce_ops", &OpCounters::reduce_ops},
    {"barriers", &OpCounters::barriers},
    {"atomic_f32_add", &OpCounters::atomic_f32_add},
    {"atomic_f32_minmax", &OpCounters::atomic_f32_minmax},
    {"atomic_i32", &OpCounters::atomic_i32},
    {"interactions", &OpCounters::interactions},
    {"m2p_ops", &OpCounters::m2p_ops},
    {"lanes_launched", &OpCounters::lanes_launched},
    {"sub_groups", &OpCounters::sub_groups},
    {"work_groups", &OpCounters::work_groups},
    {"global_loads", &OpCounters::global_loads},
    {"global_stores", &OpCounters::global_stores},
}};
static_assert(sizeof(OpCounters) == kFields.size() * sizeof(std::uint64_t),
              "a new OpCounters field needs a column in the golden table");

using Counts = std::array<std::uint64_t, kFields.size()>;

struct Golden {
  const char* kernel;
  CommVariant variant;
  int sg;
  Counts ops;
};

// Recorded from the implementation before the lane registers gained their
// uninitialized constructor and the pair kernels their inline minimum-image
// wrap; both changes are host-side only.
// Columns follow kFields.
constexpr Golden kGolden[] = {
    {"upGeo", CommVariant::kSelect, 16, {4224, 405504, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6912, 0, 0, 46440, 0, 2176, 136, 34, 8448, 0}},
    {"upBarEx", CommVariant::kSelect, 16, {4224, 2027520, 0, 0, 0, 0, 0, 0, 0, 0, 0, 69120, 0, 0, 46440, 0, 2176, 136, 34, 8448, 0}},
    {"grav_pp", CommVariant::kSelect, 16, {3552, 340992, 0, 0, 0, 0, 0, 0, 0, 0, 0, 17334, 0, 0, 38784, 0, 1840, 115, 29, 7104, 0}},
    {"upGeo", CommVariant::kSelect, 32, {2176, 417792, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3456, 0, 0, 46440, 0, 4352, 136, 34, 4352, 0}},
    {"upBarEx", CommVariant::kSelect, 32, {2176, 2088960, 0, 0, 0, 0, 0, 0, 0, 0, 0, 34560, 0, 0, 46440, 0, 4352, 136, 34, 4352, 0}},
    {"grav_pp", CommVariant::kSelect, 32, {1840, 353280, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8667, 0, 0, 38784, 0, 3680, 115, 29, 3680, 0}},
    {"upGeo", CommVariant::kSelect, 64, {4352, 1671168, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3456, 0, 0, 46440, 0, 8704, 136, 34, 8704, 0}},
    {"upBarEx", CommVariant::kSelect, 64, {4352, 8355840, 0, 0, 0, 0, 0, 0, 0, 0, 0, 34560, 0, 0, 46440, 0, 8704, 136, 34, 8704, 0}},
    {"grav_pp", CommVariant::kSelect, 64, {3680, 1413120, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8667, 0, 0, 38784, 0, 7360, 115, 29, 7360, 0}},
    {"upGeo", CommVariant::kMemory32, 16, {0, 0, 405504, 25344, 0, 0, 0, 0, 0, 0, 25344, 6912, 0, 0, 46440, 0, 2176, 136, 34, 8448, 0}},
    {"upBarEx", CommVariant::kMemory32, 16, {0, 0, 2027520, 126720, 0, 0, 0, 0, 0, 0, 126720, 69120, 0, 0, 46440, 0, 2176, 136, 34, 8448, 0}},
    {"grav_pp", CommVariant::kMemory32, 16, {0, 0, 340992, 21312, 0, 0, 0, 0, 0, 0, 21312, 17334, 0, 0, 38784, 0, 1840, 115, 29, 7104, 0}},
    {"upGeo", CommVariant::kMemory32, 32, {0, 0, 417792, 13056, 0, 0, 0, 0, 0, 0, 13056, 3456, 0, 0, 46440, 0, 4352, 136, 34, 4352, 0}},
    {"upBarEx", CommVariant::kMemory32, 32, {0, 0, 2088960, 65280, 0, 0, 0, 0, 0, 0, 65280, 34560, 0, 0, 46440, 0, 4352, 136, 34, 4352, 0}},
    {"grav_pp", CommVariant::kMemory32, 32, {0, 0, 353280, 11040, 0, 0, 0, 0, 0, 0, 11040, 8667, 0, 0, 38784, 0, 3680, 115, 29, 3680, 0}},
    {"upGeo", CommVariant::kMemory32, 64, {0, 0, 1671168, 26112, 0, 0, 0, 0, 0, 0, 26112, 3456, 0, 0, 46440, 0, 8704, 136, 34, 8704, 0}},
    {"upBarEx", CommVariant::kMemory32, 64, {0, 0, 8355840, 130560, 0, 0, 0, 0, 0, 0, 130560, 34560, 0, 0, 46440, 0, 8704, 136, 34, 8704, 0}},
    {"grav_pp", CommVariant::kMemory32, 64, {0, 0, 1413120, 22080, 0, 0, 0, 0, 0, 0, 22080, 8667, 0, 0, 38784, 0, 7360, 115, 29, 7360, 0}},
    {"upGeo", CommVariant::kMemoryObject, 16, {0, 0, 0, 0, 1622016, 4224, 0, 0, 0, 0, 4224, 6912, 0, 0, 46440, 0, 2176, 136, 34, 8448, 0}},
    {"upBarEx", CommVariant::kMemoryObject, 16, {0, 0, 0, 0, 8110080, 4224, 0, 0, 0, 0, 4224, 69120, 0, 0, 46440, 0, 2176, 136, 34, 8448, 0}},
    {"grav_pp", CommVariant::kMemoryObject, 16, {0, 0, 0, 0, 1363968, 3552, 0, 0, 0, 0, 3552, 17334, 0, 0, 38784, 0, 1840, 115, 29, 7104, 0}},
    {"upGeo", CommVariant::kMemoryObject, 32, {0, 0, 0, 0, 1671168, 2176, 0, 0, 0, 0, 2176, 3456, 0, 0, 46440, 0, 4352, 136, 34, 4352, 0}},
    {"upBarEx", CommVariant::kMemoryObject, 32, {0, 0, 0, 0, 8355840, 2176, 0, 0, 0, 0, 2176, 34560, 0, 0, 46440, 0, 4352, 136, 34, 4352, 0}},
    {"grav_pp", CommVariant::kMemoryObject, 32, {0, 0, 0, 0, 1413120, 1840, 0, 0, 0, 0, 1840, 8667, 0, 0, 38784, 0, 3680, 115, 29, 3680, 0}},
    {"upGeo", CommVariant::kMemoryObject, 64, {0, 0, 0, 0, 6684672, 4352, 0, 0, 0, 0, 4352, 3456, 0, 0, 46440, 0, 8704, 136, 34, 8704, 0}},
    {"upBarEx", CommVariant::kMemoryObject, 64, {0, 0, 0, 0, 33423360, 4352, 0, 0, 0, 0, 4352, 34560, 0, 0, 46440, 0, 8704, 136, 34, 8704, 0}},
    {"grav_pp", CommVariant::kMemoryObject, 64, {0, 0, 0, 0, 5652480, 3680, 0, 0, 0, 0, 3680, 8667, 0, 0, 38784, 0, 7360, 115, 29, 7360, 0}},
    {"upGeo", CommVariant::kBroadcast, 16, {0, 0, 0, 0, 0, 0, 11040, 0, 0, 1624, 0, 3456, 0, 0, 46440, 0, 2176, 136, 34, 4352, 0}},
    {"upBarEx", CommVariant::kBroadcast, 16, {0, 0, 0, 0, 0, 0, 55200, 0, 0, 16240, 0, 34560, 0, 0, 46440, 0, 2176, 136, 34, 4352, 0}},
    {"grav_pp", CommVariant::kBroadcast, 16, {0, 0, 0, 0, 0, 0, 9342, 0, 0, 4023, 0, 8667, 0, 0, 38784, 0, 1840, 115, 29, 3680, 0}},
    {"upGeo", CommVariant::kBroadcast, 32, {0, 0, 0, 0, 0, 0, 11040, 0, 0, 1624, 0, 3456, 0, 0, 46440, 0, 4352, 136, 34, 8704, 0}},
    {"upBarEx", CommVariant::kBroadcast, 32, {0, 0, 0, 0, 0, 0, 55200, 0, 0, 16240, 0, 34560, 0, 0, 46440, 0, 4352, 136, 34, 8704, 0}},
    {"grav_pp", CommVariant::kBroadcast, 32, {0, 0, 0, 0, 0, 0, 9342, 0, 0, 4023, 0, 8667, 0, 0, 38784, 0, 3680, 115, 29, 7360, 0}},
    {"upGeo", CommVariant::kBroadcast, 64, {0, 0, 0, 0, 0, 0, 11040, 0, 0, 1624, 0, 3456, 0, 0, 46440, 0, 8704, 136, 34, 17408, 0}},
    {"upBarEx", CommVariant::kBroadcast, 64, {0, 0, 0, 0, 0, 0, 55200, 0, 0, 16240, 0, 34560, 0, 0, 46440, 0, 8704, 136, 34, 17408, 0}},
    {"grav_pp", CommVariant::kBroadcast, 64, {0, 0, 0, 0, 0, 0, 9342, 0, 0, 4023, 0, 8667, 0, 0, 38784, 0, 7360, 115, 29, 14720, 0}},
    {"upGeo", CommVariant::kVISA, 16, {0, 0, 0, 0, 0, 0, 0, 405504, 0, 0, 0, 6912, 0, 0, 46440, 0, 2176, 136, 34, 8448, 0}},
    {"upBarEx", CommVariant::kVISA, 16, {0, 0, 0, 0, 0, 0, 0, 2027520, 0, 0, 0, 69120, 0, 0, 46440, 0, 2176, 136, 34, 8448, 0}},
    {"grav_pp", CommVariant::kVISA, 16, {0, 0, 0, 0, 0, 0, 0, 340992, 0, 0, 0, 17334, 0, 0, 38784, 0, 1840, 115, 29, 7104, 0}},
    {"upGeo", CommVariant::kVISA, 32, {0, 0, 0, 0, 0, 0, 0, 417792, 0, 0, 0, 3456, 0, 0, 46440, 0, 4352, 136, 34, 4352, 0}},
    {"upBarEx", CommVariant::kVISA, 32, {0, 0, 0, 0, 0, 0, 0, 2088960, 0, 0, 0, 34560, 0, 0, 46440, 0, 4352, 136, 34, 4352, 0}},
    {"grav_pp", CommVariant::kVISA, 32, {0, 0, 0, 0, 0, 0, 0, 353280, 0, 0, 0, 8667, 0, 0, 38784, 0, 3680, 115, 29, 3680, 0}},
    {"upGeo", CommVariant::kVISA, 64, {0, 0, 0, 0, 0, 0, 0, 1671168, 0, 0, 0, 3456, 0, 0, 46440, 0, 8704, 136, 34, 8704, 0}},
    {"upBarEx", CommVariant::kVISA, 64, {0, 0, 0, 0, 0, 0, 0, 8355840, 0, 0, 0, 34560, 0, 0, 46440, 0, 8704, 136, 34, 8704, 0}},
    {"grav_pp", CommVariant::kVISA, 64, {0, 0, 0, 0, 0, 0, 0, 1413120, 0, 0, 0, 8667, 0, 0, 38784, 0, 7360, 115, 29, 7360, 0}},
};

struct Measured {
  OpCounters geo, extras, grav;
};

Measured run_launches(CommVariant v, int sg) {
  testing::GasOptions gopt;
  gopt.n_side = 6;
  gopt.jitter = 0.3;
  gopt.vel_amp = 0.2;
  gopt.seed = 77;
  core::ParticleSet p = testing::make_gas(gopt);

  PipelineOptions opt;
  opt.hydro.box = static_cast<float>(gopt.box);
  opt.hydro.variant = v;
  opt.hydro.launch.sub_group_size = sg;
  opt.leaf_size = 16;
  const Pipeline pipe = build_pipeline(p, opt);
  const domain::SpeciesView view = pipe.domain->all();

  util::ThreadPool pool(2);
  xsycl::Queue q(pool);
  Measured m;
  m.geo = run_geometry(q, p, view, pipe.pairs, opt.hydro).ops;
  run_corrections(q, p, view, pipe.pairs, opt.hydro);
  m.extras = run_extras(q, p, view, pipe.pairs, opt.hydro).ops;

  const gravity::PolyShortForce poly(0.05, 0.2);
  std::vector<float> ax(p.size(), 0.f), ay(p.size(), 0.f), az(p.size(), 0.f);
  const gravity::GravityArrays arrays{p.x.data(),  p.y.data(),  p.z.data(),
                                      p.mass.data(), ax.data(), ay.data(),
                                      az.data(),   p.size()};
  gravity::PpOptions ppopt;
  ppopt.box = opt.hydro.box;
  ppopt.softening = 0.01f;
  ppopt.variant = v;
  ppopt.launch.sub_group_size = sg;
  m.grav = gravity::run_pp_short(q, arrays, view,
                                 pipe.domain->interacting_pairs(poly.r_cut()),
                                 poly, ppopt)
               .ops;
  return m;
}

Counts counts_of(const OpCounters& ops) {
  Counts c{};
  for (std::size_t f = 0; f < kFields.size(); ++f) c[f] = ops.*kFields[f].member;
  return c;
}

std::string variant_enum(CommVariant v) {
  switch (v) {
    case CommVariant::kSelect: return "CommVariant::kSelect";
    case CommVariant::kMemory32: return "CommVariant::kMemory32";
    case CommVariant::kMemoryObject: return "CommVariant::kMemoryObject";
    case CommVariant::kBroadcast: return "CommVariant::kBroadcast";
    case CommVariant::kVISA: return "CommVariant::kVISA";
  }
  return "?";
}

std::string table_row(const char* kernel, CommVariant v, int sg, const Counts& c) {
  std::ostringstream os;
  os << "    {\"" << kernel << "\", " << variant_enum(v) << ", " << sg << ", {";
  for (std::size_t f = 0; f < c.size(); ++f) os << (f ? ", " : "") << c[f];
  os << "}},";
  return os.str();
}

void expect_golden(const char* kernel, CommVariant v, int sg, const OpCounters& ops) {
  const Counts got = counts_of(ops);
  for (const Golden& g : kGolden) {
    if (std::string(g.kernel) != kernel || g.variant != v || g.sg != sg) continue;
    for (std::size_t f = 0; f < kFields.size(); ++f) {
      EXPECT_EQ(got[f], g.ops[f]) << kernel << " " << to_string(v) << " sg" << sg
                                  << " field " << kFields[f].name;
    }
    return;
  }
  ADD_FAILURE() << "no golden row; measured:\n" << table_row(kernel, v, sg, got);
}

TEST(OpCountersGolden, PairLaunchesMatchRecordedCounts) {
  for (const CommVariant v : xsycl::kAllVariants) {
    for (const int sg : {16, 32, 64}) {
      const Measured m = run_launches(v, sg);
      expect_golden("upGeo", v, sg, m.geo);
      expect_golden("upBarEx", v, sg, m.extras);
      expect_golden("grav_pp", v, sg, m.grav);
    }
  }
}

}  // namespace
}  // namespace hacc::sph
