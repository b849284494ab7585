#pragma once

// The half-warp pair-interaction harness (paper §5.3, Figs. 3-4): one
// sub-group processes one interacting leaf pair.  The lower half of the
// sub-group owns particles from leaf A, the upper half from leaf B; each
// round of the partner schedule exchanges states so that when a lower lane
// evaluates (i, j), an upper lane simultaneously evaluates (j, i) — the
// pair-wise symmetry the algorithm requires.
//
// The Broadcast variant restructures the loop (§5.3.2): every lane owns an
// A-particle, B-particles are broadcast one at a time, partial forces on the
// broadcast particle are combined with reduce_over_group, and only one
// atomic update per particle is issued — "fewer atomic instructions".

#include <string>

#include "domain/domain.hpp"
#include "tree/rcb.hpp"
#include "xsycl/atomic.hpp"
#include "xsycl/comm_variant.hpp"
#include "xsycl/queue.hpp"

namespace hacc::sph {

// Traits contract (see geometry.hpp etc. for implementations):
//   using State;                       // trivially copyable, 4-byte multiple
//   using Accum;                       // default-zero, operator+=
//   static constexpr int kAccumWords;  // floats committed per particle
//   State load(std::int32_t i) const;
//   Accum interact(const State& own, const State& other) const;
//   void commit(xsycl::SubGroup&, std::int32_t idx, const Accum&) const;

template <typename Traits>
class PairInteractionKernel {
 public:
  using State = typename Traits::State;
  using Accum = typename Traits::Accum;

  // The view supplies the per-leaf slot ranges and the slot -> particle
  // permutation — either a whole tree (implicit conversion) or a
  // species-filtered window from domain::InteractionDomain.
  PairInteractionKernel(std::string name, Traits traits,
                        const domain::SpeciesView& view,
                        const tree::LeafPair* pairs, std::size_t n_pairs,
                        xsycl::CommVariant variant)
      : name_(std::move(name)),
        traits_(std::move(traits)),
        leaves_(view.leaves),
        order_(view.order),
        pairs_(pairs),
        n_pairs_(n_pairs),
        variant_(variant) {}

  std::string name() const { return name_; }
  std::size_t n_pairs() const { return n_pairs_; }

  std::size_t local_bytes_per_sg(int sg_size) const {
    return xsycl::local_bytes_for(variant_, sg_size, sizeof(State));
  }

  void operator()(xsycl::SubGroup& sg) const {
    if (sg.index() >= n_pairs_) return;
    const tree::LeafPair lp = pairs_[sg.index()];
    if (variant_ == xsycl::CommVariant::kBroadcast) {
      run_broadcast(sg, lp);
    } else {
      run_exchange(sg, lp);
    }
  }

 private:
  static int ceil_div(int a, int b) { return (a + b - 1) / b; }

  // Loads `width` particles starting at tree slot `slot0` of `leaf` into
  // lanes [lane0, lane0+width).
  void load_tile(xsycl::SubGroup& sg, const tree::Leaf& leaf, int slot0, int lane0,
                 int width, xsycl::Varying<State>& mine,
                 xsycl::Varying<bool>& active, xsycl::Varying<std::int32_t>& idx) const {
    for (int k = 0; k < width; ++k) {
      const int lane = lane0 + k;
      const std::int32_t slot = slot0 + k;
      const bool ok = slot < leaf.end;
      active[lane] = ok;
      if (ok) {
        idx[lane] = order_[slot];
        mine[lane] = traits_.load(idx[lane]);
      } else {
        idx[lane] = 0;
        mine[lane] = State{};
        mine[lane].valid = 0;
      }
    }
    sg.counters().global_loads += static_cast<std::uint64_t>(width);
  }

  void run_exchange(xsycl::SubGroup& sg, const tree::LeafPair& lp) const {
    const int S = sg.size();
    const int H = S / 2;
    const tree::Leaf& la = leaves_[lp.a];
    const tree::Leaf& lb = leaves_[lp.b];
    const bool self = lp.a == lp.b;
    const int tiles_a = ceil_div(la.count(), H);
    const int tiles_b = ceil_div(lb.count(), H);

    for (int ta = 0; ta < tiles_a; ++ta) {
      for (int tb = self ? ta : 0; tb < tiles_b; ++tb) {
        xsycl::Varying<State> mine(xsycl::kNoInit);
        xsycl::Varying<bool> active(xsycl::kNoInit);
        xsycl::Varying<std::int32_t> idx(xsycl::kNoInit);
        load_tile(sg, la, la.begin + ta * H, /*lane0=*/0, H, mine, active, idx);
        load_tile(sg, lb, lb.begin + tb * H, /*lane0=*/H, H, mine, active, idx);
        if (self && ta == tb) {
          // Both halves hold the same slice: the lower half already covers
          // every ordered pair, so the upper half only serves as the
          // exchange source and must not accumulate or commit.
          for (int l = H; l < S; ++l) active[l] = false;
        }

        xsycl::Varying<Accum> acc;
        for (int r = 0; r < H; ++r) {
          const auto theirs = xsycl::exchange(sg, mine, r, variant_);
          for (int l = 0; l < S; ++l) {
            if (!active[l]) continue;
            const State& other = theirs[l];
            if (!other.valid || other.idx == mine[l].idx) continue;
            acc[l] += traits_.interact(mine[l], other);
            ++sg.counters().interactions;
          }
        }
        for (int l = 0; l < S; ++l) {
          if (active[l]) traits_.commit(sg, idx[l], acc[l]);
        }
      }
    }
  }

  void run_broadcast(xsycl::SubGroup& sg, const tree::LeafPair& lp) const {
    const int S = sg.size();
    const tree::Leaf& la = leaves_[lp.a];
    const tree::Leaf& lb = leaves_[lp.b];
    const bool self = lp.a == lp.b;
    const int tiles_a = ceil_div(la.count(), S);
    const int tiles_b = ceil_div(lb.count(), S);

    for (int ta = 0; ta < tiles_a; ++ta) {
      // Every lane owns one A-particle (loads BOTH interaction sides, §5.3.2).
      xsycl::Varying<State> mine(xsycl::kNoInit);
      xsycl::Varying<bool> active(xsycl::kNoInit);
      xsycl::Varying<std::int32_t> idx(xsycl::kNoInit);
      load_tile(sg, la, la.begin + ta * S, 0, S, mine, active, idx);

      xsycl::Varying<Accum> acc;
      for (int tb = 0; tb < tiles_b; ++tb) {
        xsycl::Varying<State> bstate(xsycl::kNoInit);
        xsycl::Varying<bool> bactive(xsycl::kNoInit);
        xsycl::Varying<std::int32_t> bidx(xsycl::kNoInit);
        load_tile(sg, lb, lb.begin + tb * S, 0, S, bstate, bactive, bidx);

        const int bwidth = std::min(S, lb.end - (lb.begin + tb * S));
        for (int jj = 0; jj < bwidth; ++jj) {
          const State other = xsycl::broadcast_object(sg, bstate, jj);
          if (!other.valid) continue;
          // Contribution to each lane's own particle.
          for (int l = 0; l < S; ++l) {
            if (!active[l] || other.idx == mine[l].idx) continue;
            acc[l] += traits_.interact(mine[l], other);
            ++sg.counters().interactions;
          }
          if (!self) {
            // Redundantly compute the mirrored contribution (j, i) on every
            // lane, combine with a reduction, and issue ONE atomic commit.
            xsycl::Varying<Accum> jacc;
            for (int l = 0; l < S; ++l) {
              if (!active[l] || other.idx == mine[l].idx) continue;
              jacc[l] = traits_.interact(other, mine[l]);
              ++sg.counters().interactions;
            }
            Accum sum;
            for (int l = 0; l < S; ++l) {
              if (active[l]) sum += jacc[l];
            }
            sg.counters().reduce_ops += Traits::kAccumWords;
            traits_.commit(sg, other.idx, sum);
          }
        }
      }
      for (int l = 0; l < S; ++l) {
        if (active[l]) traits_.commit(sg, idx[l], acc[l]);
      }
    }
  }

  std::string name_;
  Traits traits_;
  const tree::Leaf* leaves_;
  const std::int32_t* order_;
  const tree::LeafPair* pairs_;
  std::size_t n_pairs_;
  xsycl::CommVariant variant_;
};

// Per-particle "finalize" kernels (self terms, moment solves, EOS): one lane
// per particle, S particles per sub-group.
template <typename Body>
class ForEachParticleKernel {
 public:
  ForEachParticleKernel(std::string name, std::size_t n, Body body)
      : name_(std::move(name)), n_(n), body_(std::move(body)) {}

  std::string name() const { return name_; }
  std::size_t local_bytes_per_sg(int) const { return 0; }
  std::size_t n_particles() const { return n_; }

  void operator()(xsycl::SubGroup& sg) const {
    for (int l = 0; l < sg.size(); ++l) {
      const std::size_t i = sg.index() * static_cast<std::size_t>(sg.size()) + l;
      if (i < n_) body_(static_cast<std::int32_t>(i));
    }
    sg.counters().global_loads += static_cast<std::uint64_t>(sg.size());
    sg.counters().global_stores += static_cast<std::uint64_t>(sg.size());
  }

 private:
  std::string name_;
  std::size_t n_;
  Body body_;
};

// Sub-groups needed to cover n particles one lane each.
inline std::uint64_t subgroups_for(std::size_t n, int sg_size) {
  return (n + sg_size - 1) / static_cast<std::size_t>(sg_size);
}

// Submits one PairInteractionKernel launch per batch of the pair source and
// accumulates the per-launch stats into a single record — the one batching
// loop shared by the SPH kernel runners and gravity's run_pp_short.
template <typename Traits>
xsycl::LaunchStats launch_pair_batches(xsycl::Queue& q, const std::string& name,
                                       const Traits& traits,
                                       const domain::SpeciesView& view,
                                       const domain::PairSource& pairs,
                                       xsycl::CommVariant variant,
                                       const xsycl::LaunchConfig& launch) {
  xsycl::LaunchStats total;
  total.kernel = name;
  total.sub_group_size = launch.sub_group_size;
  pairs.for_each_batch([&](std::span<const tree::LeafPair> batch) {
    PairInteractionKernel<Traits> kernel(name, traits, view, batch.data(),
                                         batch.size(), variant);
    const xsycl::LaunchStats stats = q.submit(kernel, batch.size(), launch);
    total.n_sub_groups += stats.n_sub_groups;
    total.seconds += stats.seconds;
    total.ops.merge(stats.ops);
  });
  return total;
}

}  // namespace hacc::sph
