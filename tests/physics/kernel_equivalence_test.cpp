// The pencil-vectorized kernel (kernel.hpp) must produce BITWISE identical
// output to the retained scalar reference (support/kernel_reference.hpp) —
// same arithmetic on the same values in the same per-cell order — across
// every physics, spatial order, limiter, and flux scheme, including face-flux
// recording, sub-box tiling, and execution through the threaded AMR driver.
// The row-form CFL scan must likewise equal the per-cell max_speed fold.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "amr/solver.hpp"
#include "core/block_store.hpp"
#include "core/face_flux.hpp"
#include "physics/advection.hpp"
#include "physics/euler.hpp"
#include "physics/kernel.hpp"
#include "physics/mhd.hpp"
#include "support/kernel_reference.hpp"
#include "util/aligned.hpp"

namespace ab {
namespace {

constexpr LimiterKind kLimiters[] = {LimiterKind::None, LimiterKind::MinMod,
                                     LimiterKind::VanLeer, LimiterKind::MC};
constexpr SpatialOrder kOrders[] = {SpatialOrder::First, SpatialOrder::Second};

/// Fill every ghosted cell of `base` from a smooth state function of the
/// (possibly negative) cell index, so slopes, limiter branches, and both
/// signs of the wave speeds are all exercised.
template <int D, class Phys, class F>
void fill_block(const BlockLayout<D>& lay, double* base, const F& state_of) {
  const std::int64_t fs = lay.field_stride();
  for_each_cell<D>(lay.ghosted_box(), [&](IVec<D> p) {
    const typename Phys::State u = state_of(p);
    const std::int64_t off = lay.offset(p);
    for (int v = 0; v < Phys::NVAR; ++v) base[v * fs + off] = u[v];
  });
}

template <int D, class Phys, class F>
void expect_bitwise_equal(const Phys& phys, const F& state_of,
                          SpatialOrder order, LimiterKind lim,
                          FluxScheme scheme, int m = 8) {
  BlockLayout<D> lay(IVec<D>(m), 2, Phys::NVAR);
  const std::size_t nd = static_cast<std::size_t>(lay.block_doubles());
  AlignedBuffer uin(nd), pencil(nd), reference(nd);
  fill_block<D, Phys>(lay, uin.data(), state_of);
  std::memset(pencil.data(), 0, nd * sizeof(double));
  std::memset(reference.data(), 0, nd * sizeof(double));
  // Unequal spacings, so a term paired with the wrong dimension's dx shows.
  RVec<D> dx;
  for (int d = 0; d < D; ++d) dx[d] = 0.01 * (1.0 + 0.25 * d);
  const double dt = 1e-4;
  const std::uint64_t fa = fv_block_update<D, Phys>(
      lay, uin.data(), pencil.data(), phys, dx, dt, order, lim, scheme);
  const std::uint64_t fb = fv_block_update_reference<D, Phys>(
      lay, uin.data(), reference.data(), phys, dx, dt, order, lim, scheme);
  EXPECT_EQ(fa, fb);
  EXPECT_EQ(0, std::memcmp(pencil.data(), reference.data(),
                           nd * sizeof(double)))
      << "order=" << static_cast<int>(order)
      << " limiter=" << static_cast<int>(lim)
      << " scheme=" << static_cast<int>(scheme);
}

TEST(KernelEquivalence, Advection3DAllLimitersAndSchemes) {
  LinearAdvection<3> phys;
  phys.velocity = {1.0, 0.5, -0.2};
  auto state_of = [](IVec<3> p) {
    LinearAdvection<3>::State u;
    u[0] = 1.0 + 0.4 * std::sin(0.3 * p[0] + 0.5 * p[1] - 0.2 * p[2]);
    return u;
  };
  for (SpatialOrder order : kOrders)
    for (LimiterKind lim : kLimiters)
      for (FluxScheme scheme : {FluxScheme::Rusanov, FluxScheme::Hll})
        expect_bitwise_equal<3>(phys, state_of, order, lim, scheme);
}

template <int D>
typename Euler<D>::State smooth_euler(const Euler<D>& phys, IVec<D> p) {
  double phase = 0.0;
  for (int d = 0; d < D; ++d) phase += 0.3 * (d + 1) * p[d];
  RVec<D> v;
  for (int d = 0; d < D; ++d) v[d] = 0.3 * std::cos(phase + d);
  return phys.from_primitive(1.0 + 0.3 * std::sin(phase), v,
                             1.0 + 0.2 * std::cos(0.7 * phase));
}

TEST(KernelEquivalence, Euler3DAllLimitersAndSchemes) {
  Euler<3> phys;
  auto state_of = [&](IVec<3> p) { return smooth_euler<3>(phys, p); };
  for (SpatialOrder order : kOrders)
    for (LimiterKind lim : kLimiters)
      for (FluxScheme scheme :
           {FluxScheme::Rusanov, FluxScheme::Hll, FluxScheme::Roe})
        expect_bitwise_equal<3>(phys, state_of, order, lim, scheme);
}

TEST(KernelEquivalence, Mhd3DAllLimitersAndSchemes) {
  IdealMhd<3> phys;
  auto state_of = [&](IVec<3> p) {
    const double phase = 0.3 * p[0] + 0.45 * p[1] - 0.25 * p[2];
    return phys.from_primitive(
        1.0 + 0.25 * std::sin(phase),
        {0.3 * std::cos(phase), -0.2 * std::sin(2 * phase), 0.1},
        {0.2, 0.3 + 0.1 * std::cos(phase), 0.1},
        1.0 + 0.2 * std::cos(0.7 * phase));
  };
  for (SpatialOrder order : kOrders)
    for (LimiterKind lim : kLimiters)
      for (FluxScheme scheme :
           {FluxScheme::Rusanov, FluxScheme::Hll, FluxScheme::Hlld})
        expect_bitwise_equal<3>(phys, state_of, order, lim, scheme);
}

// D = 2 takes the two-term div B branch of the Powell source.
TEST(KernelEquivalence, Mhd2DAllLimitersAndSchemes) {
  IdealMhd<2> phys;
  auto state_of = [&](IVec<2> p) {
    const double phase = 0.35 * p[0] - 0.4 * p[1];
    return phys.from_primitive(
        1.0 + 0.25 * std::sin(phase),
        {0.3 * std::cos(phase), -0.2 * std::sin(2 * phase), 0.1},
        {0.2 + 0.1 * std::sin(0.5 * p[0]), 0.3 + 0.1 * std::cos(0.6 * p[1]),
         0.1},
        1.0 + 0.2 * std::cos(0.7 * phase));
  };
  for (SpatialOrder order : kOrders)
    for (LimiterKind lim : kLimiters)
      for (FluxScheme scheme :
           {FluxScheme::Rusanov, FluxScheme::Hll, FluxScheme::Hlld})
        expect_bitwise_equal<2>(phys, state_of, order, lim, scheme, 10);
}

TEST(KernelEquivalence, LowerDimensions) {
  Euler<1> phys1;
  auto s1 = [&](IVec<1> p) { return smooth_euler<1>(phys1, p); };
  Euler<2> phys2;
  auto s2 = [&](IVec<2> p) { return smooth_euler<2>(phys2, p); };
  for (SpatialOrder order : kOrders)
    for (LimiterKind lim : kLimiters) {
      expect_bitwise_equal<1>(phys1, s1, order, lim, FluxScheme::Hll, 16);
      expect_bitwise_equal<2>(phys2, s2, order, lim, FluxScheme::Rusanov, 10);
    }
}

TEST(KernelEquivalence, FaceFluxRecording) {
  Euler<3> phys;
  BlockLayout<3> lay(IVec<3>(8), 2, Euler<3>::NVAR);
  const std::size_t nd = static_cast<std::size_t>(lay.block_doubles());
  AlignedBuffer uin(nd), pencil(nd), reference(nd);
  fill_block<3, Euler<3>>(lay, uin.data(),
                          [&](IVec<3> p) { return smooth_euler<3>(phys, p); });
  const RVec<3> dx(0.01);
  for (SpatialOrder order : kOrders) {
    FaceFluxStorage<3> ffa, ffb;
    ffa.allocate(lay);
    ffb.allocate(lay);
    fv_block_update<3, Euler<3>>(lay, uin.data(), pencil.data(), phys, dx,
                                 1e-4, order, LimiterKind::VanLeer,
                                 FluxScheme::Hll, &ffa);
    fv_block_update_reference<3, Euler<3>>(
        lay, uin.data(), reference.data(), phys, dx, 1e-4, order,
        LimiterKind::VanLeer, FluxScheme::Hll, &ffb);
    for (int dim = 0; dim < 3; ++dim)
      for (int side = 0; side < 2; ++side)
        for_each_cell<3>(lay.interior_box(), [&](IVec<3> p) {
          for (int v = 0; v < Euler<3>::NVAR; ++v)
            ASSERT_EQ(ffa.at(dim, side, p, v), ffb.at(dim, side, p, v))
                << "dim=" << dim << " side=" << side;
        });
  }
}

/// Update the 8^3 interior of a block as the union of `boxes` (which must
/// tile it) through the pencil path; it must equal the reference
/// full-block update.
template <class Phys, class F>
void expect_tiling_matches_reference(const Phys& phys, const F& state_of,
                                     const std::vector<Box<3>>& boxes) {
  BlockLayout<3> lay(IVec<3>(8), 2, Phys::NVAR);
  const std::size_t nd = static_cast<std::size_t>(lay.block_doubles());
  AlignedBuffer uin(nd), tiled(nd), reference(nd);
  fill_block<3, Phys>(lay, uin.data(), state_of);
  std::memset(tiled.data(), 0, nd * sizeof(double));
  std::memset(reference.data(), 0, nd * sizeof(double));
  const RVec<3> dx(0.01);
  for (const Box<3>& sub : boxes)
    fv_block_update<3, Phys>(lay, uin.data(), tiled.data(), phys, dx, 1e-4,
                             SpatialOrder::Second, LimiterKind::VanLeer,
                             FluxScheme::Rusanov, nullptr, &sub);
  fv_block_update_reference<3, Phys>(lay, uin.data(), reference.data(), phys,
                                     dx, 1e-4, SpatialOrder::Second,
                                     LimiterKind::VanLeer,
                                     FluxScheme::Rusanov);
  EXPECT_EQ(0, std::memcmp(tiled.data(), reference.data(),
                           nd * sizeof(double)));
}

TEST(KernelEquivalence, SubBoxTilingMatchesFullUpdate) {
  Euler<3> phys;
  // 2x2x2 sub-boxes of 4^3.
  std::vector<Box<3>> boxes;
  for (int k = 0; k < 2; ++k)
    for (int j = 0; j < 2; ++j)
      for (int i = 0; i < 2; ++i)
        boxes.push_back(
            {{4 * i, 4 * j, 4 * k}, {4 * i + 4, 4 * j + 4, 4 * k + 4}});
  expect_tiling_matches_reference(
      phys, [&](IVec<3> p) { return smooth_euler<3>(phys, p); }, boxes);
}

// The threaded stage splits each block into a ghost-independent core and
// rim slabs (GhostExchanger::interior_core / rim_boxes) and updates each as
// a sub-box, so the Powell source also runs over short sub-box pencils.
TEST(KernelEquivalence, MhdCoreRimTilingMatchesFullUpdate) {
  IdealMhd<3> phys;
  // Same tiling as GhostExchanger with 2 ghost layers: peel a 2-thick slab
  // off each side, highest dimension first; what remains is the core.
  std::vector<Box<3>> boxes;
  Box<3> cur{IVec<3>(0), IVec<3>(8)};
  for (int d = 2; d >= 0; --d) {
    Box<3> lo = cur, hi = cur;
    lo.hi[d] = cur.lo[d] + 2;
    hi.lo[d] = cur.hi[d] - 2;
    boxes.push_back(lo);
    boxes.push_back(hi);
    cur.lo[d] += 2;
    cur.hi[d] -= 2;
  }
  boxes.push_back(cur);
  expect_tiling_matches_reference(
      phys,
      [&](IVec<3> p) {
        const double phase = 0.3 * p[0] + 0.45 * p[1] - 0.25 * p[2];
        return phys.from_primitive(
            1.0 + 0.25 * std::sin(phase),
            {0.3 * std::cos(phase), -0.2 * std::sin(2 * phase), 0.1},
            {0.2 + 0.1 * std::sin(p[0]), 0.3 + 0.1 * std::cos(phase),
             0.1 * std::cos(0.8 * p[2])},
            1.0 + 0.2 * std::cos(0.7 * phase));
      },
      boxes);
}

// In a block update the Powell increment is small next to the state it is
// added to, so rounding differences in it mostly vanish. Compare the row
// form's increments with add_source's directly. The output starts at -0,
// so with a uniform field (div B = 0, every increment a signed zero) the
// `0.0 +` accumulations and the zero added to density are checked too.
template <int D>
void expect_source_row_matches_per_cell(bool uniform_field) {
  IdealMhd<D> phys;
  using State = typename IdealMhd<D>::State;
  const int m = 7;  // odd: leaves a vector-loop remainder
  BlockLayout<D> lay(IVec<D>(m), 1, IdealMhd<D>::NVAR);
  const std::size_t nd = static_cast<std::size_t>(lay.block_doubles());
  AlignedBuffer u(nd), out(nd);
  fill_block<D, IdealMhd<D>>(lay, u.data(), [&](IVec<D> p) {
    double phase = 0.0;
    for (int d = 0; d < D; ++d) phase += (0.7 + 0.3 * d) * p[d];
    const RVec<3> b =
        uniform_field ? RVec<3>{0.5, -0.4, 0.3}
                      : RVec<3>{0.5 * std::sin(0.9 * phase),
                                0.4 * std::cos(1.1 * phase),
                                0.3 * std::sin(0.5 * phase)};
    return phys.from_primitive(
        1.0 + 0.3 * std::sin(phase),
        {0.4 * std::cos(phase), -0.3 * std::sin(1.3 * phase), 0.2}, b, 1.0);
  });
  for (std::size_t i = 0; i < nd; ++i) out[i] = -0.0;
  RVec<D> dx;
  for (int d = 0; d < D; ++d) dx[d] = 0.01 * (1.0 + 0.25 * d);
  const double dt = 3e-3;
  const std::int64_t fs = lay.field_stride();
  std::array<std::int64_t, D> strides;
  for (int d = 0; d < D; ++d) strides[d] = lay.stride(d);
  for_each_row<D>(lay.interior_box(), [&](IVec<D> p, int n) {
    phys.add_source_row(u.data() + lay.offset(p), fs, strides, dx, dt,
                        out.data() + lay.offset(p), n);
  });
  for_each_cell<D>(lay.interior_box(), [&](IVec<D> p) {
    const std::int64_t off = lay.offset(p);
    const State uc = detail::load_state<IdealMhd<D>>(u.data(), fs, off);
    std::array<State, 2 * D> nbrs;
    for (int d = 0; d < D; ++d) {
      nbrs[2 * d + 0] =
          detail::load_state<IdealMhd<D>>(u.data(), fs, off - strides[d]);
      nbrs[2 * d + 1] =
          detail::load_state<IdealMhd<D>>(u.data(), fs, off + strides[d]);
    }
    State du{};
    phys.add_source(uc, nbrs, dx, dt, du);
    for (int v = 0; v < IdealMhd<D>::NVAR; ++v)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(out[v * fs + off]),
                std::bit_cast<std::uint64_t>(-0.0 + du[v]))
          << "var " << v << " uniform_field=" << uniform_field;
  });
}

TEST(KernelEquivalence, MhdSourceRowMatchesPerCellSource) {
  for (bool uniform_field : {false, true}) {
    expect_source_row_matches_per_cell<2>(uniform_field);
    expect_source_row_matches_per_cell<3>(uniform_field);
  }
}

/// Per-cell CFL fold of the scalar path: max over cells of the sum over
/// dims of max_speed / dx.
template <int D, class Phys>
double per_cell_wave_speed_sum(const BlockLayout<D>& lay, const double* u,
                               const Phys& phys, const RVec<D>& dx) {
  double worst = 0.0;
  for_each_cell<D>(lay.interior_box(), [&](IVec<D> p) {
    const auto st = detail::load_state<Phys>(u, lay.field_stride(),
                                             lay.offset(p));
    double s = 0.0;
    for (int d = 0; d < D; ++d) s += phys.max_speed(st, d) / dx[d];
    worst = std::max(worst, s);
  });
  return worst;
}

// The MHD row form of the CFL scan must give every cell the bits of the
// per-cell max_speed sum, including states where the scalar path's
// pressure clamp (p < 0) or discriminant clamp (round-off makes
// s^2 - 4 a^2 ca_d^2 negative when a^2 = ca_d^2) fires.
TEST(KernelEquivalence, MhdWaveSpeedRowMatchesPerCellFold) {
  IdealMhd<3> phys;
  const int m = 7;  // odd: leaves a vector-loop remainder
  BlockLayout<3> lay(IVec<3>(m), 2, IdealMhd<3>::NVAR);
  const std::size_t nd = static_cast<std::size_t>(lay.block_doubles());
  AlignedBuffer u(nd);
  int pressure_clamps = 0, disc_clamps = 0;
  fill_block<3, IdealMhd<3>>(lay, u.data(), [&](IVec<3> p) {
    const int k = (p[0] + 2) + 11 * (p[1] + 2) + 121 * (p[2] + 2);
    const double rho = 1.0 + 0.01 * (k % 13);
    if (k % 3 == 0) {
      // Field along one axis with gamma p = B^2: a^2 equals ca_d^2 up to
      // the rounding of the conserved-to-primitive round trip.
      const double b = 0.5 + 0.037 * (k % 17);
      RVec<3> bv(0.0);
      bv[k % 9 / 3] = b;
      return phys.from_primitive(rho, {0.1, -0.05 * (k % 5), 0.02}, bv,
                                 b * b / phys.gamma);
    }
    auto st = phys.from_primitive(
        rho, {0.3 * std::sin(0.1 * k), 0.2, -0.1 * (k % 4)},
        {0.2, 0.3 * std::cos(0.2 * k), 0.1}, 0.5 + 0.01 * (k % 7));
    if (k % 3 == 1) st[IdealMhd<3>::ieng()] -= 1.0;  // negative pressure
    return st;
  });
  const RVec<3> dx{0.01, 0.02, 0.015};
  const std::int64_t fs = lay.field_stride();
  std::vector<double> lane(static_cast<std::size_t>(m));
  for_each_row<3>(lay.interior_box(), [&](IVec<3> p, int n) {
    phys.wave_speed_row(u.data() + lay.offset(p), fs, dx, lane.data(), n);
    for (int i = 0; i < n; ++i) {
      IVec<3> c = p;
      c[0] += i;
      const auto st = detail::load_state<IdealMhd<3>>(u.data(), fs,
                                                      lay.offset(c));
      double s = 0.0;
      for (int d = 0; d < 3; ++d) s += phys.max_speed(st, d) / dx[d];
      ASSERT_EQ(std::bit_cast<std::uint64_t>(lane[static_cast<std::size_t>(i)]),
                std::bit_cast<std::uint64_t>(s))
          << "cell (" << c[0] << "," << c[1] << "," << c[2] << ")";
      // Coverage of the two clamps, evaluated as max_speed does.
      if (phys.pressure(st) < 0.0) ++pressure_clamps;
      const double a2 = phys.gamma * std::max(phys.pressure(st), 0.0) /
                        st[IdealMhd<3>::irho()];
      double b2 = 0.0;
      for (int j = 0; j < 3; ++j)
        b2 += st[IdealMhd<3>::imag(j)] * st[IdealMhd<3>::imag(j)];
      const double ss = a2 + b2 / st[IdealMhd<3>::irho()];
      for (int d = 0; d < 3; ++d) {
        const double bd = st[IdealMhd<3>::imag(d)];
        if (ss * ss - 4.0 * a2 * (bd * bd / st[IdealMhd<3>::irho()]) < 0.0)
          ++disc_clamps;
      }
    }
  });
  EXPECT_GT(pressure_clamps, 0);
  EXPECT_GT(disc_clamps, 0);
  const double row = block_wave_speed_sum<3>(lay, u.data(), phys, dx);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(row),
            std::bit_cast<std::uint64_t>(
                per_cell_wave_speed_sum<3>(lay, u.data(), phys, dx)));
}

// The threaded driver (pencil path, one scratch arena per pool thread) must
// reproduce the reference kernel exactly: snapshot the ghost-filled state,
// step the solver with num_threads > 1, and check every block against a
// serial reference update of the snapshot.
TEST(KernelEquivalence, ThreadedSolverMatchesReferenceKernel) {
  Euler<2> phys;
  AmrSolver<2, Euler<2>>::Config cfg;
  cfg.forest.root_blocks = {2, 2};
  cfg.forest.periodic = {true, true};
  cfg.cells_per_block = {8, 8};
  cfg.rk_stages = 1;
  cfg.num_threads = 3;
  AmrSolver<2, Euler<2>> solver(cfg, phys);
  solver.init([&](const RVec<2>& x, Euler<2>::State& s) {
    const double dx = x[0] - 0.5, dy = x[1] - 0.5;
    s = phys.from_primitive(1.0 + 0.5 * std::exp(-40 * (dx * dx + dy * dy)),
                            {0.3, -0.2}, 1.0);
  });
  const BlockLayout<2>& lay = solver.store().layout();
  const std::size_t nd = static_cast<std::size_t>(lay.block_doubles());
  const double dt = 1e-3;

  solver.fill_ghosts();
  std::vector<int> leaves = solver.forest().leaves();
  std::vector<std::vector<double>> expected;
  const RVec<2> dx = solver.cell_dx(0);
  for (int id : leaves) {
    const double* in = solver.store().view(id).base;
    std::vector<double> out(nd, 0.0);
    fv_block_update_reference<2, Euler<2>>(lay, in, out.data(), phys, dx, dt,
                                           cfg.order, cfg.limiter, cfg.flux);
    expected.push_back(std::move(out));
  }

  solver.step(dt);
  for (std::size_t b = 0; b < leaves.size(); ++b) {
    ConstBlockView<2> v = solver.store().view(leaves[b]);
    const std::int64_t fs = lay.field_stride();
    for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
      const std::int64_t off = lay.offset(p);
      for (int k = 0; k < Euler<2>::NVAR; ++k)
        ASSERT_EQ(v.base[k * fs + off], expected[b][k * fs + off])
            << "block " << leaves[b];
    });
  }
}

}  // namespace
}  // namespace ab
