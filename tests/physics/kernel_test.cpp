#include "physics/kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "physics/advection.hpp"
#include "physics/euler.hpp"
#include "physics/mhd.hpp"
#include "util/aligned.hpp"

namespace ab {
namespace {

/// Fill a standalone block (with ghosts) from a function of local index.
template <int D, class F>
void fill_block(const BlockLayout<D>& lay, double* base, const F& f) {
  for (int v = 0; v < lay.nvar; ++v)
    for_each_cell<D>(lay.ghosted_box(), [&](IVec<D> p) {
      base[v * lay.field_stride() + lay.offset(p)] = f(p, v);
    });
}

TEST(Kernel, ConstantStateIsSteady) {
  BlockLayout<2> lay({8, 8}, 2, 1);
  AlignedBuffer uin(lay.block_doubles()), uout(lay.block_doubles());
  fill_block<2>(lay, uin.data(), [](IVec<2>, int) { return 3.0; });
  LinearAdvection<2> phys;
  phys.velocity = {1.0, -0.5};
  fv_block_update<2, LinearAdvection<2>>(lay, uin.data(), uout.data(), phys,
                                         {0.1, 0.1}, 0.01,
                                         SpatialOrder::Second);
  for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
    EXPECT_NEAR(uout[lay.offset(p)], 3.0, 1e-14);
  });
}

TEST(Kernel, FirstOrderAdvectionIsUpwind) {
  // 1D advection with v > 0 at first order + Rusanov reduces to the upwind
  // scheme: u_i^{n+1} = u_i - c (u_i - u_{i-1}).
  BlockLayout<1> lay(IVec<1>{8}, 1, 1);
  AlignedBuffer uin(lay.block_doubles()), uout(lay.block_doubles());
  std::vector<double> vals = {1.0, 2.0, 4.0, 8.0, 16.0,
                              32.0, 64.0, 128.0, 256.0, 512.0};
  fill_block<1>(lay, uin.data(),
                [&](IVec<1> p, int) { return vals[p[0] + 1]; });
  LinearAdvection<1> phys;
  RVec<1> vel;
  vel[0] = 2.0;
  phys.velocity = vel;
  RVec<1> dx;
  dx[0] = 0.5;
  const double dt = 0.1;  // c = v dt/dx = 0.4
  fv_block_update<1, LinearAdvection<1>>(lay, uin.data(), uout.data(), phys,
                                         dx, dt, SpatialOrder::First);
  const double c = 2.0 * dt / 0.5;
  for (int i = 0; i < 8; ++i) {
    const double expect = vals[i + 1] - c * (vals[i + 1] - vals[i]);
    IVec<1> p;
    p[0] = i;
    EXPECT_NEAR(uout[lay.offset(p)], expect, 1e-12) << "cell " << i;
  }
}

TEST(Kernel, HllEqualsUpwindForAdvection) {
  BlockLayout<1> lay(IVec<1>{8}, 1, 1);
  AlignedBuffer uin(lay.block_doubles()), ua(lay.block_doubles()),
      ub(lay.block_doubles());
  fill_block<1>(lay, uin.data(),
                [](IVec<1> p, int) { return std::sin(0.7 * p[0]); });
  LinearAdvection<1> phys;
  RVec<1> vel;
  vel[0] = 1.5;
  phys.velocity = vel;
  RVec<1> dx;
  dx[0] = 1.0;
  fv_block_update<1, LinearAdvection<1>>(lay, uin.data(), ua.data(), phys, dx,
                                         0.1, SpatialOrder::First,
                                         LimiterKind::MinMod,
                                         FluxScheme::Rusanov);
  fv_block_update<1, LinearAdvection<1>>(lay, uin.data(), ub.data(), phys, dx,
                                         0.1, SpatialOrder::First,
                                         LimiterKind::MinMod, FluxScheme::Hll);
  for_each_cell<1>(lay.interior_box(), [&](IVec<1> p) {
    EXPECT_NEAR(ua[lay.offset(p)], ub[lay.offset(p)], 1e-14);
  });
}

TEST(Kernel, SecondOrderExactForLinearData) {
  // With an exactly linear field (and any TVD limiter), MUSCL reconstruction
  // is exact, so advection of the linear profile is computed exactly.
  BlockLayout<1> lay(IVec<1>{8}, 2, 1);
  AlignedBuffer uin(lay.block_doubles()), uout(lay.block_doubles());
  fill_block<1>(lay, uin.data(),
                [](IVec<1> p, int) { return 2.0 * p[0] + 5.0; });
  LinearAdvection<1> phys;
  RVec<1> vel;
  vel[0] = 1.0;
  phys.velocity = vel;
  RVec<1> dx;
  dx[0] = 1.0;
  const double dt = 0.25;
  fv_block_update<1, LinearAdvection<1>>(lay, uin.data(), uout.data(), phys,
                                         dx, dt, SpatialOrder::Second,
                                         LimiterKind::MinMod);
  // Exact solution: u(x, t) = 2(x - t) + 5 -> decrease by 2*dt.
  for_each_cell<1>(lay.interior_box(), [&](IVec<1> p) {
    EXPECT_NEAR(uout[lay.offset(p)], 2.0 * p[0] + 5.0 - 2.0 * dt, 1e-13);
  });
}

TEST(Kernel, ConservationOnIsolatedBlockWithEqualGhosts) {
  // If ghost values equal the adjacent interior values (zero-gradient), the
  // total update is the net boundary flux; for symmetric data it cancels.
  BlockLayout<2> lay({6, 6}, 2, 4);
  AlignedBuffer uin(lay.block_doubles()), uout(lay.block_doubles());
  Euler<2> phys;
  // Uniform moving gas: fluxes at opposite faces cancel in the total.
  auto u0 = phys.from_primitive(1.0, {0.7, -0.3}, 2.0);
  fill_block<2>(lay, uin.data(), [&](IVec<2>, int v) { return u0[v]; });
  fv_block_update<2, Euler<2>>(lay, uin.data(), uout.data(), phys,
                               {0.1, 0.1}, 0.02, SpatialOrder::Second);
  for (int v = 0; v < 4; ++v) {
    double before = 0.0, after = 0.0;
    for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
      before += uin[v * lay.field_stride() + lay.offset(p)];
      after += uout[v * lay.field_stride() + lay.offset(p)];
    });
    EXPECT_NEAR(after, before, 1e-11) << "variable " << v;
  }
}

TEST(Kernel, FlopCountPositiveAndScalesWithBlock) {
  BlockLayout<3> small({4, 4, 4}, 2, 5);
  BlockLayout<3> large({8, 8, 8}, 2, 5);
  const auto fs = fv_update_flops<3, Euler<3>>(small, SpatialOrder::Second);
  const auto fl = fv_update_flops<3, Euler<3>>(large, SpatialOrder::Second);
  EXPECT_GT(fs, 0u);
  // 8x the cells -> roughly 8x the flops (face counts scale slightly less).
  EXPECT_GT(fl, 6 * fs);
  EXPECT_LT(fl, 9 * fs);
  // Second order costs more than first.
  EXPECT_GT((fv_update_flops<3, Euler<3>>(small, SpatialOrder::Second)),
            (fv_update_flops<3, Euler<3>>(small, SpatialOrder::First)));
}

TEST(Kernel, UpdateReturnsDeclaredFlops) {
  BlockLayout<2> lay({4, 4}, 2, 1);
  AlignedBuffer uin(lay.block_doubles()), uout(lay.block_doubles());
  LinearAdvection<2> phys;
  phys.velocity = {1.0, 1.0};
  const auto got = fv_block_update<2, LinearAdvection<2>>(
      lay, uin.data(), uout.data(), phys, {1.0, 1.0}, 0.1,
      SpatialOrder::Second);
  EXPECT_EQ(got,
            (fv_update_flops<2, LinearAdvection<2>>(lay, SpatialOrder::Second)));
}

TEST(Kernel, RejectsInsufficientGhosts) {
  BlockLayout<2> lay({4, 4}, 1, 1);  // g=1 < 2 needed for second order
  AlignedBuffer uin(lay.block_doubles()), uout(lay.block_doubles());
  LinearAdvection<2> phys;
  EXPECT_THROW((fv_block_update<2, LinearAdvection<2>>(
                   lay, uin.data(), uout.data(), phys, {1.0, 1.0}, 0.1,
                   SpatialOrder::Second)),
               Error);
}

TEST(Kernel, WaveSpeedSumMatchesAnalytic) {
  BlockLayout<2> lay({4, 4}, 1, 4);
  AlignedBuffer u(lay.block_doubles());
  Euler<2> phys;
  auto s = phys.from_primitive(1.0, {2.0, -1.0}, 1.0);
  fill_block<2>(lay, u.data(), [&](IVec<2>, int v) { return s[v]; });
  const double c = std::sqrt(1.4);
  const double expect = (2.0 + c) / 0.5 + (1.0 + c) / 0.25;
  EXPECT_NEAR((block_wave_speed_sum<2, Euler<2>>(lay, u.data(), phys,
                                                 {0.5, 0.25})),
              expect, 1e-12);
}

// std::max drops NaN operands; the scan must not, or one corrupt cell
// would leave the block's CFL bound at the clean cells' value.
template <class Phys>
void expect_corrupt_cell_poisons_scan(const Phys& phys,
                                      const typename Phys::State& clean) {
  BlockLayout<3> lay(IVec<3>(4), 2, Phys::NVAR);
  AlignedBuffer u(lay.block_doubles());
  fill_block<3>(lay, u.data(), [&](IVec<3>, int v) { return clean[v]; });
  const RVec<3> dx(0.1);
  const double ok = block_wave_speed_sum<3, Phys>(lay, u.data(), phys, dx);
  EXPECT_TRUE(std::isfinite(ok) && ok > 0.0) << ok;
  double& rho = u[static_cast<std::size_t>(lay.offset(IVec<3>{1, 2, 3}))];
  rho = std::nan("");
  EXPECT_TRUE(std::isnan(block_wave_speed_sum<3, Phys>(lay, u.data(), phys,
                                                       dx)));
  rho = -clean[0];  // negative density: the sound speed is sqrt(< 0)
  EXPECT_TRUE(std::isnan(block_wave_speed_sum<3, Phys>(lay, u.data(), phys,
                                                       dx)));
  rho = clean[0];
  // NaN energy: the pressure is NaN, which a `p > 0 ? p : 0` clamp turns
  // into a finite sound speed; the scan must keep the NaN.
  double& eng = u[static_cast<std::size_t>(Phys::ieng() * lay.field_stride() +
                                           lay.offset(IVec<3>{3, 0, 1}))];
  eng = std::nan("");
  EXPECT_TRUE(std::isnan(block_wave_speed_sum<3, Phys>(lay, u.data(), phys,
                                                       dx)));
}

TEST(Kernel, WaveSpeedSumPropagatesCorruptCells) {
  IdealMhd<3> mhd;
  expect_corrupt_cell_poisons_scan(
      mhd, mhd.from_primitive(1.0, {0.1, 0.2, 0.3}, {0.3, 0.2, 0.1}, 1.0));
  Euler<3> euler;
  expect_corrupt_cell_poisons_scan(
      euler, euler.from_primitive(1.0, {0.1, 0.2, 0.3}, 1.0));
}

TEST(Kernel, PaddedLayoutGivesSameAnswer) {
  // The pad0 cells are dead space; results must be identical.
  BlockLayout<2> plain({6, 6}, 2, 1);
  BlockLayout<2> padded({6, 6}, 2, 1, /*pad=*/3);
  AlignedBuffer u1(plain.block_doubles()), o1(plain.block_doubles());
  AlignedBuffer u2(padded.block_doubles()), o2(padded.block_doubles());
  auto f = [](IVec<2> p, int) { return std::sin(0.3 * p[0]) + 0.1 * p[1]; };
  fill_block<2>(plain, u1.data(), f);
  fill_block<2>(padded, u2.data(), f);
  LinearAdvection<2> phys;
  phys.velocity = {1.0, 0.5};
  fv_block_update<2, LinearAdvection<2>>(plain, u1.data(), o1.data(), phys,
                                         {0.2, 0.2}, 0.05,
                                         SpatialOrder::Second);
  fv_block_update<2, LinearAdvection<2>>(padded, u2.data(), o2.data(), phys,
                                         {0.2, 0.2}, 0.05,
                                         SpatialOrder::Second);
  for_each_cell<2>(plain.interior_box(), [&](IVec<2> p) {
    EXPECT_DOUBLE_EQ(o1[plain.offset(p)], o2[padded.offset(p)]);
  });
}

}  // namespace
}  // namespace ab

namespace ab {
namespace {

TEST(Kernel, SubBlockTilingReproducesFullUpdateExactly) {
  // Updating a block as a tiling of sub-boxes must match the whole-block
  // update bit for bit: interior tile faces are computed identically from
  // both sides and every cell is written by exactly one tile.
  BlockLayout<2> lay({8, 8}, 2, 4);
  AlignedBuffer uin(lay.block_doubles()), full(lay.block_doubles()),
      tiled(lay.block_doubles());
  Euler<2> phys;
  fill_block<2>(lay, uin.data(), [&](IVec<2> p, int v) {
    return 1.0 + 0.1 * std::sin(0.9 * p[0] + 0.4 * p[1] + v);
  });
  // Make the state physical: treat the fill as primitive-ish offsets.
  for_each_cell<2>(lay.ghosted_box(), [&](IVec<2> p) {
    auto u = phys.from_primitive(
        1.0 + 0.1 * std::sin(0.5 * p[0]),
        {0.2 * std::cos(0.3 * p[1]), 0.1}, 1.0 + 0.05 * p[0] * 0.1);
    for (int v = 0; v < 4; ++v)
      uin[v * lay.field_stride() + lay.offset(p)] = u[v];
  });
  const RVec<2> dx{0.1, 0.1};
  fv_block_update<2, Euler<2>>(lay, uin.data(), full.data(), phys, dx, 0.01,
                               SpatialOrder::Second);
  for (int ty = 0; ty < 2; ++ty)
    for (int tx = 0; tx < 2; ++tx) {
      Box<2> tile({tx * 4, ty * 4}, {(tx + 1) * 4, (ty + 1) * 4});
      fv_block_update<2, Euler<2>>(lay, uin.data(), tiled.data(), phys, dx,
                                   0.01, SpatialOrder::Second,
                                   LimiterKind::VanLeer, FluxScheme::Rusanov,
                                   nullptr, &tile);
    }
  for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
    for (int v = 0; v < 4; ++v) {
      const auto off = v * lay.field_stride() + lay.offset(p);
      ASSERT_EQ(full[off], tiled[off]) << "cell " << p << " var " << v;
    }
  });
}

TEST(Kernel, SubBlockRejectsBadBoxes) {
  BlockLayout<2> lay({8, 8}, 2, 1);
  AlignedBuffer uin(lay.block_doubles()), uout(lay.block_doubles());
  LinearAdvection<2> phys;
  phys.velocity = {1.0, 0.0};
  Box<2> outside({0, 0}, {9, 8});
  EXPECT_THROW((fv_block_update<2, LinearAdvection<2>>(
                   lay, uin.data(), uout.data(), phys, {1.0, 1.0}, 0.1,
                   SpatialOrder::First, LimiterKind::MinMod,
                   FluxScheme::Rusanov, nullptr, &outside)),
               Error);
}

}  // namespace
}  // namespace ab
