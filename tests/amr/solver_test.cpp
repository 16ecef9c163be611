#include "amr/solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "physics/advection.hpp"
#include "physics/euler.hpp"
#include "physics/mhd.hpp"
#include "physics/riemann_exact.hpp"

namespace ab {
namespace {

// ---------------------------------------------------------------- advection

AmrSolver<2, LinearAdvection<2>>::Config advection_cfg(int root = 2,
                                                       int cells = 8) {
  AmrSolver<2, LinearAdvection<2>>::Config c;
  c.forest.root_blocks = {root, root};
  c.forest.periodic = {true, true};
  c.forest.max_level = 4;
  c.cells_per_block = {cells, cells};
  c.ghost = 2;
  c.cfl = 0.4;
  return c;
}

double gaussian(const RVec<2>& x, double cx, double cy) {
  const double r2 = (x[0] - cx) * (x[0] - cx) + (x[1] - cy) * (x[1] - cy);
  return std::exp(-60.0 * r2);
}

TEST(AmrSolver, ConstantStateExactlySteady) {
  LinearAdvection<2> phys;
  phys.velocity = {1.0, -0.5};
  AmrSolver<2, LinearAdvection<2>> solver(advection_cfg(), phys);
  solver.init([](const RVec<2>&, LinearAdvection<2>::State& s) { s[0] = 4.0; });
  // Even across refinement levels.
  solver.adapt(RegionCriterion<2>{
      [](const RVec<2>& lo, const RVec<2>& hi) {
        return lo[0] < 0.5 && hi[0] > 0.25;
      },
      2});
  solver.init([](const RVec<2>&, LinearAdvection<2>::State& s) { s[0] = 4.0; });
  for (int i = 0; i < 5; ++i) solver.step(0.01);
  for (int id : solver.forest().leaves()) {
    ConstBlockView<2> v = solver.store().view(id);
    for_each_cell<2>(solver.store().layout().interior_box(),
                     [&](IVec<2> p) { EXPECT_NEAR(v.at(0, p), 4.0, 1e-13); });
  }
}

TEST(AmrSolver, ConservationExactOnUniformPeriodicGrid) {
  LinearAdvection<2> phys;
  phys.velocity = {1.0, 0.3};
  AmrSolver<2, LinearAdvection<2>> solver(advection_cfg(), phys);
  solver.init([](const RVec<2>& x, LinearAdvection<2>::State& s) {
    s[0] = 1.0 + gaussian(x, 0.5, 0.5);
  });
  const double m0 = solver.total_conserved(0);
  for (int i = 0; i < 10; ++i) solver.step(solver.compute_dt());
  EXPECT_NEAR(solver.total_conserved(0), m0, 1e-13 * std::fabs(m0));
}

TEST(AmrSolver, ConservationNearExactWithRefinement) {
  // Ghost-cell-based coarse/fine coupling (the paper's scheme) is not
  // strictly conservative; the drift must stay small.
  LinearAdvection<2> phys;
  phys.velocity = {1.0, 0.3};
  AmrSolver<2, LinearAdvection<2>> solver(advection_cfg(), phys);
  solver.init([](const RVec<2>& x, LinearAdvection<2>::State& s) {
    s[0] = 1.0 + gaussian(x, 0.5, 0.5);
  });
  GradientCriterion<2> crit{0, 0.05, 0.005, 2};
  solver.adapt(crit);
  solver.init([](const RVec<2>& x, LinearAdvection<2>::State& s) {
    s[0] = 1.0 + gaussian(x, 0.5, 0.5);
  });
  ASSERT_GT(solver.forest().stats().max_level, 0);
  const double m0 = solver.total_conserved(0);
  for (int i = 0; i < 10; ++i) solver.step(solver.compute_dt());
  EXPECT_NEAR(solver.total_conserved(0), m0, 2e-3 * std::fabs(m0));
}

TEST(AmrSolver, SecondOrderConvergenceOnSmoothProfile) {
  // Grid refinement study: L1 error of an advected smooth profile must
  // shrink at better than first order (MUSCL + Heun is formally second).
  LinearAdvection<2> phys;
  phys.velocity = {1.0, 0.0};
  const double t_end = 0.25;
  auto run = [&](int root) {
    AmrSolver<2, LinearAdvection<2>> solver(advection_cfg(root, 8), phys);
    auto ic = [](const RVec<2>& x, LinearAdvection<2>::State& s) {
      s[0] = std::sin(2.0 * M_PI * x[0]) * std::sin(2.0 * M_PI * x[1]);
    };
    solver.init(ic);
    solver.advance_to(t_end, 100000);
    // L1 error vs the exact translated solution.
    double err = 0.0;
    std::int64_t cells = 0;
    for (int id : solver.forest().leaves()) {
      ConstBlockView<2> v = solver.store().view(id);
      for_each_cell<2>(solver.store().layout().interior_box(),
                       [&](IVec<2> p) {
                         RVec<2> x = solver.cell_center(id, p);
                         const double exact =
                             std::sin(2.0 * M_PI * (x[0] - t_end)) *
                             std::sin(2.0 * M_PI * x[1]);
                         err += std::fabs(v.at(0, p) - exact);
                         ++cells;
                       });
    }
    return err / cells;
  };
  const double e1 = run(2);   // 16^2 cells
  const double e2 = run(4);   // 32^2 cells
  const double order = std::log2(e1 / e2);
  EXPECT_GT(order, 1.5) << "e1=" << e1 << " e2=" << e2;
}

TEST(AmrSolver, AdaptTracksMovingFeature) {
  LinearAdvection<2> phys;
  phys.velocity = {1.0, 0.0};
  auto cfg = advection_cfg(2, 8);
  cfg.forest.max_level = 2;
  AmrSolver<2, LinearAdvection<2>> solver(cfg, phys);
  auto ic = [](const RVec<2>& x, LinearAdvection<2>::State& s) {
    s[0] = 1.0 + gaussian(x, 0.25, 0.5);
  };
  solver.init(ic);
  GradientCriterion<2> crit{0, 0.04, 0.01, 2};
  for (int i = 0; i < 3; ++i) {
    solver.adapt(crit);
    solver.init(ic);  // sharpen on the new grid
  }
  // The finest blocks sit on the feature.
  auto finest_center_x = [&] {
    double sx = 0.0;
    int n = 0;
    const int lmax = solver.forest().stats().max_level;
    for (int id : solver.forest().leaves()) {
      if (solver.forest().level(id) != lmax) continue;
      sx += 0.5 * (solver.forest().block_lo(id)[0] +
                   solver.forest().block_hi(id)[0]);
      ++n;
    }
    return sx / n;
  };
  ASSERT_GT(solver.forest().stats().max_level, 0);
  EXPECT_NEAR(finest_center_x(), 0.25, 0.15);

  // Advect half way across the domain with periodic re-adaptation.
  while (solver.time() < 0.25) {
    solver.step(std::min(solver.compute_dt(), 0.25 - solver.time()));
    solver.adapt(crit);
  }
  EXPECT_NEAR(finest_center_x(), 0.5, 0.15);
  // And the peak survived reasonably.
  double peak = 0.0;
  for (int id : solver.forest().leaves()) {
    ConstBlockView<2> v = solver.store().view(id);
    for_each_cell<2>(solver.store().layout().interior_box(), [&](IVec<2> p) {
      peak = std::max(peak, v.at(0, p));
    });
  }
  EXPECT_GT(peak, 1.5);
}

TEST(AmrSolver, AdaptReportsAndBalancesCounts) {
  LinearAdvection<2> phys;
  phys.velocity = {1.0, 0.0};
  AmrSolver<2, LinearAdvection<2>> solver(advection_cfg(), phys);
  solver.init([](const RVec<2>& x, LinearAdvection<2>::State& s) {
    s[0] = 1.0 + gaussian(x, 0.5, 0.5);
  });
  GradientCriterion<2> crit{0, 0.04, 0.01, 2};
  auto r1 = solver.adapt(crit);
  EXPECT_GT(r1.refined, 0);
  EXPECT_EQ(r1.coarsened, 0);
  const int leaves_after = solver.forest().num_leaves();
  EXPECT_EQ(leaves_after, 4 + 3 * r1.refined);
  // Flatten the field -> everything refined coarsens back.
  solver.init([](const RVec<2>&, LinearAdvection<2>::State& s) { s[0] = 1.0; });
  int total_coarsened = 0;
  for (int i = 0; i < 4; ++i) total_coarsened += solver.adapt(crit).coarsened;
  EXPECT_EQ(solver.forest().num_leaves(), 4);
  EXPECT_EQ(total_coarsened, r1.refined);
}

// RK2 with refluxing keeps three slabs per leaf: store, scratch and the
// stage-2 store. Refining a parent or coarsening its children must return
// their slabs in all three, or the arena grows with every regrid.
TEST(AmrSolver, RefluxedRk2HoldsThreeSlabsPerLeafAcrossRegrids) {
  LinearAdvection<2> phys;
  phys.velocity = {1.0, 0.6};
  auto cfg = advection_cfg(2, 8);
  cfg.forest.max_level = 3;
  cfg.flux_correction = true;
  AmrSolver<2, LinearAdvection<2>> solver(cfg, phys);
  solver.init([](const RVec<2>& x, LinearAdvection<2>::State& s) {
    s[0] = 1.0 + gaussian(x, 0.3, 0.4);
  });
  GradientCriterion<2> crit{0, 0.04, 0.01, 2};
  int refined = 0, coarsened = 0;
  for (int i = 0; i < 100; ++i) {
    solver.step(solver.compute_dt());
    ASSERT_EQ(solver.block_pool()->stats().slabs_in_use,
              3 * solver.forest().num_leaves())
        << "step " << i;
    const auto r = solver.adapt(crit);
    refined += r.refined;
    coarsened += r.coarsened;
  }
  EXPECT_GT(refined, 0);
  EXPECT_GT(coarsened, 0);
}

// ---------------------------------------------------------------- Euler

TEST(AmrSolver, SodShockTubeMatchesExactSolution) {
  // 1D Sod problem on a 2D grid (uniform in y), AMR tracking the waves.
  Euler<2> phys;
  AmrSolver<2, Euler<2>>::Config cfg;
  cfg.forest.root_blocks = {8, 1};
  cfg.forest.max_level = 2;
  cfg.forest.domain_lo = {0.0, 0.0};
  cfg.forest.domain_hi = {1.0, 0.125};
  cfg.cells_per_block = {8, 8};
  cfg.ghost = 2;
  cfg.cfl = 0.4;
  cfg.order = SpatialOrder::Second;
  cfg.limiter = LimiterKind::VanLeer;
  cfg.flux = FluxScheme::Hll;
  AmrSolver<2, Euler<2>> solver(cfg, phys);
  auto ic = [&](const RVec<2>& x, Euler<2>::State& s) {
    if (x[0] < 0.5)
      s = phys.from_primitive(1.0, {0.0, 0.0}, 1.0);
    else
      s = phys.from_primitive(0.125, {0.0, 0.0}, 0.1);
  };
  solver.init(ic);
  GradientCriterion<2> crit{0, 0.05, 0.01, 2};
  for (int i = 0; i < 2; ++i) {
    solver.adapt(crit);
    solver.init(ic);
  }
  const double t_end = 0.2;
  while (solver.time() < t_end) {
    solver.step(std::min(solver.compute_dt(), t_end - solver.time()));
    solver.adapt(crit);
  }
  // L1 density error against the exact Riemann solution.
  ExactRiemann exact({1.0, 0.0, 1.0}, {0.125, 0.0, 0.1});
  double err = 0.0, norm = 0.0;
  std::int64_t cells = 0;
  for (int id : solver.forest().leaves()) {
    ConstBlockView<2> v = solver.store().view(id);
    for_each_cell<2>(solver.store().layout().interior_box(),
                     [&](IVec<2> p) {
                       RVec<2> x = solver.cell_center(id, p);
                       auto q = exact.sample((x[0] - 0.5) / t_end);
                       err += std::fabs(v.at(0, p) - q.rho);
                       norm += q.rho;
                       ++cells;
                     });
  }
  EXPECT_LT(err / norm, 0.03) << "relative L1 density error too large";
  // Refinement followed the waves: more than one level in use.
  EXPECT_GT(solver.forest().stats().max_level, 0);
}

TEST(AmrSolver, EulerBlastStaysPositiveWithFix) {
  Euler<2> phys;
  AmrSolver<2, Euler<2>>::Config cfg;
  cfg.forest.root_blocks = {2, 2};
  cfg.forest.max_level = 2;
  cfg.cells_per_block = {8, 8};
  cfg.cfl = 0.3;
  cfg.apply_positivity_fix = true;
  AmrSolver<2, Euler<2>> solver(cfg, phys);
  solver.init([&](const RVec<2>& x, Euler<2>::State& s) {
    const double r2 = (x[0] - 0.5) * (x[0] - 0.5) +
                      (x[1] - 0.5) * (x[1] - 0.5);
    s = phys.from_primitive(1.0, {0.0, 0.0}, r2 < 0.01 ? 100.0 : 0.1);
  });
  for (int i = 0; i < 15; ++i) solver.step(solver.compute_dt());
  for (int id : solver.forest().leaves()) {
    ConstBlockView<2> v = solver.store().view(id);
    for_each_cell<2>(solver.store().layout().interior_box(), [&](IVec<2> p) {
      Euler<2>::State s;
      for (int k = 0; k < 4; ++k) s[k] = v.at(k, p);
      ASSERT_GT(s[0], 0.0);
      ASSERT_GT(phys.pressure(s), 0.0);
      ASSERT_TRUE(std::isfinite(s[3]));
    });
  }
}

// ---------------------------------------------------------------- MHD

TEST(AmrSolver, MhdUniformFieldIsSteady) {
  IdealMhd<2> phys;
  AmrSolver<2, IdealMhd<2>>::Config cfg;
  cfg.forest.root_blocks = {2, 2};
  cfg.forest.periodic = {true, true};
  cfg.cells_per_block = {8, 8};
  AmrSolver<2, IdealMhd<2>> solver(cfg, phys);
  solver.init([&](const RVec<2>&, IdealMhd<2>::State& s) {
    s = phys.from_primitive(1.0, {0.5, 0.2, 0.0}, {0.3, 0.4, 0.1}, 1.0);
  });
  for (int i = 0; i < 5; ++i) solver.step(solver.compute_dt());
  auto u0 = phys.from_primitive(1.0, {0.5, 0.2, 0.0}, {0.3, 0.4, 0.1}, 1.0);
  for (int id : solver.forest().leaves()) {
    ConstBlockView<2> v = solver.store().view(id);
    for_each_cell<2>(solver.store().layout().interior_box(), [&](IVec<2> p) {
      for (int k = 0; k < 8; ++k) EXPECT_NEAR(v.at(k, p), u0[k], 1e-12);
    });
  }
}

TEST(AmrSolver, BrioWuShockTubeQualitative) {
  // Brio & Wu (1988): rho L=1, p=1, By=1 | rho R=0.125, p=0.1, By=-1,
  // Bx=0.75. At t ~ 0.1 the density shows the compound-wave structure;
  // we check coarse features: density between bounds, left-moving fast
  // rarefaction reached, field reversal resolved.
  IdealMhd<2> phys;
  phys.gamma = 2.0;
  AmrSolver<2, IdealMhd<2>>::Config cfg;
  cfg.forest.root_blocks = {8, 1};
  cfg.forest.max_level = 2;
  cfg.forest.domain_hi = {1.0, 0.125};
  cfg.cells_per_block = {8, 8};
  cfg.cfl = 0.3;
  cfg.apply_positivity_fix = true;
  AmrSolver<2, IdealMhd<2>> solver(cfg, phys);
  auto ic = [&](const RVec<2>& x, IdealMhd<2>::State& s) {
    if (x[0] < 0.5)
      s = phys.from_primitive(1.0, {0, 0, 0}, {0.75, 1.0, 0.0}, 1.0);
    else
      s = phys.from_primitive(0.125, {0, 0, 0}, {0.75, -1.0, 0.0}, 0.1);
  };
  solver.init(ic);
  GradientCriterion<2> crit{0, 0.05, 0.01, 2};
  for (int i = 0; i < 2; ++i) {
    solver.adapt(crit);
    solver.init(ic);
  }
  const double t_end = 0.1;
  while (solver.time() < t_end) {
    solver.step(std::min(solver.compute_dt(), t_end - solver.time()));
    solver.adapt(crit);
  }
  double rho_min = 1e30, rho_max = -1e30, by_left = 0, by_right = 0;
  for (int id : solver.forest().leaves()) {
    ConstBlockView<2> v = solver.store().view(id);
    for_each_cell<2>(solver.store().layout().interior_box(), [&](IVec<2> p) {
      RVec<2> x = solver.cell_center(id, p);
      const double rho = v.at(0, p);
      rho_min = std::min(rho_min, rho);
      rho_max = std::max(rho_max, rho);
      if (x[0] < 0.05) by_left = v.at(5, p);
      if (x[0] > 0.95) by_right = v.at(5, p);
    });
  }
  EXPECT_GT(rho_min, 0.05);
  EXPECT_LT(rho_max, 1.1);
  EXPECT_NEAR(by_left, 1.0, 1e-6);    // undisturbed far field
  EXPECT_NEAR(by_right, -1.0, 1e-6);
  EXPECT_GT(solver.total_flops(), 0u);
}

// A corrupt cell (NaN, rho < 0 whose sound speed is NaN, or NaN energy)
// must stop compute_dt rather than vanish from the CFL max and step at the
// clean cells' dt.
template <class Phys>
void expect_compute_dt_rejects_corrupt_cell(const Phys& phys,
                                            typename Phys::State clean) {
  typename AmrSolver<3, Phys>::Config cfg;
  cfg.forest.root_blocks = {2, 1, 1};
  cfg.forest.periodic = {true, true, true};
  cfg.cells_per_block = {4, 4, 4};
  cfg.num_threads = 2;
  // (variable, corrupt value): NaN density, negative density, NaN energy
  // (a NaN pressure, which a `p > 0 ? p : 0` clamp turns into a finite
  // sound speed).
  const std::pair<int, double> corruptions[] = {
      {0, std::nan("")}, {0, -clean[0]}, {Phys::ieng(), std::nan("")}};
  for (const auto& [var, bad] : corruptions) {
    AmrSolver<3, Phys> solver(cfg, phys);
    solver.init([&](const RVec<3>& x, typename Phys::State& s) {
      s = clean;
      if (x[0] > 0.5 && x[0] < 0.625 && x[1] < 0.25 && x[2] < 0.25)
        s[var] = bad;  // one cell of the second root block
    });
    try {
      solver.compute_dt();
      ADD_FAILURE() << "compute_dt accepted a corrupt cell (var " << var
                    << " = " << bad << ")";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite wave speed in block"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(AmrSolver, ComputeDtRejectsNonFiniteWaveSpeed) {
  IdealMhd<3> mhd;
  expect_compute_dt_rejects_corrupt_cell(
      mhd, mhd.from_primitive(1.0, {0.1, 0.2, 0.3}, {0.3, 0.2, 0.1}, 1.0));
  Euler<3> euler;
  expect_compute_dt_rejects_corrupt_cell(
      euler, euler.from_primitive(1.0, {0.1, 0.2, 0.3}, 1.0));
}

TEST(AmrSolver, RejectsBadConfig) {
  LinearAdvection<2> phys;
  auto cfg = advection_cfg();
  cfg.rk_stages = 3;
  EXPECT_THROW((AmrSolver<2, LinearAdvection<2>>(cfg, phys)), Error);
  cfg = advection_cfg();
  cfg.ghost = 1;  // too few for second order
  EXPECT_THROW((AmrSolver<2, LinearAdvection<2>>(cfg, phys)), Error);
}

TEST(AmrSolver, CellCenterGeometry) {
  LinearAdvection<2> phys;
  auto cfg = advection_cfg(2, 8);
  AmrSolver<2, LinearAdvection<2>> solver(cfg, phys);
  int id = solver.forest().find(0, {0, 0});
  RVec<2> x = solver.cell_center(id, {0, 0});
  EXPECT_DOUBLE_EQ(x[0], 0.03125);  // dx = 0.5/8, center of first cell
  EXPECT_DOUBLE_EQ(x[1], 0.03125);
  RVec<2> dx = solver.cell_dx(1);
  EXPECT_DOUBLE_EQ(dx[0], 0.03125);
}

}  // namespace
}  // namespace ab
