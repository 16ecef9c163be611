// End-to-end determinism of the stage loop on the thread pool: multi-step
// threaded AMR runs (adaptation, subcycling, flux correction, positivity
// fix) must be bit-identical to the serial num_threads = 1 path for every
// thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "amr/solver.hpp"
#include "physics/euler.hpp"
#include "physics/mhd.hpp"

namespace ab {
namespace {

struct RunOpts {
  int threads = 1;
  int steps = 8;
  int rk_stages = 2;
  bool flux_correction = false;
  bool subcycling = false;
  bool positivity = false;
  int refine_var = 0;  ///< the variable whose gradient drives adaptation
};

// The blocks one stage loop runs over: every leaf, or with subcycling the
// leaves of the finest level.
std::int64_t fan_out_blocks(const Forest<2>& forest, bool subcycling) {
  if (!subcycling) return forest.num_leaves();
  const int finest = forest.stats().max_level;
  std::int64_t n = 0;
  for (int id : forest.leaves()) n += forest.level(id) == finest ? 1 : 0;
  return n;
}

template <class Phys, class Ic>
std::vector<double> run(Phys phys, const Ic& ic, const RunOpts& o) {
  typename AmrSolver<2, Phys>::Config cfg;
  cfg.forest.root_blocks = {2, 2};
  cfg.forest.periodic = {true, true};
  cfg.forest.max_level = 2;
  cfg.cells_per_block = {8, 8};
  cfg.num_threads = o.threads;
  cfg.rk_stages = o.rk_stages;
  cfg.flux_correction = o.flux_correction;
  cfg.subcycling = o.subcycling;
  cfg.apply_positivity_fix = o.positivity;
  AmrSolver<2, Phys> solver(cfg, phys);
  solver.init(ic);
  GradientCriterion<2> crit{o.refine_var, 0.05, 0.01, 2};
  solver.adapt(crit);
  solver.init(ic);
  for (int i = 0; i < o.steps; ++i) {
    // More blocks than the pool runs inline, so a threaded step's block
    // loops really fan out; with subcycling, the loops of the finest
    // level do.
    EXPECT_GT(fan_out_blocks(solver.forest(), o.subcycling),
              ThreadPool::kSerialCutoff);
    solver.step(solver.compute_dt());
    if (i % 3 == 2) solver.adapt(crit);
  }
  std::vector<double> out;
  for (int id : solver.forest().leaves()) {
    ConstBlockView<2> v = solver.store().view(id);
    out.push_back(static_cast<double>(solver.forest().level(id)));
    for_each_cell<2>(solver.store().layout().interior_box(), [&](IVec<2> p) {
      for (int k = 0; k < Phys::NVAR; ++k) out.push_back(v.at(k, p));
    });
  }
  return out;
}

Euler<2> euler;
auto euler_ic = [](const RVec<2>& x, Euler<2>::State& s) {
  const double dx = x[0] - 0.5, dy = x[1] - 0.5;
  s = euler.from_primitive(1.0 + 0.8 * std::exp(-40 * (dx * dx + dy * dy)),
                           {0.4, -0.3}, 1.0);
};

void expect_matches_serial(const RunOpts& threaded) {
  RunOpts serial = threaded;
  serial.threads = 1;
  auto ref = run<Euler<2>>(euler, euler_ic, serial);
  auto got = run<Euler<2>>(euler, euler_ic, threaded);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(ref[i], got[i]) << "element " << i;
}

class DeterminismThreads : public ::testing::TestWithParam<int> {};

TEST_P(DeterminismThreads, Rk2WithAdaptAndPositivity) {
  RunOpts o;
  o.threads = GetParam();
  o.positivity = true;
  expect_matches_serial(o);
}

TEST_P(DeterminismThreads, Rk2WithFluxCorrection) {
  RunOpts o;
  o.threads = GetParam();
  o.flux_correction = true;
  o.positivity = true;
  expect_matches_serial(o);
}

TEST_P(DeterminismThreads, SubcyclingRk1) {
  RunOpts o;
  o.threads = GetParam();
  o.rk_stages = 1;
  o.subcycling = true;
  o.positivity = true;
  expect_matches_serial(o);
}

TEST_P(DeterminismThreads, MhdRk2WithFluxCorrection) {
  IdealMhd<2> phys;
  auto ic = [&](const RVec<2>& x, IdealMhd<2>::State& s) {
    const double dx = x[0] - 0.5, dy = x[1] - 0.5;
    s = phys.from_primitive(1.0, {0.1, 0.0, 0.0}, {0.3, 0.3, 0.0},
                            1.0 + 2.0 * std::exp(-40 * (dx * dx + dy * dy)));
  };
  RunOpts o;
  o.threads = GetParam();
  o.flux_correction = true;
  o.steps = 6;
  // The density is uniform: refine on the energy, which carries the
  // pressure blob, so the mesh has coarse/fine faces to reflux.
  o.refine_var = IdealMhd<2>::ieng();
  RunOpts s = o;
  s.threads = 1;
  auto ref = run<IdealMhd<2>>(phys, ic, s);
  auto got = run<IdealMhd<2>>(phys, ic, o);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(ref[i], got[i]) << "element " << i;
}

INSTANTIATE_TEST_SUITE_P(Threads, DeterminismThreads,
                         ::testing::Values(2, 3, 4));

// compute_dt's threaded min-reduction must agree exactly with serial.
TEST(Determinism, ComputeDtMatchesSerial) {
  for (bool sub : {false, true}) {
    RunOpts base;
    base.rk_stages = sub ? 1 : 2;
    base.subcycling = sub;
    typename AmrSolver<2, Euler<2>>::Config cfg;
    cfg.forest.root_blocks = {2, 2};
    cfg.forest.periodic = {true, true};
    cfg.forest.max_level = 2;
    cfg.cells_per_block = {8, 8};
    cfg.rk_stages = base.rk_stages;
    cfg.subcycling = sub;
    double ref = 0.0;
    for (int threads : {1, 2, 4}) {
      cfg.num_threads = threads;
      AmrSolver<2, Euler<2>> solver(cfg, euler);
      solver.init(euler_ic);
      GradientCriterion<2> crit{0, 0.05, 0.01, 2};
      solver.adapt(crit);
      solver.init(euler_ic);
      const double dt = solver.compute_dt();
      if (threads == 1)
        ref = dt;
      else
        ASSERT_EQ(dt, ref) << "threads " << threads << " sub " << sub;
    }
  }
}

}  // namespace
}  // namespace ab
