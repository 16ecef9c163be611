#include "amr/criteria.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "support/criteria_reference.hpp"
#include "support/rng.hpp"

namespace ab {
namespace {

struct Fixture {
  Forest<2>::Config cfg;
  Forest<2> forest;
  BlockLayout<2> lay;
  BlockStore<2> store;

  Fixture() : cfg(make_cfg()), forest(cfg), lay({4, 4}, 2, 1), store(lay) {
    for (int id : forest.leaves()) store.ensure(id);
  }
  static Forest<2>::Config make_cfg() {
    Forest<2>::Config c;
    c.root_blocks = {2, 2};
    c.max_level = 3;
    return c;
  }
};

TEST(Criteria, MaxRelativeJumpZeroForConstant) {
  Fixture fx;
  for (int id : fx.forest.leaves()) {
    BlockView<2> v = fx.store.view(id);
    for_each_cell<2>(fx.lay.interior_box(),
                     [&](IVec<2> p) { v.at(0, p) = 5.0; });
    EXPECT_EQ(max_relative_jump<2>(fx.store, id, 0), 0.0);
  }
}

TEST(Criteria, MaxRelativeJumpDetectsStep) {
  Fixture fx;
  int id = fx.forest.leaves()[0];
  BlockView<2> v = fx.store.view(id);
  for_each_cell<2>(fx.lay.interior_box(),
                   [&](IVec<2> p) { v.at(0, p) = p[0] < 2 ? 1.0 : 3.0; });
  // Jump 2 against scale max(1,3)=3.
  EXPECT_NEAR(max_relative_jump<2>(fx.store, id, 0), 2.0 / 3.0, 1e-14);
}

TEST(Criteria, MaxRelativeJumpUsesFloorNearZero) {
  Fixture fx;
  int id = fx.forest.leaves()[0];
  BlockView<2> v = fx.store.view(id);
  for_each_cell<2>(fx.lay.interior_box(),
                   [&](IVec<2> p) { v.at(0, p) = p[0] < 2 ? 0.0 : 1e-15; });
  // With floor 1e-12 the relative jump is 1e-15/1e-12 = 1e-3, not huge.
  EXPECT_NEAR(max_relative_jump<2>(fx.store, id, 0, 1e-12), 1e-3, 1e-9);
}

TEST(Criteria, GradientCriterionFlagsCorrectly) {
  Fixture fx;
  GradientCriterion<2> crit;
  crit.refine_threshold = 0.5;
  crit.coarsen_threshold = 0.01;
  crit.max_level = 3;
  // Block 0: big step -> refine.
  int a = fx.forest.leaves()[0];
  BlockView<2> va = fx.store.view(a);
  for_each_cell<2>(fx.lay.interior_box(),
                   [&](IVec<2> p) { va.at(0, p) = p[0] < 2 ? 1.0 : 100.0; });
  EXPECT_EQ(crit(fx.forest, fx.store, a), AdaptFlag::Refine);
  // Block 1: constant at level 0 -> Keep (cannot coarsen below the roots).
  int b = fx.forest.leaves()[1];
  BlockView<2> vb = fx.store.view(b);
  for_each_cell<2>(fx.lay.interior_box(),
                   [&](IVec<2> p) { vb.at(0, p) = 2.0; });
  EXPECT_EQ(crit(fx.forest, fx.store, b), AdaptFlag::Keep);
}

TEST(Criteria, GradientCriterionRespectsMaxLevel) {
  Fixture fx;
  GradientCriterion<2> crit;
  crit.refine_threshold = 0.5;
  crit.max_level = 0;  // nothing may refine
  int a = fx.forest.leaves()[0];
  BlockView<2> va = fx.store.view(a);
  for_each_cell<2>(fx.lay.interior_box(),
                   [&](IVec<2> p) { va.at(0, p) = p[0] < 2 ? 1.0 : 100.0; });
  EXPECT_EQ(crit(fx.forest, fx.store, a), AdaptFlag::Keep);
}

TEST(Criteria, GradientCriterionCoarsensSmoothRefinedBlocks) {
  Fixture fx;
  fx.forest.refine(fx.forest.leaves()[0]);
  GradientCriterion<2> crit;
  crit.coarsen_threshold = 0.1;
  for (int id : fx.forest.leaves()) {
    if (fx.forest.level(id) == 0) continue;
    fx.store.ensure(id);
    BlockView<2> v = fx.store.view(id);
    for_each_cell<2>(fx.lay.interior_box(),
                     [&](IVec<2> p) { v.at(0, p) = 1.0; });
    EXPECT_EQ(crit(fx.forest, fx.store, id), AdaptFlag::Coarsen);
  }
}

TEST(Criteria, RegionCriterionRefinesIntersectingBlocks) {
  Fixture fx;
  RegionCriterion<2> crit;
  crit.max_level = 2;
  crit.intersects = [](const RVec<2>& lo, const RVec<2>& hi) {
    // A point feature at (0.25, 0.25).
    return lo[0] <= 0.25 && 0.25 <= hi[0] && lo[1] <= 0.25 && 0.25 <= hi[1];
  };
  int hit = 0, miss = 0;
  for (int id : fx.forest.leaves()) {
    auto f = crit(fx.forest, fx.store, id);
    if (f == AdaptFlag::Refine)
      ++hit;
    else
      ++miss;
  }
  EXPECT_EQ(hit, 1);
  EXPECT_EQ(miss, 3);
}

}  // namespace
}  // namespace ab

namespace ab {
namespace {

TEST(Criteria, CombinedRefineWinsCoarsenNeedsConsensus) {
  Fixture fx;
  using C = CombinedCriterion<2>;
  auto always = [](AdaptFlag f) {
    return [f](const Forest<2>&, const BlockStore<2>&, int) { return f; };
  };
  const int b = fx.forest.leaves()[0];
  C c1{{always(AdaptFlag::Refine), always(AdaptFlag::Coarsen)}};
  EXPECT_EQ(c1(fx.forest, fx.store, b), AdaptFlag::Refine);
  C c2{{always(AdaptFlag::Coarsen), always(AdaptFlag::Coarsen)}};
  EXPECT_EQ(c2(fx.forest, fx.store, b), AdaptFlag::Coarsen);
  C c3{{always(AdaptFlag::Coarsen), always(AdaptFlag::Keep)}};
  EXPECT_EQ(c3(fx.forest, fx.store, b), AdaptFlag::Keep);
  C empty{};
  EXPECT_EQ(empty(fx.forest, fx.store, b), AdaptFlag::Keep);
}

TEST(Criteria, CurlZeroForIrrotationalField) {
  Fixture fx;  // nvar = 1 is too few; rebuild a 2-var store
  BlockLayout<2> lay({8, 8}, 1, 2);
  BlockStore<2> store(lay);
  const int b = fx.forest.leaves()[0];
  store.ensure(b);
  BlockView<2> v = store.view(b);
  for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
    v.at(0, p) = 3.0 * p[0];   // vx = 3x
    v.at(1, p) = -2.0 * p[1];  // vy = -2y : curl = 0
  });
  EXPECT_NEAR(max_undivided_curl<2>(store, b, 0), 0.0, 1e-13);
}

TEST(Criteria, CurlDetectsShearLayer) {
  Fixture fx;
  BlockLayout<2> lay({8, 8}, 1, 2);
  BlockStore<2> store(lay);
  const int b = fx.forest.leaves()[0];
  store.ensure(b);
  BlockView<2> v = store.view(b);
  for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
    v.at(0, p) = p[1] < 4 ? 1.0 : -1.0;  // vx jumps across y = 4
    v.at(1, p) = 0.0;
  });
  EXPECT_GT(max_undivided_curl<2>(store, b, 0), 0.5);
}

TEST(Criteria, CurlThreeDimensional) {
  Forest<3>::Config c;
  c.root_blocks = {1, 1, 1};
  Forest<3> forest(c);
  BlockLayout<3> lay({4, 4, 4}, 1, 3);
  BlockStore<3> store(lay);
  const int b = forest.leaves()[0];
  store.ensure(b);
  BlockView<3> v = store.view(b);
  // v = (-y, x, 0): curl = (0, 0, 2) -> undivided curl magnitude 2.
  for_each_cell<3>(lay.interior_box(), [&](IVec<3> p) {
    v.at(0, p) = -static_cast<double>(p[1]);
    v.at(1, p) = static_cast<double>(p[0]);
    v.at(2, p) = 0.0;
  });
  EXPECT_NEAR(max_undivided_curl<3>(store, b, 0), 2.0, 1e-12);
}

// The row-form criteria return the per-cell reference's value bit for bit
// on padded layouts: random data with ties, zeros, values below the jump
// floor, and (in the second pass) NaNs. The ghost ring holds huge values,
// so a stencil that read past the interior would change the result.
template <int D>
void check_criteria_rows(int pad0, bool with_nan) {
  SCOPED_TRACE("D=" + std::to_string(D) + " pad0=" + std::to_string(pad0) +
               (with_nan ? " nan" : ""));
  typename Forest<D>::Config c;
  c.root_blocks = IVec<D>(1);
  Forest<D> f(c);
  IVec<D> m;
  for (int d = 0; d < D; ++d) m[d] = 5 + d;
  const BlockLayout<D> lay(m, 2, 2, pad0);
  BlockStore<D> store(lay);
  const int id = f.leaves()[0];
  store.ensure(id);
  BlockView<D> v = store.view(id);
  testing::SplitMix64 rng(17 + D + 2 * pad0);
  for (int var = 0; var < lay.nvar; ++var)
    for_each_cell<D>(lay.ghosted_box(), [&](IVec<D> p) { v.at(var, p) = 1e6; });
  for (int var = 0; var < lay.nvar; ++var)
    for_each_cell<D>(lay.interior_box(), [&](IVec<D> p) {
      const auto r = rng.below(8);
      double x = rng.uniform(-2.0, 2.0);
      if (r == 0) x = 0.0;
      if (r == 1) x = 1.5;  // ties
      if (r == 2) x = 1e-14;  // below the jump floor
      if (with_nan && r == 3) x = std::numeric_limits<double>::quiet_NaN();
      v.at(var, p) = x;
    });
  for (int var = 0; var < lay.nvar; ++var) {
    const double a = max_relative_jump<D>(store, id, var);
    const double b = max_relative_jump_reference<D>(store, id, var);
    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << a << " vs " << b;
    const double e = max_lohner_estimate<D>(store, id, var);
    const double r = max_lohner_estimate_reference<D>(store, id, var);
    EXPECT_EQ(std::memcmp(&e, &r, sizeof e), 0) << e << " vs " << r;
  }
}

TEST(Criteria, RowFormsMatchPerCellReference) {
  for (int pad0 : {0, 1})
    for (bool nan : {false, true}) {
      check_criteria_rows<2>(pad0, nan);
      check_criteria_rows<3>(pad0, nan);
    }
}

}  // namespace
}  // namespace ab
