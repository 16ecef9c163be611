#include "core/regrid_data.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "support/regrid_reference.hpp"
#include "support/rng.hpp"

namespace ab {
namespace {

struct Fixture {
  Forest<2>::Config cfg;
  Forest<2> forest;
  BlockLayout<2> lay;
  BlockStore<2> store;

  Fixture()
      : cfg(make_cfg()), forest(cfg), lay({4, 4}, 2, 2), store(lay) {
    for (int id : forest.leaves()) store.ensure(id);
  }
  static Forest<2>::Config make_cfg() {
    Forest<2>::Config c;
    c.root_blocks = {1, 1};
    c.max_level = 4;
    return c;
  }

  void fill(int id, const std::function<double(RVec<2>, int)>& f) {
    BlockView<2> v = store.view(id);
    RVec<2> lo = forest.block_lo(id);
    RVec<2> dx = forest.block_size(forest.level(id));
    for (int d = 0; d < 2; ++d) dx[d] /= lay.interior[d];
    for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
      RVec<2> x{lo[0] + (p[0] + 0.5) * dx[0], lo[1] + (p[1] + 0.5) * dx[1]};
      for (int var = 0; var < lay.nvar; ++var) v.at(var, p) = f(x, var);
    });
  }

  double integral(int id, int var) const {
    RVec<2> dx = forest.block_size(forest.level(id));
    for (int d = 0; d < 2; ++d) dx[d] /= lay.interior[d];
    double s = 0.0;
    ConstBlockView<2> v = store.view(id);
    for_each_cell<2>(lay.interior_box(),
                     [&](IVec<2> p) { s += v.at(var, p); });
    return s * dx[0] * dx[1];
  }
};

TEST(RegridData, ProlongConservesIntegralConstant) {
  Fixture fx;
  int root = fx.forest.leaves()[0];
  fx.fill(root, [](RVec<2>, int var) { return 4.0 + var; });
  const double before = fx.integral(root, 0);
  auto events = fx.forest.refine(root);
  ASSERT_EQ(events.size(), 1u);
  prolong_to_children<2>(fx.store, events[0], Prolongation::Constant);
  EXPECT_FALSE(fx.store.has(root));
  double after = 0.0;
  for (int c : events[0].children) {
    ASSERT_TRUE(fx.store.has(c));
    after += fx.integral(c, 0);
  }
  EXPECT_NEAR(after, before, 1e-14);
  // Constant field stays exactly constant on children.
  for (int c : events[0].children) {
    ConstBlockView<2> v = std::as_const(fx.store).view(c);
    for_each_cell<2>(fx.lay.interior_box(), [&](IVec<2> p) {
      EXPECT_EQ(v.at(0, p), 4.0);
      EXPECT_EQ(v.at(1, p), 5.0);
    });
  }
}

TEST(RegridData, LimitedLinearProlongConservesIntegral) {
  Fixture fx;
  int root = fx.forest.leaves()[0];
  fx.fill(root, [](RVec<2> x, int) {
    return std::sin(3.0 * x[0]) + x[1] * x[1];
  });
  const double before = fx.integral(root, 0);
  auto events = fx.forest.refine(root);
  prolong_to_children<2>(fx.store, events[0], Prolongation::LimitedLinear);
  double after = 0.0;
  for (int c : events[0].children) after += fx.integral(c, 0);
  EXPECT_NEAR(after, before, 1e-13);
}

TEST(RegridData, LimitedLinearProlongExactForLinear) {
  Fixture fx;
  int root = fx.forest.leaves()[0];
  auto fn = [](RVec<2> x, int) { return 2.0 * x[0] - 3.0 * x[1] + 0.5; };
  fx.fill(root, fn);
  auto events = fx.forest.refine(root);
  prolong_to_children<2>(fx.store, events[0], Prolongation::LimitedLinear);
  // Interior fine cells (slope stencil unclamped) reproduce the linear
  // function exactly: parent cells 1..m-2 in each dim.
  for (int c : events[0].children) {
    ConstBlockView<2> v = std::as_const(fx.store).view(c);
    RVec<2> lo = fx.forest.block_lo(c);
    RVec<2> dx = fx.forest.block_size(fx.forest.level(c));
    dx[0] /= 4;
    dx[1] /= 4;
    const int ci = fx.forest.child_index(c);
    for_each_cell<2>(fx.lay.interior_box(), [&](IVec<2> p) {
      // Parent cell of this fine cell.
      bool clamped = false;
      for (int d = 0; d < 2; ++d) {
        const int gf = p[d] + ((ci >> d) & 1) * 4;
        const int cc = gf >> 1;
        if (cc == 0 || cc == 3) clamped = true;
      }
      if (clamped) return;
      RVec<2> x{lo[0] + (p[0] + 0.5) * dx[0], lo[1] + (p[1] + 0.5) * dx[1]};
      EXPECT_NEAR(v.at(0, p), fn(x, 0), 1e-13);
    });
  }
}

TEST(RegridData, RestrictToParentIsExactInverseOfConstantProlong) {
  Fixture fx;
  int root = fx.forest.leaves()[0];
  auto fn = [](RVec<2> x, int var) {
    return std::cos(2.0 * x[0]) * (1.0 + x[1]) + var;
  };
  fx.fill(root, fn);
  std::vector<double> original(16 * 2);
  {
    ConstBlockView<2> v = std::as_const(fx.store).view(root);
    int k = 0;
    for (int var = 0; var < 2; ++var)
      for_each_cell<2>(fx.lay.interior_box(),
                       [&](IVec<2> p) { original[k++] = v.at(var, p); });
  }
  auto events = fx.forest.refine(root);
  prolong_to_children<2>(fx.store, events[0], Prolongation::Constant);
  restrict_to_parent<2>(fx.store, root, events[0].children);
  // Children released, parent restored bit-for-bit (average of 4 equal
  // copies of the parent value).
  for (int c : events[0].children) EXPECT_FALSE(fx.store.has(c));
  ConstBlockView<2> v = std::as_const(fx.store).view(root);
  int k = 0;
  for (int var = 0; var < 2; ++var)
    for_each_cell<2>(fx.lay.interior_box(), [&](IVec<2> p) {
      EXPECT_DOUBLE_EQ(v.at(var, p), original[k++]);
    });
}

TEST(RegridData, RestrictConservesIntegral) {
  Fixture fx;
  int root = fx.forest.leaves()[0];
  auto events = fx.forest.refine(root);
  // Fill children directly with a non-trivial field.
  double before = 0.0;
  for (int c : events[0].children) {
    fx.store.ensure(c);
    fx.fill(c, [](RVec<2> x, int) { return x[0] * x[0] + 3.0 * x[1]; });
    before += fx.integral(c, 0);
  }
  restrict_to_parent<2>(fx.store, root, events[0].children);
  EXPECT_NEAR(fx.integral(root, 0), before, 1e-14);
}

TEST(RegridData, RoundTripLimitedLinearPreservesLinearExactly) {
  Fixture fx;
  int root = fx.forest.leaves()[0];
  auto fn = [](RVec<2> x, int) { return 7.0 * x[0] + 2.0 * x[1]; };
  fx.fill(root, fn);
  auto events = fx.forest.refine(root);
  prolong_to_children<2>(fx.store, events[0], Prolongation::LimitedLinear);
  restrict_to_parent<2>(fx.store, root, events[0].children);
  // restrict(prolong(u)) == u for ANY prolongation that conserves each
  // coarse cell's total — including at clamped stencils.
  ConstBlockView<2> v = std::as_const(fx.store).view(root);
  RVec<2> dx{0.25, 0.25};
  for_each_cell<2>(fx.lay.interior_box(), [&](IVec<2> p) {
    RVec<2> x{(p[0] + 0.5) * dx[0], (p[1] + 0.5) * dx[1]};
    EXPECT_NEAR(v.at(0, p), fn(x, 0), 1e-13);
  });
}

TEST(RegridData, RejectsOddExtents) {
  Forest<2>::Config c;
  c.root_blocks = {1, 1};
  Forest<2> f(c);
  BlockLayout<2> lay({6, 3}, 1, 1);  // odd in y
  BlockStore<2> store(lay);
  int root = f.leaves()[0];
  store.ensure(root);
  auto events = f.refine(root);
  EXPECT_THROW(
      prolong_to_children<2>(store, events[0], Prolongation::Constant),
      Error);
}

TEST(RegridData, ProlongRequiresParentData) {
  Fixture fx;
  int root = fx.forest.leaves()[0];
  fx.store.release(root);
  auto events = fx.forest.refine(root);
  EXPECT_THROW(
      prolong_to_children<2>(fx.store, events[0], Prolongation::Constant),
      Error);
}

// The row transfer (the ghost executor's rows) writes exactly the per-cell
// reference's bytes, and nothing outside the target interior: whole blocks
// (ghosts and padding included, pre-filled with a sentinel) are compared
// bitwise. Parent data has sign changes and ties so minmod takes every
// branch; non-cubic extents catch a swapped stride.
template <int D>
void check_transfer_rows(Prolongation kind, int pad0) {
  SCOPED_TRACE("D=" + std::to_string(D) + " kind=" +
               std::to_string(static_cast<int>(kind)) +
               " pad0=" + std::to_string(pad0));
  typename Forest<D>::Config c;
  c.root_blocks = IVec<D>(1);
  c.max_level = 2;
  Forest<D> f(c);
  IVec<D> m;
  for (int d = 0; d < D; ++d) m[d] = 4 + 2 * d;
  const BlockLayout<D> lay(m, 2, 3, pad0);
  BlockStore<D> rows(lay), ref(lay);
  const auto n = static_cast<std::size_t>(lay.block_doubles());
  testing::SplitMix64 rng(40 + D);
  auto fill_random = [&](int id) {
    double* a = rows.view(id).base;
    double* b = ref.view(id).base;
    for (std::size_t i = 0; i < n; ++i)
      a[i] = b[i] = rng.below(5) == 0 ? 0.5 : rng.uniform(-1.0, 1.0);
  };
  auto fill_sentinel = [&](BlockStore<D>& s, int id) {
    double* a = s.view(id).base;
    for (std::size_t i = 0; i < n; ++i) a[i] = -7.25;
  };
  auto expect_same_block = [&](int id) {
    EXPECT_EQ(std::memcmp(std::as_const(rows).view(id).base,
                          std::as_const(ref).view(id).base,
                          n * sizeof(double)),
              0)
        << "block " << id;
  };

  const int root = f.leaves()[0];
  rows.ensure(root);
  ref.ensure(root);
  fill_random(root);
  const auto ev = f.refine(root)[0];
  for (int ch : ev.children) {
    rows.ensure(ch);
    ref.ensure(ch);
    fill_sentinel(rows, ch);
    fill_sentinel(ref, ch);
  }
  prolong_to_children<D>(rows, ev, kind);
  prolong_to_children_reference<D>(ref, root, ev.children, kind);
  for (int ch : ev.children) expect_same_block(ch);

  for (int ch : ev.children) fill_random(ch);
  rows.ensure(root);
  fill_sentinel(rows, root);
  fill_sentinel(ref, root);
  restrict_to_parent<D>(rows, root, ev.children);
  restrict_to_parent_reference<D>(ref, root, ev.children);
  expect_same_block(root);
}

TEST(RegridData, RowTransferMatchesPerCellReference) {
  for (Prolongation kind : {Prolongation::Constant,
                            Prolongation::LimitedLinear, Prolongation::Linear})
    for (int pad0 : {0, 1}) {
      check_transfer_rows<1>(kind, pad0);
      check_transfer_rows<2>(kind, pad0);
      check_transfer_rows<3>(kind, pad0);
    }
}

}  // namespace
}  // namespace ab
