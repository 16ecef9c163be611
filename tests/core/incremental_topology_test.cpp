// Property test: the incrementally maintained topology — leaf order,
// neighbor table, ghost-exchange plan, flux-correction plan — equals a
// full rebuild of the same topology after every adapt.
//
// Each adapt applies a random batch of refines (with constraint cascades)
// and coarsenings, then brings the structures up to date the way the
// solvers do. The reference is a copy of the forest with every node marked
// touched, and a fresh exchanger and register planned on it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "amr/flux_register.hpp"
#include "core/forest.hpp"
#include "core/ghost.hpp"
#include "support/rng.hpp"

namespace ab {
namespace {

using testing::SplitMix64;

template <int D>
struct Case {
  IVec<D> roots;
  bool periodic;
  int max_level;
  bool masked;  // drop one root block (faces toward it are boundaries)
};

template <int D>
typename Forest<D>::Config config_of(const Case<D>& c) {
  typename Forest<D>::Config cfg;
  cfg.root_blocks = c.roots;
  cfg.max_level = c.max_level;
  for (int d = 0; d < D; ++d) cfg.periodic[d] = c.periodic;
  if (c.masked)
    cfg.root_active = [](IVec<D> p) {
      for (int d = 0; d < D; ++d)
        if (p[d] != 1) return true;
      return false;
    };
  return cfg;
}

template <int D>
BlockLayout<D> test_layout() {
  return BlockLayout<D>(IVec<D>(4), 2, 1, 0);
}

/// One random adapt: a batch of refine/coarsen attempts on random leaves.
template <int D>
void random_adapt(Forest<D>& f, SplitMix64& rng) {
  const int n = 1 + static_cast<int>(rng.below(6));
  for (int i = 0; i < n; ++i) {
    const auto& leaves = f.leaves();
    const int id = leaves[rng.below(leaves.size())];
    if (rng.below(5) < 3) {
      if (f.level(id) < f.config().max_level) f.refine(id);
    } else {
      const int p = f.parent(id);
      if (p >= 0 && f.can_coarsen(p)) f.coarsen(p);
    }
  }
}

template <int D>
void expect_same_ops(const std::vector<GhostOp<D>>& a,
                     const std::vector<GhostOp<D>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_EQ(a[i].face_dim, b[i].face_dim);
    EXPECT_EQ(a[i].face_side, b[i].face_side);
    EXPECT_TRUE(a[i].dst_box == b[i].dst_box);
    EXPECT_TRUE(a[i].a == b[i].a);
    EXPECT_TRUE(a[i].b == b[i].b);
    EXPECT_TRUE(a[i].valid == b[i].valid) << "dst " << a[i].dst;
  }
}

/// Everything the incremental path maintains equals the full rebuild.
template <int D>
void expect_equal_to_full_rebuild(const Forest<D>& f,
                                  const GhostExchanger<D>& gx,
                                  const FluxRegister<D>& fr) {
  Forest<D> full = f;
  full.touch_all();
  full.rebuild_neighbor_table();
  GhostExchanger<D> gy(full, gx.layout(), gx.prolongation());
  FluxRegister<D> fy(full, gx.layout());
  fy.rebuild(gy);

  // Leaf order.
  ASSERT_EQ(f.leaves(), full.leaves());

  // Neighbor table, also against direct lookup.
  ASSERT_TRUE(f.neighbor_table_valid());
  for (int id : f.leaves())
    for (int dim = 0; dim < D; ++dim)
      for (int side = 0; side < 2; ++side) {
        const auto& a = f.neighbor(id, dim, side);
        const auto& b = full.neighbor(id, dim, side);
        const auto c = f.face_neighbor(id, dim, side);
        ASSERT_EQ(a.kind, b.kind) << "leaf " << id << " face " << dim << side;
        ASSERT_EQ(a.kind, c.kind) << "leaf " << id << " face " << dim << side;
        for (int k = 0; k < a.count(); ++k) {
          EXPECT_EQ(a.ids[k], b.ids[k]);
          EXPECT_EQ(a.ids[k], c.ids[k]);
        }
      }

  // Ghost plan.
  expect_same_ops<D>(gx.ops(), gy.ops());
  EXPECT_EQ(gx.exec_order(), gy.exec_order());
  EXPECT_EQ(gx.phase1_count(), gy.phase1_count());
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(gx.plan_stats().ops[k], gy.plan_stats().ops[k]);
    EXPECT_EQ(gx.plan_stats().cells[k], gy.plan_stats().cells[k]);
  }
  ASSERT_EQ(gx.boundary_faces().size(), gy.boundary_faces().size());
  for (std::size_t i = 0; i < gx.boundary_faces().size(); ++i) {
    EXPECT_EQ(gx.boundary_faces()[i].block, gy.boundary_faces()[i].block);
    EXPECT_EQ(gx.boundary_faces()[i].dim, gy.boundary_faces()[i].dim);
    EXPECT_EQ(gx.boundary_faces()[i].side, gy.boundary_faces()[i].side);
  }
  for (int id : f.leaves()) {
    EXPECT_TRUE(gx.dst_ops(id) == gy.dst_ops(id)) << "dst " << id;
    EXPECT_EQ(gx.prolong_sources(id), gy.prolong_sources(id)) << "dst " << id;
    EXPECT_EQ(gx.is_prolong_source(id), gy.is_prolong_source(id))
        << "block " << id;
  }

  // Flux-correction plan.
  ASSERT_EQ(fr.num_corrections(), fy.num_corrections());
  for (int i = 0; i < fr.num_corrections(); ++i) {
    const auto& a = fr.corrections()[static_cast<std::size_t>(i)];
    const auto& b = fy.corrections()[static_cast<std::size_t>(i)];
    EXPECT_EQ(a.coarse, b.coarse);
    EXPECT_EQ(a.fine, b.fine);
    EXPECT_EQ(a.dim, b.dim);
    EXPECT_EQ(a.side, b.side);
    EXPECT_TRUE(a.cells == b.cells);
    EXPECT_TRUE(a.a == b.a);
  }
  for (int id : f.leaves())
    EXPECT_EQ(fr.needs_fluxes(id), fy.needs_fluxes(id)) << "block " << id;
}

template <int D>
void run_case(const Case<D>& c, std::uint64_t seed, int adapts) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  SplitMix64 rng(seed);
  Forest<D> f(config_of(c));
  f.rebuild_neighbor_table();
  GhostExchanger<D> gx(f, test_layout<D>());
  FluxRegister<D> fr(f, gx.layout());
  fr.rebuild(gx);
  for (int a = 0; a < adapts; ++a) {
    SCOPED_TRACE("adapt " + std::to_string(a));
    random_adapt(f, rng);
    // The solvers' regrid sequence.
    f.rebuild_neighbor_table();
    gx.rebuild();
    fr.rebuild(gx);
    expect_equal_to_full_rebuild(f, gx, fr);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IncrementalTopology, Walled2D) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed)
    run_case<2>({IVec<2>{2, 2}, false, 4, false}, seed, 30);
}

TEST(IncrementalTopology, PeriodicOddRoots2D) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed)
    run_case<2>({IVec<2>{3, 1}, true, 4, false}, seed, 30);
}

TEST(IncrementalTopology, MaskedRoots2D) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    run_case<2>({IVec<2>{3, 3}, seed % 2 == 0, 3, true}, seed, 25);
}

TEST(IncrementalTopology, Walled3D) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    run_case<3>({IVec<3>{2, 2, 2}, false, 3, false}, seed, 20);
}

TEST(IncrementalTopology, PeriodicOddRoots3D) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    run_case<3>({IVec<3>{3, 1, 2}, true, 3, false}, seed, 20);
}

// A forest replaced by assignment (as RankSolver::restore does) starts a
// new history: consumers bound to it re-plan every leaf instead of
// replaying a log that belongs to another topology.
TEST(IncrementalTopology, AssignedForestReplansFromScratch) {
  const Case<2> c{IVec<2>{2, 2}, true, 3, false};
  SplitMix64 rng(7);
  Forest<2> f(config_of(c));
  GhostExchanger<2> gx(f, test_layout<2>());
  FluxRegister<2> fr(f, gx.layout());
  for (int a = 0; a < 4; ++a) random_adapt(f, rng);
  f.rebuild_neighbor_table();
  gx.rebuild();
  fr.rebuild(gx);

  Forest<2> other(config_of(c));
  for (int a = 0; a < 6; ++a) random_adapt(other, rng);
  f = other;
  f.rebuild_neighbor_table();
  gx.rebuild();
  fr.rebuild(gx);
  expect_equal_to_full_rebuild(f, gx, fr);

  // And it keeps tracking incrementally from there.
  for (int a = 0; a < 5; ++a) {
    random_adapt(f, rng);
    f.rebuild_neighbor_table();
    gx.rebuild();
    fr.rebuild(gx);
    expect_equal_to_full_rebuild(f, gx, fr);
  }

  // A replacement with fewer nodes than the old plan knew.
  f = Forest<2>(config_of(c));
  f.rebuild_neighbor_table();
  gx.rebuild();
  fr.rebuild(gx);
  expect_equal_to_full_rebuild(f, gx, fr);
}

// A long run with a sync after every adapt: the log outgrows the forest
// many times over and is trimmed behind the consumers, which keep updating
// incrementally.
TEST(IncrementalTopology, LongRunTrimsTheLog) {
  run_case<2>({IVec<2>{2, 2}, true, 4, false}, 99, 400);
}

// Far more changes than nodes between two syncs: the log drops what the
// exchanger has not read and it falls back to a full rebuild, still equal
// to the reference.
TEST(IncrementalTopology, LongGapBetweenSyncs) {
  const Case<2> c{IVec<2>{2, 1}, false, 3, false};
  SplitMix64 rng(11);
  Forest<2> f(config_of(c));
  GhostExchanger<2> gx(f, test_layout<2>());
  FluxRegister<2> fr(f, gx.layout());
  for (int a = 0; a < 200; ++a) random_adapt(f, rng);
  f.rebuild_neighbor_table();
  gx.rebuild();
  fr.rebuild(gx);
  expect_equal_to_full_rebuild(f, gx, fr);
}

}  // namespace
}  // namespace ab
