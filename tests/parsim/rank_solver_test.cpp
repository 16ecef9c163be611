// Randomized cross-rank equivalence harness: the rank-parallel solver
// (private per-rank stores, buffered ghost exchange, message-board flux
// corrections, migration after regrids) must be BITWISE identical to the
// single-address-space AmrSolver over randomized forests x partition
// policies x rank counts x physics — including across mid-run regrids
// that trigger re-partitioning and block migration.
//
// The same harness runs with distributed metadata on (each rank holding
// only its owned blocks + neighbor hull, Config::distributed_metadata) —
// the local-topology path must reproduce the global path bit for bit,
// including regrid delta exchange over the faulty wire.
//
// Every randomized case carries its seed in a SCOPED_TRACE, so a failure
// prints the exact (seed, npes, policy, distmeta) needed to reproduce it.
#include "parsim/rank_solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <tuple>
#include <utility>

#include "amr/solver.hpp"
#include "parsim/fault.hpp"
#include "physics/advection.hpp"
#include "physics/euler.hpp"
#include "physics/mhd.hpp"
#include "support/rng.hpp"

namespace ab {
namespace {

using ab::testing::splitmix64;

/// Data-independent criterion: flags from a hash of (seed, level, coords).
/// Both solvers see the same flags regardless of data layout, so it drives
/// randomized topology changes (refine cascades, coarsen families) that are
/// reproducible from the seed alone.
template <int D>
struct SeededTopologyCriterion {
  std::uint64_t seed = 0;
  int max_level = 2;

  AdaptFlag operator()(const Forest<D>& f, const BlockStore<D>&,
                       int id) const {
    std::uint64_t h = splitmix64(seed ^ static_cast<std::uint64_t>(
                                            f.level(id) * 0x9E37u));
    for (int d = 0; d < D; ++d)
      h = splitmix64(h ^ static_cast<std::uint64_t>(f.coords(id)[d] + 1));
    const int r = static_cast<int>(h % 4);
    if (r == 0 && f.level(id) < max_level) return AdaptFlag::Refine;
    if (r == 1 && f.level(id) > 0) return AdaptFlag::Coarsen;
    return AdaptFlag::Keep;
  }
};

/// Bitwise comparison of all leaf interiors, matched by (level, coords).
template <class Phys>
void expect_identical(const AmrSolver<2, Phys>& serial,
                      const RankSolver<2, Phys>& ranks) {
  ASSERT_EQ(serial.forest().num_leaves(), ranks.forest().num_leaves());
  const BlockLayout<2>& lay = serial.store().layout();
  for (int id : serial.forest().leaves()) {
    const int rid = ranks.forest().find(serial.forest().level(id),
                                        serial.forest().coords(id));
    ASSERT_GE(rid, 0) << "leaf missing in rank solver";
    ASSERT_TRUE(ranks.forest().is_leaf(rid));
    ConstBlockView<2> a = serial.store().view(id);
    ConstBlockView<2> b = ranks.block_view(rid);
    for_each_cell<2>(lay.interior_box(), [&](IVec<2> p) {
      for (int k = 0; k < Phys::NVAR; ++k)
        ASSERT_EQ(a.at(k, p), b.at(k, p))
            << "var " << k << " cell (" << p[0] << "," << p[1] << ")";
    });
  }
}

/// Run both solvers through the same script: two seeded adapt rounds to
/// randomize the initial topology, init, then `steps` CFL steps with
/// seeded regrids (and re-partition + migration on the rank side) after
/// steps 2 and 4. Asserts bitwise-equal dt every step and bitwise-equal
/// states at the start, mid-run, and end.
template <class Phys>
void run_equivalence(const typename AmrSolver<2, Phys>::Config& scfg,
                     const Phys& phys,
                     const std::function<void(const RVec<2>&,
                                              typename Phys::State&)>& ic,
                     std::uint64_t seed, int npes, PartitionPolicy policy,
                     int steps = 6, bool distmeta = false,
                     FaultPlan* faults = nullptr) {
  SCOPED_TRACE(::testing::Message()
               << "seed=" << seed << " npes=" << npes
               << " policy=" << static_cast<int>(policy)
               << " distmeta=" << distmeta);
  AmrSolver<2, Phys> serial(scfg, phys);
  typename RankSolver<2, Phys>::Config rcfg;
  rcfg.solver = scfg;
  rcfg.npes = npes;
  rcfg.policy = policy;
  rcfg.distributed_metadata = distmeta;
  rcfg.faults = faults;
  RankSolver<2, Phys> ranks(rcfg, phys);
  // Mirror the solver's resolution so the whole matrix can be replayed
  // with AB_DIST_META=1 in the environment: the env overrides the combo's
  // axis, but falls back to global metadata where unsupported.
  bool expect_dm = distmeta;
  if (const char* e = std::getenv("AB_DIST_META")) expect_dm = e[0] != '0';
  if (!CurveMap<2>::supports(policy) || scfg.forest.max_level_diff != 1)
    expect_dm = false;
  ASSERT_EQ(ranks.distributed_metadata(), expect_dm);
  const bool dm = ranks.distributed_metadata();

  const int max_level = scfg.forest.max_level;
  int topology_changes = 0;
  for (int round = 0; round < 2; ++round) {
    SeededTopologyCriterion<2> crit{splitmix64(seed + round), max_level};
    const auto a = serial.adapt(crit);
    const auto b = ranks.adapt(crit);
    ASSERT_EQ(a.refined, b.refined);
    ASSERT_EQ(a.coarsened, b.coarsened);
    topology_changes += a.refined + a.coarsened;
  }
  serial.init(ic);
  ranks.init(ic);
  expect_identical(serial, ranks);

  for (int s = 0; s < steps; ++s) {
    const double dts = serial.compute_dt();
    const double dtr = ranks.compute_dt();
    ASSERT_EQ(dts, dtr) << "dt diverged at step " << s;
    serial.step(dts);
    ranks.step(dtr);
    if (s == 2 || s == 4) {
      SeededTopologyCriterion<2> crit{splitmix64(seed * 977 + s), max_level};
      const auto a = serial.adapt(crit);
      const auto b = ranks.adapt(crit);
      ASSERT_EQ(a.refined, b.refined);
      ASSERT_EQ(a.coarsened, b.coarsened);
      topology_changes += a.refined + a.coarsened;
      expect_identical(serial, ranks);
    }
  }
  expect_identical(serial, ranks);
  // The accounting must at least be self-consistent.
  const RankRunTotals& t = ranks.totals();
  EXPECT_EQ(t.steps, steps);
  EXPECT_EQ(t.flops, ranks.total_flops());
  if (npes > 1 && ranks.forest().num_leaves() > 1)
    EXPECT_GT(t.ghost_messages, 0);
  if (dm) {
    // The local views exist, and any regrid that changed topology shipped
    // delta records to neighbor ranks (every populated rank on this
    // periodic grid has neighbors once npes > 1).
    ASSERT_NE(ranks.local_topology(), nullptr);
    if (npes > 1 && topology_changes > 0) {
      EXPECT_GT(t.topo_delta_messages, 0);
      EXPECT_GT(t.topo_delta_bytes, 0);
    }
  } else {
    EXPECT_EQ(ranks.local_topology(), nullptr);
    EXPECT_EQ(t.topo_delta_messages, 0);
    EXPECT_EQ(t.topo_delta_bytes, 0);
  }
}

// ------------------------------------------------------------ advection

AmrSolver<2, LinearAdvection<2>>::Config advection_cfg() {
  AmrSolver<2, LinearAdvection<2>>::Config cfg;
  cfg.forest.root_blocks = {2, 2};
  cfg.forest.periodic = {true, true};
  cfg.forest.max_level = 2;
  cfg.cells_per_block = {8, 8};
  return cfg;
}

LinearAdvection<2> advection_phys() {
  LinearAdvection<2> p;
  p.velocity = {0.7, -0.4};
  return p;
}

void advection_ic(const RVec<2>& x, LinearAdvection<2>::State& s) {
  const double dx = x[0] - 0.5, dy = x[1] - 0.5;
  s[0] = 1.0 + 0.8 * std::exp(-30.0 * (dx * dx + dy * dy));
}

// Global metadata: 4 policies x P in {1,2,3,5,8} = 20 randomized combos.
// P=8 with a 2x2 root grid starts with more ranks than blocks, so empty
// PEs are exercised throughout (and gain blocks as seeded refinement kicks
// in). Distributed metadata: the same P sweep over the two SFC policies
// (the mode's prerequisite) — 10 more combos, each bitwise vs serial.
class RankSolverAdvection
    : public ::testing::TestWithParam<
          std::tuple<int, PartitionPolicy, bool>> {};

TEST_P(RankSolverAdvection, BitwiseEqualsSerial) {
  const int npes = std::get<0>(GetParam());
  const PartitionPolicy policy = std::get<1>(GetParam());
  const bool distmeta = std::get<2>(GetParam());
  const std::uint64_t seed =
      splitmix64(1000 + 16 * npes + static_cast<int>(policy));
  run_equivalence<LinearAdvection<2>>(advection_cfg(), advection_phys(),
                                      advection_ic, seed, npes, policy, 6,
                                      distmeta);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, RankSolverAdvection,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(PartitionPolicy::Morton,
                                         PartitionPolicy::Hilbert,
                                         PartitionPolicy::RoundRobin,
                                         PartitionPolicy::GreedyLpt),
                       ::testing::Values(false)));

INSTANTIATE_TEST_SUITE_P(
    DistMeta, RankSolverAdvection,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(PartitionPolicy::Morton,
                                         PartitionPolicy::Hilbert),
                       ::testing::Values(true)));

// ---------------------------------------------------------------- Euler

AmrSolver<2, Euler<2>>::Config euler_cfg(bool flux_correction) {
  AmrSolver<2, Euler<2>>::Config cfg;
  cfg.forest.root_blocks = {2, 2};
  cfg.forest.periodic = {true, true};
  cfg.forest.max_level = 2;
  cfg.cells_per_block = {8, 8};
  cfg.apply_positivity_fix = true;
  cfg.flux_correction = flux_correction;
  return cfg;
}

std::function<void(const RVec<2>&, Euler<2>::State&)> euler_ic(
    const Euler<2>& phys) {
  return [phys](const RVec<2>& x, Euler<2>::State& s) {
    const double dx = x[0] - 0.5, dy = x[1] - 0.5;
    s = phys.from_primitive(
        1.0 + 0.4 * std::exp(-40.0 * (dx * dx + dy * dy)), {0.3, 0.1}, 1.0);
  };
}

class RankSolverEuler
    : public ::testing::TestWithParam<
          std::tuple<int, PartitionPolicy, bool>> {};

TEST_P(RankSolverEuler, BitwiseEqualsSerialWithRefluxing) {
  const int npes = std::get<0>(GetParam());
  const PartitionPolicy policy = std::get<1>(GetParam());
  const bool distmeta = std::get<2>(GetParam());
  const std::uint64_t seed =
      splitmix64(2000 + 16 * npes + static_cast<int>(policy));
  Euler<2> phys;
  run_equivalence<Euler<2>>(euler_cfg(true), phys, euler_ic(phys), seed,
                            npes, policy, 6, distmeta);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, RankSolverEuler,
    ::testing::Combine(::testing::Values(2, 3, 5, 8),
                       ::testing::Values(PartitionPolicy::Morton,
                                         PartitionPolicy::RoundRobin),
                       ::testing::Values(false)));

// Refluxing under distributed metadata: flux-register partners must be
// covered by the hull (the solver verifies this internally on every
// rebuild), for both SFC orders.
INSTANTIATE_TEST_SUITE_P(
    DistMeta, RankSolverEuler,
    ::testing::Combine(::testing::Values(2, 3, 5, 8),
                       ::testing::Values(PartitionPolicy::Morton,
                                         PartitionPolicy::Hilbert),
                       ::testing::Values(true)));

TEST(RankSolver, EulerDataDependentRegrid) {
  // A data-dependent criterion (gradient indicator, interior-only reads)
  // must flag identically on the per-rank stores; run the full script with
  // GradientCriterion instead of the seeded one.
  Euler<2> phys;
  const auto scfg = euler_cfg(false);
  AmrSolver<2, Euler<2>> serial(scfg, phys);
  RankSolver<2, Euler<2>>::Config rcfg;
  rcfg.solver = scfg;
  rcfg.npes = 5;
  rcfg.policy = PartitionPolicy::RoundRobin;
  RankSolver<2, Euler<2>> ranks(rcfg, phys);
  const auto ic = euler_ic(phys);
  GradientCriterion<2> crit{0, 0.05, 0.01, 2};
  serial.adapt(crit);
  serial.init(ic);
  ranks.adapt(crit);
  ranks.init(ic);
  expect_identical(serial, ranks);
  for (int s = 0; s < 6; ++s) {
    const double dt = serial.compute_dt();
    ASSERT_EQ(dt, ranks.compute_dt());
    serial.step(dt);
    ranks.step(dt);
    const auto a = serial.adapt(crit);
    const auto b = ranks.adapt(crit);
    ASSERT_EQ(a.refined, b.refined);
    ASSERT_EQ(a.coarsened, b.coarsened);
  }
  expect_identical(serial, ranks);
}

TEST(RankSolver, EulerForwardEuler) {
  // rk_stages == 1 takes the swap path instead of the Heun combine.
  Euler<2> phys;
  auto scfg = euler_cfg(false);
  scfg.rk_stages = 1;
  run_equivalence<Euler<2>>(scfg, phys, euler_ic(phys), splitmix64(3001), 3,
                            PartitionPolicy::Morton);
}

// ------------------------------------------------------------------ MHD

TEST(RankSolver, MhdBitwiseEqualsSerial) {
  IdealMhd<2> phys;
  AmrSolver<2, IdealMhd<2>>::Config cfg;
  cfg.forest.root_blocks = {2, 2};
  cfg.forest.periodic = {true, true};
  cfg.forest.max_level = 2;
  cfg.cells_per_block = {8, 8};
  cfg.apply_positivity_fix = true;
  auto ic = [&phys](const RVec<2>& x, IdealMhd<2>::State& s) {
    const double dx = x[0] - 0.5, dy = x[1] - 0.5;
    s = phys.from_primitive(1.0 + 0.3 * std::exp(-30.0 * (dx * dx + dy * dy)),
                            {0.5, 0.2, 0.0}, {0.3, 0.4, 0.1}, 1.0);
  };
  run_equivalence<IdealMhd<2>>(cfg, phys, ic, splitmix64(4003), 3,
                               PartitionPolicy::Hilbert);
  run_equivalence<IdealMhd<2>>(cfg, phys, ic, splitmix64(4008), 8,
                               PartitionPolicy::GreedyLpt);
  // Same Hilbert run again with distributed metadata.
  run_equivalence<IdealMhd<2>>(cfg, phys, ic, splitmix64(4003), 3,
                               PartitionPolicy::Hilbert, 6, true);
}

// ------------------------------------------------- distributed metadata

TEST(RankSolver, DistMetaComposesWithFaultyWire) {
  // Topology deltas travel the same lossy wire as everything else: drops,
  // bit flips, duplicates, and reorders on the hull exchange must all be
  // absorbed by the transport while the run stays bitwise-serial.
  FaultPlan::Config fcfg;
  fcfg.seed = splitmix64(0xFA111ull);
  fcfg.drop_rate = 0.08;
  fcfg.corrupt_rate = 0.08;
  fcfg.duplicate_rate = 0.05;
  fcfg.reorder_rate = 0.05;
  FaultPlan plan(fcfg);
  run_equivalence<LinearAdvection<2>>(advection_cfg(), advection_phys(),
                                      advection_ic, splitmix64(5005), 5,
                                      PartitionPolicy::Hilbert, 6, true,
                                      &plan);
  EXPECT_GT(plan.stats().injected(), 0);
  EXPECT_GT(plan.stats().retries, 0);
}

TEST(RankSolver, DistMetaEnvOverrideAndFallback) {
  // This test owns AB_DIST_META; stash any externally forced value (the
  // whole suite is replayable under AB_DIST_META=1) and restore it last.
  const char* outer_env = std::getenv("AB_DIST_META");
  const std::string outer = outer_env ? outer_env : "";
  unsetenv("AB_DIST_META");
  LinearAdvection<2> phys = advection_phys();
  RankSolver<2, LinearAdvection<2>>::Config rcfg;
  rcfg.solver = advection_cfg();
  rcfg.npes = 3;
  rcfg.policy = PartitionPolicy::Morton;
  {
    RankSolver<2, LinearAdvection<2>> r(rcfg, phys);
    EXPECT_FALSE(r.distributed_metadata());  // default off
    EXPECT_EQ(r.local_topology(), nullptr);
  }
  ASSERT_EQ(setenv("AB_DIST_META", "1", 1), 0);
  {
    RankSolver<2, LinearAdvection<2>> r(rcfg, phys);
    EXPECT_TRUE(r.distributed_metadata());
    EXPECT_NE(r.local_topology(), nullptr);
  }
  {
    // Env-forced on a non-SFC policy falls back to global metadata
    // instead of failing the run.
    auto rr = rcfg;
    rr.policy = PartitionPolicy::RoundRobin;
    RankSolver<2, LinearAdvection<2>> r(rr, phys);
    EXPECT_FALSE(r.distributed_metadata());
  }
  ASSERT_EQ(setenv("AB_DIST_META", "0", 1), 0);
  {
    // AB_DIST_META=0 wins over the config switch.
    auto rr = rcfg;
    rr.distributed_metadata = true;
    RankSolver<2, LinearAdvection<2>> r(rr, phys);
    EXPECT_FALSE(r.distributed_metadata());
  }
  unsetenv("AB_DIST_META");
  {
    // Config-requested on a non-SFC policy is a hard error (the caller
    // asked for a guarantee the partition cannot provide).
    auto rr = rcfg;
    rr.policy = PartitionPolicy::GreedyLpt;
    rr.distributed_metadata = true;
    EXPECT_THROW((RankSolver<2, LinearAdvection<2>>(rr, phys)), Error);
  }
  if (outer_env) ASSERT_EQ(setenv("AB_DIST_META", outer.c_str(), 1), 0);
}

// -------------------------------------------------- migration-specific

/// Refine only the lower-left corner, forcing a lopsided leaf list: after
/// the regrid the partition shifts and blocks MUST migrate.
struct CornerCriterion {
  int max_level = 2;
  AdaptFlag operator()(const Forest<2>& f, const BlockStore<2>&,
                       int id) const {
    const IVec<2> c = f.coords(id);
    if (f.level(id) < max_level && c[0] == 0 && c[1] == 0)
      return AdaptFlag::Refine;
    return AdaptFlag::Keep;
  }
};

TEST(RankSolver, RegridMigratesBlocksAndStaysBitwise) {
  LinearAdvection<2> phys = advection_phys();
  const auto scfg = advection_cfg();
  AmrSolver<2, LinearAdvection<2>> serial(scfg, phys);
  RankSolver<2, LinearAdvection<2>>::Config rcfg;
  rcfg.solver = scfg;
  rcfg.npes = 2;
  rcfg.policy = PartitionPolicy::RoundRobin;
  RankSolver<2, LinearAdvection<2>> ranks(rcfg, phys);
  serial.init(advection_ic);
  ranks.init(advection_ic);

  serial.step(0.004);
  ranks.step(0.004);
  CornerCriterion crit;
  const auto a = serial.adapt(crit);
  const auto b = ranks.adapt(crit);
  ASSERT_GT(a.refined, 0);
  ASSERT_EQ(a.refined, b.refined);
  // 4 leaves round-robined over 2 ranks become 7+: reassignment moves
  // surviving blocks between ranks, and that migration must be counted.
  const RegridCost& rc = ranks.last_regrid_cost();
  EXPECT_GT(rc.migrated_blocks, 0);
  EXPECT_GT(rc.migration_messages, 0);
  EXPECT_GT(rc.migration_bytes, 0);
  EXPECT_EQ(ranks.totals().migrated_blocks, rc.migrated_blocks);

  serial.step(0.004);
  ranks.step(0.004);
  expect_identical(serial, ranks);
}

// RK2 with refluxing keeps three slabs per leaf across the ranks: store,
// scratch and stage-2. A refined parent and coarsened children must give
// their slabs back in all three, not only when a block migrates.
TEST(RankSolver, RefluxedRk2HoldsThreeSlabsPerLeafAcrossRegrids) {
  LinearAdvection<2> phys = advection_phys();
  RankSolver<2, LinearAdvection<2>>::Config rcfg;
  rcfg.solver = advection_cfg();
  rcfg.solver.forest.max_level = 3;
  rcfg.solver.flux_correction = true;
  rcfg.npes = 4;
  RankSolver<2, LinearAdvection<2>> ranks(rcfg, phys);
  ranks.init(advection_ic);
  GradientCriterion<2> crit{0, 0.04, 0.01, 2};
  int refined = 0, coarsened = 0;
  for (int i = 0; i < 100; ++i) {
    ranks.step(ranks.compute_dt());
    ASSERT_EQ(ranks.block_pool()->stats().slabs_in_use,
              3 * ranks.forest().num_leaves())
        << "step " << i;
    const auto r = ranks.adapt(crit);
    refined += r.refined;
    coarsened += r.coarsened;
  }
  EXPECT_GT(refined, 0);
  EXPECT_GT(coarsened, 0);
}

TEST(RankSolver, DistMetaRegridShipsDeltasAndMeasuresTopology) {
  LinearAdvection<2> phys = advection_phys();
  RankSolver<2, LinearAdvection<2>>::Config rcfg;
  rcfg.solver = advection_cfg();
  rcfg.npes = 4;
  rcfg.policy = PartitionPolicy::Morton;
  rcfg.distributed_metadata = true;
  RankSolver<2, LinearAdvection<2>> ranks(rcfg, phys);
  ranks.init(advection_ic);
  ranks.step(0.004);

  const LocalTopologySet<2>* topo = ranks.local_topology();
  ASSERT_NE(topo, nullptr);
  // 2x2 periodic roots over 4 ranks: one block each, all mutually adjacent.
  EXPECT_EQ(topo->max_owned(), 1u);
  EXPECT_GT(topo->max_hull(), 0u);
  EXPECT_GT(topo->stats().probes, 0);

  CornerCriterion crit;
  const auto a = ranks.adapt(crit);
  ASSERT_GT(a.refined, 0);
  const RegridCost& rc = ranks.last_regrid_cost();
  EXPECT_GT(rc.topo_delta_messages, 0);
  EXPECT_GT(rc.topo_delta_bytes, 0);
  EXPECT_EQ(ranks.totals().topo_delta_messages, rc.topo_delta_messages);
  EXPECT_EQ(ranks.totals().topo_delta_bytes, rc.topo_delta_bytes);
  // The rebuilt views track the refined forest.
  EXPECT_GE(ranks.local_topology()->max_owned(), 1u);
}

TEST(RankSolver, StepCostIsPricedOnTheMachineModel) {
  LinearAdvection<2> phys = advection_phys();
  RankSolver<2, LinearAdvection<2>>::Config rcfg;
  rcfg.solver = advection_cfg();
  rcfg.npes = 4;
  rcfg.policy = PartitionPolicy::Morton;
  RankSolver<2, LinearAdvection<2>> ranks(rcfg, phys);
  ranks.init(advection_ic);
  ranks.step(0.004);
  const RankStepCost& c = ranks.last_step_cost();
  EXPECT_GT(c.flops, 0u);
  EXPECT_GE(c.flops, c.max_rank_flops);
  EXPECT_GT(c.ghost_messages, 0);
  EXPECT_GT(c.ghost_bytes, 0);
  EXPECT_GT(c.t_compute, 0.0);
  EXPECT_GT(c.t_comm, 0.0);
  EXPECT_NEAR(c.t_step, c.t_compute + c.t_comm, 1e-15);
  EXPECT_GT(c.speedup, 0.0);
  EXPECT_LE(c.efficiency, 1.0 + 1e-12);
  EXPECT_GE(c.imbalance, 1.0);
}

// Same contract as AmrSolver::compute_dt: a corrupt cell (NaN, rho < 0
// whose sound speed is NaN, or NaN energy) throws instead of vanishing from
// the CFL max.
template <class Phys>
void expect_compute_dt_rejects_corrupt_cell(const Phys& phys,
                                            typename Phys::State clean) {
  typename RankSolver<3, Phys>::Config rcfg;
  rcfg.solver.forest.root_blocks = {2, 1, 1};
  rcfg.solver.forest.periodic = {true, true, true};
  rcfg.solver.cells_per_block = {4, 4, 4};
  rcfg.npes = 2;
  // (variable, corrupt value): NaN density, negative density, NaN energy
  // (a NaN pressure, which a `p > 0 ? p : 0` clamp turns into a finite
  // sound speed).
  const std::pair<int, double> corruptions[] = {
      {0, std::nan("")}, {0, -clean[0]}, {Phys::ieng(), std::nan("")}};
  for (const auto& [var, bad] : corruptions) {
    RankSolver<3, Phys> ranks(rcfg, phys);
    ranks.init([&](const RVec<3>& x, typename Phys::State& s) {
      s = clean;
      if (x[0] > 0.5 && x[0] < 0.625 && x[1] < 0.25 && x[2] < 0.25)
        s[var] = bad;  // one cell of the second root block
    });
    try {
      ranks.compute_dt();
      ADD_FAILURE() << "compute_dt accepted a corrupt cell (var " << var
                    << " = " << bad << ")";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite wave speed in block"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(RankSolver, ComputeDtRejectsNonFiniteWaveSpeed) {
  IdealMhd<3> mhd;
  expect_compute_dt_rejects_corrupt_cell(
      mhd, mhd.from_primitive(1.0, {0.1, 0.2, 0.3}, {0.3, 0.2, 0.1}, 1.0));
  Euler<3> euler;
  expect_compute_dt_rejects_corrupt_cell(
      euler, euler.from_primitive(1.0, {0.1, 0.2, 0.3}, 1.0));
}

TEST(RankSolver, RejectsUnsupportedModes) {
  LinearAdvection<2> phys = advection_phys();
  RankSolver<2, LinearAdvection<2>>::Config rcfg;
  rcfg.solver = advection_cfg();
  rcfg.solver.subcycling = true;
  rcfg.solver.rk_stages = 1;
  EXPECT_THROW((RankSolver<2, LinearAdvection<2>>(rcfg, phys)), Error);
  rcfg.solver.subcycling = false;
  rcfg.solver.rk_stages = 2;
  rcfg.solver.num_threads = 4;
  EXPECT_THROW((RankSolver<2, LinearAdvection<2>>(rcfg, phys)), Error);
  rcfg.solver.num_threads = 1;
  rcfg.npes = 0;
  EXPECT_THROW((RankSolver<2, LinearAdvection<2>>(rcfg, phys)), Error);
}

}  // namespace
}  // namespace ab
