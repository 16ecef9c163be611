// Kernel microbenchmarks (google-benchmark): per-cell throughput of the
// building blocks Figure 5 composes — the physics update kernels at both
// orders, the ghost-exchange phases and their cross-rank pack/unpack form,
// the CFL scans — plus BM_SolverStep, an end-to-end solver step that tracks
// how well ghost exchange overlaps with interior compute across thread
// counts.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "amr/criteria.hpp"
#include "amr/solver.hpp"
#include "core/block_store.hpp"
#include "core/forest.hpp"
#include "core/ghost.hpp"
#include "physics/advection.hpp"
#include "physics/euler.hpp"
#include "physics/kernel.hpp"
#include "physics/mhd.hpp"
#include "util/aligned.hpp"

using namespace ab;

namespace {

template <class Phys>
void fill_uniform(const BlockLayout<3>& lay, double* base,
                  const typename Phys::State& u) {
  for (int v = 0; v < Phys::NVAR; ++v)
    for_each_cell<3>(lay.ghosted_box(), [&](IVec<3> p) {
      base[v * lay.field_stride() + lay.offset(p)] = u[v];
    });
}

template <class Phys>
void bench_update(benchmark::State& state, const Phys& phys,
                  const typename Phys::State& u, SpatialOrder order) {
  const int m = static_cast<int>(state.range(0));
  BlockLayout<3> lay(IVec<3>(m), 2, Phys::NVAR);
  AlignedBuffer uin(lay.block_doubles()), uout(lay.block_doubles());
  fill_uniform<Phys>(lay, uin.data(), u);
  const RVec<3> dx{0.01, 0.01, 0.01};
  for (auto _ : state) {
    benchmark::DoNotOptimize(fv_block_update<3, Phys>(
        lay, uin.data(), uout.data(), phys, dx, 1e-4, order));
  }
  state.SetItemsProcessed(state.iterations() * lay.interior_cells());
  state.counters["flops/cell"] = static_cast<double>(
      fv_update_flops<3, Phys>(lay, order) / lay.interior_cells());
}

void BM_AdvectionSecondOrder(benchmark::State& state) {
  LinearAdvection<3> phys;
  phys.velocity = {1.0, 0.5, -0.2};
  bench_update<LinearAdvection<3>>(state, phys, {1.0}, SpatialOrder::Second);
}
BENCHMARK(BM_AdvectionSecondOrder)->Arg(8)->Arg(16)->Arg(32);

void BM_EulerFirstOrder(benchmark::State& state) {
  Euler<3> phys;
  bench_update<Euler<3>>(state, phys,
                         phys.from_primitive(1.0, {0.5, 0.1, -0.2}, 1.0),
                         SpatialOrder::First);
}
BENCHMARK(BM_EulerFirstOrder)->Arg(8)->Arg(16)->Arg(32);

void BM_EulerSecondOrder(benchmark::State& state) {
  Euler<3> phys;
  bench_update<Euler<3>>(state, phys,
                         phys.from_primitive(1.0, {0.5, 0.1, -0.2}, 1.0),
                         SpatialOrder::Second);
}
BENCHMARK(BM_EulerSecondOrder)->Arg(8)->Arg(16)->Arg(32);

void BM_MhdFirstOrder(benchmark::State& state) {
  IdealMhd<3> phys;
  bench_update<IdealMhd<3>>(
      state, phys,
      phys.from_primitive(1.0, {0.5, 0.1, -0.2}, {0.2, 0.3, 0.1}, 1.0),
      SpatialOrder::First);
}
BENCHMARK(BM_MhdFirstOrder)->Arg(8)->Arg(16)->Arg(32);

void BM_MhdSecondOrder(benchmark::State& state) {
  IdealMhd<3> phys;
  bench_update<IdealMhd<3>>(
      state, phys,
      phys.from_primitive(1.0, {0.5, 0.1, -0.2}, {0.2, 0.3, 0.1}, 1.0),
      SpatialOrder::Second);
}
BENCHMARK(BM_MhdSecondOrder)->Arg(8)->Arg(16)->Arg(32);

void BM_GhostFillUniform(benchmark::State& state) {
  // Same-level exchange over a periodic uniform 4^3-block forest.
  const int m = static_cast<int>(state.range(0));
  Forest<3>::Config fc;
  fc.root_blocks = IVec<3>(4);
  fc.periodic = {true, true, true};
  Forest<3> forest(fc);
  BlockLayout<3> lay(IVec<3>(m), 2, 8);
  BlockStore<3> store(lay);
  for (int id : forest.leaves()) store.ensure(id);
  GhostExchanger<3> gx(forest, lay);
  for (auto _ : state) gx.fill(store);
  state.SetItemsProcessed(state.iterations() * gx.total_cells());
  state.counters["ghost cells"] = static_cast<double>(gx.total_cells());
}
BENCHMARK(BM_GhostFillUniform)->Arg(8)->Arg(16);

/// A mixed-level forest: copies + restrictions + prolongs.
Forest<3> mixed_level_forest() {
  Forest<3>::Config fc;
  fc.root_blocks = IVec<3>(2);
  fc.max_level = 2;
  Forest<3> forest(fc);
  forest.refine(forest.find(0, {0, 0, 0}));
  forest.refine(forest.find(1, {1, 1, 1}));
  return forest;
}

void BM_GhostFillMixedLevels(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Forest<3> forest = mixed_level_forest();
  BlockLayout<3> lay(IVec<3>(m), 2, 8);
  BlockStore<3> store(lay);
  for (int id : forest.leaves()) store.ensure(id);
  GhostExchanger<3> gx(forest, lay);
  for (auto _ : state) gx.fill(store);
  state.SetItemsProcessed(state.iterations() * gx.total_cells());
}
BENCHMARK(BM_GhostFillMixedLevels)->Arg(8)->Arg(16);

void BM_GhostPackUnpack(benchmark::State& state) {
  // The cross-rank message path on BM_GhostFillMixedLevels' grid: every op
  // packed (sender-side copy/restrict/prolong into one message buffer) and
  // unpacked (row copies into the destination ghosts), phase by phase as
  // BufferedExchange runs it. Items are ghost cells, as in the fills.
  const int m = static_cast<int>(state.range(0));
  Forest<3> forest = mixed_level_forest();
  BlockLayout<3> lay(IVec<3>(m), 2, 8);
  BlockStore<3> store(lay);
  for (int id : forest.leaves()) store.ensure(id);
  GhostExchanger<3> gx(forest, lay);
  std::vector<double> buf(
      static_cast<std::size_t>(gx.total_cells() * lay.nvar));
  const std::vector<int>& order = gx.exec_order();
  auto run_phase = [&](std::size_t lo, std::size_t hi) {
    double* cursor = buf.data();
    for (std::size_t i = lo; i < hi; ++i) {
      const auto& op = gx.ops()[static_cast<std::size_t>(order[i])];
      gx.pack_op(store, op, cursor);
      cursor += gx.op_payload_doubles(op);
    }
    cursor = buf.data();
    for (std::size_t i = lo; i < hi; ++i) {
      const auto& op = gx.ops()[static_cast<std::size_t>(order[i])];
      gx.unpack_op(store, op, cursor);
      cursor += gx.op_payload_doubles(op);
    }
  };
  const auto split = static_cast<std::size_t>(gx.phase1_count());
  for (auto _ : state) {
    run_phase(0, split);
    run_phase(split, order.size());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * gx.total_cells());
}
BENCHMARK(BM_GhostPackUnpack)->Arg(8)->Arg(16);

void BM_SolverStep(benchmark::State& state) {
  // Whole Heun step (two ghost fills + two stage sweeps + combine) on a
  // mixed-level 3D Euler grid. This is the driver metric: kernel
  // throughput is covered above; what moves here is the ghost exchange,
  // the block loop and how well the thread pool spreads it.
  const int threads = static_cast<int>(state.range(0));
  Euler<3> phys;
  AmrSolver<3, Euler<3>>::Config cfg;
  cfg.forest.root_blocks = IVec<3>(2);
  cfg.forest.periodic = {true, true, true};
  cfg.forest.max_level = 2;
  cfg.cells_per_block = IVec<3>(16);
  cfg.num_threads = threads;
  AmrSolver<3, Euler<3>> solver(cfg, phys);
  auto ic = [&](const RVec<3>& x, Euler<3>::State& s) {
    double r2 = 0.0;
    for (int d = 0; d < 3; ++d) r2 += (x[d] - 0.5) * (x[d] - 0.5);
    s = phys.from_primitive(1.0 + 0.8 * std::exp(-40.0 * r2),
                            {0.3, -0.2, 0.1}, 1.0);
  };
  solver.init(ic);
  GradientCriterion<3> crit{0, 0.02, 0.005, 2};
  solver.adapt(crit);
  solver.init(ic);
  const double dt = 0.2 * solver.compute_dt();
  for (auto _ : state) solver.step(dt);
  state.SetItemsProcessed(
      state.iterations() * 2 * solver.total_interior_cells());
  state.counters["blocks"] =
      static_cast<double>(solver.forest().num_leaves());
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_SolverStep)->Arg(1)->Arg(4)->Arg(8)->UseRealTime();

void BM_WaveSpeedScan(benchmark::State& state) {
  IdealMhd<3> phys;
  BlockLayout<3> lay(IVec<3>(16), 2, 8);
  AlignedBuffer u(lay.block_doubles());
  fill_uniform<IdealMhd<3>>(
      lay, u.data(),
      phys.from_primitive(1.0, {0.5, 0.1, -0.2}, {0.2, 0.3, 0.1}, 1.0));
  const RVec<3> dx{0.01, 0.01, 0.01};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        block_wave_speed_sum<3, IdealMhd<3>>(lay, u.data(), phys, dx));
  }
  state.SetItemsProcessed(state.iterations() * lay.interior_cells());
}
BENCHMARK(BM_WaveSpeedScan);

void BM_EulerWaveSpeedScan(benchmark::State& state) {
  Euler<3> phys;
  BlockLayout<3> lay(IVec<3>(16), 2, Euler<3>::NVAR);
  AlignedBuffer u(lay.block_doubles());
  fill_uniform<Euler<3>>(lay, u.data(),
                         phys.from_primitive(1.0, {0.5, 0.1, -0.2}, 1.0));
  const RVec<3> dx{0.01, 0.01, 0.01};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        block_wave_speed_sum<3, Euler<3>>(lay, u.data(), phys, dx));
  }
  state.SetItemsProcessed(state.iterations() * lay.interior_cells());
}
BENCHMARK(BM_EulerWaveSpeedScan);

}  // namespace

BENCHMARK_MAIN();
