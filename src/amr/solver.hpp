// The AMR driver: composes the adaptive block forest, per-block storage,
// ghost exchange, boundary conditions, finite-volume kernels, and
// adaptation into a time-stepping solver.
//
// Time integration is Heun's second-order Runge-Kutta (two forward-Euler
// stages with a ghost fill before each), matching the explicit mode of the
// paper's MHD code. All blocks advance with one global timestep (no
// subcycling), as in the original.
//
// With threads, each stage runs as a per-block task graph instead of
// bulk-synchronous phases: a block's interior update (stencil never touches
// ghosts) starts immediately, while its rim update waits only on that
// block's own incoming ghost ops and boundary faces. See the task-graph
// notes ahead of rebuild_stage_graph() for the dependency argument; results
// are bitwise identical to the serial path.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "amr/criteria.hpp"
#include "amr/flux_register.hpp"
#include "amr/stage_ops.hpp"
#include "core/bc.hpp"
#include "core/block_store.hpp"
#include "core/forest.hpp"
#include "core/ghost.hpp"
#include "core/regrid_data.hpp"
#include "io/checkpoint.hpp"
#include "obs/telemetry.hpp"
#include "physics/kernel.hpp"
#include "tune/autotuner.hpp"
#include "util/aligned.hpp"
#include "util/block_pool.hpp"
#include "util/error.hpp"
#include "util/task_graph.hpp"
#include "util/timer.hpp"

namespace ab {

template <int D, class Phys>
class AmrSolver {
 public:
  using State = typename Phys::State;

  struct Config {
    typename Forest<D>::Config forest{};
    IVec<D> cells_per_block = IVec<D>(8);  ///< must be even
    int ghost = 2;
    SpatialOrder order = SpatialOrder::Second;
    LimiterKind limiter = LimiterKind::VanLeer;
    FluxScheme flux = FluxScheme::Rusanov;
    Prolongation prolongation = Prolongation::LimitedLinear;
    double cfl = 0.4;
    BcSet<D> bc{};
    int rk_stages = 2;  ///< 1 = forward Euler, 2 = Heun
    bool apply_positivity_fix = false;
    double rho_floor = 1e-10;
    double p_floor = 1e-12;
    /// Conservative coarse/fine flux correction (refluxing) after each
    /// stage — an extension beyond the paper's ghost-only coupling; makes
    /// global conservation machine-exact on periodic domains.
    bool flux_correction = false;
    /// Shared-memory threads for block sweeps and ghost fills (1 = serial).
    /// Results are independent of the thread count: every parallel phase
    /// writes disjoint per-block regions.
    int num_threads = 1;
    /// Local time stepping: blocks at level l take substeps dt / 2^(l-lmin)
    /// instead of the global finest-stable dt — refinement in time as well
    /// as space (the evolution of the paper's global-step scheme adopted by
    /// its PARAMESH/AMReX descendants). Coarse-sourced ghost values are
    /// interpolated linearly in time between the coarse block's last two
    /// states. Requires rk_stages == 1 and no flux correction.
    bool subcycling = false;
    /// Optional observability sink (phase traces, metrics, per-step JSONL
    /// reports — see src/obs/ and docs/OBSERVABILITY.md). nullptr (the
    /// default) keeps every instrumentation site a dead pointer test: no
    /// clock reads, no allocation. Attaching one never changes numerics —
    /// instrumentation only reads solver state.
    obs::Telemetry* telemetry = nullptr;
    /// Runtime block-layout autotuning (the paper's Fig. 5 effect): probe
    /// candidate (block edge, pad, sub-blocking) layouts at construction
    /// and rewrite cells_per_block / root_blocks / pad0 / sub_block to the
    /// fastest applicable one, keeping the global grid invariant. The probe
    /// table persists at `tune_cache`, so only the first run pays for
    /// probing. Env override: AB_AUTOTUNE=1/0. See src/tune/ and
    /// docs/PERFORMANCE.md "Autotuned layout".
    bool autotune = false;
    /// Probe-table cache path (host-keyed JSON; see tune/cache.hpp).
    std::string tune_cache = ".ab_tune.json";
    /// Candidates within this fraction of the fastest probe tie, and the
    /// simplest tied layout (no pad, no sub-blocking, smallest m) wins.
    double tune_noise_floor = 0.03;
    /// Probe measurement effort (tests shrink it to milliseconds).
    tune::ProbeBudget tune_budget{};
    /// Extra dim-0 cells in the block allocation, breaking cache-line
    /// aliasing between adjacent pencils. Bitwise-invisible to results;
    /// normally set by the autotuner, settable directly for experiments.
    int pad0 = 0;
    /// Sub-blocked interior tiling edge for pencil-sweep updates (0 = whole
    /// block). Bitwise-invisible; normally set by the autotuner.
    int sub_block = 0;
  };

  AmrSolver(Config cfg, Phys phys)
      : cfg_(tune::resolve_layout<D, Phys>(std::move(cfg), phys,
                                           &tune_decision_)),
        phys_(std::move(phys)),
        forest_(cfg_.forest),
        // One slab arena per solver, shared by every store the stepper
        // swaps (store_/scratch_/stage2_).
        block_pool_(
            std::make_shared<BlockPool>(make_layout(cfg_).block_doubles())),
        store_(make_layout(cfg_), block_pool_),
        scratch_(make_layout(cfg_), block_pool_),
        exchanger_(forest_, store_.layout(), cfg_.prolongation),
        flux_register_(forest_, store_.layout()) {
    if (cfg_.flux_correction) flux_register_.rebuild(exchanger_);
    AB_REQUIRE(cfg_.num_threads >= 1, "AmrSolver: num_threads must be >= 1");
    if (cfg_.num_threads > 1)
      pool_ = std::make_unique<ThreadPool>(cfg_.num_threads);
    // One kernel scratch arena per pool thread (index 0 is the calling
    // thread), so pencil sweeps never contend or allocate on the hot path.
    kernel_scratch_.resize(static_cast<std::size_t>(cfg_.num_threads));
    AB_REQUIRE(cfg_.rk_stages == 1 || cfg_.rk_stages == 2,
               "AmrSolver: rk_stages must be 1 or 2");
    AB_REQUIRE(cfg_.ghost >= (cfg_.order == SpatialOrder::Second ? 2 : 1),
               "AmrSolver: not enough ghost layers for the spatial order");
    AB_REQUIRE(!cfg_.subcycling || (cfg_.rk_stages == 1 && !cfg_.flux_correction),
               "AmrSolver: subcycling requires rk_stages == 1 and no flux "
               "correction");
    for (int id : forest_.leaves()) {
      store_.ensure(id);
      scratch_.ensure(id);
    }
    if (cfg_.subcycling) rebuild_level_structures();
    rebuild_graphs();
  }

  // The exchanger holds a pointer to the member forest; moving would dangle.
  AmrSolver(const AmrSolver&) = delete;
  AmrSolver& operator=(const AmrSolver&) = delete;
  AmrSolver(AmrSolver&&) = delete;
  AmrSolver& operator=(AmrSolver&&) = delete;

  Forest<D>& forest() { return forest_; }
  const Forest<D>& forest() const { return forest_; }
  BlockStore<D>& store() { return store_; }
  const BlockStore<D>& store() const { return store_; }
  /// The shared slab arena backing this solver's stores. Stats only; the
  /// solver owns the allocation policy.
  const BlockPool* block_pool() const { return block_pool_.get(); }
  const GhostExchanger<D>& exchanger() const { return exchanger_; }
  /// What the layout autotuner decided at construction (enabled == false
  /// when tuning was off — the config was left untouched).
  const tune::TuneDecision& tune_decision() const { return tune_decision_; }
  const Config& config() const { return cfg_; }
  const Phys& physics() const { return phys_; }
  double time() const { return time_; }
  std::uint64_t total_flops() const { return flop_counter_.total(); }
  std::int64_t total_interior_cells() const {
    return static_cast<std::int64_t>(forest_.num_leaves()) *
           store_.layout().interior_cells();
  }

  /// Cell size of a block at `level`.
  RVec<D> cell_dx(int level) const {
    RVec<D> dx = forest_.block_size(level);
    for (int d = 0; d < D; ++d) dx[d] /= cfg_.cells_per_block[d];
    return dx;
  }

  /// Physical center of interior cell `p` of block `id`.
  RVec<D> cell_center(int id, IVec<D> p) const {
    RVec<D> lo = forest_.block_lo(id);
    RVec<D> dx = cell_dx(forest_.level(id));
    RVec<D> x;
    for (int d = 0; d < D; ++d) x[d] = lo[d] + (p[d] + 0.5) * dx[d];
    return x;
  }

  /// Set the solution from a point function evaluated at cell centers.
  void init(const std::function<void(const RVec<D>&, State&)>& f) {
    for (int id : forest_.leaves()) {
      store_.ensure(id);
      scratch_.ensure(id);
      BlockView<D> v = store_.view(id);
      for_each_cell<D>(store_.layout().interior_box(), [&](IVec<D> p) {
        State u{};
        f(cell_center(id, p), u);
        for (int k = 0; k < Phys::NVAR; ++k) v.at(k, p) = u[k];
      });
    }
  }

  /// Exchange ghosts and apply boundary conditions on the given store.
  void fill_ghosts(BlockStore<D>& s, double t) {
    obs::PhaseScope ps(cfg_.telemetry, "ghost_exchange");
    exchanger_.fill(s, pool_.get());
    apply_boundary_conditions<D>(s, forest_, exchanger_.boundary_faces(),
                                 cfg_.bc, t);
    account_ghost_plan();
  }
  void fill_ghosts() { fill_ghosts(store_, time_); }

  /// Stable timestep from the CFL condition over all blocks. With
  /// subcycling this is the COARSE-level step: a block at level l only has
  /// to be stable at dt / 2^(l - lmin), so refined regions no longer
  /// throttle the whole grid.
  double compute_dt() const {
    obs::PhaseScope ps(cfg_.telemetry, "compute_dt");
    const int lmin = forest_.stats().min_level;
    const std::vector<int>& leaves = forest_.leaves();
    // Per-block wave speeds are independent scans; run them on the pool and
    // reduce serially in leaf order (so the validity check and the min fold
    // stay deterministic and thread-count independent).
    std::vector<double> wave(leaves.size());
    auto scan = [&](std::int64_t i) {
      const int id = leaves[static_cast<std::size_t>(i)];
      const RVec<D> dx = cell_dx(forest_.level(id));
      wave[static_cast<std::size_t>(i)] = block_wave_speed_sum<D, Phys>(
          store_.layout(), store_.view(id).base, phys_, dx);
    };
    if (pool_) {
      pool_->parallel_for(static_cast<std::int64_t>(leaves.size()), scan);
    } else {
      for (std::int64_t i = 0; i < static_cast<std::int64_t>(leaves.size());
           ++i)
        scan(i);
    }
    double dt = 1e300;
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      AB_REQUIRE(std::isfinite(wave[i]),
                 "compute_dt: non-finite wave speed in block " +
                     std::to_string(leaves[i]) +
                     " (a NaN, infinite or negative-density cell)");
      AB_REQUIRE(wave[i] > 0.0, "compute_dt: zero wave speed");
      double block_dt = cfg_.cfl / wave[i];
      if (cfg_.subcycling)
        block_dt *=
            static_cast<double>(1 << (forest_.level(leaves[i]) - lmin));
      dt = std::min(dt, block_dt);
    }
    return dt;
  }

  /// Advance one step of size `dt`. With a telemetry sink attached this
  /// also times the step, tallies per-phase wall times, and appends one
  /// StepReport record (if a report file is open); without one the
  /// instrumentation collapses to pointer tests.
  void step(double dt) {
    obs::Telemetry* const tel = cfg_.telemetry;
    if (tel == nullptr) {
      step_impl(dt);
      return;
    }
    const std::int64_t t0 = tel->trace.now_ns();
    const std::uint64_t updates0 = block_updates_;
    const std::uint64_t flops0 = flop_counter_.total();
    step_impl(dt);
    emit_step_report(tel, dt, t0, updates0, flops0);
  }

 private:
  void step_impl(double dt) {
    if (cfg_.subcycling) {
      step_subcycled(dt);
      return;
    }
    if (pool_) {
      step_graph(dt);
      return;
    }
    const BlockLayout<D>& lay = store_.layout();
    // Stage 1: scratch = u + dt L(u).
    serial_stage(store_, scratch_, time_, dt);
    if (cfg_.rk_stages == 1) {
      obs::PhaseScope ps(cfg_.telemetry, "epilogue");
      if (cfg_.apply_positivity_fix)
        for_leaves([&](int id) { fix_block(scratch_, id); });
      std::swap(store_, scratch_);
      time_ += dt;
      return;
    }
    if (cfg_.apply_positivity_fix)
      for_leaves([&](int id) { fix_block(scratch_, id); });
    // Stage 2 (Heun): u <- (u + (scratch + dt L(scratch))) / 2.
    if (cfg_.flux_correction) {
      // Refluxing needs the whole stage result before combining: use a
      // third store.
      if (!stage2_) stage2_ = new_store();
      for (int id : forest_.leaves()) stage2_->ensure(id);
      serial_stage(scratch_, *stage2_, time_ + dt, dt);
      obs::PhaseScope ps(cfg_.telemetry, "epilogue");
      for_leaves([&](int id) {
        combine_half(store_.view(id), std::as_const(*stage2_).view(id));
        if (cfg_.apply_positivity_fix) fix_block(store_, id);
      });
    } else {
      AlignedBuffer tmp(static_cast<std::size_t>(lay.block_doubles()));
      fill_and_update(scratch_, time_ + dt, [&](int id) {
        const RVec<D> dx = cell_dx(forest_.level(id));
        flop_counter_.add(fv_block_update_tiled<D, Phys>(
            cfg_.sub_block, lay, scratch_.view(id).base, tmp.data(), phys_,
            dx, dt, cfg_.order, cfg_.limiter, cfg_.flux, nullptr, nullptr,
            &kernel_scratch_[0]));
        combine_half(store_.view(id), ConstBlockView<D>{tmp.data(), &lay});
        if (cfg_.apply_positivity_fix) fix_block(store_, id);
      });
      block_updates_ += static_cast<std::uint64_t>(forest_.num_leaves());
    }
    time_ += dt;
  }

  /// One-thread stage loop: fill each block's ghosts in `in` right before
  /// `update(id)` runs, so the ghost ring the kernel reads is still in
  /// cache. Bitwise equal to filling every ghost first: a stage writes only
  /// its output, ghost ops read source interiors, and the one exception —
  /// Prolong slope stencils read their coarse source's phase-1 ghosts — is
  /// covered by filling the prolong sources' phase-1 ghosts up front.
  /// Boundary conditions read only their own block's interior and write
  /// slabs no op touches, so they run up front too.
  template <class Update>
  void fill_and_update(BlockStore<D>& in, double t, const Update& update) {
    const std::vector<int>& leaves = forest_.leaves();
    {
      obs::PhaseScope ps(cfg_.telemetry, "ghost_exchange");
      apply_boundary_conditions<D>(in, forest_, exchanger_.boundary_faces(),
                                   cfg_.bc, t);
      for (int id : leaves)
        if (exchanger_.is_prolong_source(id))
          exchanger_.fill_block_phase1(in, id);
    }
    obs::PhaseScope ps(cfg_.telemetry, "stage_update");
    for (int id : leaves) {
      if (!exchanger_.is_prolong_source(id))
        exchanger_.fill_block_phase1(in, id);
      exchanger_.fill_block_prolong(in, id);
      update(id);
    }
    account_ghost_plan();
  }

  /// One forward-Euler stage on one thread: out = in + dt L(in) at time t,
  /// with boundary-face flux recording and refluxing when enabled.
  void serial_stage(BlockStore<D>& in, BlockStore<D>& out, double t,
                    double dt) {
    const BlockLayout<D>& lay = store_.layout();
    fill_and_update(in, t, [&](int id) {
      const RVec<D> dx = cell_dx(forest_.level(id));
      FaceFluxStorage<D>* ff =
          (cfg_.flux_correction && flux_register_.needs_fluxes(id))
              ? &flux_register_.storage(id)
              : nullptr;
      flop_counter_.add(fv_block_update_tiled<D, Phys>(
          cfg_.sub_block, lay, in.view(id).base, out.view(id).base, phys_, dx,
          dt, cfg_.order, cfg_.limiter, cfg_.flux, ff, nullptr,
          &kernel_scratch_[0]));
    });
    block_updates_ += static_cast<std::uint64_t>(forest_.num_leaves());
    // Corrections may touch one block from several faces: run serially.
    if (cfg_.flux_correction) {
      obs::PhaseScope ps(cfg_.telemetry, "reflux");
      flux_register_.apply(out, dt);
    }
  }

 public:

  /// Advance with CFL-limited steps until `t_end` (or `max_steps`).
  /// Returns the number of steps taken.
  int advance_to(double t_end, int max_steps = 1000000) {
    int steps = 0;
    while (time_ < t_end && steps < max_steps) {
      double dt = compute_dt();
      if (time_ + dt > t_end) dt = t_end - time_;
      step(dt);
      ++steps;
    }
    return steps;
  }

  struct AdaptResult {
    int refined = 0;    ///< refine events (including cascades)
    int coarsened = 0;  ///< coarsen events
  };

  /// One adaptation cycle: flag every leaf with `criterion` (signature
  /// AdaptFlag(const Forest&, const BlockStore&, int block)), refine flagged
  /// blocks (with constraint cascades), then coarsen eligible sibling
  /// families. Block data is prolonged/restricted; ghosts are refilled.
  template <class Criterion>
  AdaptResult adapt(const Criterion& criterion) {
    obs::Telemetry* const tel = cfg_.telemetry;
    obs::PhaseScope ps(tel, "regrid", "regrid");
    AdaptResult res;
    // Snapshot flags before mutating topology: the leaves in order, and the
    // flag of each by node id (nodes created below read as Keep).
    std::vector<int> flagged;
    std::vector<AdaptFlag> flags;
    {
      obs::PhaseScope fs(tel, "regrid.flag");
      flagged = forest_.leaves();
      flags.assign(static_cast<std::size_t>(forest_.node_capacity()),
                   AdaptFlag::Keep);
      for (int id : flagged)
        flags[static_cast<std::size_t>(id)] = criterion(forest_, store_, id);
    }
    auto flag_of = [&](int id) {
      return id < static_cast<int>(flags.size())
                 ? flags[static_cast<std::size_t>(id)]
                 : AdaptFlag::Keep;
    };

    {
      obs::PhaseScope ts(tel, "regrid.transfer");
      // Refinement (cascades may refine additional blocks).
      for (int id : flagged) {
        if (flag_of(id) != AdaptFlag::Refine) continue;
        if (!forest_.is_live(id) || !forest_.is_leaf(id)) continue;
        if (forest_.level(id) >= cfg_.forest.max_level) continue;
        for (const auto& ev : forest_.refine(id)) {
          prolong_to_children<D>(store_, ev, cfg_.prolongation);
          for (int c : ev.children) scratch_.ensure(c);
          scratch_.release(ev.parent);
          ++res.refined;
        }
      }

      // Coarsening: a sibling family merges only if every child was
      // flagged Coarsen, is still a leaf, and the constraint allows it.
      std::vector<int> parents;
      for (int id : flagged) {
        if (flag_of(id) != AdaptFlag::Coarsen) continue;
        if (!forest_.is_live(id) || !forest_.is_leaf(id)) continue;
        const int p = forest_.parent(id);
        if (p < 0) continue;
        if (forest_.child_index(id) != 0) continue;  // visit once per family
        parents.push_back(p);
      }
      for (int p : parents) {
        if (!forest_.is_live(p) || forest_.is_leaf(p)) continue;
        bool all = true;
        const auto& kids = forest_.children(p);
        for (int c : kids) {
          if (!forest_.is_live(c) || !forest_.is_leaf(c) ||
              flag_of(c) != AdaptFlag::Coarsen) {
            all = false;
            break;
          }
        }
        if (!all || !forest_.can_coarsen(p)) continue;
        restrict_to_parent<D>(store_, p, kids);
        scratch_.ensure(p);
        for (int c : kids) scratch_.release(c);
        forest_.coarsen(p);
        ++res.coarsened;
      }
    }

    if (res.refined || res.coarsened) {
      {
        obs::PhaseScope ts(tel, "regrid.topology");
        forest_.leaves();  // merge the new leaves into the curve order
        forest_.rebuild_neighbor_table();
      }
      obs::PhaseScope ps2(tel, "regrid.plan");
      exchanger_.rebuild();
      if (cfg_.flux_correction) flux_register_.rebuild(exchanger_);
      if (cfg_.subcycling) rebuild_level_structures();
      rebuild_graphs();
    }
    pending_refined_ += res.refined;
    pending_coarsened_ += res.coarsened;
    if (tel != nullptr) {
      tel->metrics.counter("solver.refined")->add(
          static_cast<std::uint64_t>(res.refined));
      tel->metrics.counter("solver.coarsened")->add(
          static_cast<std::uint64_t>(res.coarsened));
    }
    return res;
  }

  /// Total of conserved variable `var` over the domain (cell value times
  /// cell volume); machine-exact conservation on periodic uniform grids,
  /// near-conservation with AMR (ghost-based scheme, as in the paper).
  double total_conserved(int var) const {
    double total = 0.0;
    for (int id : forest_.leaves()) {
      const RVec<D> dx = cell_dx(forest_.level(id));
      double vol = 1.0;
      for (int d = 0; d < D; ++d) vol *= dx[d];
      ConstBlockView<D> v = store_.view(id);
      double s = 0.0;
      for_each_cell<D>(store_.layout().interior_box(),
                       [&](IVec<D> p) { s += v.at(var, p); });
      total += s * vol;
    }
    return total;
  }

  /// Number of coarse/fine face corrections currently planned (0 unless
  /// flux_correction is enabled and the grid has resolution jumps).
  int flux_corrections_planned() const {
    return flux_register_.num_corrections();
  }

  /// Write a restart file (topology + solution + time), checksummed and
  /// written atomically; the write is accounted to the ckpt.* metrics when
  /// telemetry is attached. Returns bytes written.
  std::uint64_t save(const std::string& path) const {
    obs::Telemetry* const tel = cfg_.telemetry;
    const std::int64_t t0 = tel != nullptr ? tel->trace.now_ns() : 0;
    const std::uint64_t bytes =
        save_checkpoint<D>(path, forest_, store_, time_);
    if (tel != nullptr) {
      tel->metrics.counter("ckpt.saves")->add(1);
      tel->metrics.counter("ckpt.bytes")->add(bytes);
      tel->metrics.gauge("ckpt.last_save_s")
          ->set(static_cast<double>(tel->trace.now_ns() - t0) * 1e-9);
    }
    return bytes;
  }

  /// Restore a restart file. Only valid on a freshly constructed solver
  /// (no refinement or stepping yet) whose configuration matches the file.
  void restore(const std::string& path) {
    time_ = load_checkpoint<D>(path, forest_, store_);
    for (int id : forest_.leaves()) scratch_.ensure(id);
    forest_.touch_all();  // a new topology: every structure rebuilds in full
    forest_.rebuild_neighbor_table();
    exchanger_.rebuild();
    if (cfg_.flux_correction) flux_register_.rebuild(exchanger_);
    if (cfg_.subcycling) rebuild_level_structures();
    rebuild_graphs();
  }

  /// Total per-block kernel invocations so far (a work measure: with
  /// subcycling, coarse blocks update less often than fine ones).
  std::uint64_t block_updates() const { return block_updates_; }

 private:
  // ------------------------------------------------------------------
  // Subcycling (local time stepping)
  //
  // Recursion invariant: when advance_level(l, t, dt) runs, every block at
  // level >= l holds the solution at time t, and every coarser level l' < l
  // holds time level_t_cur_[l'] >= t with its previous state (ghosts
  // included) preserved in scratch_ for time interpolation.

  /// Regroup leaves, exchange ops, and boundary faces by refinement level.
  void rebuild_level_structures() {
    const int nl = cfg_.forest.max_level + 1;
    level_leaves_.assign(nl, {});
    level_ops_.assign(nl, {});
    level_bfaces_.assign(nl, {});
    level_t_old_.assign(nl, time_);
    level_t_cur_.assign(nl, time_);
    for (int id : forest_.leaves())
      level_leaves_[forest_.level(id)].push_back(id);
    const auto& ops = exchanger_.ops();
    level_op_kinds_.assign(static_cast<std::size_t>(nl), {});
    for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
      const int lvl = forest_.level(ops[i].dst);
      level_ops_[lvl].push_back(i);
      ++level_op_kinds_[static_cast<std::size_t>(lvl)]
                       [static_cast<int>(ops[i].kind)];
    }
    for (const auto& bf : exchanger_.boundary_faces())
      level_bfaces_[forest_.level(bf.block)].push_back(bf);
  }

  /// Apply one ghost op for a subcycled fill at time `tau`: same-level and
  /// finer sources are synchronized at tau (recursion invariant); coarser
  /// sources are interpolated linearly between their old (scratch_) and
  /// current (store_) states.
  void apply_subcycled_op(const GhostOp<D>& op, double tau) {
    if (op.kind != GhostOpKind::Prolong) {
      exchanger_.apply(store_, op);
      return;
    }
    const int src_level = forest_.level(op.dst) - 1;
    const double t0 = level_t_old_[src_level];
    const double t1 = level_t_cur_[src_level];
    double theta = (t1 > t0) ? (tau - t0) / (t1 - t0) : 1.0;
    theta = std::min(std::max(theta, 0.0), 1.0);
    if (theta >= 1.0 - 1e-12) {
      exchanger_.apply(store_, op);  // pure current state
      return;
    }
    BlockView<D> dst = store_.view(op.dst);
    ConstBlockView<D> cur = std::as_const(store_).view(op.src);
    ConstBlockView<D> old = std::as_const(scratch_).view(op.src);
    for (int v = 0; v < Phys::NVAR; ++v) {
      for_each_cell<D>(op.dst_box, [&](IVec<D> q) {
        IVec<D> gf = q + op.a;
        IVec<D> cc, parity;
        for (int d = 0; d < D; ++d) {
          cc[d] = (gf[d] >> 1) - op.b[d];
          parity[d] = gf[d] & 1;
        }
        const double vo = prolong_value<D>(old, v, cc, parity, op.valid,
                                           exchanger_.prolongation());
        const double vc = prolong_value<D>(cur, v, cc, parity, op.valid,
                                           exchanger_.prolongation());
        dst.at(v, q) = (1.0 - theta) * vo + theta * vc;
      });
    }
  }

  /// Fill the ghosts of all level-l blocks for time tau.
  void fill_level_ghosts(int l, double tau) {
    const auto& ops = exchanger_.ops();
    for (int i : level_ops_[l]) apply_subcycled_op(ops[i], tau);
    apply_boundary_conditions<D>(store_, forest_, level_bfaces_[l], cfg_.bc,
                                 tau);
  }

  /// Advance level l from t to t+dt, then recursively advance finer levels
  /// in two half-steps each.
  void advance_level(int l, int lmax, double t, double dt) {
    const BlockLayout<D>& lay = store_.layout();
    if (pool_ && !level_graphs_.empty()) {
      sub_tau_ = t;
      sub_dt_ = dt;
      {
        obs::PhaseScope ps(cfg_.telemetry, "stage_graph");
        TaskGraph& g = level_graphs_[static_cast<std::size_t>(l)];
        g.set_parent_span(ps.span_id());
        g.run(pool_.get());
      }
      account_ghost_level(l);
      flop_counter_.add(static_cast<std::uint64_t>(level_leaves_[l].size()) *
                        fv_update_flops<D, Phys>(lay, cfg_.order));
      block_updates_ += static_cast<std::uint64_t>(level_leaves_[l].size());
    } else {
      {
        obs::PhaseScope ps(cfg_.telemetry, "ghost_exchange");
        fill_level_ghosts(l, t);
      }
      account_ghost_level(l);
      obs::PhaseScope ps(cfg_.telemetry, "stage_update");
      const RVec<D> dx = cell_dx(l);
      for (int id : level_leaves_[l]) {
        flop_counter_.add(fv_block_update_tiled<D, Phys>(
            cfg_.sub_block, lay, store_.view(id).base, scratch_.view(id).base,
            phys_, dx, dt, cfg_.order, cfg_.limiter, cfg_.flux, nullptr,
            nullptr, &kernel_scratch_[0]));
        // Swap: store_ takes the new state; scratch_ keeps the old one
        // (with its freshly filled ghosts) for finer-level interpolation.
        store_.swap_block(scratch_, id);
        ++block_updates_;
        if (cfg_.apply_positivity_fix) fix_block(store_, id);
      }
    }
    level_t_old_[l] = t;
    level_t_cur_[l] = t + dt;
    if (l < lmax) {
      advance_level(l + 1, lmax, t, 0.5 * dt);
      advance_level(l + 1, lmax, t + 0.5 * dt, 0.5 * dt);
    }
  }

  void step_subcycled(double dt) {
    const auto st = forest_.stats();
    advance_level(st.min_level, st.max_level, time_, dt);
    time_ += dt;
  }

  // ------------------------------------------------------------------
  // Dependency-driven stepping (task graphs; pool_ only)
  //
  // A stage's work per leaf d splits into tasks with per-block edges
  // instead of global phase barriers:
  //
  //   gh[d]   phase-1 ghost ops into d (SameCopy/Restrict — read source
  //           interiors only) + d's boundary conditions (read d's own
  //           interior, write d's boundary ghost slabs). No dependencies.
  //   pr[d]   Prolong ops into d. Their slope stencils may read ghost
  //           slabs of the coarse sources that phase 1 fills (op.valid
  //           extends only into copy/restriction-filled slabs, never BC or
  //           coarser ones), so pr[d] depends on gh[s] for each distinct
  //           prolong source s — not on every phase-1 op globally.
  //   in[d]   kernel update of the interior core (stencil radius <= ghost
  //           never leaves owned cells). No dependencies: overlaps with
  //           the whole exchange.
  //   rim[d]  kernel update of the rim slabs (stencil reads d's ghost
  //           ring): depends on gh[d] and pr[d]. When d records face
  //           fluxes for refluxing it becomes one full-block update
  //           instead (FaceFluxStorage is incompatible with sub-boxes)
  //           and in[d] is omitted.
  //   epi[d]  optional per-block epilogue (Heun combine into store_,
  //           positivity fix): depends on in[d] and rim[d].
  //
  // Every task writes a region no concurrent task reads or writes: ghost
  // ops into distinct destinations (and distinct faces of one destination)
  // are disjoint, BC faces carry no exchange ops, core/rim tile the
  // interior disjointly, and stage output goes to a different store than
  // stage input. Sub-box kernel updates over a tiling are bitwise equal to
  // one full-block update, so any execution order the scheduler picks
  // yields bytes identical to the serial path.
  //
  // The graph is rebuilt per topology change; per-stage parameters (which
  // store is input/output, dt, time, whether the epilogue combines/fixes)
  // flow through ctx_, read by task bodies at run time.

  struct StageCtx {
    BlockStore<D>* in = nullptr;
    BlockStore<D>* out = nullptr;
    double dt = 0.0;
    double t = 0.0;
    bool combine = false;
    bool fix = false;
  };

  /// One kernel call for block `id` (sub == nullptr: whole block).
  void update_block(BlockStore<D>& in, BlockStore<D>& out, int id,
                    const RVec<D>& dx, double dt, FaceFluxStorage<D>* ff,
                    const Box<D>* sub) {
    // Tiling applies only to whole-block calls (ff == nullptr, sub ==
    // nullptr); the wrapper falls through to the plain kernel otherwise.
    fv_block_update_tiled<D, Phys>(
        cfg_.sub_block, store_.layout(), in.view(id).base, out.view(id).base,
        phys_, dx, dt, cfg_.order, cfg_.limiter, cfg_.flux, ff, sub,
        &kernel_scratch_[static_cast<std::size_t>(
            ThreadPool::this_thread_index())]);
  }

  /// Interior/rim overlap needs at least two hardware threads: with one
  /// core the pool only time-slices and the split's rim-slab overhead is
  /// pure loss (0 = unknown: assume multicore).
  static bool overlap_pays() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 || hw >= 2;
  }

  void rebuild_graphs() {
    if (!pool_) return;
    bfaces_by_block_.assign(static_cast<std::size_t>(forest_.node_capacity()),
                            {});
    for (const auto& bf : exchanger_.boundary_faces())
      bfaces_by_block_[static_cast<std::size_t>(bf.block)].push_back(bf);
    if (cfg_.subcycling)
      rebuild_level_graphs();
    else
      rebuild_stage_graph();
    obs::Tracer* const tr =
        cfg_.telemetry != nullptr ? &cfg_.telemetry->trace : nullptr;
    stage_graph_.set_tracer(tr, "block_task");
    for (TaskGraph& g : level_graphs_) g.set_tracer(tr, "block_task");
  }

  void rebuild_stage_graph() {
    stage_graph_.clear();
    if (cfg_.rk_stages == 2) {
      if (!stage2_) stage2_ = new_store();
      for (int id : forest_.leaves()) stage2_->ensure(id);
    }
    const Box<D> core = exchanger_.interior_core();
    const bool epilogue = !cfg_.flux_correction &&
                          (cfg_.rk_stages == 2 || cfg_.apply_positivity_fix);
    const std::vector<int>& leaves = forest_.leaves();
    // A block's ghost fill needs its own task only if some finer block's
    // prolongation reads those ghosts (slope stencils read copy- and
    // restriction-filled ghost cells). Everyone else folds the fill into
    // the block's update task — for a same-level-only region that leaves
    // one fused task per block per stage with no dependencies at all.
    std::vector<int> gh(static_cast<std::size_t>(forest_.node_capacity()), -1);
    for (int d : leaves)
      if (exchanger_.is_prolong_source(d))
        gh[static_cast<std::size_t>(d)] = stage_graph_.add([this, d] {
          exchanger_.fill_block_phase1(*ctx_.in, d);
          apply_boundary_conditions<D>(
              *ctx_.in, forest_,
              bfaces_by_block_[static_cast<std::size_t>(d)], cfg_.bc, ctx_.t);
        });
    for (int d : leaves) {
      const RVec<D> dx = cell_dx(forest_.level(d));
      const bool fuse_gh = !exchanger_.is_prolong_source(d);
      const bool has_pr = !exchanger_.prolong_sources(d).empty();
      const bool record =
          cfg_.flux_correction && flux_register_.needs_fluxes(d);
      // Interior/rim splitting costs extra sweep-setup work on the thin rim
      // slabs, so it is applied only where it buys overlap: blocks whose
      // ghosts need interpolation from a coarse neighbor (the expensive,
      // dependency-laden fills), and only when the hardware can actually
      // run interior compute concurrently with the fill. Same-level-only
      // blocks run as one task — their ghost fill is a handful of row
      // copies with nothing to hide.
      const bool split =
          !record && !core.empty() && overlap_pays() && has_pr;
      // Without a split the epilogue has a single producer: fold it in.
      const bool fuse_epi = epilogue && !split;
      int interior = -1;
      if (split)
        interior = stage_graph_.add([this, d, dx, core] {
          update_block(*ctx_.in, *ctx_.out, d, dx, ctx_.dt, nullptr, &core);
        });
      const int rim = stage_graph_.add(
          [this, d, dx, record, split, fuse_gh, has_pr, fuse_epi] {
            if (fuse_gh) {
              exchanger_.fill_block_phase1(*ctx_.in, d);
              apply_boundary_conditions<D>(
                  *ctx_.in, forest_,
                  bfaces_by_block_[static_cast<std::size_t>(d)], cfg_.bc,
                  ctx_.t);
            }
            if (has_pr) exchanger_.fill_block_prolong(*ctx_.in, d);
            if (record) {
              update_block(*ctx_.in, *ctx_.out, d, dx, ctx_.dt,
                           &flux_register_.storage(d), nullptr);
            } else if (!split) {
              update_block(*ctx_.in, *ctx_.out, d, dx, ctx_.dt, nullptr,
                           nullptr);
            } else {
              for (const Box<D>& b : exchanger_.rim_boxes())
                update_block(*ctx_.in, *ctx_.out, d, dx, ctx_.dt, nullptr, &b);
            }
            if (fuse_epi) {
              if (ctx_.combine)
                combine_half(store_.view(d), std::as_const(*stage2_).view(d));
              if (ctx_.fix) fix_block(ctx_.combine ? store_ : *ctx_.out, d);
            }
          });
      if (!fuse_gh) stage_graph_.depends(rim, gh[static_cast<std::size_t>(d)]);
      for (int s : exchanger_.prolong_sources(d))
        stage_graph_.depends(rim, gh[static_cast<std::size_t>(s)]);
      if (epilogue && split) {
        const int epi = stage_graph_.add([this, d] {
          if (ctx_.combine)
            combine_half(store_.view(d), std::as_const(*stage2_).view(d));
          if (ctx_.fix) fix_block(ctx_.combine ? store_ : *ctx_.out, d);
        });
        stage_graph_.depends(epi, interior);
        stage_graph_.depends(epi, rim);
      }
    }
  }

  /// Run one stage through the graph: ctx_ must be set. Handles flux
  /// pre-touch, flop accounting, and refluxing like serial_stage.
  void run_stage_graph() {
    if (cfg_.flux_correction)
      for (int id : forest_.leaves())
        if (flux_register_.needs_fluxes(id)) flux_register_.storage(id);
    {
      obs::PhaseScope ps(cfg_.telemetry, "stage_graph");
      stage_graph_.set_parent_span(ps.span_id());
      stage_graph_.run(pool_.get());
    }
    account_ghost_plan();
    flop_counter_.add(static_cast<std::uint64_t>(forest_.num_leaves()) *
                      fv_update_flops<D, Phys>(store_.layout(), cfg_.order));
    block_updates_ += static_cast<std::uint64_t>(forest_.num_leaves());
    // Corrections may touch one block from several faces: run serially.
    if (cfg_.flux_correction) {
      obs::PhaseScope ps(cfg_.telemetry, "reflux");
      flux_register_.apply(*ctx_.out, ctx_.dt);
    }
  }

  /// Threaded step: both Heun stages flow through the task graph. With
  /// flux correction the combine/fix epilogues cannot fold into the graph
  /// (they must see the refluxed stage result), so they run as post-passes
  /// in the same order the serial path uses.
  void step_graph(double dt) {
    ctx_ = StageCtx{&store_, &scratch_, dt, time_, false,
                    cfg_.apply_positivity_fix && !cfg_.flux_correction};
    run_stage_graph();
    if (cfg_.flux_correction && cfg_.apply_positivity_fix) {
      obs::PhaseScope ps(cfg_.telemetry, "epilogue");
      for_leaves([&](int id) { fix_block(scratch_, id); });
    }
    if (cfg_.rk_stages == 1) {
      std::swap(store_, scratch_);
      time_ += dt;
      return;
    }
    for (int id : forest_.leaves()) stage2_->ensure(id);
    ctx_ = StageCtx{&scratch_, stage2_.get(), dt, time_ + dt,
                    !cfg_.flux_correction,
                    cfg_.apply_positivity_fix && !cfg_.flux_correction};
    run_stage_graph();
    if (cfg_.flux_correction) {
      obs::PhaseScope ps(cfg_.telemetry, "epilogue");
      for_leaves([&](int id) {
        combine_half(store_.view(id), std::as_const(*stage2_).view(id));
        if (cfg_.apply_positivity_fix) fix_block(store_, id);
      });
    }
    time_ += dt;
  }

  // Subcycling task graphs, one per level. The same interior/rim split
  // applies, with two twists: ghost fills time-blend Prolong sources
  // (apply_subcycled_op), and the rim task finishes by swapping the
  // block's store_/scratch_ buffers and fixing positivity — publishing the
  // new state. Because a same-level SameCopy into d' reads the OLD
  // interior of its source s, the swap task R(s) also waits on F(d') for
  // every same-level consumer d' (anti-dependency). Finer and coarser
  // sources are not updated during this level's graph, so they need no
  // edges.
  void rebuild_level_graphs() {
    const int nl = cfg_.forest.max_level + 1;
    level_graphs_ = std::vector<TaskGraph>(static_cast<std::size_t>(nl));
    const Box<D> core = exchanger_.interior_core();
    const auto& ops = exchanger_.ops();
    for (int l = 0; l < nl; ++l) {
      TaskGraph& g = level_graphs_[static_cast<std::size_t>(l)];
      const RVec<D> dx = cell_dx(l);
      std::vector<int> fid(static_cast<std::size_t>(forest_.node_capacity()),
                           -1);
      std::vector<int> rid(static_cast<std::size_t>(forest_.node_capacity()),
                           -1);
      for (int d : level_leaves_[l])
        fid[static_cast<std::size_t>(d)] = g.add([this, d] {
          const auto r = exchanger_.dst_ops(d);
          for (int i = r.first; i < r.first + r.count; ++i)
            apply_subcycled_op(exchanger_.ops()[static_cast<std::size_t>(i)],
                               sub_tau_);
          apply_boundary_conditions<D>(
              store_, forest_, bfaces_by_block_[static_cast<std::size_t>(d)],
              cfg_.bc, sub_tau_);
        });
      for (int d : level_leaves_[l]) {
        // Split only blocks with a time-blended coarse fill to hide (same
        // heuristic as the stage graph: thin rim slabs cost sweep setup).
        const bool has_prolong = !exchanger_.prolong_sources(d).empty();
        const bool split = !core.empty() && overlap_pays() && has_prolong;
        int interior = -1;
        if (split)
          interior = g.add([this, d, dx, core] {
            update_block(store_, scratch_, d, dx, sub_dt_, nullptr, &core);
          });
        rid[static_cast<std::size_t>(d)] = g.add([this, d, dx, split] {
          if (!split) {
            update_block(store_, scratch_, d, dx, sub_dt_, nullptr, nullptr);
          } else {
            for (const Box<D>& b : exchanger_.rim_boxes())
              update_block(store_, scratch_, d, dx, sub_dt_, nullptr, &b);
          }
          // Swap: store_ takes the new state; scratch_ keeps the old one
          // (with its freshly filled ghosts) for finer-level interpolation.
          store_.swap_block(scratch_, d);
          if (cfg_.apply_positivity_fix) fix_block(store_, d);
        });
        g.depends(rid[static_cast<std::size_t>(d)],
                  fid[static_cast<std::size_t>(d)]);
        if (interior >= 0)
          g.depends(rid[static_cast<std::size_t>(d)], interior);
      }
      // Anti-dependencies: s's swap waits until every same-level copy out
      // of s has read the old state.
      for (int d : level_leaves_[l]) {
        const auto r = exchanger_.dst_ops(d);
        for (int i = r.first; i < r.first + r.count; ++i) {
          const GhostOp<D>& op = ops[static_cast<std::size_t>(i)];
          if (op.kind == GhostOpKind::SameCopy)
            g.depends(rid[static_cast<std::size_t>(op.src)],
                      fid[static_cast<std::size_t>(op.dst)]);
        }
      }
    }
  }

  /// Run fn(leaf_id) for every leaf, in parallel when a pool exists.
  template <class F>
  void for_leaves(const F& fn) {
    const std::vector<int>& leaves = forest_.leaves();
    if (pool_) {
      pool_->parallel_for(static_cast<std::int64_t>(leaves.size()),
                          [&](std::int64_t i) {
                            fn(leaves[static_cast<std::size_t>(i)]);
                          });
    } else {
      for (int id : leaves) fn(id);
    }
  }

  /// dst = (dst + src) / 2 over the interior (shared with RankSolver so the
  /// rank-parallel path is bitwise identical by construction).
  void combine_half(BlockView<D> dst, ConstBlockView<D> src) {
    heun_combine_half<D, Phys>(dst, src);
  }

  void fix_block(BlockStore<D>& s, int id) {
    apply_positivity_fix<D, Phys>(phys_, s, id, cfg_.rho_floor, cfg_.p_floor);
  }

  // ------------------------------------------------------------------
  // Observability plumbing. All no-ops (single pointer test) when
  // cfg_.telemetry is null.

  /// Tally one full ghost fill (every op in the current plan) into this
  /// step's per-kind counters.
  void account_ghost_plan() {
    if (cfg_.telemetry == nullptr) return;
    const GhostPlanStats& st = exchanger_.plan_stats();
    for (int k = 0; k < 3; ++k) ghost_ops_step_[k] += st.ops[k];
  }

  /// Tally one level fill (subcycled path) into this step's counters.
  void account_ghost_level(int l) {
    if (cfg_.telemetry == nullptr ||
        static_cast<std::size_t>(l) >= level_op_kinds_.size())
      return;
    for (int k = 0; k < 3; ++k)
      ghost_ops_step_[k] += level_op_kinds_[static_cast<std::size_t>(l)]
                                           [static_cast<std::size_t>(k)];
  }

  /// Step epilogue when telemetry is attached: publish step metrics and,
  /// if a report file is open, append one JSONL record. Phase times drain
  /// from the telemetry's accumulator, so between-step work (compute_dt,
  /// regrid) rides in the NEXT step's record under its own phase name.
  void emit_step_report(obs::Telemetry* tel, double dt, std::int64_t t0,
                        std::uint64_t updates0, std::uint64_t flops0) {
    const double wall =
        static_cast<double>(tel->trace.now_ns() - t0) * 1e-9;
    const std::uint64_t updates = block_updates_ - updates0;
    const std::uint64_t flops = flop_counter_.total() - flops0;
    obs::MetricsRegistry& m = tel->metrics;
    m.counter("solver.steps")->add(1);
    m.counter("solver.block_updates")->add(updates);
    m.counter("solver.flops")->add(flops);
    m.counter("solver.ghost_copy_ops")
        ->add(static_cast<std::uint64_t>(ghost_ops_step_[0]));
    m.counter("solver.ghost_restrict_ops")
        ->add(static_cast<std::uint64_t>(ghost_ops_step_[1]));
    m.counter("solver.ghost_prolong_ops")
        ->add(static_cast<std::uint64_t>(ghost_ops_step_[2]));
    m.gauge("solver.dt")->set(dt);
    m.gauge("solver.blocks")->set(static_cast<double>(forest_.num_leaves()));
    // Pool counters are cumulative inside the arena; publish deltas so
    // the obs counters stay additive like every other counter.
    const BlockPool::Stats& ps = block_pool_->stats();
    m.gauge("pool.chunks")->set(static_cast<double>(ps.chunks));
    m.gauge("pool.slabs_in_use")->set(static_cast<double>(ps.slabs_in_use));
    m.counter("pool.reuse_hits")
        ->add(static_cast<std::uint64_t>(ps.reuse_hits - pool_reuse_seen_));
    m.counter("pool.fresh_allocs")
        ->add(static_cast<std::uint64_t>(ps.fresh_allocs - pool_fresh_seen_));
    pool_reuse_seen_ = ps.reuse_hits;
    pool_fresh_seen_ = ps.fresh_allocs;
    publish_tune_gauges(m, tune_decision_);
    m.histogram("solver.step_wall_s",
                {1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0})
        ->record(wall);
    if (tel->report() != nullptr) {
      obs::StepReport r;
      r.step = step_index_;
      r.t = time_;
      r.dt = dt;
      r.wall_s = wall;
      r.blocks = forest_.num_leaves();
      r.cells_updated =
          static_cast<std::int64_t>(updates) * store_.layout().interior_cells();
      r.refined = pending_refined_;
      r.coarsened = pending_coarsened_;
      r.layout = layout_string(store_.layout(), cfg_.sub_block);
      r.ghost_copy_ops = ghost_ops_step_[0];
      r.ghost_restrict_ops = ghost_ops_step_[1];
      r.ghost_prolong_ops = ghost_ops_step_[2];
      r.phase_s = tel->take_phase_times();
      const obs::MetricsSnapshot snap = m.snapshot();
      r.gauges = snap.gauges;
      r.counters.reserve(snap.counters.size());
      for (const auto& [name, v] : snap.counters)
        r.counters.emplace_back(name, static_cast<std::int64_t>(v));
      tel->report()->write(r);
    } else {
      tel->take_phase_times();  // reset the per-step accumulator regardless
    }
    ++step_index_;
    pending_refined_ = 0;
    pending_coarsened_ = 0;
    ghost_ops_step_[0] = ghost_ops_step_[1] = ghost_ops_step_[2] = 0;
  }

  // ------------------------------------------------------------------
  // Block storage.

  static BlockLayout<D> make_layout(const Config& cfg) {
    return BlockLayout<D>(cfg.cells_per_block, cfg.ghost, Phys::NVAR,
                          cfg.pad0);
  }

  /// A fresh store sharing this solver's pool.
  std::unique_ptr<BlockStore<D>> new_store() const {
    return std::make_unique<BlockStore<D>>(make_layout(cfg_), block_pool_);
  }

  // Declared before cfg_ so cfg_'s initializer (the autotuner) can fill it.
  tune::TuneDecision tune_decision_;
  Config cfg_;
  Phys phys_;
  Forest<D> forest_;
  std::shared_ptr<BlockPool> block_pool_;  // backs every store below
  BlockStore<D> store_;
  BlockStore<D> scratch_;
  GhostExchanger<D> exchanger_;
  FluxRegister<D> flux_register_;
  std::unique_ptr<BlockStore<D>> stage2_;  // with flux_correction or threads
  std::unique_ptr<ThreadPool> pool_;       // when num_threads > 1
  std::vector<AlignedScratch> kernel_scratch_;  // one per pool thread
  double time_ = 0.0;
  FlopCounter flop_counter_;  // thread-sharded; merged on total_flops()
  std::uint64_t block_updates_ = 0;
  // Observability bookkeeping (only written when cfg_.telemetry != nullptr,
  // except the cheap regrid tallies which adapt() always records).
  std::int64_t step_index_ = 0;
  std::int64_t pool_reuse_seen_ = 0;  // pool counters exported so far
  std::int64_t pool_fresh_seen_ = 0;
  int pending_refined_ = 0;    // regrid events since the last step report
  int pending_coarsened_ = 0;
  std::int64_t ghost_ops_step_[3] = {0, 0, 0};  // by GhostOpKind, this step
  // Per-level ghost-op kind counts for the subcycled path (one level fill's
  // worth); rebuilt with level structures.
  std::vector<std::array<std::int64_t, 3>> level_op_kinds_;
  // Subcycling bookkeeping (empty unless cfg_.subcycling).
  std::vector<std::vector<int>> level_leaves_;
  std::vector<std::vector<int>> level_ops_;
  std::vector<std::vector<BoundaryFace>> level_bfaces_;
  std::vector<double> level_t_old_;
  std::vector<double> level_t_cur_;
  // Task-graph stepping (populated only when pool_ exists).
  TaskGraph stage_graph_;
  StageCtx ctx_;
  std::vector<std::vector<BoundaryFace>> bfaces_by_block_;
  std::vector<TaskGraph> level_graphs_;       // per level, with subcycling
  double sub_tau_ = 0.0;  // current substep fill time (set before each run)
  double sub_dt_ = 0.0;   // current substep size
};

}  // namespace ab
