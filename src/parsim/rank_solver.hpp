// Rank-parallel time stepping: the AmrSolver loop run with every leaf
// owned by one of P simulated ranks.
//
// Each rank holds a private BlockStore containing only its blocks —
// nothing crosses a rank boundary except message payload: ghost fills go
// through BufferedExchange's buffers, flux-register corrections and
// coarsen gathers through a MessageBoard, and re-partitioned blocks
// migrate by pack/unpack of their interior cell data. The partition is
// recomputed after every regrid (PartitionPolicy pluggable) and per-step
// traffic/imbalance is priced on the MachineModel.
//
// The solver is bitwise identical to the single-address-space AmrSolver
// (serial, no subcycling) by construction:
//   - per-block kernel calls are unchanged and order-independent (each
//     writes only its own block);
//   - ghost values arriving by message are sender-side evaluations packed
//     with the exact arithmetic GhostExchanger::fill uses (verified in
//     tests/parsim/buffered_exchange_test.cpp);
//   - flux corrections route through FluxRegister::pack_fine_avg /
//     apply_correction — the same functions the serial apply() calls —
//     and are applied in the serial plan order;
//   - compute_dt's min fold is exact, so a rank-local reduction followed
//     by a global min matches the serial leaf-order fold.
// tests/parsim/rank_solver_test.cpp asserts this equivalence over
// randomized forests, physics, policies, and rank counts.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "amr/flux_register.hpp"
#include "amr/solver.hpp"
#include "amr/stage_ops.hpp"
#include "obs/msg_trace.hpp"
#include "obs/telemetry.hpp"
#include "core/bc.hpp"
#include "core/block_store.hpp"
#include "core/forest.hpp"
#include "core/ghost.hpp"
#include "core/regrid_data.hpp"
#include "io/checkpoint.hpp"
#include "parsim/block_migration.hpp"
#include "parsim/buffered_exchange.hpp"
#include "parsim/fault.hpp"
#include "parsim/local_topology.hpp"
#include "parsim/machine.hpp"
#include "parsim/partition.hpp"
#include "parsim/rank_accounting.hpp"
#include "parsim/wire/hub.hpp"
#include "parsim/wire/transport.hpp"
#include "util/topo_codec.hpp"
#include "physics/kernel.hpp"
#include "util/aligned.hpp"
#include "util/error.hpp"

namespace ab {

template <int D, class Phys>
class RankSolver {
 public:
  using State = typename Phys::State;
  using SolverConfig = typename AmrSolver<D, Phys>::Config;

  struct Config {
    SolverConfig solver{};
    int npes = 1;
    PartitionPolicy policy = PartitionPolicy::Morton;
    MachineModel machine = MachineModel::cray_t3d();
    /// Lossy-wire / rank-death fault injection (nullptr = perfect
    /// hardware). See src/parsim/fault.hpp and docs/ROBUSTNESS.md.
    FaultPlan* faults = nullptr;
    /// Distributed block metadata (env override AB_DIST_META): every rank
    /// holds only its owned blocks plus a neighbor hull, with neighbor
    /// discovery by SFC curve key and topology deltas exchanged on regrid
    /// (src/parsim/local_topology.hpp). Requires a Morton or Hilbert
    /// partition policy. Results are bitwise identical to the global-
    /// metadata path; the local view is load-bearing for ghost-plan,
    /// flux-plan, and migration verification.
    bool distributed_metadata = false;
    /// Auto-checkpoint cadence in steps (0 = off). When positive, step()
    /// writes a v2 checkpoint to `checkpoint_path` at the top of every
    /// step whose index is a multiple of the cadence — including step 0,
    /// so a recovery point always exists before the first possible death.
    int checkpoint_every = 0;
    std::string checkpoint_path;
    /// Which wire carries the exchange payloads (env AB_TRANSPORT=
    /// board|socket|shm wins over config). Board is the in-process
    /// MessageBoard path — the default and the bitwise reference; Socket
    /// and Shm frame every payload (ghosts, flux, gathers, migration,
    /// topology deltas) over a real kernel transport (src/parsim/wire/),
    /// still bitwise identical to serial.
    wire::TransportKind transport = wire::TransportKind::Board;
    /// External wire hub: SPMD worker processes construct one hub before
    /// forking and every worker's solver shares it (its kind overrides
    /// `transport`). Null = the solver owns a private hub when the
    /// resolved transport is not Board.
    wire::WireHub* wire = nullptr;
    /// Overlap the regrid topology-delta exchange with subsequent stage
    /// compute: sends post during adapt(), receives drain one per block
    /// update. Forced synchronous while message tracing is active, so span
    /// accounting is unchanged when traced.
    /// Metadata only — solver bytes are identical either way.
    bool async_topo_delta = true;
    /// Ship post-regrid owned-block descriptors to the stale pre-regrid
    /// neighbor ranks alongside the migration traffic, so the hull
    /// rebuild validates prefetched hints instead of issuing remote
    /// probes (distributed_metadata only).
    bool hull_prefetch = true;
  };

  RankSolver(Config cfg, Phys phys)
      : cfg_(resolve_cfg(std::move(cfg), phys, &tune_decision_)),
        phys_(std::move(phys)),
        forest_(cfg_.solver.forest),
        layout_(cfg_.solver.cells_per_block, cfg_.solver.ghost, Phys::NVAR,
                cfg_.solver.pad0),
        // One slab arena shared by every per-rank store (same layout
        // throughout), so migration and refine/coarsen recycle slabs
        // across ranks instead of hitting malloc.
        block_pool_(std::make_shared<BlockPool>(layout_.block_doubles())),
        exchanger_(forest_, layout_, cfg_.solver.prolongation),
        owner_(partition_blocks<D>(forest_, cfg_.npes, cfg_.policy)),
        buffered_(exchanger_, owner_, cfg_.npes) {
    AB_REQUIRE(cfg_.npes >= 1, "RankSolver: npes must be >= 1");
    AB_REQUIRE(cfg_.solver.rk_stages == 1 || cfg_.solver.rk_stages == 2,
               "RankSolver: rk_stages must be 1 or 2");
    AB_REQUIRE(
        cfg_.solver.ghost >=
            (cfg_.solver.order == SpatialOrder::Second ? 2 : 1),
        "RankSolver: not enough ghost layers for the spatial order");
    AB_REQUIRE(!cfg_.solver.subcycling,
               "RankSolver: subcycling is not supported");
    AB_REQUIRE(cfg_.solver.num_threads == 1,
               "RankSolver: ranks are simulated serially");
    stores_.reserve(static_cast<std::size_t>(cfg_.npes));
    scratch_.reserve(static_cast<std::size_t>(cfg_.npes));
    registers_.reserve(static_cast<std::size_t>(cfg_.npes));
    for (int p = 0; p < cfg_.npes; ++p) {
      stores_.push_back(make_store());
      scratch_.push_back(make_store());
      registers_.emplace_back(forest_, layout_);
    }
    if (use_stage2()) {
      stage2_.reserve(static_cast<std::size_t>(cfg_.npes));
      for (int p = 0; p < cfg_.npes; ++p) stage2_.push_back(make_store());
    }
    for (int id : forest_.leaves()) {
      stores_[static_cast<std::size_t>(owner_at(id))].ensure(id);
      scratch_[static_cast<std::size_t>(owner_at(id))].ensure(id);
    }
    rank_flops_.assign(static_cast<std::size_t>(cfg_.npes), 0);
    alive_.assign(static_cast<std::size_t>(cfg_.npes), true);
    num_alive_ = cfg_.npes;
    AB_REQUIRE(cfg_.checkpoint_every <= 0 || !cfg_.checkpoint_path.empty(),
               "RankSolver: checkpoint_every needs a checkpoint_path");
    buffered_.set_fault_plan(cfg_.faults);
    board_.set_fault_plan(cfg_.faults);
    topo_board_.set_fault_plan(cfg_.faults);
    if (cfg_.solver.telemetry != nullptr) {
      // Causal cross-rank tracing: every transport payload carries a span
      // context stamped at send and joined at receive. Costs nothing while
      // the tracer is disabled (one flag test per hook).
      msg_trace_.bind(&cfg_.solver.telemetry->trace);
      buffered_.set_trace(&msg_trace_);
      board_.set_trace(&msg_trace_);
      topo_board_.set_trace(&msg_trace_);
    }
    // Wire transport: an external hub (SPMD workers, pre-fork) wins; else
    // resolve config + AB_TRANSPORT and own a hub when one is needed.
    if (cfg_.wire != nullptr) {
      AB_REQUIRE(cfg_.wire->npes() == cfg_.npes,
                 "RankSolver: wire hub sized for a different npes");
      hub_ = cfg_.wire;
      transport_kind_ = hub_->kind();
    } else {
      transport_kind_ = wire::resolve_transport(cfg_.transport);
      if (transport_kind_ != wire::TransportKind::Board) {
        owned_hub_ =
            std::make_unique<wire::WireHub>(transport_kind_, cfg_.npes);
        hub_ = owned_hub_.get();
      }
    }
    if (hub_ != nullptr) {
      buffered_.set_wire(hub_);
      board_.set_wire(hub_, wire::PayloadClass::Board);
      topo_board_.set_wire(hub_, wire::PayloadClass::Topo);
    }
    distmeta_ = resolve_distmeta(cfg_);
    if (distmeta_ && (!CurveMap<D>::supports(cfg_.policy) ||
                      cfg_.solver.forest.max_level_diff != 1)) {
      // A config request for an unsupportable setup is a caller error; an
      // env-forced AB_DIST_META=1 on such a run falls back to global
      // metadata (the same grace AB_AUTOTUNE shows inapplicable layouts).
      AB_REQUIRE(!cfg_.distributed_metadata,
                 "RankSolver: distributed_metadata requires an SFC "
                 "partition policy (Morton or Hilbert) and the 2:1 level "
                 "constraint");
      distmeta_ = false;
    }
    rebuild_rank_structures();
  }

  // exchanger_/buffered_ hold pointers to members; moving would dangle.
  RankSolver(const RankSolver&) = delete;
  RankSolver& operator=(const RankSolver&) = delete;
  RankSolver(RankSolver&&) = delete;
  RankSolver& operator=(RankSolver&&) = delete;

  Forest<D>& forest() { return forest_; }
  const Forest<D>& forest() const { return forest_; }
  const Config& config() const { return cfg_; }
  /// What the layout autotuner decided at construction.
  const tune::TuneDecision& tune_decision() const { return tune_decision_; }
  const Phys& physics() const { return phys_; }
  double time() const { return time_; }
  std::uint64_t total_flops() const { return flops_; }
  std::uint64_t block_updates() const { return block_updates_; }
  int npes() const { return cfg_.npes; }
  const std::vector<int>& owner() const { return owner_; }
  int block_owner(int id) const { return owner_at(id); }
  /// Read-only view of leaf `id` on its owning rank's store.
  ConstBlockView<D> block_view(int id) const {
    return stores_[static_cast<std::size_t>(owner_at(id))].view(id);
  }
  /// The shared slab arena backing every per-rank store. Stats only.
  const BlockPool* block_pool() const { return block_pool_.get(); }
  const RankStepCost& last_step_cost() const { return last_step_; }
  const RegridCost& last_regrid_cost() const { return last_regrid_; }
  const RankRunTotals& totals() const { return totals_; }
  /// Whether the distributed-metadata path is active (config or env).
  bool distributed_metadata() const { return distmeta_; }
  /// The per-rank local views (null when distributed_metadata is off).
  const LocalTopologySet<D>* local_topology() const { return topo_.get(); }
  /// The transport actually carrying exchange payloads (config + env +
  /// external hub resolution).
  wire::TransportKind transport_kind() const { return transport_kind_; }
  /// The wire hub in use (null on the Board path). Tests shrink its
  /// receive timeout; SPMD harnesses read its frame stats.
  wire::WireHub* wire_hub() { return hub_; }
  const wire::WireHub* wire_hub() const { return hub_; }
  /// Whether regrid topology deltas overlap with stage compute.
  bool async_topo_delta_active() const { return cfg_.async_topo_delta; }
  /// Whether migration ships hull-prefetch descriptors.
  bool hull_prefetch_active() const { return cfg_.hull_prefetch; }

  /// Cell size of a block at `level`.
  RVec<D> cell_dx(int level) const {
    RVec<D> dx = forest_.block_size(level);
    for (int d = 0; d < D; ++d) dx[d] /= cfg_.solver.cells_per_block[d];
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
      const int pe = owner_at(id);
      stores_[static_cast<std::size_t>(pe)].ensure(id);
      scratch_[static_cast<std::size_t>(pe)].ensure(id);
      BlockView<D> v = stores_[static_cast<std::size_t>(pe)].view(id);
      for_each_cell<D>(layout_.interior_box(), [&](IVec<D> p) {
        State u{};
        f(cell_center(id, p), u);
        for (int k = 0; k < Phys::NVAR; ++k) v.at(k, p) = u[k];
      });
    }
  }

  /// Stable timestep (CFL over all blocks). Each rank scans its own blocks;
  /// the min fold is exact, so folding in global leaf order gives the same
  /// bits as any rank-local-then-global reduction.
  double compute_dt() const {
    double dt = 1e300;
    for (int id : forest_.leaves()) {
      const RVec<D> dx = cell_dx(forest_.level(id));
      const double wave = block_wave_speed_sum<D, Phys>(
          layout_, block_view(id).base, phys_, dx);
      AB_REQUIRE(std::isfinite(wave),
                 "compute_dt: non-finite wave speed in block " +
                     std::to_string(id) +
                     " (a NaN, infinite or negative-density cell)");
      AB_REQUIRE(wave > 0.0, "compute_dt: zero wave speed");
      dt = std::min(dt, cfg_.solver.cfl / wave);
    }
    return dt;
  }

  /// Advance one step of size `dt` (mirrors AmrSolver::step, serial path).
  /// Throws RankFailure if the fault plan kills a rank mid-step; the
  /// caller recovers with recover() (advance_to does both).
  void step(double dt) {
    maybe_auto_checkpoint();
    obs::Telemetry* const tel = cfg_.solver.telemetry;
    const std::int64_t t0 = tel != nullptr ? tel->trace.now_ns() : 0;
    step_span_ = (tel != nullptr && tel->trace.enabled())
                     ? tel->trace.new_span_id()
                     : 0;
    const std::uint64_t updates0 = block_updates_;
    RankStepCost sc;
    sc.imbalance = load_imbalance(owner_, cfg_.npes);
    sc.per_rank.assign(static_cast<std::size_t>(cfg_.npes), PeTraffic{});
    rank_flops_.assign(static_cast<std::size_t>(cfg_.npes), 0);
    // Stage 1: scratch = u + dt L(u).
    fill_ghosts(stores_, time_, sc);
    // The kill point sits after the first exchange: the step is genuinely
    // in flight (ghosts delivered, stage results pending) when the rank
    // dies, and nothing it half-did survives recovery.
    maybe_kill();
    run_stage(stores_, scratch_, dt, sc);
    if (cfg_.solver.rk_stages == 1) {
      {
        obs::PhaseScope ps(tel, "epilogue");
        tag_phase(ps);
        if (cfg_.solver.apply_positivity_fix)
          for (int id : forest_.leaves()) fix_block(scratch_of(id), id);
        for (int p = 0; p < cfg_.npes; ++p)
          std::swap(stores_[static_cast<std::size_t>(p)],
                    scratch_[static_cast<std::size_t>(p)]);
      }
      time_ += dt;
      finish_step(sc, dt, t0, updates0);
      return;
    }
    if (cfg_.solver.apply_positivity_fix)
      for (int id : forest_.leaves()) fix_block(scratch_of(id), id);
    // Stage 2 (Heun): u <- (u + (scratch + dt L(scratch))) / 2.
    fill_ghosts(scratch_, time_ + dt, sc);
    if (cfg_.solver.flux_correction) {
      for (int id : forest_.leaves())
        stage2_[static_cast<std::size_t>(owner_at(id))].ensure(id);
      run_stage(scratch_, stage2_, dt, sc);
      obs::PhaseScope ps(tel, "epilogue");
      tag_phase(ps);
      for (int id : forest_.leaves()) {
        const int pe = owner_at(id);
        heun_combine_half<D, Phys>(
            stores_[static_cast<std::size_t>(pe)].view(id),
            std::as_const(stage2_[static_cast<std::size_t>(pe)]).view(id));
        if (cfg_.solver.apply_positivity_fix)
          fix_block(stores_[static_cast<std::size_t>(pe)], id);
      }
    } else {
      obs::PhaseScope ps(tel, "stage_update");
      tag_phase(ps);
      obs::Tracer* const btr =
          (tel != nullptr && tel->trace.enabled()) ? &tel->trace : nullptr;
      // Each rank's private stage-2 buffer (one block at a time, like the
      // serial path).
      AlignedBuffer tmp(static_cast<std::size_t>(layout_.block_doubles()));
      for (int id : forest_.leaves()) {
        const int pe = owner_at(id);
        const std::int64_t bt0 = btr != nullptr ? btr->now_ns() : 0;
        const RVec<D> dx = cell_dx(forest_.level(id));
        const std::uint64_t f = fv_block_update_tiled<D, Phys>(
            cfg_.solver.sub_block, layout_,
            scratch_[static_cast<std::size_t>(pe)].view(id).base, tmp.data(),
            phys_, dx, dt, cfg_.solver.order, cfg_.solver.limiter,
            cfg_.solver.flux, nullptr, nullptr, &kernel_scratch_);
        flops_ += f;
        rank_flops_[static_cast<std::size_t>(pe)] += f;
        heun_combine_half<D, Phys>(
            stores_[static_cast<std::size_t>(pe)].view(id),
            ConstBlockView<D>{tmp.data(), &layout_});
        if (cfg_.solver.apply_positivity_fix)
          fix_block(stores_[static_cast<std::size_t>(pe)], id);
        if (btr != nullptr)
          btr->record(obs::TraceEvent{"stage_update", "compute", bt0,
                                      btr->now_ns(), 0, btr->new_span_id(),
                                      ps.span_id(), pe, step_index_});
      }
      block_updates_ += static_cast<std::uint64_t>(forest_.num_leaves());
    }
    time_ += dt;
    finish_step(sc, dt, t0, updates0);
  }

  /// Advance with CFL-limited steps until `t_end` (or `max_steps`). A
  /// simulated rank death is recovered in place: the dead rank is retired,
  /// the last auto-checkpoint reloaded, its blocks re-partitioned across
  /// the survivors, and stepping resumes from the checkpointed time.
  int advance_to(double t_end, int max_steps = 1000000) {
    int steps = 0;
    while (time_ < t_end && steps < max_steps) {
      double dt = compute_dt();
      if (time_ + dt > t_end) dt = t_end - time_;
      try {
        step(dt);
      } catch (const RankFailure& f) {
        recover(f.rank());
        continue;  // dt must be recomputed from the restored state
      }
      ++steps;
    }
    return steps;
  }

  // --- Checkpointing and fault recovery --------------------------------

  /// Write a v2 checkpoint (atomic, checksummed) of the global state
  /// assembled from the per-rank stores. Returns bytes written.
  std::uint64_t save(const std::string& path) {
    obs::Telemetry* const tel = cfg_.solver.telemetry;
    const std::int64_t t0 = tel != nullptr ? tel->trace.now_ns() : 0;
    const std::uint64_t bytes = save_checkpoint_view<D>(
        path, forest_, layout_,
        [this](int id) { return block_view(id); }, time_);
    last_checkpoint_path_ = path;
    if (tel != nullptr) {
      tel->metrics.counter("ckpt.saves")->add(1);
      tel->metrics.counter("ckpt.bytes")->add(bytes);
      tel->metrics.gauge("ckpt.last_save_s")
          ->set(static_cast<double>(tel->trace.now_ns() - t0) * 1e-9);
    }
    return bytes;
  }

  /// Discard all in-memory state and reload from `path`, partitioning the
  /// restored blocks across the currently-alive ranks. Ghosts are refilled
  /// by the next step's exchange.
  void restore(const std::string& path) {
    // Deferred topology deltas from before the failure must be consumed
    // (on the wire path they are already buffered frames that would
    // otherwise corrupt the next topo round).
    drain_topo_all();
    // A freshly assigned forest starts a new change history, so the
    // neighbor table and the exchanger rebuild in full.
    forest_ = Forest<D>(cfg_.solver.forest);
    BlockStore<D> global(layout_);
    time_ = load_checkpoint<D>(path, forest_, global);
    forest_.rebuild_neighbor_table();
    exchanger_.rebuild();
    for (int p = 0; p < cfg_.npes; ++p) {
      stores_[static_cast<std::size_t>(p)] = make_store();
      scratch_[static_cast<std::size_t>(p)] = make_store();
      if (use_stage2())
        stage2_[static_cast<std::size_t>(p)] = make_store();
    }
    owner_ = partition_alive();
    const std::int64_t payload = block_payload_doubles<D>(layout_);
    std::vector<double> buf(static_cast<std::size_t>(payload));
    for (int id : forest_.leaves()) {
      const int pe = owner_at(id);
      scratch_[static_cast<std::size_t>(pe)].ensure(id);
      pack_block_payload<D>(global, id, buf.data());
      unpack_block_payload<D>(stores_[static_cast<std::size_t>(pe)], id,
                              buf.data());
    }
    buffered_.set_owner(owner_, cfg_.npes);
    rebuild_rank_structures();
    last_checkpoint_path_ = path;
  }

  /// Handle the death of `dead_rank`: retire it, reload the last
  /// checkpoint, re-partition its blocks across the survivors (existing
  /// PartitionPolicy/migration machinery), and leave the solver ready to
  /// resume from the checkpointed time.
  void recover(int dead_rank) {
    AB_REQUIRE(dead_rank >= 0 && dead_rank < cfg_.npes &&
                   alive_[static_cast<std::size_t>(dead_rank)],
               "RankSolver: recover() needs a live rank id");
    AB_REQUIRE(!last_checkpoint_path_.empty(),
               "RankSolver: rank " + std::to_string(dead_rank) +
                   " died with no checkpoint to recover from (set "
                   "checkpoint_every/checkpoint_path)");
    alive_[static_cast<std::size_t>(dead_rank)] = false;
    --num_alive_;
    AB_REQUIRE(num_alive_ >= 1, "RankSolver: no surviving ranks");
    restore(last_checkpoint_path_);
    obs::Telemetry* const tel = cfg_.solver.telemetry;
    if (tel != nullptr) {
      tel->metrics.counter("fault.rank_deaths")->add(1);
      tel->metrics.counter("fault.recoveries")->add(1);
    }
  }

  /// Ranks still alive (npes minus recovered deaths).
  int num_alive() const { return num_alive_; }
  bool rank_alive(int pe) const {
    return pe >= 0 && pe < cfg_.npes && alive_[static_cast<std::size_t>(pe)];
  }
  const std::string& last_checkpoint_path() const {
    return last_checkpoint_path_;
  }

  using AdaptResult = typename AmrSolver<D, Phys>::AdaptResult;

  /// One adaptation cycle, mirroring AmrSolver::adapt: flag, refine (with
  /// cascades), coarsen eligible families — then re-partition and migrate
  /// blocks whose owner changed. Refined children are born on the parent's
  /// rank; coarsening gathers remote siblings to the first child's rank
  /// through the message board. Criteria read only the flagged block's own
  /// data, so per-rank evaluation matches the single-store evaluation.
  template <class Criterion>
  AdaptResult adapt(const Criterion& criterion) {
    obs::PhaseScope ps(cfg_.solver.telemetry, "regrid", "regrid");
    if (ps.span_id() != 0) ps.set_context(0, -1, step_index_);
    // The previous regrid's deferred topology deltas must land before a
    // new round starts (normally they drained during stage compute).
    drain_topo_all();
    obs::Telemetry* const tel = cfg_.solver.telemetry;
    AdaptResult res;
    // Flags by node id, as in AmrSolver::adapt.
    std::vector<int> flagged;
    std::vector<AdaptFlag> flags;
    {
      obs::PhaseScope fs(tel, "regrid.flag");
      flagged = forest_.leaves();
      flags.assign(static_cast<std::size_t>(forest_.node_capacity()),
                   AdaptFlag::Keep);
      for (int id : flagged)
        flags[static_cast<std::size_t>(id)] =
            criterion(forest_, store_of(id), id);
    }
    auto flag_of = [&](int id) {
      return id < static_cast<int>(flags.size())
                 ? flags[static_cast<std::size_t>(id)]
                 : AdaptFlag::Keep;
    };

    // Distributed metadata: each rank records the topology changes it
    // performs, to broadcast (binarized-octree encoded) to its neighbor
    // ranks after the regrid settles.
    std::vector<std::vector<TopoDeltaRecord<D>>> deltas;
    if (distmeta_) deltas.resize(static_cast<std::size_t>(cfg_.npes));

    RegridCost rc;
    {
      obs::PhaseScope ts(tel, "regrid.transfer");
      // Refinement (cascades may refine additional blocks).
      for (int id : flagged) {
        if (flag_of(id) != AdaptFlag::Refine) continue;
        if (!forest_.is_live(id) || !forest_.is_leaf(id)) continue;
        if (forest_.level(id) >= cfg_.solver.forest.max_level) continue;
        for (const auto& ev : forest_.refine(id)) {
          const int pe = owner_at(ev.parent);
          if (distmeta_)
            deltas[static_cast<std::size_t>(pe)].push_back(
                {TopoDeltaOp::Refine, forest_.level(ev.parent),
                 forest_.coords(ev.parent)});
          prolong_to_children<D>(stores_[static_cast<std::size_t>(pe)], ev,
                                 cfg_.solver.prolongation);
          for (int c : ev.children) {
            set_owner_entry(c, pe);
            scratch_[static_cast<std::size_t>(pe)].ensure(c);
          }
          scratch_[static_cast<std::size_t>(pe)].release(ev.parent);
          owner_[static_cast<std::size_t>(ev.parent)] = -1;
          ++res.refined;
        }
      }

      // Coarsening: same family selection as AmrSolver::adapt.
      std::vector<int> parents;
      for (int id : flagged) {
        if (flag_of(id) != AdaptFlag::Coarsen) continue;
        if (!forest_.is_live(id) || !forest_.is_leaf(id)) continue;
        const int p = forest_.parent(id);
        if (p < 0) continue;
        if (forest_.child_index(id) != 0) continue;  // visit once per family
        parents.push_back(p);
      }
      board_.clear();
      if (msg_trace_.active())
        msg_trace_.set_context(step_index_, obs::MsgPhase::Gather,
                               ps.span_id());
      const std::int64_t payload = block_payload_doubles<D>(layout_);
      std::vector<double> buf(static_cast<std::size_t>(payload));
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
        // Gather remote siblings onto the surviving parent's rank (the first
        // child's owner), then restrict locally there.
        const int pe = owner_at(kids[0]);
        for (int c : kids) {
          const int cp = owner_at(c);
          if (cp == pe) continue;
          pack_block_payload<D>(stores_[static_cast<std::size_t>(cp)], c,
                                buf.data());
          board_.send(cp, pe, buf.data(), payload);
          unpack_block_payload<D>(stores_[static_cast<std::size_t>(pe)], c,
                                  board_.receive(cp, pe, payload));
          stores_[static_cast<std::size_t>(cp)].release(c);
        }
        restrict_to_parent<D>(stores_[static_cast<std::size_t>(pe)], p, kids);
        scratch_[static_cast<std::size_t>(pe)].ensure(p);
        for (int c : kids) {
          scratch_[static_cast<std::size_t>(owner_at(c))].release(c);
          owner_[static_cast<std::size_t>(c)] = -1;
        }
        set_owner_entry(p, pe);
        if (distmeta_)
          deltas[static_cast<std::size_t>(pe)].push_back(
              {TopoDeltaOp::Coarsen, forest_.level(p), forest_.coords(p)});
        forest_.coarsen(p);
        ++res.coarsened;
      }
      rc.gather_messages = board_.messages();
      rc.gather_bytes = board_.bytes();
      board_.flush_trace();
    }

    if (res.refined || res.coarsened) {
      {
        obs::PhaseScope ts(tel, "regrid.topology");
        forest_.leaves();  // merge the new leaves into the curve order
        forest_.rebuild_neighbor_table();
      }
      {
        obs::PhaseScope ts(tel, "regrid.plan");
        exchanger_.rebuild();
      }
      // Load re-balancing, as the paper prescribes after every adaptation:
      // recompute the partition for the new leaf set and migrate every
      // block whose owner changed.
      rc.imbalance_before = load_imbalance(owner_, cfg_.npes);
      std::vector<int> fresh = partition_alive();
      if (msg_trace_.active())
        msg_trace_.set_context(step_index_, obs::MsgPhase::Migrate,
                               ps.span_id());
      const MigrationStats ms =
          migrate_blocks<D>(forest_.leaves(), owner_, fresh, stores_, board_);
      board_.flush_trace();
      for (int id : forest_.leaves()) {
        const int a = owner_at(id);
        const int b = fresh[static_cast<std::size_t>(id)];
        if (a == b) continue;
        scratch_[static_cast<std::size_t>(a)].release(id);
        scratch_[static_cast<std::size_t>(b)].ensure(id);
        if (use_stage2()) stage2_[static_cast<std::size_t>(a)].release(id);
      }
      owner_ = std::move(fresh);
      buffered_.set_owner(owner_, cfg_.npes);
      // Hull prefetch rides with the migration: post-regrid descriptors go
      // to the stale view's neighbor ranks now, so the rebuild below can
      // validate hints instead of probing.
      if (distmeta_ && cfg_.hull_prefetch && topo_ != nullptr)
        exchange_hull_prefetch(rc, ps.span_id());
      {
        obs::PhaseScope ts(tel, "regrid.plan");
        rebuild_rank_structures();
      }
      if (distmeta_) exchange_topology_deltas(deltas, rc, ps.span_id());
      rc.migrated_blocks = ms.blocks;
      rc.migration_messages = ms.messages;
      rc.migration_bytes = ms.bytes;
      rc.imbalance_after = load_imbalance(owner_, cfg_.npes);
      last_regrid_ = rc;
      totals_.add(rc);
    }
    return res;
  }

  /// Total of conserved variable `var` over the domain (global leaf order,
  /// same fold as AmrSolver::total_conserved).
  double total_conserved(int var) const {
    double total = 0.0;
    for (int id : forest_.leaves()) {
      const RVec<D> dx = cell_dx(forest_.level(id));
      double vol = 1.0;
      for (int d = 0; d < D; ++d) vol *= dx[d];
      ConstBlockView<D> v = block_view(id);
      double s = 0.0;
      for_each_cell<D>(layout_.interior_box(),
                       [&](IVec<D> p) { s += v.at(var, p); });
      total += s * vol;
    }
    return total;
  }

  /// Number of coarse/fine face corrections currently planned.
  int flux_corrections_planned() const {
    return registers_.front().num_corrections();
  }

 private:
  bool use_stage2() const {
    return cfg_.solver.rk_stages == 2 && cfg_.solver.flux_correction;
  }

  void maybe_auto_checkpoint() {
    if (cfg_.checkpoint_every <= 0) return;
    if (step_index_ % cfg_.checkpoint_every == 0) save(cfg_.checkpoint_path);
  }

  /// Fire the fault plan's one-shot kill trigger if this step is due.
  void maybe_kill() {
    FaultPlan* const fp = cfg_.faults;
    if (fp == nullptr || !fp->kill_due(step_index_)) return;
    const int r = fp->kill_rank();
    AB_REQUIRE(r >= 0 && r < cfg_.npes,
               "FaultPlan: kill_rank out of range");
    fp->consume_kill();
    if (!alive_[static_cast<std::size_t>(r)]) return;  // already dead
    throw RankFailure(r, "simulated rank " + std::to_string(r) +
                             " died during step " +
                             std::to_string(step_index_));
  }

  /// Partition the current leaves across the alive ranks only. With no
  /// deaths this is exactly partition_blocks; after deaths, the policy
  /// runs over num_alive() slots and the result is mapped back to the
  /// surviving rank ids, so dead ranks own nothing.
  std::vector<int> partition_alive() const {
    std::vector<int> raw =
        partition_blocks<D>(forest_, num_alive_, cfg_.policy);
    if (num_alive_ == cfg_.npes) return raw;
    std::vector<int> alive_ids;
    alive_ids.reserve(static_cast<std::size_t>(num_alive_));
    for (int p = 0; p < cfg_.npes; ++p)
      if (alive_[static_cast<std::size_t>(p)]) alive_ids.push_back(p);
    for (int& o : raw)
      if (o >= 0) o = alive_ids[static_cast<std::size_t>(o)];
    return raw;
  }

  int owner_at(int id) const {
    AB_REQUIRE(id >= 0 && id < static_cast<int>(owner_.size()) &&
                   owner_[static_cast<std::size_t>(id)] >= 0,
               "RankSolver: block without an owner");
    return owner_[static_cast<std::size_t>(id)];
  }

  void set_owner_entry(int id, int pe) {
    if (id >= static_cast<int>(owner_.size()))
      owner_.resize(static_cast<std::size_t>(id) + 1, -1);
    owner_[static_cast<std::size_t>(id)] = pe;
  }

  BlockStore<D>& store_of(int id) {
    return stores_[static_cast<std::size_t>(owner_at(id))];
  }
  BlockStore<D>& scratch_of(int id) {
    return scratch_[static_cast<std::size_t>(owner_at(id))];
  }

  /// Per-rank boundary-face lists (each rank applies BCs to its own
  /// blocks); also rebuilds the per-rank flux-correction plans. Call after
  /// every exchanger rebuild or partition change.
  void rebuild_rank_structures() {
    bfaces_by_pe_.assign(static_cast<std::size_t>(cfg_.npes), {});
    for (const auto& bf : exchanger_.boundary_faces())
      bfaces_by_pe_[static_cast<std::size_t>(owner_at(bf.block))].push_back(
          bf);
    if (cfg_.solver.flux_correction) {
      for (auto& r : registers_) r.rebuild(exchanger_);
      const FluxRegister<D>& reg = registers_.front();
      favg_off_.assign(reg.corrections().size() + 1, 0);
      for (std::size_t i = 0; i < reg.corrections().size(); ++i)
        favg_off_[i + 1] =
            favg_off_[i] + reg.correction_doubles(reg.corrections()[i]);
      favg_.resize(static_cast<std::size_t>(favg_off_.back()));
    }
    if (distmeta_) rebuild_local_topology();
  }

  /// Resolve the distributed-metadata switch (config + AB_DIST_META env;
  /// the env wins).
  static bool resolve_distmeta(const Config& cfg) {
    bool use = cfg.distributed_metadata;
    if (const char* e = std::getenv("AB_DIST_META")) use = e[0] != '0';
    return use;
  }

  /// Rebuild every rank's local view (owned + hull + directory) for the
  /// current partition, then verify the communication plans against it —
  /// the local view is the authority: any block a plan touches across a
  /// rank boundary must be discoverable by curve-key probing alone.
  void rebuild_local_topology() {
    // One-shot prefetch hints from the regrid that triggered this rebuild
    // (empty everywhere else: construction, restore).
    const std::vector<std::vector<BlockDesc<D>>>* hints =
        prefetch_hints_.empty() ? nullptr : &prefetch_hints_;
    topo_ = std::make_unique<LocalTopologySet<D>>(forest_, owner_, cfg_.npes,
                                                  cfg_.policy, hints);
    prefetch_hints_.clear();
    topo_probes_acc_ += topo_->stats().probes;
    topo_remote_acc_ += topo_->stats().remote_probes;
    topo_prefetch_acc_ += topo_->stats().prefetch_hits;
    // Directory check: every owned block's key interval must resolve to
    // its owner (this is what routes migration payloads when no rank holds
    // the global owner array).
    for (int id : forest_.leaves()) {
      const std::uint64_t key = topo_->curve().interval_begin(
          forest_.level(id), forest_.coords(id));
      AB_REQUIRE(topo_->directory().owner_of(key) == owner_at(id),
                 "distributed metadata: directory disagrees with the "
                 "partition for block " + std::to_string(id));
    }
    // Ghost plan: both endpoints of every cross-rank op must know the
    // remote block from their hull.
    for (const auto& op : exchanger_.ops()) {
      const int ps = owner_at(op.src);
      const int pd = owner_at(op.dst);
      if (ps == pd) continue;
      AB_REQUIRE(
          topo_->knows(pd, forest_.level(op.src), forest_.coords(op.src)) &&
              topo_->knows(ps, forest_.level(op.dst),
                           forest_.coords(op.dst)),
          "distributed metadata: ghost-plan block missing from the "
          "neighbor hull");
    }
    // Flux plan: cross-rank coarse/fine correction pairs likewise.
    if (cfg_.solver.flux_correction) {
      for (const auto& c : registers_.front().corrections()) {
        const int pf = owner_at(c.fine);
        const int pc = owner_at(c.coarse);
        if (pf == pc) continue;
        AB_REQUIRE(
            topo_->knows(pc, forest_.level(c.fine),
                         forest_.coords(c.fine)) &&
                topo_->knows(pf, forest_.level(c.coarse),
                             forest_.coords(c.coarse)),
            "distributed metadata: flux-plan block missing from the "
            "neighbor hull");
      }
    }
  }

  /// Ship each rank's regrid topology changes (compact binarized-octree
  /// delta records, src/util/topo_codec.hpp) to its neighbor ranks through
  /// the topology board — the same lossy wire as every other payload, so
  /// fault injection composes — and verify the decoded records match.
  ///
  /// Asynchronous mode (Config::async_topo_delta): sends post here but
  /// receives defer to drain_topo_some(), called between block updates
  /// during stage compute — the delta exchange overlaps the next step's
  /// work instead of extending the regrid barrier. Forced
  /// synchronous while message tracing is active, so span accounting (one
  /// span pair per channel, closed within the round) is unchanged.
  void exchange_topology_deltas(
      const std::vector<std::vector<TopoDeltaRecord<D>>>& deltas,
      RegridCost& rc, std::uint64_t parent_span = 0) {
    const bool async = cfg_.async_topo_delta && !msg_trace_.active();
    topo_board_.clear();  // prior rounds fully drained (adapt() entry)
    if (msg_trace_.active())
      msg_trace_.set_context(step_index_, obs::MsgPhase::TopoDelta,
                             parent_span);
    std::vector<std::vector<double>> packed(
        static_cast<std::size_t>(cfg_.npes));
    std::int64_t msgs = 0;
    std::int64_t bytes = 0;
    for (int p = 0; p < cfg_.npes; ++p) {
      const auto& recs = deltas[static_cast<std::size_t>(p)];
      if (recs.empty()) continue;
      const std::vector<std::uint8_t> enc = encode_topo_delta<D>(recs);
      // Byte payloads ride the double-valued board: one length double,
      // then the bytes packed eight per double.
      std::vector<double>& buf = packed[static_cast<std::size_t>(p)];
      buf.assign(1 + (enc.size() + sizeof(double) - 1) / sizeof(double),
                 0.0);
      buf[0] = static_cast<double>(enc.size());
      std::memcpy(buf.data() + 1, enc.data(), enc.size());
      for (int q : topo_->rank(p).neighbor_ranks()) {
        topo_board_.send(p, q, buf.data(),
                         static_cast<std::int64_t>(buf.size()));
        ++msgs;
        bytes += static_cast<std::int64_t>(buf.size() * sizeof(double));
        if (async)
          pending_topo_.push_back(
              {p, q, static_cast<std::int64_t>(buf.size()), recs});
      }
    }
    if (!async) {
      for (int p = 0; p < cfg_.npes; ++p) {
        const auto& buf = packed[static_cast<std::size_t>(p)];
        if (buf.empty()) continue;
        for (int q : topo_->rank(p).neighbor_ranks())
          verify_topo_delta(p, q, static_cast<std::int64_t>(buf.size()),
                            deltas[static_cast<std::size_t>(p)]);
      }
    }
    rc.topo_delta_messages += msgs;
    rc.topo_delta_bytes += bytes;
    topo_board_.flush_trace();
    topo_delta_msgs_acc_ += msgs;
    topo_delta_bytes_acc_ += bytes;
  }

  /// Receive one (src, dst) topology-delta payload and check it decodes to
  /// exactly the records the sender applied.
  void verify_topo_delta(int src, int dst, std::int64_t n,
                         const std::vector<TopoDeltaRecord<D>>& expect) {
    const double* payload = topo_board_.receive(src, dst, n);
    const std::size_t nbytes = static_cast<std::size_t>(payload[0]);
    std::vector<std::uint8_t> rx(nbytes);
    std::memcpy(rx.data(), payload + 1, nbytes);
    AB_REQUIRE(decode_topo_delta<D>(rx) == expect,
               "distributed metadata: topology delta did not survive "
               "the wire");
  }

  /// Deferred topology-delta receives still outstanding?
  bool topo_pending() const {
    return topo_drain_pos_ < pending_topo_.size();
  }

  /// Consume up to `k` deferred topology-delta receives — the overlap
  /// hook, called between block updates during stage compute. Resets the
  /// board once the round fully drains (on the wire path the frames have
  /// left their per-class queue by then).
  void drain_topo_some(std::size_t k) {
    while (k-- > 0 && topo_drain_pos_ < pending_topo_.size()) {
      const PendingTopo& pt = pending_topo_[topo_drain_pos_++];
      verify_topo_delta(pt.src, pt.dst, pt.n, pt.expect);
    }
    if (!pending_topo_.empty() &&
        topo_drain_pos_ == pending_topo_.size()) {
      pending_topo_.clear();
      topo_drain_pos_ = 0;
      topo_board_.clear();
    }
  }

  void drain_topo_all() { drain_topo_some(pending_topo_.size()); }

  /// Ship each rank's post-regrid owned-block descriptors to the neighbor
  /// ranks of its STALE pre-regrid view (the only adjacency anyone knows
  /// mid-migration), riding the topology wire class and counted as
  /// topo-delta traffic. Receivers keep them as hull-prefetch hints: the
  /// rebuild validates each hint against the directory and skips the
  /// remote probe it replaces (stats().prefetch_hits). Metadata only —
  /// the hull built is identical with or without hints.
  void exchange_hull_prefetch(RegridCost& rc, std::uint64_t parent_span = 0) {
    topo_board_.clear();
    if (msg_trace_.active())
      msg_trace_.set_context(step_index_, obs::MsgPhase::TopoDelta,
                             parent_span);
    // Pack per rank: [count, then per block: level, coords..., owner].
    std::vector<std::vector<double>> packed(
        static_cast<std::size_t>(cfg_.npes));
    for (int id : forest_.leaves()) {
      const int pe = owner_at(id);
      std::vector<double>& buf = packed[static_cast<std::size_t>(pe)];
      if (buf.empty()) buf.push_back(0.0);
      buf.push_back(static_cast<double>(forest_.level(id)));
      const IVec<D> c = forest_.coords(id);
      for (int d = 0; d < D; ++d) buf.push_back(static_cast<double>(c[d]));
      buf.push_back(static_cast<double>(pe));
      buf[0] += 1.0;
    }
    std::int64_t msgs = 0;
    std::int64_t bytes = 0;
    for (int p = 0; p < cfg_.npes; ++p) {
      const auto& buf = packed[static_cast<std::size_t>(p)];
      if (buf.empty()) continue;
      for (int q : topo_->rank(p).neighbor_ranks()) {
        topo_board_.send(p, q, buf.data(),
                         static_cast<std::int64_t>(buf.size()));
        ++msgs;
        bytes += static_cast<std::int64_t>(buf.size() * sizeof(double));
      }
    }
    prefetch_hints_.assign(static_cast<std::size_t>(cfg_.npes), {});
    const CurveMap<D> curve(forest_.config(), cfg_.policy);
    for (int p = 0; p < cfg_.npes; ++p) {
      const auto& buf = packed[static_cast<std::size_t>(p)];
      if (buf.empty()) continue;
      for (int q : topo_->rank(p).neighbor_ranks()) {
        const double* payload = topo_board_.receive(
            p, q, static_cast<std::int64_t>(buf.size()));
        const int count = static_cast<int>(payload[0]);
        const double* at = payload + 1;
        auto& hints = prefetch_hints_[static_cast<std::size_t>(q)];
        for (int i = 0; i < count; ++i) {
          BlockDesc<D> b;
          b.level = static_cast<int>(*at++);
          for (int d = 0; d < D; ++d) b.coords[d] = static_cast<int>(*at++);
          b.owner = static_cast<int>(*at++);
          b.key_begin = curve.interval_begin(b.level, b.coords);
          b.key_end = b.key_begin + curve.span(b.level);
          hints.push_back(b);
        }
      }
    }
    for (auto& hints : prefetch_hints_)
      std::sort(hints.begin(), hints.end(),
                [](const BlockDesc<D>& a, const BlockDesc<D>& b) {
                  return a.key_begin < b.key_begin;
                });
    rc.topo_delta_messages += msgs;
    rc.topo_delta_bytes += bytes;
    topo_board_.flush_trace();
    topo_delta_msgs_acc_ += msgs;
    topo_delta_bytes_acc_ += bytes;
  }

  /// Buffered ghost exchange across all ranks + per-rank BCs. BC faces
  /// write only their own block's ghost slabs from its own data, so the
  /// per-rank grouping is order-independent (bitwise equal to the serial
  /// boundary-face order).
  void fill_ghosts(std::vector<BlockStore<D>>& s, double t,
                   RankStepCost& sc) {
    obs::PhaseScope ps(cfg_.solver.telemetry, "ghost_exchange");
    tag_phase(ps);
    if (ps.span_id() != 0)
      msg_trace_.set_context(step_index_, obs::MsgPhase::Ghost, ps.span_id());
    buffered_.fill_on([&s](int pe) -> BlockStore<D>& {
      return s[static_cast<std::size_t>(pe)];
    });
    for (int pe = 0; pe < cfg_.npes; ++pe)
      apply_boundary_conditions<D>(s[static_cast<std::size_t>(pe)], forest_,
                                   bfaces_by_pe_[static_cast<std::size_t>(pe)],
                                   cfg_.solver.bc, t);
    sc.ghost_messages += buffered_.messages_per_fill();
    sc.ghost_bytes += buffered_.bytes_per_fill();
    buffered_.add_per_pe_traffic(sc.per_rank);
  }

  /// One forward-Euler stage over all blocks, each updated on its owning
  /// rank: out = in + dt L(in). With flux correction, boundary-face fluxes
  /// are recorded into the owner's register and corrections exchanged
  /// through the message board.
  void run_stage(std::vector<BlockStore<D>>& in,
                 std::vector<BlockStore<D>>& out, double dt,
                 RankStepCost& sc) {
    obs::PhaseScope ps(cfg_.solver.telemetry, "stage_update");
    tag_phase(ps);
    obs::Telemetry* const tel = cfg_.solver.telemetry;
    obs::Tracer* const btr =
        (tel != nullptr && tel->trace.enabled()) ? &tel->trace : nullptr;
    const bool fc = cfg_.solver.flux_correction;
    for (int id : forest_.leaves()) {
      const int pe = owner_at(id);
      const std::int64_t bt0 = btr != nullptr ? btr->now_ns() : 0;
      const RVec<D> dx = cell_dx(forest_.level(id));
      FluxRegister<D>& reg = registers_[static_cast<std::size_t>(pe)];
      FaceFluxStorage<D>* ff =
          (fc && reg.needs_fluxes(id)) ? &reg.storage(id) : nullptr;
      const std::uint64_t f = fv_block_update_tiled<D, Phys>(
          cfg_.solver.sub_block, layout_,
          in[static_cast<std::size_t>(pe)].view(id).base,
          out[static_cast<std::size_t>(pe)].view(id).base, phys_, dx, dt,
          cfg_.solver.order, cfg_.solver.limiter, cfg_.solver.flux, ff,
          nullptr, &kernel_scratch_);
      flops_ += f;
      rank_flops_[static_cast<std::size_t>(pe)] += f;
      // Per-block compute span on the owning rank: what the critical-path
      // reconstruction charges as that rank's useful work.
      if (btr != nullptr)
        btr->record(obs::TraceEvent{"stage_update", "compute", bt0,
                                    btr->now_ns(), 0, btr->new_span_id(),
                                    ps.span_id(), pe, step_index_});
      // Async topology deltas: retire one deferred receive per block
      // update, hiding the exchange behind compute.
      if (topo_pending()) drain_topo_some(1);
    }
    block_updates_ += static_cast<std::uint64_t>(forest_.num_leaves());
    if (fc) exchange_and_apply_corrections(out, dt, sc, ps.span_id());
  }

  /// Distributed refluxing round: every fine-side average is evaluated on
  /// the fine block's owner (pack_fine_avg — the same arithmetic the
  /// serial FluxRegister::apply uses) and shipped to the coarse owner;
  /// corrections are applied in plan order, which is the serial apply
  /// order (two faces of one coarse block can overlap in a corner cell,
  /// so the order is part of the bitwise contract).
  void exchange_and_apply_corrections(std::vector<BlockStore<D>>& out,
                                      double dt, RankStepCost& sc,
                                      std::uint64_t parent_span = 0) {
    // Every rank's register rebuilds from the same exchanger plan, so the
    // correction lists are identical; use rank 0's as the shared plan.
    const auto& plan = registers_.front().corrections();
    board_.clear();
    if (msg_trace_.active())
      msg_trace_.set_context(step_index_, obs::MsgPhase::Flux, parent_span);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const auto& c = plan[i];
      const int pf = owner_at(c.fine);
      FluxRegister<D>& reg = registers_[static_cast<std::size_t>(pf)];
      double* favg = favg_.data() + favg_off_[i];
      reg.pack_fine_avg(c, reg.storage(c.fine), favg);
      const int pc = owner_at(c.coarse);
      if (pf != pc) board_.send(pf, pc, favg, favg_off_[i + 1] - favg_off_[i]);
    }
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const auto& c = plan[i];
      const int pf = owner_at(c.fine);
      const int pc = owner_at(c.coarse);
      FluxRegister<D>& reg = registers_[static_cast<std::size_t>(pc)];
      const double* payload =
          (pf == pc) ? favg_.data() + favg_off_[i]
                     : board_.receive(pf, pc,
                                      favg_off_[i + 1] - favg_off_[i]);
      reg.apply_correction(
          out[static_cast<std::size_t>(pc)].view(c.coarse), c,
          reg.storage(c.coarse), payload, dt);
    }
    sc.flux_messages += board_.messages();
    sc.flux_bytes += board_.bytes();
    board_.add_per_pe_traffic(sc.per_rank);
    board_.flush_trace();
  }

  void fix_block(BlockStore<D>& s, int id) {
    apply_positivity_fix<D, Phys>(phys_, s, id, cfg_.solver.rho_floor,
                                  cfg_.solver.p_floor);
  }

  void finish_step(RankStepCost& sc, double dt, std::int64_t t0,
                   std::uint64_t updates0) {
    for (std::uint64_t f : rank_flops_) {
      sc.flops += f;
      sc.max_rank_flops = std::max(sc.max_rank_flops, f);
    }
    price_step(sc, cfg_.machine, cfg_.npes);
    last_step_ = sc;
    totals_.add(sc);
    obs::Telemetry* const tel = cfg_.solver.telemetry;
    if (tel != nullptr) emit_step_telemetry(tel, sc, dt, t0, updates0);
    if (tel != nullptr && tel->trace.enabled() && step_span_ != 0)
      tel->trace.record(obs::TraceEvent{"step", "step", t0,
                                        tel->trace.now_ns(), 0, step_span_, 0,
                                        -1, step_index_});
    step_span_ = 0;
    ++step_index_;
  }

  /// Tag a phase span as a child of the in-flight step span (no-op when
  /// span collection is off or outside a step).
  void tag_phase(obs::PhaseScope& ps) {
    if (ps.span_id() != 0) ps.set_context(step_span_, -1, step_index_);
  }

  /// Publish the step's traffic/imbalance through the metrics registry and
  /// append a StepReport record (with per-rank traffic) if a report file is
  /// open.
  void emit_step_telemetry(obs::Telemetry* tel, const RankStepCost& sc,
                           double dt, std::int64_t t0,
                           std::uint64_t updates0) {
    const double wall = static_cast<double>(tel->trace.now_ns() - t0) * 1e-9;
    obs::MetricsRegistry& m = tel->metrics;
    m.counter("rank.steps")->add(1);
    m.counter("rank.ghost_messages")
        ->add(static_cast<std::uint64_t>(sc.ghost_messages));
    m.counter("rank.ghost_bytes")
        ->add(static_cast<std::uint64_t>(sc.ghost_bytes));
    m.counter("rank.flux_messages")
        ->add(static_cast<std::uint64_t>(sc.flux_messages));
    m.counter("rank.flux_bytes")
        ->add(static_cast<std::uint64_t>(sc.flux_bytes));
    m.counter("rank.flops")->add(sc.flops);
    m.gauge("rank.load_imbalance")->set(sc.imbalance);
    m.gauge("rank.t_step_model_s")->set(sc.t_step);
    m.gauge("rank.efficiency")->set(sc.efficiency);
    // Arena totals are cumulative; counters take per-step deltas.
    const BlockPool::Stats& ps = block_pool_->stats();
    m.gauge("pool.chunks")->set(static_cast<double>(ps.chunks));
    m.gauge("pool.slabs_in_use")->set(static_cast<double>(ps.slabs_in_use));
    m.counter("pool.reuse_hits")
        ->add(static_cast<std::uint64_t>(ps.reuse_hits - pool_reuse_seen_));
    m.counter("pool.fresh_allocs")
        ->add(static_cast<std::uint64_t>(ps.fresh_allocs - pool_fresh_seen_));
    pool_reuse_seen_ = ps.reuse_hits;
    pool_fresh_seen_ = ps.fresh_allocs;
    if (distmeta_ && topo_ != nullptr) {
      // Per-rank topology footprint: the gauges must track blocks/rank +
      // hull, not total blocks (the distributed-metadata contract). Probe
      // and delta totals are cumulative; counters take per-step deltas.
      m.gauge("topo.max_owned")
          ->set(static_cast<double>(topo_->max_owned()));
      m.gauge("topo.max_hull")->set(static_cast<double>(topo_->max_hull()));
      m.gauge("topo.max_rank_bytes")
          ->set(static_cast<double>(topo_->max_rank_bytes()));
      m.gauge("topo.directory_bytes")
          ->set(static_cast<double>(topo_->directory().bytes()));
      auto pub = [&m](const char* name, std::int64_t cur,
                      std::int64_t& prev) {
        if (cur > prev)
          m.counter(name)->add(static_cast<std::uint64_t>(cur - prev));
        prev = cur;
      };
      pub("topo.probes", topo_probes_acc_, topo_probes_seen_);
      pub("topo.remote_probes", topo_remote_acc_, topo_remote_seen_);
      pub("topo.prefetch_hits", topo_prefetch_acc_, topo_prefetch_seen_);
      pub("topo.delta_messages", topo_delta_msgs_acc_,
          topo_delta_msgs_seen_);
      pub("topo.delta_bytes", topo_delta_bytes_acc_, topo_delta_bytes_seen_);
    }
    if (hub_ != nullptr) {
      // Wire-frame totals are cumulative per hub; counters take deltas.
      const wire::WireStats& ws = hub_->stats();
      auto pub = [&m](const char* name, std::int64_t cur,
                      std::int64_t prev) {
        if (cur > prev)
          m.counter(name)->add(static_cast<std::uint64_t>(cur - prev));
      };
      pub("wire.frames_sent", ws.frames_sent, wire_prev_.frames_sent);
      pub("wire.frames_recv", ws.frames_recv, wire_prev_.frames_recv);
      pub("wire.payload_bytes", ws.payload_bytes, wire_prev_.payload_bytes);
      pub("wire.bytes", ws.wire_bytes, wire_prev_.wire_bytes);
      pub("wire.crc_rejects", ws.crc_rejects, wire_prev_.crc_rejects);
      pub("wire.dup_discards", ws.dup_discards, wire_prev_.dup_discards);
      pub("wire.reorder_stashes", ws.reorder_stashes,
          wire_prev_.reorder_stashes);
      wire_prev_ = ws;
      m.gauge("wire.dedup_state_bytes")
          ->set(static_cast<double>(hub_->dedup_state_bytes()));
    }
    publish_tune_gauges(m, tune_decision_);
    if (cfg_.faults != nullptr) {
      // The plan's stats are run totals; counters take per-step deltas.
      const FaultStats& fs = cfg_.faults->stats();
      auto pub = [&m](const char* name, std::int64_t cur,
                      std::int64_t prev) {
        if (cur > prev)
          m.counter(name)->add(static_cast<std::uint64_t>(cur - prev));
      };
      pub("fault.dropped", fs.dropped, fault_prev_.dropped);
      pub("fault.corrupted", fs.corrupted, fault_prev_.corrupted);
      pub("fault.duplicated", fs.duplicated, fault_prev_.duplicated);
      pub("fault.reordered", fs.reordered, fault_prev_.reordered);
      pub("fault.retries", fs.retries, fault_prev_.retries);
      fault_prev_ = fs;
    }
    if (tel->report() != nullptr) {
      obs::StepReport r;
      r.step = step_index_;
      r.t = time_;
      r.dt = dt;
      r.wall_s = wall;
      r.blocks = forest_.num_leaves();
      r.cells_updated =
          static_cast<std::int64_t>(block_updates_ - updates0) *
          layout_.interior_cells();
      r.layout = layout_string(layout_, cfg_.solver.sub_block);
      r.phase_s = tel->take_phase_times();
      const obs::MetricsSnapshot snap = m.snapshot();
      r.gauges = snap.gauges;
      r.counters.reserve(snap.counters.size());
      for (const auto& [name, v] : snap.counters)
        r.counters.emplace_back(name, static_cast<std::int64_t>(v));
      r.per_rank.reserve(sc.per_rank.size());
      for (std::size_t p = 0; p < sc.per_rank.size(); ++p) {
        const PeTraffic& t = sc.per_rank[p];
        obs::RankTrafficRecord rec;
        rec.rank = static_cast<int>(p);
        rec.sent_messages = t.sent_messages;
        rec.recv_messages = t.recv_messages;
        rec.sent_bytes = t.sent_bytes;
        rec.recv_bytes = t.recv_bytes;
        r.per_rank.push_back(rec);
      }
      tel->report()->write(r);
    } else {
      tel->take_phase_times();
    }
  }

  BlockStore<D> make_store() const {
    return BlockStore<D>(layout_, block_pool_);
  }

  /// Run the layout autotuner over the embedded solver config before any
  /// layout-derived member is built (see AmrSolver::Config::autotune).
  static Config resolve_cfg(Config cfg, const Phys& phys,
                            tune::TuneDecision* dec) {
    cfg.solver = tune::resolve_layout<D, Phys>(std::move(cfg.solver), phys, dec);
    return cfg;
  }

  // Declared before cfg_ so cfg_'s initializer (the autotuner) can fill it.
  tune::TuneDecision tune_decision_;
  Config cfg_;
  Phys phys_;
  Forest<D> forest_;
  BlockLayout<D> layout_;
  std::shared_ptr<BlockPool> block_pool_;  // backs every per-rank store
  GhostExchanger<D> exchanger_;
  std::vector<int> owner_;  ///< node id -> rank (-1 for non-leaves)
  BufferedExchange<D> buffered_;
  MessageBoard board_;
  /// Topology-delta + hull-prefetch traffic (wire class Topo). Separate
  /// from board_ so deferred async receives survive the board rounds the
  /// next steps run.
  MessageBoard topo_board_;
  /// Cross-rank causal message tracing (bound to the telemetry's tracer at
  /// construction; inert while the tracer is disabled).
  obs::MsgTrace msg_trace_;
  std::uint64_t step_span_ = 0;  ///< span id of the in-flight step (0 = none)
  std::vector<BlockStore<D>> stores_;   ///< one private store per rank
  std::vector<BlockStore<D>> scratch_;  ///< per-rank stage-1 result
  std::vector<BlockStore<D>> stage2_;   ///< per-rank stage-2 (refluxing only)
  std::vector<FluxRegister<D>> registers_;  ///< per-rank flux recording
  /// Fine-side averages of a refluxing round; correction i (plan order)
  /// occupies [favg_off_[i], favg_off_[i+1]).
  std::vector<double> favg_;
  std::vector<std::int64_t> favg_off_;
  std::vector<std::vector<BoundaryFace>> bfaces_by_pe_;
  /// Distributed metadata (Config::distributed_metadata / AB_DIST_META):
  /// per-rank local views rebuilt with every partition change; the probe
  /// and delta totals feed the topo.* telemetry counters.
  bool distmeta_ = false;
  std::unique_ptr<LocalTopologySet<D>> topo_;
  std::int64_t topo_probes_acc_ = 0;
  std::int64_t topo_remote_acc_ = 0;
  std::int64_t topo_prefetch_acc_ = 0;
  std::int64_t topo_delta_msgs_acc_ = 0;
  std::int64_t topo_delta_bytes_acc_ = 0;
  std::int64_t topo_probes_seen_ = 0;
  std::int64_t topo_remote_seen_ = 0;
  std::int64_t topo_prefetch_seen_ = 0;
  std::int64_t topo_delta_msgs_seen_ = 0;
  std::int64_t topo_delta_bytes_seen_ = 0;
  /// Wire transport state (Board path: hub_ stays null and none of this
  /// is touched).
  wire::TransportKind transport_kind_ = wire::TransportKind::Board;
  std::unique_ptr<wire::WireHub> owned_hub_;
  wire::WireHub* hub_ = nullptr;
  wire::WireStats wire_prev_;  ///< hub stats published so far
  /// One deferred async topology-delta receive (src -> dst, n doubles,
  /// plus the records the payload must decode to).
  struct PendingTopo {
    int src;
    int dst;
    std::int64_t n;
    std::vector<TopoDeltaRecord<D>> expect;
  };
  std::vector<PendingTopo> pending_topo_;
  std::size_t topo_drain_pos_ = 0;
  /// Hull-prefetch hints collected by exchange_hull_prefetch, consumed
  /// (and cleared) by the next rebuild_local_topology.
  std::vector<std::vector<BlockDesc<D>>> prefetch_hints_;
  AlignedScratch kernel_scratch_;
  std::vector<std::uint64_t> rank_flops_;
  std::vector<bool> alive_;  ///< per-rank liveness (deaths are permanent)
  int num_alive_ = 0;
  std::string last_checkpoint_path_;
  FaultStats fault_prev_;  ///< last stats published to the metrics registry
  std::int64_t pool_reuse_seen_ = 0;  ///< pool counters exported so far
  std::int64_t pool_fresh_seen_ = 0;
  double time_ = 0.0;
  std::uint64_t flops_ = 0;
  std::uint64_t block_updates_ = 0;
  std::int64_t step_index_ = 0;
  RankStepCost last_step_{};
  RegridCost last_regrid_{};
  RankRunTotals totals_;
};

}  // namespace ab
