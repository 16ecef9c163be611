// Ghost-cell exchange engine.
//
// Each block is ringed by `ghost` layers of cells mirroring its face
// neighbors (the paper: "ghost cells are added around each block, to store
// values of cells in the neighboring blocks"). This engine precomputes a
// *plan* — a flat list of copy operations — from the forest topology, then
// executes it. The plan serves double duty: the parallel machine simulator
// (src/parsim) walks the same op list to charge per-message communication
// costs, so simulated traffic is exactly what the numerics require.
//
// Every operation reads only the *interior* of its source block, so the fill
// is a single pass with no ordering constraints (and is trivially
// parallelizable over ops). Only face ghosts are filled — corner/edge ghost
// regions stay stale — which is sufficient for the dimension-by-dimension
// finite-volume kernels in src/physics (all stencils offset along one
// dimension at a time).
//
// Data-carrying layouts require even interior extents so coarse/fine block
// interfaces land on coarse-cell boundaries (the paper's production runs
// used 16^3).
#pragma once

#include <cstdint>
#include <vector>

#include "core/block_store.hpp"
#include "core/forest.hpp"
#include "core/prolong.hpp"
#include "util/box.hpp"
#include "util/thread_pool.hpp"

namespace ab {

enum class GhostOpKind : std::uint8_t {
  SameCopy,  ///< same-level neighbor: direct copy
  Restrict,  ///< finer neighbor: 2^D volume average
  Prolong    ///< coarser neighbor: (limited-linear or constant) interpolation
};

/// One ghost-fill operation: fill `dst_box` (in dst-local cell coordinates,
/// lying in dst's ghost region) from block `src`. Index mapping by kind:
///   SameCopy:  src_local = dst_local + a
///   Restrict:  fine corner in src = 2*dst_local + a       (then average)
///   Prolong:   coarse src cell = ((dst_local + a) >> 1) - b,
///              sub-cell parity = (dst_local + a) & 1
template <int D>
struct GhostOp {
  GhostOpKind kind;
  int src = -1;
  int dst = -1;
  std::int8_t face_dim = 0;   ///< which dst face this op serves
  std::int8_t face_side = 0;
  Box<D> dst_box;
  IVec<D> a;
  IVec<D> b;
  /// Prolong only: source cells the slope stencil may read. The interior,
  /// extended by one cell into any source ghost slab that phase 1 of fill()
  /// populates (same-level copy or restriction) — including, always, the
  /// slab facing the destination, which the destination itself restricts
  /// into. Slopes whose stencil leaves this box drop to zero.
  Box<D> valid;

  /// Cells written by this op.
  std::int64_t cells() const { return dst_box.volume(); }
};

/// A (block, face) pair on the physical domain boundary, needing a boundary
/// condition instead of a neighbor exchange.
struct BoundaryFace {
  int block = -1;
  int dim = 0;
  int side = 0;
};

/// Per-plan ghost-op accounting by kind (index = GhostOpKind). Recomputed
/// with every plan rebuild; one full fill() executes exactly these ops, so
/// drivers multiply by fills-per-step to account per-step ghost work.
struct GhostPlanStats {
  std::int64_t ops[3] = {0, 0, 0};    ///< op count by kind
  std::int64_t cells[3] = {0, 0, 0};  ///< destination cells by kind
};

/// The row executor behind GhostExchanger::apply, on raw block data:
/// evaluate `op` from `src` (the data of block op.src) into the dst_box
/// cells of `dst` (a block laid out the same way). Refinement and
/// coarsening run it too: a child's interior is a Prolong op from its
/// parent, a parent's quadrant a Restrict op from one child
/// (core/regrid_data.hpp).
template <int D>
void run_ghost_op(const BlockLayout<D>& layout, Prolongation prolongation,
                  const double* src, const GhostOp<D>& op, double* dst);

template <int D>
class GhostExchanger {
 public:
  /// Builds the exchange plan for the current forest topology. The layout
  /// must have ghost >= 1 and even interior extents.
  GhostExchanger(const Forest<D>& forest, const BlockLayout<D>& layout,
                 Prolongation prolongation = Prolongation::LimitedLinear);

  /// Bring the plan up to date after forest topology changed. Only the
  /// destinations whose ops can change are re-planned: the leaves the
  /// forest's change log names, their face neighbors, and the finer
  /// neighbors of all those (their Prolong ops' `valid` box reads the
  /// coarse source's other faces). Every other destination keeps its ops;
  /// ops() is then reassembled in leaf order and exec_order() re-derived
  /// without sorting. After construction, or when the forest was copied,
  /// assigned or touch_all()ed, every leaf counts as touched.
  void rebuild();

  /// Execute the plan: fill the face-ghost cells of every leaf block of
  /// `store` from neighbor interiors. Does not apply physical boundary
  /// conditions (see bc.hpp). If `pool` is non-null the ops of each phase
  /// run in parallel (they write disjoint ghost regions; the phase barrier
  /// orders prolongation after the restriction-filled ghosts it reads).
  ///
  /// Execution is batched: ops run in exec_order() — grouped by kind and
  /// destination — and each op executes as contiguous row copies (SameCopy)
  /// or per-row vector loops (Restrict/Prolong). The per-cell oracle these
  /// rows are tested against lives in tests/support/ghost_reference.hpp.
  void fill(BlockStore<D>& store, ThreadPool* pool = nullptr) const;

  /// Execute only the ops whose destination is block `dst` (its phase-1
  /// ops, then its Prolong ops).
  void fill_block(BlockStore<D>& store, int dst) const {
    fill_block_phase1(store, dst);
    fill_block_prolong(store, dst);
  }

  /// Phase-1 ops (SameCopy + Restrict) into block `dst`, in the same
  /// relative order fill() uses. These read only source interiors, so one
  /// such task per destination can run as soon as the stage's input store
  /// is current — no ordering against other destinations.
  void fill_block_phase1(BlockStore<D>& store, int dst) const;

  /// Prolong ops into block `dst`. Their slope stencils may read ghost
  /// slabs of the coarse source that phase 1 fills (op.valid extends only
  /// into restriction/copy-filled slabs, never BC or coarser ones), so a
  /// per-destination prolong task depends exactly on the phase-1 tasks of
  /// the blocks in prolong_sources(dst).
  void fill_block_prolong(BlockStore<D>& store, int dst) const;

  /// Distinct source blocks of the Prolong ops into `dst` (empty when the
  /// block has no coarser neighbor).
  const std::vector<int>& prolong_sources(int dst) const {
    return prolong_srcs_[static_cast<std::size_t>(dst)];
  }

  /// Whether some Prolong op reads block `id` (so its phase-1 ghosts must
  /// be filled before that op runs).
  bool is_prolong_source(int id) const {
    return is_prolong_src_[static_cast<std::size_t>(id)] != 0;
  }

  /// The ops into one destination: ops()[first, first + count). They are
  /// contiguous because the plan runs leaf by leaf.
  struct OpRange {
    int first = 0;
    int count = 0;
    bool operator==(const OpRange&) const = default;
  };
  OpRange dst_ops(int dst) const {
    return dst_ops_[static_cast<std::size_t>(dst)];
  }

  /// Apply a single op from the plan (advanced drivers — e.g. the
  /// subcycling stepper — select and time-blend ops themselves).
  void apply(BlockStore<D>& store, const GhostOp<D>& op) const;

  /// Doubles one op's message carries: its dst cells times nvar.
  std::int64_t op_payload_doubles(const GhostOp<D>& op) const {
    return op.cells() * layout_.nvar;
  }

  /// Sender-side evaluation: compute the op's destination ghost values from
  /// the SOURCE block's data and write them into `buf` (var-major, dst_box
  /// cells in for_each_cell order; op_payload_doubles entries). This is the
  /// message a distributed implementation sends — restriction/prolongation
  /// happen on the owning processor, as in the original production code.
  /// It runs the same row executor as apply(), with the rows landing back
  /// to back in `buf` instead of in the destination's ghost ring, so the
  /// payload holds exactly the values a local fill would write.
  void pack_op(const BlockStore<D>& store, const GhostOp<D>& op,
               double* buf) const;

  /// Receiver-side: write a packed payload into the destination ghosts,
  /// one memcpy per dst_box row.
  void unpack_op(BlockStore<D>& store, const GhostOp<D>& op,
                 const double* buf) const;

  const std::vector<GhostOp<D>>& ops() const { return ops_; }
  /// Indices into ops() in batched execution order: SameCopy ops first,
  /// then Restrict (together phase 1), then Prolong (phase 2), each group
  /// sorted by destination block so a destination's ghost ring is written
  /// in one locality burst.
  const std::vector<int>& exec_order() const { return exec_order_; }
  /// Number of leading exec_order() entries in phase 1 (non-Prolong).
  int phase1_count() const { return phase1_count_; }
  const std::vector<BoundaryFace>& boundary_faces() const {
    return boundary_faces_;
  }
  const Forest<D>& forest() const { return *forest_; }
  const BlockLayout<D>& layout() const { return layout_; }
  Prolongation prolongation() const { return prolongation_; }

  /// Total ghost cells moved per fill (for the communication model).
  std::int64_t total_cells() const;

  /// Op/cell counts by kind for the current plan (one fill's worth).
  const GhostPlanStats& plan_stats() const { return plan_stats_; }

  /// The interior sub-box whose update stencil (radius <= ghost) never
  /// reads ghost cells — runnable before any ghost op. Empty when some
  /// interior extent is <= 2*ghost (the whole block is rim).
  const Box<D>& interior_core() const { return core_; }

  /// Disjoint slabs covering interior_box() minus interior_core() (the
  /// cells whose stencil reaches into the ghost ring). Together with the
  /// core they tile the interior exactly; sub-box kernel updates over the
  /// tiling are bitwise equal to one full-block update.
  const std::vector<Box<D>>& rim_boxes() const { return rim_boxes_; }

 private:
  /// Plan the ops into face (dim, side) of leaf `id`, appending to `out`;
  /// a domain-boundary face sets its bit (2*dim + side) in `bfaces`.
  void plan_face(int id, int dim, int side, std::vector<GhostOp<D>>& out,
                 std::uint8_t& bfaces) const;

  const Forest<D>* forest_;
  BlockLayout<D> layout_;
  Prolongation prolongation_;
  std::vector<GhostOp<D>> ops_;  // leaf order, then dim, side, child
  std::vector<int> exec_order_;  // ops_ indices, batched execution order
  int phase1_count_ = 0;
  // Per node id (zero/empty unless a leaf): where its ops sit in ops_, its
  // boundary faces as a bit mask, and its distinct Prolong sources.
  std::vector<OpRange> dst_ops_;
  std::vector<std::uint8_t> dst_bfaces_;
  std::vector<std::vector<int>> prolong_srcs_;
  std::vector<char> is_prolong_src_;
  Box<D> core_;
  std::vector<Box<D>> rim_boxes_;
  std::vector<BoundaryFace> boundary_faces_;
  GhostPlanStats plan_stats_;
  typename Forest<D>::ChangeCursor cursor_;  // forest history planned for
  // rebuild() scratch, per node id: index of its fresh plan, -1 when it
  // was not re-planned (all -1 between rebuilds).
  std::vector<int> fresh_at_;
};

extern template class GhostExchanger<1>;
extern template class GhostExchanger<2>;
extern template class GhostExchanger<3>;

}  // namespace ab
