// The adaptive block forest: the paper's core data structure.
//
// A d-dimensional region is partitioned into non-overlapping blocks, each of
// which will hold a regular m1 x ... x md array of cells (see
// block_store.hpp). Refining a block replaces it by 2^d children; coarsening
// reverses the process. Leaves of the forest are the *active* blocks.
//
// Two properties distinguish this from a cell-based tree (src/celltree):
//  1. Each leaf keeps an explicit neighbor record per face — `Same`,
//     `Coarser`, or the 2^(d-1) `Finer` blocks sharing the face — so
//     neighbors are located directly, with no parent/child traversal.
//  2. Refinement is restricted so that adjacent blocks differ by at most
//     `max_level_diff` levels (1 by default, the paper's choice); enforcing
//     the constraint cascades refinement across the grid.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "util/box.hpp"
#include "util/error.hpp"
#include "util/morton.hpp"
#include "util/vec.hpp"

namespace ab {

/// A process-wide unique number for each new forest change history.
std::uint64_t next_forest_epoch();

/// Identifies one of the 2*D faces of a block.
struct Face {
  int dim;   // 0..D-1
  int side;  // 0 = low face, 1 = high face
};

template <int D>
class Forest {
 public:
  static constexpr int kNumChildren = 1 << D;
  static constexpr int kNumFaces = 2 * D;
  static constexpr int kFaceChildren = 1 << (D - 1);
  /// Levels beyond this are rejected; keeps global Morton keys in 63 bits.
  static constexpr int kMaxLevelCap = 16;

  struct Config {
    /// Number of root blocks per dimension (the level-0 grid).
    IVec<D> root_blocks = IVec<D>(1);
    /// Physical bounds of the whole domain.
    RVec<D> domain_lo = RVec<D>(0.0);
    RVec<D> domain_hi = RVec<D>(1.0);
    /// Periodic wrap per dimension.
    std::array<bool, D> periodic{};
    /// Maximum refinement level (root blocks are level 0).
    int max_level = 10;
    /// Maximum level difference between face-adjacent blocks (the paper's
    /// "at most one level of resolution change"; >1 enables the generalized
    /// k-level variant discussed under Generalizations).
    int max_level_diff = 1;
    /// Optional root mask: when set, only root positions for which this
    /// returns true exist — the paper's "the initial block configuration
    /// need not be Cartesian" generalization (L-shaped domains, cavities).
    /// Faces toward missing roots behave as domain boundaries. Periodic
    /// wrap combined with a mask wraps onto whatever the mask kept.
    std::function<bool(IVec<D>)> root_active;
  };

  /// Classification of what lies across a face.
  enum class NeighborKind : std::uint8_t { Boundary, Same, Coarser, Finer };

  /// Explicit per-face neighbor record. For `Finer`, ids[0..kFaceChildren)
  /// list the finer blocks sharing the face in lexicographic order of their
  /// tangential coordinates; otherwise only ids[0] is meaningful.
  struct FaceNeighbor {
    NeighborKind kind = NeighborKind::Boundary;
    std::array<int, kFaceChildren> ids{};
    int count() const {
      switch (kind) {
        case NeighborKind::Boundary: return 0;
        case NeighborKind::Finer: return kFaceChildren;
        default: return 1;
      }
    }
  };

  struct RefineEvent {
    int parent;
    std::array<int, kNumChildren> children;
  };
  struct CoarsenEvent {
    int parent;
    std::array<int, kNumChildren> children;
  };

  explicit Forest(const Config& cfg);

  const Config& config() const { return cfg_; }

  // --- Topology queries -----------------------------------------------

  int num_nodes() const { return live_nodes_; }
  int num_leaves() const { return num_leaves_; }
  /// Upper bound (exclusive) on node ids currently in use; ids below this
  /// may be dead (freed) — check is_live().
  int node_capacity() const { return static_cast<int>(nodes_.size()); }

  bool is_live(int id) const { return valid_id(id) && nodes_[id].live; }
  bool is_leaf(int id) const {
    AB_ASSERT(is_live(id));
    return nodes_[id].leaf;
  }
  int level(int id) const {
    AB_ASSERT(is_live(id));
    return nodes_[id].level;
  }
  IVec<D> coords(int id) const {
    AB_ASSERT(is_live(id));
    return nodes_[id].coords;
  }
  int parent(int id) const {
    AB_ASSERT(is_live(id));
    return nodes_[id].parent;
  }
  /// Which child of its parent this node is (bit d set = high half in dim
  /// d); 0 for root blocks.
  int child_index(int id) const {
    AB_ASSERT(is_live(id));
    return nodes_[id].child_index;
  }
  const std::array<int, kNumChildren>& children(int id) const {
    AB_ASSERT(is_live(id) && !nodes_[id].leaf);
    return nodes_[id].children;
  }

  /// Node id at (level, coords), or -1 if no such node exists.
  int find(int level, IVec<D> coords) const;

  /// Deepest leaf whose region contains the given level/coords location
  /// (coords interpreted at `level`). Returns -1 outside the domain.
  int find_enclosing_leaf(int level, IVec<D> coords) const;

  // --- Refinement / coarsening ----------------------------------------

  /// Refine leaf `id` into 2^D children, first refining any neighbors as
  /// needed to maintain the level-difference constraint (cascade). Events
  /// are returned in the order performed (cascaded refinements first), so a
  /// caller holding per-block data can transfer parent data to children in
  /// order. Records the touched nodes (see changes_since()).
  std::vector<RefineEvent> refine(int id);

  /// True if the children of node `parent_id` (all must be leaves) can be
  /// merged without violating the level-difference constraint.
  bool can_coarsen(int parent_id) const;

  /// Merge the children of `parent_id` back into it. Requires
  /// can_coarsen(parent_id). The returned event lists the destroyed child
  /// ids (data must be restricted *before* calling this, or via the event
  /// and a caller-side copy). Records the touched nodes.
  CoarsenEvent coarsen(int parent_id);

  // --- Change tracking --------------------------------------------------
  //
  // Every refine/coarsen appends the ids of the nodes it touched (parent
  // and children) to a change log. The leaf order, the neighbor table and
  // external consumers (the ghost exchanger) each keep a position in it and
  // update only what the touched nodes can change, so a regrid that
  // changes a handful of blocks costs in proportion to those blocks.

  /// A consumer's position in the change log. A default-constructed cursor
  /// predates every history.
  struct ChangeCursor {
    std::uint64_t epoch = 0;
    std::size_t pos = 0;
  };

  /// Append to `out` the ids of the nodes refine()/coarsen() touched since
  /// `cursor` (each event's parent and children, in event order; ids may
  /// repeat) and advance `cursor` to now. Returns false, leaving `out` as
  /// it was, when `cursor` predates the current history — a new consumer,
  /// a forest constructed, copied, assigned or touch_all()ed since, or a
  /// consumer so far behind that the log dropped what it had not read (the
  /// log keeps what the leaf order and neighbor table have not read, and
  /// at most about one entry per node beyond that): then every node
  /// counts as touched.
  bool changes_since(ChangeCursor& cursor, std::vector<int>& out) const;

  /// Start a new history in which every node counts as touched: the next
  /// leaves(), rebuild_neighbor_table() and changes_since() recompute from
  /// scratch.
  void touch_all();

  // --- Neighbors --------------------------------------------------------

  /// Compute the neighbor record across face (dim, side) of leaf `id` by
  /// coordinate lookup. Requires max_level_diff == 1 for the fixed-size
  /// record; use face_neighbor_leaves() for the generalized structure.
  FaceNeighbor face_neighbor(int id, int dim, int side) const;

  /// All leaves adjacent to leaf `id` across face (dim, side), at any level
  /// difference (supports max_level_diff > 1). Empty at a domain boundary.
  std::vector<int> face_neighbor_leaves(int id, int dim, int side) const;

  /// Bring the explicit neighbor table up to date: recomputes the records
  /// of the leaves touched since the last rebuild and of their face
  /// neighbors (every leaf after construction or touch_all()).
  void rebuild_neighbor_table();
  bool neighbor_table_valid() const { return log_.table_at == log_.end(); }

  /// Fast table lookup of the neighbor record (the paper's explicit
  /// pointer). The table must be valid.
  const FaceNeighbor& neighbor(int id, int dim, int side) const {
    AB_ASSERT(neighbor_table_valid() && is_leaf(id));
    return neighbor_table_[id][2 * dim + side];
  }

  // --- Leaf iteration ---------------------------------------------------

  /// Leaf ids ordered along the global Morton curve (parents would sort
  /// just before their descendants; ties on the key break by level).
  /// Updated lazily after topology changes: touched nodes leave the order
  /// and the ones that are leaves now are merged back at their positions.
  const std::vector<int>& leaves() const {
    if (log_.leaves_at != log_.end()) sync_leaves();
    return leaves_;
  }

  // --- Geometry ---------------------------------------------------------

  /// Physical size of one block at `level`.
  RVec<D> block_size(int level) const {
    RVec<D> s;
    for (int d = 0; d < D; ++d)
      s[d] = (cfg_.domain_hi[d] - cfg_.domain_lo[d]) /
             (static_cast<double>(cfg_.root_blocks[d]) * (1 << level));
    return s;
  }
  /// Low corner of block `id` in physical space.
  RVec<D> block_lo(int id) const {
    RVec<D> s = block_size(level(id));
    RVec<D> r;
    IVec<D> c = coords(id);
    for (int d = 0; d < D; ++d) r[d] = cfg_.domain_lo[d] + c[d] * s[d];
    return r;
  }
  RVec<D> block_hi(int id) const {
    RVec<D> s = block_size(level(id));
    RVec<D> lo = block_lo(id);
    for (int d = 0; d < D; ++d) lo[d] += s[d];
    return lo;
  }

  /// Number of blocks per dimension at `level`.
  IVec<D> level_extent(int level) const {
    return cfg_.root_blocks.shifted_left(level);
  }

  /// Global cell-index box of block `id` at its own level, given the
  /// per-block interior cell counts `m`.
  Box<D> block_cell_box(int id, IVec<D> m) const {
    IVec<D> lo;
    IVec<D> c = coords(id);
    for (int d = 0; d < D; ++d) lo[d] = c[d] * m[d];
    return Box<D>(lo, lo + m);
  }

  /// Wrap coordinates at `level` into the domain for periodic dimensions.
  /// Returns false if the (wrapped) coordinates are outside the domain.
  bool wrap_coords(int level, IVec<D>& c) const;

  /// Bytes the topology uses (nodes + hash index + neighbor table),
  /// amortized over entire blocks of cells — the paper's "adaptive blocks
  /// amortize the costs of neighbor pointers (both time and space) over
  /// entire arrays".
  std::size_t topology_bytes() const {
    return nodes_.capacity() * sizeof(Node) +
           index_.size() * (sizeof(std::uint64_t) + sizeof(int) +
                            2 * sizeof(void*)) +
           neighbor_table_.capacity() * sizeof(neighbor_table_[0]);
  }

  /// Total refinement statistics.
  struct Stats {
    int leaves = 0;
    int interior_nodes = 0;
    int min_level = 0;
    int max_level = 0;
    std::vector<int> leaves_per_level;
  };
  Stats stats() const;

 private:
  struct Node {
    int parent = -1;
    std::array<int, kNumChildren> children{};
    IVec<D> coords{};
    std::int16_t level = 0;
    std::int8_t child_index = 0;
    bool leaf = true;
    bool live = true;
  };

  bool valid_id(int id) const {
    return id >= 0 && id < static_cast<int>(nodes_.size());
  }

  static std::uint64_t key(int level, IVec<D> c) {
    std::uint64_t k = static_cast<std::uint64_t>(level);
    for (int d = 0; d < D; ++d)
      k = (k << 20) | static_cast<std::uint64_t>(static_cast<std::uint32_t>(c[d]) & 0xfffffu);
    return k;
  }

  int allocate_node();
  void free_node(int id);
  /// Refine `id` without constraint enforcement; id must be a leaf.
  RefineEvent refine_raw(int id);
  /// Leaves adjacent across (dim,side) that are *coarser than* `min_level`,
  /// i.e. would violate the constraint if `id` reached level
  /// `min_level + max_level_diff`.
  void collect_constraint_violators(int id, int required_min_level,
                                    std::vector<int>& out) const;
  /// Log a touched node; trims what the internal consumers have read once
  /// the log outgrows the forest.
  void touch(int id);
  /// The nodes touched since log position `at` (every node id when `at`
  /// is ChangeLog::kStale), into touched_.
  void collect_touched(std::size_t at) const;
  void sync_leaves() const;
  std::array<FaceNeighbor, kNumFaces> neighbor_record(int id) const;

  // The change log. Positions are absolute (entry `base` is nodes[0]); a
  // position equal to kStale means "recompute everything". A copy or
  // assignment starts a new epoch with an empty log, so every external
  // consumer of the destination forest rebuilds in full; the internal
  // consumers stay current if they were current in the source.
  struct ChangeLog {
    static constexpr std::size_t kStale = ~std::size_t{0};
    std::uint64_t epoch = next_forest_epoch();
    std::size_t base = 0;
    std::vector<int> nodes;
    mutable std::size_t leaves_at = kStale;  // position leaves_ reflects
    std::size_t table_at = kStale;   // position the neighbor table reflects

    ChangeLog() = default;
    ChangeLog(const ChangeLog& o)
        : leaves_at(o.carried(o.leaves_at)), table_at(o.carried(o.table_at)) {}
    ChangeLog& operator=(const ChangeLog& o) {
      const std::size_t l = o.carried(o.leaves_at);
      const std::size_t t = o.carried(o.table_at);
      restart();
      leaves_at = l;
      table_at = t;
      return *this;
    }
    std::size_t end() const { return base + nodes.size(); }
    /// A new epoch with an empty log; up-to-date positions stay current.
    void restart() {
      leaves_at = carried(leaves_at);
      table_at = carried(table_at);
      epoch = next_forest_epoch();
      base = 0;
      nodes.clear();
    }
    std::size_t carried(std::size_t at) const {
      return at == end() ? 0 : kStale;
    }
  };
  Config cfg_;
  std::vector<Node> nodes_;
  std::vector<int> free_list_;
  std::unordered_map<std::uint64_t, int> index_;
  int live_nodes_ = 0;
  int num_leaves_ = 0;

  std::vector<std::array<FaceNeighbor, kNumFaces>> neighbor_table_;

  ChangeLog log_;
  mutable std::vector<int> leaves_;
  // Scratch for the incremental updates: the touched ids of one update,
  // and a per-node mark that is all zero between updates.
  mutable std::vector<int> touched_;
  mutable std::vector<char> mark_;
};

extern template class Forest<1>;
extern template class Forest<2>;
extern template class Forest<3>;

}  // namespace ab
