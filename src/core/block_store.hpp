// Per-block field storage: the regular m1 x ... x md cell arrays (plus ghost
// rings) that give adaptive blocks their loop/cache performance advantage
// over cell-based trees.
//
// Storage is structure-of-arrays within a block: `nvar` contiguous scalar
// fields, each a (m+2g)^d array with dimension 0 fastest (stride 1), 64-byte
// aligned. An optional `pad0` appends unused cells along dimension 0 — the
// paper notes the Figure 5 cache peak at 12^3 "can be removed by padding the
// array with an additional surface of cells"; pad0 reproduces that ablation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/block_pool.hpp"
#include "util/box.hpp"
#include "util/error.hpp"
#include "util/vec.hpp"

namespace ab {

/// Describes the shape of every block's field array. All blocks in a store
/// share one layout (the paper fixes m per run; 16^3 on the T3D).
template <int D>
struct BlockLayout {
  IVec<D> interior{};  ///< cells per block per dimension (m1..md)
  int ghost = 0;       ///< ghost layers on each side (g)
  int nvar = 1;        ///< number of field variables
  int pad0 = 0;        ///< extra (unused) cells appended along dimension 0

  BlockLayout() = default;
  BlockLayout(IVec<D> m, int g, int nv, int pad = 0)
      : interior(m), ghost(g), nvar(nv), pad0(pad) {
    AB_REQUIRE(g >= 0 && nv >= 1 && pad >= 0, "BlockLayout: bad parameters");
    for (int d = 0; d < D; ++d)
      AB_REQUIRE(m[d] >= 1, "BlockLayout: interior extent must be >= 1");
    // Ghost slabs restrict/prolong against the neighbor's interior; ghosts
    // wider than the interior would reach past it.
    AB_REQUIRE(g <= interior.min_element(),
               "BlockLayout: ghost width exceeds interior extent");
  }

  /// Allocated extent per dimension (interior + ghosts + padding).
  IVec<D> alloc_extent() const {
    IVec<D> e = interior + IVec<D>(2 * ghost);
    e[0] += pad0;
    return e;
  }
  /// Stride (in doubles) between consecutive cells along dimension d.
  std::int64_t stride(int d) const {
    std::int64_t s = 1;
    IVec<D> e = alloc_extent();
    for (int k = 0; k < d; ++k) s *= e[k];
    return s;
  }
  /// Doubles per scalar field.
  std::int64_t field_stride() const { return alloc_extent().product(); }
  /// Doubles per block (all fields).
  std::int64_t block_doubles() const { return field_stride() * nvar; }
  std::int64_t interior_cells() const { return interior.product(); }

  /// Linear offset of local cell p (interior coordinates; ghosts are
  /// negative / >= m) within one scalar field.
  std::int64_t offset(IVec<D> p) const {
    IVec<D> e = alloc_extent();
    std::int64_t off = 0, s = 1;
    for (int d = 0; d < D; ++d) {
      AB_ASSERT(p[d] + ghost >= 0 && p[d] + ghost < e[d]);
      off += (p[d] + ghost) * s;
      s *= e[d];
    }
    return off;
  }

  /// Local cell box of the interior: [0, m).
  Box<D> interior_box() const { return Box<D>::from_extent(interior); }
  /// Local cell box including ghosts: [-g, m+g).
  Box<D> ghosted_box() const { return interior_box().grown(ghost); }

  friend bool operator==(const BlockLayout& a, const BlockLayout& b) {
    return a.interior == b.interior && a.ghost == b.ghost &&
           a.nvar == b.nvar && a.pad0 == b.pad0;
  }

  /// Human/report shorthand: "8x8x8", "12x12x12+pad1", ...
  std::string describe() const {
    std::string s;
    for (int d = 0; d < D; ++d) {
      if (d > 0) s += "x";
      s += std::to_string(interior[d]);
    }
    if (pad0 > 0) s += "+pad" + std::to_string(pad0);
    return s;
  }
};

/// Layout shorthand including the solver's sub-blocked tiling edge:
/// "32x32x32/sub16" means 32^3 blocks swept as 16^3 tiles.
template <int D>
std::string layout_string(const BlockLayout<D>& lay, int sub_block = 0) {
  std::string s = lay.describe();
  if (sub_block > 0) s += "/sub" + std::to_string(sub_block);
  return s;
}

/// Mutable view of one block's fields: base pointer + layout. Cheap to copy;
/// does not own.
template <int D>
struct BlockView {
  double* base = nullptr;
  const BlockLayout<D>* layout = nullptr;

  double& at(int var, IVec<D> p) const {
    return base[var * layout->field_stride() + layout->offset(p)];
  }
  /// Pointer to the start of one scalar field (cell (-g,...,-g)).
  double* field(int var) const { return base + var * layout->field_stride(); }
  explicit operator bool() const { return base != nullptr; }
};

/// Read-only view.
template <int D>
struct ConstBlockView {
  const double* base = nullptr;
  const BlockLayout<D>* layout = nullptr;

  ConstBlockView() = default;
  ConstBlockView(const BlockView<D>& v) : base(v.base), layout(v.layout) {}
  ConstBlockView(const double* b, const BlockLayout<D>* l)
      : base(b), layout(l) {}

  double at(int var, IVec<D> p) const {
    return base[var * layout->field_stride() + layout->offset(p)];
  }
  const double* field(int var) const {
    return base + var * layout->field_stride();
  }
  explicit operator bool() const { return base != nullptr; }
};

/// Field storage for all active blocks, indexed by forest node id. Only
/// leaves carry data; slots follow node-id reuse in the forest.
///
/// Blocks are slabs acquired from a BlockPool arena sized to this layout,
/// so regrid churn recycles slabs instead of round-tripping through the
/// allocator. Stores that swap blocks (or whole stores) with each other
/// must share one pool; a store built from a layout alone owns a private
/// pool. Slabs are zero-filled on ensure() and keep their addresses for
/// the block's lifetime.
template <int D>
class BlockStore {
 public:
  /// A store over its own private pool.
  explicit BlockStore(BlockLayout<D> layout)
      : BlockStore(layout,
                   std::make_shared<BlockPool>(layout.block_doubles())) {}

  /// A store over a shared pool. The pool's slab size must match this
  /// layout exactly — a pool is per-layout, shared by the store pairs the
  /// steppers swap.
  BlockStore(BlockLayout<D> layout, std::shared_ptr<BlockPool> pool)
      : layout_(layout), pool_(std::move(pool)) {
    AB_REQUIRE(pool_ != nullptr, "BlockStore: null pool");
    AB_REQUIRE(pool_->slab_doubles() == layout_.block_doubles(),
               "BlockStore: pool slab size does not match layout");
  }

  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;
  BlockStore(BlockStore&& o) noexcept
      : layout_(o.layout_),
        pool_(std::move(o.pool_)),
        handles_(std::move(o.handles_)),
        ptrs_(std::move(o.ptrs_)),
        num_allocated_(std::exchange(o.num_allocated_, 0)) {}
  BlockStore& operator=(BlockStore&& o) noexcept {
    if (this != &o) {
      release_all();
      layout_ = o.layout_;
      pool_ = std::move(o.pool_);
      handles_ = std::move(o.handles_);
      ptrs_ = std::move(o.ptrs_);
      num_allocated_ = std::exchange(o.num_allocated_, 0);
    }
    return *this;
  }
  ~BlockStore() { release_all(); }

  const BlockLayout<D>& layout() const { return layout_; }

  /// Allocate (zero-filled) data for block `id` if not already present.
  void ensure(int id) {
    AB_REQUIRE(id >= 0, "BlockStore: bad id");
    if (id >= static_cast<int>(handles_.size())) {
      handles_.resize(static_cast<std::size_t>(id) + 1);
      ptrs_.resize(static_cast<std::size_t>(id) + 1, nullptr);
    }
    if (!handles_[static_cast<std::size_t>(id)].valid()) {
      handles_[static_cast<std::size_t>(id)] = pool_->acquire();
      ptrs_[static_cast<std::size_t>(id)] =
          pool_->data(handles_[static_cast<std::size_t>(id)]);
      ++num_allocated_;
    }
  }

  /// Return the slab of block `id` to the arena for reuse (no-op if
  /// absent).
  void release(int id) {
    if (has(id)) {
      pool_->release(handles_[static_cast<std::size_t>(id)]);
      handles_[static_cast<std::size_t>(id)] = BlockPool::Handle{};
      ptrs_[static_cast<std::size_t>(id)] = nullptr;
      --num_allocated_;
    }
  }

  bool has(int id) const {
    return id >= 0 && id < static_cast<int>(handles_.size()) &&
           handles_[static_cast<std::size_t>(id)].valid();
  }

  BlockView<D> view(int id) {
    AB_ASSERT(has(id));
    return BlockView<D>{ptrs_[static_cast<std::size_t>(id)], &layout_};
  }
  ConstBlockView<D> view(int id) const {
    AB_ASSERT(has(id));
    return ConstBlockView<D>{ptrs_[static_cast<std::size_t>(id)], &layout_};
  }

  /// Swap one block's slab with the same block in another store of the
  /// same layout (O(1); used by steppers to retire a block's old state).
  /// The stores must share one pool, so either store can later release
  /// the swapped-in slab to the arena that owns it.
  void swap_block(BlockStore& other, int id) {
    AB_REQUIRE(layout_ == other.layout_, "swap_block: layout mismatch");
    AB_REQUIRE(pool_.get() == other.pool_.get(),
               "swap_block: stores do not share a pool");
    AB_REQUIRE(has(id) && other.has(id), "swap_block: missing data");
    std::swap(handles_[static_cast<std::size_t>(id)],
              other.handles_[static_cast<std::size_t>(id)]);
    std::swap(ptrs_[static_cast<std::size_t>(id)],
              other.ptrs_[static_cast<std::size_t>(id)]);
  }

  /// Number of allocated blocks. O(1): maintained by ensure/release (the
  /// step reports read these on the hot path).
  int num_allocated() const { return num_allocated_; }
  /// Total allocated doubles across blocks. O(1); every allocated block
  /// holds exactly layout().block_doubles().
  std::int64_t total_doubles() const {
    return static_cast<std::int64_t>(num_allocated_) *
           layout_.block_doubles();
  }

 private:
  /// Return every slab to the arena. Called by the destructor and
  /// move-assignment (a moved-from store holds no handles).
  void release_all() {
    for (auto& h : handles_) {
      if (h.valid()) pool_->release(h);
      h = BlockPool::Handle{};
    }
    num_allocated_ = 0;
  }

  BlockLayout<D> layout_;
  std::shared_ptr<BlockPool> pool_;
  std::vector<BlockPool::Handle> handles_; // by block id
  std::vector<double*> ptrs_;              // cached slab addresses, by id
  int num_allocated_ = 0;
};

}  // namespace ab
