// Data transfer for refinement and coarsening events.
//
// When a block is refined, each child's interior is prolonged from the
// parent's interior; when 2^D siblings are coarsened, the parent's interior
// is the conservative restriction of theirs. Both operate on interiors only
// (ghosts are refilled by the exchanger afterwards), and both run as ghost
// ops through the ghost executor's rows — the same arithmetic as
// prolong_value/restrict_value, value for value (the per-cell forms are the
// oracle in tests/support/regrid_reference.hpp).
#pragma once

#include <array>
#include <utility>

#include "core/block_store.hpp"
#include "core/forest.hpp"
#include "core/ghost.hpp"
#include "core/prolong.hpp"

namespace ab {

/// Allocate the children of a refine event, fill their interiors from the
/// parent, and release the parent's data. Requires even interior extents.
template <int D>
void prolong_to_children(BlockStore<D>& store,
                         const typename Forest<D>::RefineEvent& ev,
                         Prolongation kind) {
  const BlockLayout<D>& lay = store.layout();
  const IVec<D> m = lay.interior;
  for (int d = 0; d < D; ++d)
    AB_REQUIRE(m[d] % 2 == 0,
               "prolong_to_children: interior extents must be even");
  AB_REQUIRE(store.has(ev.parent), "prolong_to_children: parent has no data");
  // Child ci's interior is a Prolong op from the parent (b = 0): coarse
  // cell (q + off) >> 1 for the child's origin `off` within the parent,
  // slopes limited to the parent interior.
  GhostOp<D> op{};
  op.kind = GhostOpKind::Prolong;
  op.dst_box = lay.interior_box();
  op.valid = lay.interior_box();
  const double* const parent = std::as_const(store).view(ev.parent).base;
  for (int ci = 0; ci < Forest<D>::kNumChildren; ++ci) {
    const int child = ev.children[ci];
    store.ensure(child);
    for (int d = 0; d < D; ++d) op.a[d] = ((ci >> d) & 1) * m[d];
    run_ghost_op<D>(lay, kind, parent, op, store.view(child).base);
  }
  store.release(ev.parent);
}

/// Fill the parent's interior from its children (conservative average), then
/// release the children's data. Call *before* Forest::coarsen destroys the
/// child nodes, using the child ids from Forest::children(parent).
template <int D>
void restrict_to_parent(BlockStore<D>& store, int parent_id,
                        const std::array<int, (1 << D)>& children) {
  const BlockLayout<D>& lay = store.layout();
  const IVec<D> m = lay.interior;
  for (int d = 0; d < D; ++d)
    AB_REQUIRE(m[d] % 2 == 0,
               "restrict_to_parent: interior extents must be even");
  store.ensure(parent_id);
  double* const parent = store.view(parent_id).base;
  for (int ci = 0; ci < (1 << D); ++ci) {
    AB_REQUIRE(store.has(children[ci]),
               "restrict_to_parent: child has no data");
    // This child owns the parent sub-box [o*m/2, (o+1)*m/2): a Restrict op
    // whose fine corner is 2*p - o*m.
    GhostOp<D> op{};
    op.kind = GhostOpKind::Restrict;
    for (int d = 0; d < D; ++d) {
      const int o = (ci >> d) & 1;
      op.dst_box.lo[d] = o * (m[d] / 2);
      op.dst_box.hi[d] = (o + 1) * (m[d] / 2);
      op.a[d] = -o * m[d];
    }
    run_ghost_op<D>(lay, Prolongation::Constant,
                    std::as_const(store).view(children[ci]).base, op, parent);
  }
  for (int ci = 0; ci < (1 << D); ++ci) store.release(children[ci]);
}

}  // namespace ab
