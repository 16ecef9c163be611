// Reference refine/coarsen data transfer: the per-cell forms of
// prolong_to_children / restrict_to_parent (src/core/regrid_data.hpp),
// retained as the correctness oracle for the row versions, which run the
// ghost executor's rows. Every value goes through prolong_value /
// restrict_value, one cell at a time. Do not optimize this file; its value
// is being the unchanged per-cell semantics.
#pragma once

#include <array>
#include <utility>

#include "core/block_store.hpp"
#include "core/forest.hpp"
#include "core/prolong.hpp"

namespace ab {

/// Per-cell prolong_to_children: fill each child's interior from the
/// parent's interior (slopes limited to the parent interior). Unlike the
/// library form it neither allocates the children nor releases the parent.
template <int D>
void prolong_to_children_reference(
    BlockStore<D>& store, int parent,
    const std::array<int, (1 << D)>& children, Prolongation kind) {
  const BlockLayout<D>& lay = store.layout();
  const IVec<D> m = lay.interior;
  const Box<D> valid = lay.interior_box();
  ConstBlockView<D> p = std::as_const(store).view(parent);
  for (int ci = 0; ci < (1 << D); ++ci) {
    BlockView<D> cview = store.view(children[ci]);
    IVec<D> off;  // child origin within the parent, in fine cells
    for (int d = 0; d < D; ++d) off[d] = ((ci >> d) & 1) * m[d];
    for (int v = 0; v < lay.nvar; ++v) {
      for_each_cell<D>(valid, [&](IVec<D> q) {
        IVec<D> gf = q + off;  // fine index within the parent region
        IVec<D> cc, parity;
        for (int d = 0; d < D; ++d) {
          cc[d] = gf[d] >> 1;
          parity[d] = gf[d] & 1;
        }
        cview.at(v, q) = prolong_value<D>(p, v, cc, parity, valid, kind);
      });
    }
  }
}

/// Per-cell restrict_to_parent: the parent's interior as the conservative
/// average of its children's. Neither allocates nor releases.
template <int D>
void restrict_to_parent_reference(BlockStore<D>& store, int parent_id,
                                  const std::array<int, (1 << D)>& children) {
  const BlockLayout<D>& lay = store.layout();
  const IVec<D> m = lay.interior;
  BlockView<D> pview = store.view(parent_id);
  for (int ci = 0; ci < (1 << D); ++ci) {
    ConstBlockView<D> cview = std::as_const(store).view(children[ci]);
    // This child owns the parent sub-box [o*m/2, (o+1)*m/2).
    Box<D> sub;
    for (int d = 0; d < D; ++d) {
      int o = (ci >> d) & 1;
      sub.lo[d] = o * (m[d] / 2);
      sub.hi[d] = (o + 1) * (m[d] / 2);
    }
    for (int v = 0; v < lay.nvar; ++v) {
      for_each_cell<D>(sub, [&](IVec<D> p) {
        IVec<D> corner;
        for (int d = 0; d < D; ++d)
          corner[d] = 2 * p[d] - ((ci >> d) & 1) * m[d];
        pview.at(v, p) = restrict_value<D>(cview, v, corner);
      });
    }
  }
}

}  // namespace ab
