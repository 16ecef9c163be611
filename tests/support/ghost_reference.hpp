// Reference ghost-op evaluation: the seed per-cell executor, retained as
// the correctness oracle for the batched row executor in src/core/ghost.cpp
// (GhostExchanger::fill/apply, pack_op and unpack_op). It is test support,
// not library code: the ghost suites assert that the production rows write
// bitwise-identical ghost cells and message payloads.
//
// This walks dst_box one cell at a time through for_each_cell and
// evaluates every value with restrict_value/prolong_value — exactly the
// structure the row executor replaces. Do not optimize this file; its value
// is being the unchanged seed semantics.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/block_store.hpp"
#include "core/ghost.hpp"
#include "core/prolong.hpp"
#include "util/box.hpp"

namespace ab {

/// Evaluate one op from the source data, emitting (var, cell, value) in a
/// deterministic order (vars outer, dst_box cells inner, for_each_cell
/// order) — the order of a packed ghost message.
template <int D, class Emit>
void ghost_op_reference(const BlockLayout<D>& layout,
                        Prolongation prolongation,
                        const ConstBlockView<D>& src, const GhostOp<D>& op,
                        Emit&& emit) {
  const int nvar = layout.nvar;
  switch (op.kind) {
    case GhostOpKind::SameCopy:
      for (int v = 0; v < nvar; ++v)
        for_each_cell<D>(op.dst_box, [&](IVec<D> q) {
          emit(v, q, src.at(v, q + op.a));
        });
      break;
    case GhostOpKind::Restrict:
      for (int v = 0; v < nvar; ++v)
        for_each_cell<D>(op.dst_box, [&](IVec<D> q) {
          emit(v, q, restrict_value<D>(src, v, q.shifted_left(1) + op.a));
        });
      break;
    case GhostOpKind::Prolong:
      for (int v = 0; v < nvar; ++v)
        for_each_cell<D>(op.dst_box, [&](IVec<D> q) {
          IVec<D> gf = q + op.a;  // global fine index (unwrapped)
          IVec<D> cc, parity;
          for (int d = 0; d < D; ++d) {
            cc[d] = (gf[d] >> 1) - op.b[d];
            parity[d] = gf[d] & 1;
          }
          emit(v, q,
               prolong_value<D>(src, v, cc, parity, op.valid, prolongation));
        });
      break;
  }
}

/// Apply one op of `gx`'s plan cell by cell (the seed apply path).
template <int D>
void apply_ghost_reference(const GhostExchanger<D>& gx, BlockStore<D>& store,
                           const GhostOp<D>& op) {
  BlockView<D> dst = store.view(op.dst);
  ghost_op_reference<D>(
      gx.layout(), gx.prolongation(), std::as_const(store).view(op.src), op,
      [&](int v, IVec<D> q, double val) { dst.at(v, q) = val; });
}

/// The payload the seed pack path emitted for one op
/// (op_payload_doubles entries).
template <int D>
std::vector<double> pack_ghost_reference(const GhostExchanger<D>& gx,
                                         const BlockStore<D>& store,
                                         const GhostOp<D>& op) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(gx.op_payload_doubles(op)));
  ghost_op_reference<D>(gx.layout(), gx.prolongation(), store.view(op.src),
                        op, [&](int, IVec<D>, double val) {
                          out.push_back(val);
                        });
  return out;
}

/// Reference fill: every op cell by cell, in the two-phase order
/// (non-Prolong ops first, then Prolong, each in plan order).
template <int D>
void fill_ghost_reference(const GhostExchanger<D>& gx, BlockStore<D>& store) {
  for (const auto& op : gx.ops())
    if (op.kind != GhostOpKind::Prolong) apply_ghost_reference(gx, store, op);
  for (const auto& op : gx.ops())
    if (op.kind == GhostOpKind::Prolong) apply_ghost_reference(gx, store, op);
}

}  // namespace ab
